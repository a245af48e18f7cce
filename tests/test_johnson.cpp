/**
 * @file
 * Golden Johnson-counter model tests: encoding, decoding, the k-ary
 * shift rules of Alg. 1, and the MSB-based overflow predicates --
 * exhaustively over the paper's radix range (2..20, i.e. n = 1..10).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "jc/johnson.hpp"

using namespace c2m;

TEST(Johnson, PaperExampleStates)
{
    // Sec. 2.4: 5-bit JC (LSB first): 1 -> 10000, 2 -> 11000,
    // 5 -> 11111, 6 -> 01111, 9 -> 00001, 0 -> 00000.
    EXPECT_EQ(jc::encode(5, 0), 0b00000u);
    EXPECT_EQ(jc::encode(5, 1), 0b00001u);
    EXPECT_EQ(jc::encode(5, 2), 0b00011u);
    EXPECT_EQ(jc::encode(5, 5), 0b11111u);
    EXPECT_EQ(jc::encode(5, 6), 0b11110u);
    EXPECT_EQ(jc::encode(5, 9), 0b10000u);
}

TEST(Johnson, PaperKaryExamples)
{
    // Sec. 4.5.1: with k = 6, 10000(1) -> 00111(7) and
    // 00111(7) -> 11100(3). Patterns are written LSB..MSB there, so
    // state(1) = bit0, state(7) = bits 2,3,4 in our packing.
    EXPECT_EQ(jc::shiftAdd(5, jc::encode(5, 1), 6), jc::encode(5, 7));
    EXPECT_EQ(jc::shiftAdd(5, jc::encode(5, 7), 6), jc::encode(5, 3));
}

TEST(Johnson, BitsForRadix)
{
    EXPECT_EQ(jc::bitsForRadix(2), 1u);
    EXPECT_EQ(jc::bitsForRadix(10), 5u);
    EXPECT_EQ(jc::bitsForRadix(20), 10u);
}

TEST(Johnson, OddRadixThrowsToTheCaller)
{
    EXPECT_THROW(jc::bitsForRadix(5), std::invalid_argument);
    EXPECT_THROW(jc::bitsForRadix(0), std::invalid_argument);
    try {
        jc::bitsForRadix(5);
    } catch (const std::invalid_argument &e) {
        // The message names the value and the raising site.
        const std::string what = e.what();
        EXPECT_NE(what.find("got 5"), std::string::npos) << what;
        EXPECT_NE(what.find("johnson.cpp:"), std::string::npos) << what;
    }
}

TEST(Johnson, InvalidStateDecodesToMinusOne)
{
    // 10100 pattern (bits 0 and 2) is not a Johnson state for n=5.
    EXPECT_EQ(jc::decode(5, 0b00101), -1);
    EXPECT_TRUE(jc::isValidState(5, jc::encode(5, 4)));
    EXPECT_FALSE(jc::isValidState(5, 0b00101));
}

TEST(Johnson, DecodeNearestPrefersCloseState)
{
    // One bit flipped from encode(5,3)=00111 should decode near 3.
    const uint64_t faulty = jc::encode(5, 3) ^ 0b00100;
    const unsigned v = jc::decodeNearest(5, faulty);
    // The nearest valid states are 2 (00011) and 4 (01111), both at
    // distance 1; 3 itself is at distance 1 too.
    EXPECT_TRUE(v == 2 || v == 3 || v == 4);
}

class JohnsonWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(JohnsonWidth, EncodeDecodeRoundTrip)
{
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        const uint64_t bits = jc::encode(n, v);
        EXPECT_EQ(jc::decode(n, bits), static_cast<int>(v))
            << "n=" << n << " v=" << v;
        EXPECT_TRUE(jc::isValidState(n, bits));
    }
}

TEST_P(JohnsonWidth, ExactlyTwoNValidStates)
{
    const unsigned n = GetParam();
    if (n > 16)
        GTEST_SKIP() << "exhaustive scan too wide";
    unsigned valid = 0;
    for (uint64_t bits = 0; bits < (1ULL << n); ++bits)
        if (jc::isValidState(n, bits))
            ++valid;
    EXPECT_EQ(valid, 2 * n);
}

TEST_P(JohnsonWidth, ShiftAddMatchesArithmetic)
{
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        for (unsigned k = 1; k < 2 * n; ++k) {
            const uint64_t got = jc::shiftAdd(n, jc::encode(n, v), k);
            const uint64_t want = jc::encode(n, jc::add(n, v, k));
            EXPECT_EQ(got, want)
                << "n=" << n << " v=" << v << " k=" << k;
        }
    }
}

TEST_P(JohnsonWidth, ShiftSubInvertsShiftAdd)
{
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        for (unsigned k = 1; k < 2 * n; ++k) {
            const uint64_t bits = jc::encode(n, v);
            EXPECT_EQ(jc::shiftSub(n, jc::shiftAdd(n, bits, k), k),
                      bits)
                << "n=" << n << " v=" << v << " k=" << k;
        }
    }
}

TEST_P(JohnsonWidth, UnitIncrementIsSingleBitTransition)
{
    // The defining JC property: consecutive states differ in one bit.
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        const uint64_t a = jc::encode(n, v);
        const uint64_t b = jc::encode(n, jc::add(n, v, 1));
        EXPECT_EQ(__builtin_popcountll(a ^ b), 1)
            << "n=" << n << " v=" << v;
    }
}

TEST_P(JohnsonWidth, AddingNFlipsAllBits)
{
    const unsigned n = GetParam();
    const uint64_t mask = (n == 64) ? ~0ULL : (1ULL << n) - 1;
    for (unsigned v = 0; v < 2 * n; ++v) {
        const uint64_t a = jc::encode(n, v);
        const uint64_t b = jc::encode(n, jc::add(n, v, n));
        EXPECT_EQ(a ^ b, mask) << "n=" << n << " v=" << v;
    }
}

TEST_P(JohnsonWidth, WrapPredicateMatchesArithmetic)
{
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        for (unsigned k = 1; k < 2 * n; ++k) {
            const bool msb_old = (jc::encode(n, v) >> (n - 1)) & 1;
            const bool msb_new =
                (jc::encode(n, jc::add(n, v, k)) >> (n - 1)) & 1;
            EXPECT_EQ(jc::wrapFromMsb(n, k, msb_old, msb_new),
                      jc::wraps(n, v, k))
                << "n=" << n << " v=" << v << " k=" << k;
        }
    }
}

TEST_P(JohnsonWidth, BorrowPredicateMatchesArithmetic)
{
    const unsigned n = GetParam();
    for (unsigned v = 0; v < 2 * n; ++v) {
        for (unsigned k = 1; k < 2 * n; ++k) {
            const unsigned v_new = (v + 2 * n - k) % (2 * n);
            const bool msb_old = (jc::encode(n, v) >> (n - 1)) & 1;
            const bool msb_new =
                (jc::encode(n, v_new) >> (n - 1)) & 1;
            EXPECT_EQ(jc::borrowFromMsb(n, k, msb_old, msb_new),
                      jc::borrows(n, v, k))
                << "n=" << n << " v=" << v << " k=" << k;
        }
    }
}

TEST_P(JohnsonWidth, ShiftAddOnInvalidPatternsIsBijective)
{
    // The shift rules permute the full pattern space, so faulty
    // (invalid) patterns never collide -- no information is lost.
    // Exhaustive over all 2^n patterns: 2^16 x 11 steps at n = 16.
    const unsigned n = GetParam();
    for (unsigned k = 1; k < 2 * n; k += (n > 6 ? 3 : 1)) {
        std::vector<bool> seen(1ULL << n, false);
        for (uint64_t bits = 0; bits < (1ULL << n); ++bits) {
            const uint64_t out = jc::shiftAdd(n, bits, k);
            ASSERT_LT(out, 1ULL << n);
            EXPECT_FALSE(seen[out]) << "collision n=" << n
                                    << " k=" << k;
            seen[out] = true;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, JohnsonWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u,
                                           7u, 8u, 9u, 10u, 16u));
