/**
 * @file
 * Radix decomposition and the Fig. 19 capacity math.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "jc/digits.hpp"

using namespace c2m;

TEST(Digits, ToDigitsBase10)
{
    const auto d = jc::toDigits(4095, 10);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0], 5u);
    EXPECT_EQ(d[1], 9u);
    EXPECT_EQ(d[2], 0u);
    EXPECT_EQ(d[3], 4u);
}

TEST(Digits, ZeroHasOneDigit)
{
    const auto d = jc::toDigits(0, 4);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0], 0u);
}

TEST(Digits, RoundTripRandom)
{
    Rng rng(1);
    for (unsigned radix : {2u, 4u, 6u, 8u, 10u, 16u, 20u}) {
        for (int i = 0; i < 200; ++i) {
            const uint64_t v = rng.nextBounded(1ULL << 48);
            EXPECT_EQ(jc::fromDigits(jc::toDigits(v, radix), radix),
                      v)
                << "radix=" << radix;
        }
    }
}

TEST(Digits, DigitSumAndNonzero)
{
    EXPECT_EQ(jc::digitSum(45, 10), 9u);    // 4 + 5
    EXPECT_EQ(jc::numNonzeroDigits(45, 10), 2u);
    EXPECT_EQ(jc::numNonzeroDigits(405, 10), 2u);
    EXPECT_EQ(jc::digitSum(0, 10), 0u);
    EXPECT_EQ(jc::numNonzeroDigits(0, 10), 0u);
}

TEST(Digits, DigitsForCapacity)
{
    EXPECT_EQ(jc::digitsForCapacity(10, 100), 2u);
    EXPECT_EQ(jc::digitsForCapacity(10, 101), 3u);
    EXPECT_EQ(jc::digitsForCapacity(2, 256), 8u);
    EXPECT_EQ(jc::digitsForCapacityBits(4, 32), 16u);
    EXPECT_EQ(jc::digitsForCapacityBits(4, 64), 32u);
    EXPECT_EQ(jc::digitsForCapacityBits(16, 64), 16u);
}

TEST(Digits, Fig19PaperAnchors)
{
    // "DNA short-read filtering only requires a capacity of 100 which
    //  can be achieved with 10 bits in radix 10 counters or 7 bits in
    //  binary." (Sec. 7.3.3)
    EXPECT_EQ(jc::bitsForCapacity(10, 100), 10u);
    EXPECT_EQ(jc::binaryBitsForCapacity(100), 7u);
    // Radix-4 counters have the same density as binary for
    // power-of-4 capacities.
    EXPECT_EQ(jc::bitsForCapacity(4, 1ULL << 16), 16u);
    EXPECT_EQ(jc::binaryBitsForCapacity(1ULL << 16), 16u);
}

TEST(Digits, BinaryBitsMonotone)
{
    unsigned prev = 0;
    for (uint64_t cap = 2; cap < (1ULL << 20); cap *= 3) {
        const unsigned bits = jc::binaryBitsForCapacity(cap);
        EXPECT_GE(bits, prev);
        prev = bits;
        EXPECT_GE((__uint128_t{1} << bits), cap);
        EXPECT_LT((__uint128_t{1} << (bits - 1)), cap);
    }
}
