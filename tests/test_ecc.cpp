/**
 * @file
 * ECC substrate tests: Hamming(72,64) SEC-DED, the row codec's
 * parity lanes, XOR homomorphism (the property Sec. 6 builds on), and
 * the Tab.-1 protection model.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ecc/analysis.hpp"
#include "ecc/hamming.hpp"
#include "ecc/rowcodec.hpp"
#include "perbit_oracle.hpp"

using namespace c2m;

// ---------------------------------------------------------------------
// Hamming (72,64)
// ---------------------------------------------------------------------

TEST(Hamming, CleanRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const uint64_t d = rng.next();
        const uint8_t p = ecc::Hamming72::encode(d);
        const auto dec = ecc::Hamming72::decode(d, p);
        EXPECT_EQ(dec.result, ecc::Hamming72::Result::Clean);
        EXPECT_EQ(dec.data, d);
    }
}

TEST(Hamming, CorrectsEverySingleDataBitError)
{
    Rng rng(2);
    const uint64_t d = rng.next();
    const uint8_t p = ecc::Hamming72::encode(d);
    for (unsigned bit = 0; bit < 64; ++bit) {
        const auto dec =
            ecc::Hamming72::decode(d ^ (1ULL << bit), p);
        EXPECT_EQ(dec.result, ecc::Hamming72::Result::Corrected)
            << "bit " << bit;
        EXPECT_EQ(dec.data, d) << "bit " << bit;
    }
}

TEST(Hamming, CorrectsEverySingleParityBitError)
{
    const uint64_t d = 0xdeadbeefcafef00dULL;
    const uint8_t p = ecc::Hamming72::encode(d);
    for (unsigned bit = 0; bit < 8; ++bit) {
        const auto dec =
            ecc::Hamming72::decode(d, p ^ uint8_t(1u << bit));
        EXPECT_EQ(dec.result, ecc::Hamming72::Result::Corrected)
            << "parity bit " << bit;
        EXPECT_EQ(dec.data, d) << "parity bit " << bit;
    }
}

TEST(Hamming, DetectsDoubleErrors)
{
    Rng rng(3);
    int detected = 0;
    const int trials = 300;
    for (int i = 0; i < trials; ++i) {
        const uint64_t d = rng.next();
        const uint8_t p = ecc::Hamming72::encode(d);
        const unsigned b1 = rng.nextBounded(64);
        unsigned b2 = rng.nextBounded(64);
        while (b2 == b1)
            b2 = rng.nextBounded(64);
        const auto dec = ecc::Hamming72::decode(
            d ^ (1ULL << b1) ^ (1ULL << b2), p);
        if (dec.result == ecc::Hamming72::Result::DoubleError)
            ++detected;
    }
    EXPECT_EQ(detected, trials);
}

TEST(Hamming, XorHomomorphism)
{
    // parity(a ^ b) == parity(a) ^ parity(b): the property that lets
    // row ECC check CIM-produced XOR rows (Sec. 6.1).
    Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const uint64_t a = rng.next();
        const uint64_t b = rng.next();
        EXPECT_EQ(ecc::Hamming72::encode(a ^ b),
                  ecc::Hamming72::encode(a) ^
                      ecc::Hamming72::encode(b));
    }
}

// ---------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------

TEST(RowCodec, EncodeCheckRoundTrip)
{
    ecc::RowCodec codec(256);
    EXPECT_EQ(codec.parityBits(), 32u);
    Rng rng(7);
    BitVector row(codec.totalBits());
    for (size_t i = 0; i < 256; ++i)
        row.set(i, rng.nextBool(0.5));
    codec.encodeRow(row);
    EXPECT_TRUE(codec.checkRow(row));
}

TEST(RowCodec, DetectsAndCorrectsSingleFlips)
{
    ecc::RowCodec codec(128);
    Rng rng(8);
    BitVector row(codec.totalBits());
    for (size_t i = 0; i < 128; ++i)
        row.set(i, rng.nextBool(0.5));
    codec.encodeRow(row);
    BitVector clean = row;

    row.set(77, !row.get(77));
    EXPECT_FALSE(codec.checkRow(row));
    const auto res = codec.correctRow(row);
    EXPECT_EQ(res.corrected, 1u);
    EXPECT_EQ(res.uncorrectable, 0u);
    EXPECT_EQ(row, clean);
}

TEST(RowCodec, FlagsDoubleErrorsPerWord)
{
    ecc::RowCodec codec(64);
    BitVector row(codec.totalBits());
    row.set(3, true);
    codec.encodeRow(row);
    row.set(10, true);
    row.set(20, true);
    const auto res = codec.correctRow(row);
    EXPECT_EQ(res.uncorrectable, 1u);
}

TEST(RowCodec, LanesFollowXorHomomorphism)
{
    // Encoding a, b and XORing full rows (data + lanes) yields a
    // validly coded row of a^b -- the in-array check mechanism.
    ecc::RowCodec codec(192);
    Rng rng(9);
    BitVector a(codec.totalBits()), b(codec.totalBits());
    for (size_t i = 0; i < 192; ++i) {
        a.set(i, rng.nextBool(0.5));
        b.set(i, rng.nextBool(0.5));
    }
    codec.encodeRow(a);
    codec.encodeRow(b);
    BitVector x(codec.totalBits());
    x.assignXor(a, b);
    EXPECT_TRUE(codec.checkRow(x));
}

TEST(RowCodec, WordLanesMatchPerBitOracle)
{
    // Widths put the 8-bit parity lanes at every offset class: sharing
    // the last data word, word-aligned, and straddling two words.
    Rng rng(10);
    for (size_t data_bits : {1, 63, 64, 65, 100, 130}) {
        const ecc::RowCodec codec(data_bits);
        const oracle::RowCodec ref(data_bits);
        ASSERT_EQ(codec.totalBits(), ref.totalBits());
        for (int trial = 0; trial < 24; ++trial) {
            // Random data and stale lanes: encodeRow must overwrite them.
            BitVector row(codec.totalBits());
            row.randomize(rng);
            BitVector want = row;
            codec.encodeRow(row);
            ref.encodeRow(want);
            ASSERT_EQ(row, want) << "encode, data_bits " << data_bits;
            for (size_t w = 0; w < codec.numWords(); ++w)
                EXPECT_EQ(codec.dataWord(row, w), ref.dataWord(want, w));

            // One or two flips anywhere, lanes included.
            const unsigned flips = 1 + trial % 2;
            BitVector got = row;
            BitVector exp = want;
            for (unsigned f = 0; f < flips; ++f) {
                const size_t pos = rng.nextBounded(codec.totalBits());
                got.set(pos, !got.get(pos));
                exp.set(pos, !exp.get(pos));
            }
            EXPECT_EQ(codec.checkRow(got), ref.checkRow(exp));
            const auto res = codec.correctRow(got);
            const auto want_res = ref.correctRow(exp);
            EXPECT_EQ(res.corrected, want_res.corrected);
            EXPECT_EQ(res.uncorrectable, want_res.uncorrectable);
            EXPECT_EQ(got, exp) << "correct, data_bits " << data_bits;

            // scrubRow: a fabric row (exact width, or wider with
            // columns the codec must not touch) against the image.
            for (size_t extra : {size_t{0}, size_t{9}}) {
                BitVector fabric(data_bits + extra);
                fabric.randomize(rng);
                for (size_t i = 0; i < data_bits; ++i)
                    fabric.set(i, row.get(i));
                for (unsigned f = 0; f < flips; ++f) {
                    const size_t pos = rng.nextBounded(data_bits);
                    fabric.set(pos, !fabric.get(pos));
                }
                BitVector fabric_ref = fabric;
                const auto sres = codec.scrubRow(fabric, row);
                const auto sref = ref.scrubRow(fabric_ref, want);
                EXPECT_EQ(sres.corrected, sref.corrected);
                EXPECT_EQ(sres.uncorrectable, sref.uncorrectable);
                EXPECT_EQ(fabric, fabric_ref)
                    << "scrub, data_bits " << data_bits;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tab. 1 protection model
// ---------------------------------------------------------------------

TEST(ProtectionModel, Table1ErrorRates)
{
    using PM = ecc::ProtectionModel;
    EXPECT_NEAR(PM::undetectedErrorRate(1e-1, 2), 1.4e-3, 3e-4);
    EXPECT_NEAR(PM::undetectedErrorRate(1e-2, 2), 1.5e-6, 3e-7);
    EXPECT_NEAR(PM::undetectedErrorRate(1e-4, 2), 1.5e-12, 3e-13);
    EXPECT_NEAR(PM::undetectedErrorRate(1e-1, 4), 1.4e-5, 3e-6);
    EXPECT_NEAR(PM::undetectedErrorRate(1e-2, 4), 1.5e-10, 3e-11);
    EXPECT_NEAR(PM::undetectedErrorRate(1e-1, 6), 1.4e-7, 3e-8);
    // Floored at the DRAM read-error rate.
    EXPECT_DOUBLE_EQ(PM::undetectedErrorRate(1e-4, 6), 1e-20);
    EXPECT_DOUBLE_EQ(PM::undetectedErrorRate(1e-4, 4), 1e-20);
}

TEST(ProtectionModel, Table1DetectRates)
{
    using PM = ecc::ProtectionModel;
    EXPECT_NEAR(PM::detectRate(1e-1, 2), 3.1e-1, 3e-2);
    EXPECT_NEAR(PM::detectRate(1e-2, 2), 3.5e-2, 4e-3);
    EXPECT_NEAR(PM::detectRate(1e-4, 2), 3.5e-4, 4e-5);
    EXPECT_NEAR(PM::detectRate(1e-1, 4), 4.4e-1, 4e-2);
    EXPECT_NEAR(PM::detectRate(1e-2, 6), 7.3e-2, 8e-3);
}

TEST(ProtectionModel, RetryOverheadMatchesSec732)
{
    // Sec. 7.3.2: fault rate 1e-4 with one FR round => 0.16 detected
    // faults per 512-bit row => ~19.6% correction overhead.
    const double retries =
        ecc::ProtectionModel::expectedRetriesPerRow(1e-4, 2, 512);
    EXPECT_NEAR(retries, 1.196, 0.03);
}

TEST(ProtectionModel, MonteCarloMatchesAnalyticExponent)
{
    using PM = ecc::ProtectionModel;
    // At p = 0.1 with 2 FR checks the undetected rate is ~p^3.
    const auto mc = PM::monteCarlo(0.1, 2, 2'000'000, 3);
    EXPECT_GT(mc.errorRate, 1e-4);
    EXPECT_LT(mc.errorRate, 1e-2);
    // Detection grows with the number of FR checks.
    const auto mc1 = PM::monteCarlo(0.1, 1, 500'000, 4);
    const auto mc3 = PM::monteCarlo(0.1, 3, 500'000, 5);
    EXPECT_GT(mc3.detectRate, mc1.detectRate);
    EXPECT_GT(mc1.errorRate, mc3.errorRate);
}
