/**
 * @file
 * ECC substrate tests: Hamming(72,64) SEC-DED, GF(2^m), BCH encode/
 * decode with random error injection, the row codec's parity lanes,
 * XOR homomorphism (the property Sec. 6 builds on), and the Tab.-1
 * protection model.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "ecc/analysis.hpp"
#include "ecc/bch.hpp"
#include "ecc/gf2m.hpp"
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
// GF(2^m) and BCH
// ---------------------------------------------------------------------

TEST(GF2m, FieldAxiomsGF16)
{
    ecc::GF2m f(4);
    for (uint32_t a = 1; a <= f.order(); ++a) {
        EXPECT_EQ(f.mul(a, f.inv(a)), 1u);
        for (uint32_t b = 1; b <= f.order(); ++b) {
            EXPECT_EQ(f.mul(a, b), f.mul(b, a));
            EXPECT_EQ(f.div(f.mul(a, b), b), a);
        }
    }
}

TEST(GF2m, DegreeWithoutADefaultPolynomialThrows)
{
    // m = 13 is a supported width, but no primitive polynomial is
    // tabulated for it: a configuration error, not a library bug.
    EXPECT_THROW(ecc::GF2m(13), std::invalid_argument);
    EXPECT_NO_THROW(ecc::GF2m(13, 0x201b)); // x^13+x^4+x^3+x+1
}

TEST(GF2m, AlphaPowWraps)
{
    ecc::GF2m f(5);
    EXPECT_EQ(f.alphaPow(0), 1u);
    EXPECT_EQ(f.alphaPow(f.order()), 1u);
    EXPECT_EQ(f.alphaPow(-1), f.inv(f.alphaPow(1)));
}

TEST(GF2m, DistributivitySampled)
{
    ecc::GF2m f(7);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const uint32_t a = 1 + rng.nextBounded(f.order());
        const uint32_t b = 1 + rng.nextBounded(f.order());
        const uint32_t c = 1 + rng.nextBounded(f.order());
        EXPECT_EQ(f.mul(a, f.add(b, c)),
                  f.add(f.mul(a, b), f.mul(a, c)));
    }
}

class BchParam
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(BchParam, CorrectsUpToTErrors)
{
    const unsigned m = std::get<0>(GetParam());
    const unsigned t = std::get<1>(GetParam());
    ecc::BchCode code(m, t);
    EXPECT_EQ(code.n(), (1u << m) - 1);
    EXPECT_GT(code.k(), 0u);

    Rng rng(100 * m + t);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint8_t> data(code.k());
        for (auto &b : data)
            b = rng.nextBool(0.5);
        auto cw = code.encode(data);
        EXPECT_TRUE(code.check(cw));

        const unsigned errs = 1 + rng.nextBounded(t);
        std::vector<uint8_t> corrupted = cw;
        std::vector<unsigned> pos;
        while (pos.size() < errs) {
            const unsigned p = rng.nextBounded(code.n());
            bool dup = false;
            for (unsigned q : pos)
                dup |= q == p;
            if (!dup) {
                pos.push_back(p);
                corrupted[p] ^= 1;
            }
        }
        const auto res = code.decode(corrupted);
        EXPECT_TRUE(res.ok) << "m=" << m << " t=" << t;
        EXPECT_EQ(res.corrected, errs);
        EXPECT_EQ(corrupted, cw);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, BchParam,
    ::testing::Values(std::make_tuple(5u, 1u), std::make_tuple(5u, 2u),
                      std::make_tuple(6u, 2u), std::make_tuple(7u, 2u),
                      std::make_tuple(7u, 3u)));

TEST(Bch, LinearityGivesXorHomomorphism)
{
    ecc::BchCode code(6, 2);
    Rng rng(6);
    for (int i = 0; i < 50; ++i) {
        std::vector<uint8_t> a(code.k()), b(code.k()), x(code.k());
        for (size_t j = 0; j < a.size(); ++j) {
            a[j] = rng.nextBool(0.5);
            b[j] = rng.nextBool(0.5);
            x[j] = a[j] ^ b[j];
        }
        const auto pa = code.encodeParity(a);
        const auto pb = code.encodeParity(b);
        const auto px = code.encodeParity(x);
        for (size_t j = 0; j < px.size(); ++j)
            EXPECT_EQ(px[j], pa[j] ^ pb[j]);
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
