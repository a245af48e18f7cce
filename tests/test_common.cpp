/**
 * @file
 * Unit tests for the common substrate: BitVector, Rng, statistics
 * and table rendering.
 */

#include <gtest/gtest.h>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

using namespace c2m;

TEST(BitVector, StartsZeroed)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_EQ(v.popcount(), 0u);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_FALSE(v.get(i));
}

TEST(BitVector, SetGetRoundTrip)
{
    BitVector v(100);
    v.set(0, true);
    v.set(63, true);
    v.set(64, true);
    v.set(99, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(63));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(99));
    EXPECT_EQ(v.popcount(), 4u);
    v.set(63, false);
    EXPECT_FALSE(v.get(63));
    EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, FromStringLsbFirst)
{
    BitVector v = BitVector::fromString("10110");
    EXPECT_TRUE(v.get(0));
    EXPECT_FALSE(v.get(1));
    EXPECT_TRUE(v.get(2));
    EXPECT_TRUE(v.get(3));
    EXPECT_FALSE(v.get(4));
    EXPECT_EQ(v.toString(), "10110");
}

TEST(BitVector, FillRespectsTail)
{
    BitVector v(70);
    v.fill(true);
    EXPECT_EQ(v.popcount(), 70u);
    // Tail bits beyond 70 must be masked out of the last word.
    EXPECT_EQ(v.word(1) >> 6, 0u);
}

TEST(BitVector, InvertIsInvolution)
{
    Rng rng(1);
    BitVector v(97);
    v.randomize(rng);
    BitVector w = v;
    w.invert();
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_NE(v.get(i), w.get(i));
    w.invert();
    EXPECT_EQ(v, w);
}

TEST(BitVector, LogicOps)
{
    BitVector a = BitVector::fromString("1100");
    BitVector b = BitVector::fromString("1010");
    BitVector r(4);
    r.assignAnd(a, b);
    EXPECT_EQ(r.toString(), "1000");
    r.assignOr(a, b);
    EXPECT_EQ(r.toString(), "1110");
    r.assignXor(a, b);
    EXPECT_EQ(r.toString(), "0110");
    r.assignNor(a, b);
    EXPECT_EQ(r.toString(), "0001");
    r.assignNot(a);
    EXPECT_EQ(r.toString(), "0011");
}

TEST(BitVector, Maj3MatchesTruthTable)
{
    // All eight operand combinations in one 8-column vector.
    BitVector a = BitVector::fromString("00001111");
    BitVector b = BitVector::fromString("00110011");
    BitVector c = BitVector::fromString("01010101");
    BitVector r(8);
    r.assignMaj3(a, b, c);
    EXPECT_EQ(r.toString(), "00010111");
}

TEST(BitVector, FaultInjectionZeroProbability)
{
    Rng rng(2);
    BitVector v(1024);
    v.randomize(rng);
    BitVector w = v;
    EXPECT_EQ(w.injectFaults(rng, 0.0), 0u);
    EXPECT_EQ(v, w);
}

TEST(BitVector, FaultInjectionCertainty)
{
    Rng rng(3);
    BitVector v(256);
    EXPECT_EQ(v.injectFaults(rng, 1.0), 256u);
    EXPECT_EQ(v.popcount(), 256u);
}

TEST(BitVector, FaultInjectionRateIsCalibrated)
{
    Rng rng(4);
    const double p = 0.01;
    const size_t bits = 1 << 16;
    size_t total = 0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
        BitVector v(bits);
        total += v.injectFaults(rng, p);
    }
    const double measured =
        static_cast<double>(total) / (double(bits) * trials);
    EXPECT_NEAR(measured, p, p * 0.15);
}

TEST(BitVector, BitRangesMatchPerBitAccess)
{
    Rng rng(12);
    BitVector v(300);
    v.randomize(rng);
    for (int trial = 0; trial < 500; ++trial) {
        const unsigned len = 1 + static_cast<unsigned>(rng.nextBounded(64));
        const size_t pos = rng.nextBounded(v.size() - len + 1);
        uint64_t want = 0;
        for (unsigned b = 0; b < len; ++b)
            want |= static_cast<uint64_t>(v.get(pos + b)) << b;
        ASSERT_EQ(v.getBits(pos, len), want)
            << "pos " << pos << " len " << len;

        BitVector w = v;
        const uint64_t x = rng.next();
        w.setBits(pos, len, x);
        for (size_t i = 0; i < v.size(); ++i) {
            const bool in = i >= pos && i < pos + len;
            ASSERT_EQ(w.get(i), in ? ((x >> (i - pos)) & 1) != 0 : v.get(i))
                << "pos " << pos << " len " << len << " bit " << i;
        }
    }
}

TEST(BitTranspose, MatchesNaiveAndIsAnInvolution)
{
    Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        uint64_t m[64];
        uint64_t orig[64];
        for (size_t r = 0; r < 64; ++r)
            orig[r] = m[r] = trial == 0 ? uint64_t{1} << r : rng.next();
        transpose64(m);
        for (size_t r = 0; r < 64; ++r)
            for (size_t c = 0; c < 64; ++c)
                ASSERT_EQ((m[c] >> r) & 1, (orig[r] >> c) & 1)
                    << "row " << r << " col " << c;
        transpose64(m);
        for (size_t r = 0; r < 64; ++r)
            ASSERT_EQ(m[r], orig[r]);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(6);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(8);
    const double p = 0.05;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    const double mean_gap = sum / n;
    // E[gap] = (1-p)/p = 19.
    EXPECT_NEAR(mean_gap, (1 - p) / p, 1.0);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(mean(xs), 3.0);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, Geomean)
{
    std::vector<double> xs = {1, 4, 16};
    EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, Rmse)
{
    std::vector<int64_t> a = {1, 2, 3};
    std::vector<int64_t> b = {1, 2, 3};
    EXPECT_DOUBLE_EQ(rmse(a, b), 0.0);
    b = {2, 2, 3};
    EXPECT_NEAR(rmse(a, b), std::sqrt(1.0 / 3.0), 1e-12);
}

TEST(Stats, BinaryScore)
{
    BinaryScore s;
    s.add(true, true);   // tp
    s.add(true, false);  // fp
    s.add(false, false); // tn
    s.add(false, true);  // fn
    EXPECT_DOUBLE_EQ(s.precision(), 0.5);
    EXPECT_DOUBLE_EQ(s.recall(), 0.5);
    EXPECT_DOUBLE_EQ(s.f1(), 0.5);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.5);
}

TEST(Stats, PerfectF1)
{
    BinaryScore s;
    for (int i = 0; i < 10; ++i)
        s.add(true, true);
    for (int i = 0; i < 90; ++i)
        s.add(false, false);
    EXPECT_DOUBLE_EQ(s.f1(), 1.0);
}

TEST(Stats, HistogramBins)
{
    Histogram h(0, 4);
    h.add(0);
    h.add(2, 3);
    h.add(4);
    h.add(7);  // overflow
    h.add(-1); // underflow
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(2), 3u);
    EXPECT_EQ(h.binCount(4), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.total(), 7u);
}

TEST(Stats, HistogramRenderContainsCounts)
{
    Histogram h(0, 2);
    h.add(1, 5);
    const std::string out = h.render(false);
    EXPECT_NE(out.find("1\t5"), std::string::npos);
}

TEST(Table, RendersAlignedAndCsv)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", TextTable::fmt(uint64_t{42})});
    t.addRow({"b", TextTable::fmt(3.14159, 2)});
    const std::string text = t.render();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("42"), std::string::npos);
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("name,value"), std::string::npos);
    EXPECT_NE(csv.find("b,3.14"), std::string::npos);
}

TEST(Table, SciFormat)
{
    EXPECT_EQ(TextTable::sci(1.5e-6, 1), "1.5e-06");
}
