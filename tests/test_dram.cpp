/**
 * @file
 * DRAM substrate tests: geometry (Tab. 2), timing presets, the
 * AAP stream scheduler's tRRD/tFAW/bank-occupancy invariants
 * (Sec. 7.2.1), energy model, and vertical layout transposition.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "dram/energy.hpp"
#include "dram/geometry.hpp"
#include "dram/scheduler.hpp"
#include "dram/subarray.hpp"
#include "dram/timing.hpp"
#include "perbit_oracle.hpp"

using namespace c2m;

TEST(Geometry, Table2Configuration)
{
    const auto g = dram::DramGeometry::ddr5_4gb();
    EXPECT_EQ(g.chipBits() >> 30, 4u);          // 4 Gb chip
    EXPECT_EQ(g.banksPerChip, 32u);             // 32 banks
    EXPECT_EQ(g.rowBytesPerChip, 1024u);        // 1 KB chip row
    EXPECT_EQ(g.rankRowBytes(), 8192u);         // 8 KB controller row
    EXPECT_EQ(g.rowsPerSubarray, 1024u);        // 1024 rows/subarray
    EXPECT_EQ(g.chipsPerRank(), 9u);            // 8 data + 1 ECC
    EXPECT_EQ(g.colsPerRankRow(), 65536u);
    EXPECT_NE(g.describe().find("32 banks"), std::string::npos);
}

TEST(Timing, Ddr5Preset)
{
    const auto t = dram::DramTimings::ddr5_4400();
    EXPECT_NEAR(t.tAapNs(), 46.5, 1e-9);
    EXPECT_NEAR(t.tFawNs, 14.5, 1e-9); // paper's conservative tFAW
    EXPECT_GT(t.bankPeriodNs(), t.tAapNs());
    EXPECT_GT(t.rowAccessNs(8192), 128 * t.tBurstNs);
}

TEST(Scheduler, SingleBankPeriodIsTaapPlusTrrd)
{
    // Sec. 7.2.1: one AAP every tAAP + tRRD on a single bank.
    const auto t = dram::DramTimings::ddr5_4400();
    dram::AapScheduler s(t, 1);
    const double i0 = s.issueOne(0);
    const double i1 = s.issueOne(0);
    EXPECT_NEAR(i1 - i0, t.bankPeriodNs(), 1e-9);
}

TEST(Scheduler, FourBanksOverlapButFifthWaits)
{
    // Four AAPs overlap tRRD apart; the fifth (bank 0 again) starts
    // tAAP + tRRD after the first.
    const auto t = dram::DramTimings::ddr5_4400();
    dram::AapScheduler s(t, 4);
    std::vector<double> issues;
    for (int i = 0; i < 5; ++i)
        issues.push_back(s.issueOne(i % 4));
    for (int i = 1; i < 4; ++i)
        EXPECT_NEAR(issues[i] - issues[i - 1], t.tRrdNs, 1e-9);
    EXPECT_NEAR(issues[4] - issues[0], t.bankPeriodNs(), 1e-9);
}

TEST(Scheduler, SixteenBanksBoundByFaw)
{
    // With 16 banks the binding constraint is max(tRRD, tFAW/4).
    const auto t = dram::DramTimings::ddr5_4400();
    dram::AapScheduler s(t, 16);
    std::vector<double> issues;
    for (int i = 0; i < 32; ++i)
        issues.push_back(s.issueOne(i % 16));
    // Any 5 consecutive issues span at least tFAW.
    for (size_t i = 4; i < issues.size(); ++i)
        EXPECT_GE(issues[i] - issues[i - 4], t.tFawNs - 1e-9);
    // Steady rate close to the analytic period.
    const double period = (issues.back() - issues[8]) /
                          static_cast<double>(issues.size() - 9);
    EXPECT_NEAR(period, t.issueIntervalNs(16), 0.5);
}

TEST(Scheduler, PerBankOccupancyRespected)
{
    const auto t = dram::DramTimings::ddr5_4400();
    dram::AapScheduler s(t, 3);
    std::vector<std::vector<double>> per_bank(3);
    for (int i = 0; i < 30; ++i)
        per_bank[i % 3].push_back(s.issueOne(i % 3));
    for (const auto &issues : per_bank)
        for (size_t i = 1; i < issues.size(); ++i)
            EXPECT_GE(issues[i] - issues[i - 1],
                      t.bankPeriodNs() - 1e-9);
}

TEST(Scheduler, AnalyticMatchesEventDriven)
{
    const auto t = dram::DramTimings::ddr5_4400();
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u}) {
        dram::AapScheduler s(t, banks);
        const uint64_t count = 2000;
        s.issueRoundRobin(count);
        const double event = s.finishNs();
        const double analytic =
            dram::AapScheduler::streamTimeNs(t, count, banks);
        EXPECT_NEAR(event / analytic, 1.0, 0.02)
            << "banks=" << banks;
    }
}

TEST(Scheduler, MoreBanksNeverSlower)
{
    const auto t = dram::DramTimings::ddr5_4400();
    double prev = 1e30;
    for (unsigned banks : {1u, 2u, 4u, 8u, 16u}) {
        const double time =
            dram::AapScheduler::streamTimeNs(t, 100000, banks);
        EXPECT_LE(time, prev + 1e-6) << "banks=" << banks;
        prev = time;
    }
}

TEST(Scheduler, BankScalingSaturates)
{
    // Sec. 7.2.1: 1 -> 4 banks is ~4x, but 16 banks saturate at the
    // tRRD/tFAW limit, well short of 16x.
    const auto t = dram::DramTimings::ddr5_4400();
    const double t1 =
        dram::AapScheduler::streamTimeNs(t, 1 << 20, 1);
    const double t4 =
        dram::AapScheduler::streamTimeNs(t, 1 << 20, 4);
    const double t16 =
        dram::AapScheduler::streamTimeNs(t, 1 << 20, 16);
    EXPECT_NEAR(t1 / t4, 4.0, 0.2);
    EXPECT_LT(t1 / t16, 16.0);
    EXPECT_GT(t1 / t16, 10.0);
}

TEST(Energy, AapEnergyAcrossRank)
{
    const auto e = dram::EnergyModel::ddr5();
    EXPECT_NEAR(e.aapEnergyNj(), 9 * (2 * 1.2 + 0.3), 1e-9);
    EXPECT_GT(e.rowAccessEnergyNj(8192), e.apEnergyNj());
    EXPECT_NEAR(e.rankAreaMm2(), 405.0, 1e-9);
}

TEST(VerticalLayout, TransposeRoundTrip)
{
    // Every width 1-64, against the per-bit reference transposes.
    Rng rng(3);
    for (unsigned bits = 1; bits <= 64; ++bits) {
        for (size_t cols : {1, 64, 65, 200}) {
            const size_t count = cols - rng.nextBounded(cols);
            std::vector<uint64_t> vals(count);
            for (auto &v : vals)
                v = bits == 64 ? rng.next()
                               : rng.next() & ((1ULL << bits) - 1);
            const auto rows = dram::transposeToRows(vals, bits, cols);
            ASSERT_EQ(rows, oracle::transposeToRows(vals, bits, cols))
                << "bits " << bits << " cols " << cols;
            std::vector<const BitVector *> ptrs;
            for (const auto &r : rows)
                ptrs.push_back(&r);
            EXPECT_EQ(dram::transposeFromRows(ptrs, count), vals);

            // Reading fewer columns than a noisy row holds.
            std::vector<BitVector> noisy(bits, BitVector(cols));
            for (auto &r : noisy)
                r.randomize(rng);
            ptrs.clear();
            for (const auto &r : noisy)
                ptrs.push_back(&r);
            EXPECT_EQ(dram::transposeFromRows(ptrs, count),
                      oracle::transposeFromRows(noisy, count));
        }
    }
}

TEST(VerticalLayout, MaskRowPadsWithZeros)
{
    const auto row = dram::maskRow({1, 0, 1}, 8);
    EXPECT_EQ(row.toString(), "10100000");

    Rng rng(5);
    for (size_t len : {0, 1, 63, 64, 65, 300}) {
        std::vector<uint8_t> mask(len);
        for (auto &m : mask)
            m = static_cast<uint8_t>(rng.nextBounded(3));
        BitVector want(len + 7);
        for (size_t j = 0; j < len; ++j)
            want.set(j, mask[j] != 0);
        EXPECT_EQ(dram::maskRow(mask, len + 7), want) << "len " << len;
    }
}
