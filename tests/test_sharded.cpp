/**
 * @file
 * Sharded batch engine tests: shard-vs-single-engine equivalence on
 * random point-update streams (unsigned, signed, ECC, TMR), sliced
 * broadcast masks, tensor-op fan-out, determinism across thread
 * counts, stats merging, and the drain planner (including a seeded
 * multi-epoch differential suite for dual-rail signed plans).
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "dram/timing.hpp"

using namespace c2m;
using core::BatchOp;
using core::C2MEngine;
using core::EngineConfig;
using core::EngineStats;
using core::Protection;
using core::ShardedEngine;

namespace {

EngineConfig
baseConfig(size_t counters = 64, unsigned radix = 4)
{
    EngineConfig cfg;
    cfg.radix = radix;
    cfg.capacityBits = 20;
    cfg.numCounters = counters;
    cfg.maxMaskRows = 8;
    return cfg;
}

std::vector<BatchOp>
randomOps(size_t n, size_t counters, uint64_t seed,
          bool with_negatives)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        BatchOp op;
        op.counter = rng.nextBounded(counters);
        op.value = static_cast<int64_t>(rng.nextBounded(60));
        if (with_negatives && rng.nextBool(0.4))
            op.value = -op.value;
        op.group = 0;
        ops.push_back(op);
    }
    return ops;
}

/** Reference: the same op stream on one engine over the full space. */
std::vector<int64_t>
runSingle(const EngineConfig &cfg, const std::vector<BatchOp> &ops,
          unsigned group = 0)
{
    C2MEngine eng(cfg);
    const unsigned h =
        eng.addMask(std::vector<uint8_t>(cfg.numCounters, 0));
    size_t current = std::numeric_limits<size_t>::max();
    for (const auto &op : ops) {
        if (op.counter != current) {
            std::vector<uint8_t> mask(cfg.numCounters, 0);
            mask[op.counter] = 1;
            eng.setMask(h, mask);
            current = op.counter;
        }
        if (op.value >= 0)
            eng.accumulate(static_cast<uint64_t>(op.value), h,
                           op.group);
        else
            eng.accumulateSigned(op.value, h, op.group);
    }
    return eng.readCounters(group);
}

} // namespace

class ShardedVsSingle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ShardedVsSingle, UnsignedPointStreamMatches)
{
    const auto cfg = baseConfig(64, GetParam());
    const auto ops = randomOps(300, cfg.numCounters, 7, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_EQ(sharded.stats().inputsAccumulated, ops.size());
}

TEST_P(ShardedVsSingle, SignedPointStreamMatches)
{
    const auto cfg = baseConfig(48, GetParam());
    const auto ops = randomOps(200, cfg.numCounters, 11, true);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
}

INSTANTIATE_TEST_SUITE_P(Radices, ShardedVsSingle,
                         ::testing::Values(4u, 10u));

TEST(Sharded, EccConfigMatchesFaultFree)
{
    auto cfg = baseConfig(32);
    cfg.protection = Protection::Ecc;
    const auto ops = randomOps(120, cfg.numCounters, 3, true);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_GT(sharded.stats().checksRun, 0u);
    EXPECT_EQ(sharded.stats().faultsDetected, 0u);
}

TEST(Sharded, TmrConfigMatchesFaultFree)
{
    auto cfg = baseConfig(32);
    cfg.protection = Protection::Tmr;
    const auto ops = randomOps(100, cfg.numCounters, 5, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    EXPECT_EQ(sharded.readAllCounters(), runSingle(cfg, ops));
    EXPECT_GT(sharded.stats().voteOps, 0u);
}

TEST(Sharded, UnevenSplitCoversEveryCounter)
{
    const auto cfg = baseConfig(67);
    ShardedEngine sharded(cfg, 4);
    size_t total = 0;
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        total += sharded.shardWidth(s);
    EXPECT_EQ(total, cfg.numCounters);
    for (uint64_t c = 0; c < cfg.numCounters; ++c) {
        const unsigned s = sharded.shardOf(c);
        EXPECT_GE(c, sharded.shardStart(s));
        EXPECT_LT(c, sharded.shardStart(s) + sharded.shardWidth(s));
    }

    const auto ops = randomOps(150, cfg.numCounters, 13, true);
    ShardedEngine run(cfg, 4);
    run.accumulateBatch(ops);
    EXPECT_EQ(run.readAllCounters(), runSingle(cfg, ops));
}

TEST(Sharded, OddRadixConfigThrowsBeforeThePoolStarts)
{
    // EngineConfig::validate runs before any member is built.
    EXPECT_THROW(ShardedEngine(baseConfig(64, 5), 4),
                 std::invalid_argument);
}

TEST(Sharded, ShardCountOutsideOneToCountersThrows)
{
    EXPECT_THROW(ShardedEngine(baseConfig(64), 0), std::invalid_argument);
    EXPECT_THROW(ShardedEngine(baseConfig(64), 65),
                 std::invalid_argument);
    EXPECT_NO_THROW(ShardedEngine(baseConfig(64), 64));
}

TEST(ShardedMaskErrors, MaskWiderThanTheCountersThrows)
{
    // Checked on the caller's thread before any shard is written, not
    // cut to the counter count.
    ShardedEngine eng(baseConfig(64), 4);
    EXPECT_THROW(eng.addMask(std::vector<uint8_t>(65, 1)),
                 std::invalid_argument);
    EXPECT_EQ(eng.numMasks(), 0u);
    // A short mask is zero-padded; a wide one leaves every slice as
    // it was.
    const unsigned h = eng.addMask(std::vector<uint8_t>(40, 1));
    EXPECT_THROW(eng.setMask(h, std::vector<uint8_t>(65, 0)),
                 std::invalid_argument);
    eng.accumulate(3, h);
    const auto got = eng.readAllCounters();
    for (size_t c = 0; c < got.size(); ++c)
        EXPECT_EQ(got[c], c < 40 ? 3 : 0) << "col " << c;
}

TEST(ShardedMaskErrors, UnknownHandleOrGroupThrowsBeforeFanOut)
{
    // Checked on the caller's thread before any shard runs.
    auto cfg = baseConfig(64);
    cfg.numGroups = 2;
    ShardedEngine eng(cfg, 4);
    const unsigned h = eng.addMask(std::vector<uint8_t>(64, 1));
    EXPECT_THROW(eng.accumulate(0, h + 1), std::invalid_argument);
    EXPECT_THROW(eng.accumulate(3, h, 2), std::invalid_argument);
    EXPECT_THROW(eng.accumulateSigned(-1, h + 1), std::invalid_argument);
    EXPECT_THROW(eng.accumulateSigned(-1, h, 2), std::invalid_argument);
    EXPECT_THROW(eng.setMask(h + 1, std::vector<uint8_t>(64, 0)),
                 std::invalid_argument);
    EXPECT_EQ(eng.stats().inputsAccumulated, 0u);
    eng.accumulate(2, h);
    EXPECT_EQ(eng.readAllCounters(), std::vector<int64_t>(64, 2));
}

TEST(ShardedMaskErrors, AddMaskPastMaxMaskRowsThrows)
{
    ShardedEngine eng(baseConfig(64), 4);
    for (unsigned i = 0; i < eng.config().maxMaskRows; ++i)
        eng.addMask(std::vector<uint8_t>(64, 0));
    EXPECT_THROW(eng.addMask(std::vector<uint8_t>(64, 0)),
                 std::invalid_argument);
    EXPECT_EQ(eng.numMasks(), eng.config().maxMaskRows);
}

TEST(ShardedIndexErrors, ShardOfACounterPastNumCountersThrows)
{
    ShardedEngine eng(baseConfig(64), 4);
    EXPECT_EQ(eng.shardOf(63), 3u);
    EXPECT_THROW(eng.shardOf(64), std::invalid_argument);
    EXPECT_THROW(eng.shardOf(~uint64_t{0}), std::invalid_argument);
}

TEST(ShardedIndexErrors, ShardTaskPastNumShardsThrows)
{
    ShardedEngine eng(baseConfig(64), 4);
    bool ran = false;
    const auto task = [&](core::C2MEngine &, size_t) { ran = true; };
    EXPECT_THROW(eng.runShardTask(4, task), std::invalid_argument);
    EXPECT_FALSE(ran);
    eng.runShardTask(3, task);
    EXPECT_TRUE(ran);
}

TEST(Sharded, UnsupportedProtectionThrowsAfterThePoolStarted)
{
    // Only the backend knows its capabilities, so this error comes
    // from a shard's C2MEngine while the lane pool is running: the
    // throw must unwind through it and join its threads, not
    // terminate.
    EngineConfig cfg = baseConfig(64);
    cfg.backend = core::BackendKind::NvmPinatubo;
    cfg.protection = Protection::Ecc;
    EXPECT_THROW(ShardedEngine(cfg, 4), std::invalid_argument);
}

TEST(Sharded, DeterministicAcrossThreadCounts)
{
    const auto cfg = baseConfig(64);
    const auto ops = randomOps(250, cfg.numCounters, 17, true);

    std::vector<int64_t> reference;
    EngineStats ref_stats;
    for (unsigned threads : {1u, 2u, 4u}) {
        ShardedEngine eng(cfg, 4, threads);
        eng.accumulateBatch(ops);
        const auto counters = eng.readAllCounters();
        const auto st = eng.stats();
        if (reference.empty()) {
            reference = counters;
            ref_stats = st;
            continue;
        }
        EXPECT_EQ(counters, reference) << "threads=" << threads;
        EXPECT_EQ(st.increments, ref_stats.increments);
        EXPECT_EQ(st.ripples, ref_stats.ripples);
        EXPECT_EQ(st.inputsAccumulated, ref_stats.inputsAccumulated);
    }
}

TEST(Sharded, BroadcastMaskedAccumulateMatches)
{
    const auto cfg = baseConfig(64);
    Rng rng(23);

    C2MEngine single(cfg);
    ShardedEngine sharded(cfg, 4);
    std::vector<unsigned> hs, hd;
    for (int m = 0; m < 3; ++m) {
        std::vector<uint8_t> mask(cfg.numCounters);
        for (auto &b : mask)
            b = rng.nextBool(0.5);
        hs.push_back(single.addMask(mask));
        hd.push_back(sharded.addMask(mask));
    }
    // A planner-on shard holds two internal rows, the point mask and
    // the one row every digit plane is written into, below the
    // public ones.
    ASSERT_TRUE(cfg.drainPlanner);
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        EXPECT_EQ(sharded.shard(s).numMasks(), 2u + sharded.numMasks());

    for (int step = 0; step < 40; ++step) {
        const uint64_t v = rng.nextBounded(100);
        const unsigned m = static_cast<unsigned>(rng.nextBounded(3));
        single.accumulate(v, hs[m]);
        sharded.accumulate(v, hd[m]);
    }
    EXPECT_EQ(sharded.readAllCounters(), single.readCounters());

    // Overwriting a sliced mask keeps the engines in lockstep.
    std::vector<uint8_t> updated(cfg.numCounters, 1);
    single.setMask(hs[0], updated);
    sharded.setMask(hd[0], updated);
    single.accumulate(9, hs[0]);
    sharded.accumulate(9, hd[0]);
    EXPECT_EQ(sharded.readAllCounters(), single.readCounters());
}

TEST(Sharded, TensorOpFanOutMatchesSingleEngine)
{
    auto cfg = baseConfig(32);
    cfg.numGroups = 2;
    Rng rng(31);

    C2MEngine single(cfg);
    ShardedEngine sharded(cfg, 4);
    std::vector<uint8_t> mask(cfg.numCounters, 1);
    const unsigned hs = single.addMask(mask);
    const unsigned hd = sharded.addMask(mask);

    for (int step = 0; step < 10; ++step) {
        const uint64_t v = 1 + rng.nextBounded(30);
        single.accumulate(v, hs, 0);
        sharded.accumulate(v, hd, 0);
        single.accumulate(v / 2, hs, 1);
        sharded.accumulate(v / 2, hd, 1);
    }
    single.drain(0);
    sharded.drain(0);
    single.addCounters(0, 1);
    sharded.addCounters(0, 1);
    EXPECT_EQ(sharded.readAllCounters(0), single.readCounters(0));

    // Drive group 1 negative, then relu both.
    single.accumulateSigned(-1000, hs, 1);
    sharded.accumulateSigned(-1000, hd, 1);
    single.relu(1);
    sharded.relu(1);
    const auto counters = sharded.readAllCounters(1);
    EXPECT_EQ(counters, single.readCounters(1));
    for (int64_t c : counters)
        EXPECT_GE(c, 0);

    single.clear();
    sharded.clear();
    EXPECT_EQ(sharded.readAllCounters(0), single.readCounters(0));
}

TEST(Sharded, MergedStatsAggregateFaultCounters)
{
    auto cfg = baseConfig(64);
    cfg.protection = Protection::Ecc;
    cfg.faultRate = 2e-4;
    const auto ops = randomOps(200, cfg.numCounters, 41, false);

    ShardedEngine sharded(cfg, 4);
    sharded.accumulateBatch(ops);
    const auto merged = sharded.stats();
    EXPECT_EQ(merged.inputsAccumulated, ops.size());
    EXPECT_GT(merged.checksRun, 0u);

    // The merge equals the field-wise sum over the shards.
    EngineStats manual;
    for (unsigned s = 0; s < sharded.numShards(); ++s)
        manual += sharded.shard(s).stats();
    EXPECT_EQ(merged.checksRun, manual.checksRun);
    EXPECT_EQ(merged.faultsDetected, manual.faultsDetected);
    EXPECT_EQ(merged.retries, manual.retries);
}

TEST(EngineStatsMerge, SumsEveryField)
{
    // A new EngineStats field changes this size and fails here:
    // extend operator+= and the checks below together.
    static_assert(sizeof(EngineStats) == 39 * sizeof(uint64_t),
                  "EngineStats changed; update operator+= and this "
                  "test");

    // fabricNs must equal sum(attrNs) (the ledger invariant), so the
    // fixtures put their whole 24.0/240.0 into the plan row.
    EngineStats a{1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                  11, 12, 13, 14, 15, 16, 26, 27, 28, 29,
                  {17, 18, 19, 20, 21, 22, 23, 24.0, 25.0, {24.0}}};
    const EngineStats b{10,  20,  30,  40,  50,  60,  70,
                        80,  90,  100, 110, 120, 130, 140,
                        150, 160, 260, 270, 280, 290,
                        {170, 180, 190, 200, 210, 220, 230, 240.0,
                         250.0, {240.0}}};
    a += b;
    EXPECT_EQ(a.inputsAccumulated, 11u);
    EXPECT_EQ(a.increments, 22u);
    EXPECT_EQ(a.ripples, 33u);
    EXPECT_EQ(a.checksRun, 44u);
    EXPECT_EQ(a.faultsDetected, 55u);
    EXPECT_EQ(a.retries, 66u);
    EXPECT_EQ(a.uncorrectedBlocks, 77u);
    EXPECT_EQ(a.invalidStates, 88u);
    EXPECT_EQ(a.voteOps, 99u);
    EXPECT_EQ(a.programCacheHits, 110u);
    EXPECT_EQ(a.programCacheMisses, 121u);
    EXPECT_EQ(a.plansExecuted, 132u);
    EXPECT_EQ(a.planPrograms, 143u);
    EXPECT_EQ(a.planLeadPrograms, 154u);
    EXPECT_EQ(a.plannedOps, 165u);
    EXPECT_EQ(a.planFallbackOps, 176u);
    EXPECT_EQ(a.pendingPeeks, 286u);
    EXPECT_EQ(a.signFolds, 297u);
    EXPECT_EQ(a.drainPeeks, 308u);
    EXPECT_EQ(a.absorbPeeks, 319u);
    EXPECT_EQ(a.fabric.aap, 187u);
    EXPECT_EQ(a.fabric.ap, 198u);
    EXPECT_EQ(a.fabric.tra, 209u);
    EXPECT_EQ(a.fabric.faultsInjected, 220u);
    EXPECT_EQ(a.fabric.rowReads, 231u);
    EXPECT_EQ(a.fabric.rowWrites, 242u);
    EXPECT_EQ(a.fabric.gangedCommands, 253u);
    EXPECT_DOUBLE_EQ(a.fabric.fabricNs, 264.0);
    EXPECT_DOUBLE_EQ(a.fabric.fabricNj, 275.0);
    EXPECT_DOUBLE_EQ(a.fabric.attr(cim::FabricCat::Plan), 264.0);
    // Bit-exact ledger invariant survives the merge.
    double ledger = 0.0;
    for (double row : a.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, a.fabric.fabricNs);
}

TEST(EngineStatsMerge, SinceCoversEveryField)
{
    // A new EngineStats field changes this size and fails here:
    // extend since() and the checks below together.
    static_assert(sizeof(EngineStats) == 39 * sizeof(uint64_t),
                  "EngineStats changed; update since() and this test");

    const EngineStats a{1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                        11, 12, 13, 14, 15, 16, 26, 27, 28, 29,
                        {17, 18, 19, 20, 21, 22, 23, 24.0, 25.0,
                         {24.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                          0.0}}};
    const EngineStats b{10,  20,  30,  40,  50,  60,  70,
                        80,  90,  100, 110, 120, 130, 140,
                        150, 160, 260, 270, 280, 290,
                        {170, 180, 190, 200, 210, 220, 230, 240.0,
                         250.0,
                         {240.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                          0.1}}};
    const EngineStats d = b.since(a);
    EXPECT_EQ(d.inputsAccumulated, 9u);
    EXPECT_EQ(d.increments, 18u);
    EXPECT_EQ(d.ripples, 27u);
    EXPECT_EQ(d.checksRun, 36u);
    EXPECT_EQ(d.faultsDetected, 45u);
    EXPECT_EQ(d.retries, 54u);
    EXPECT_EQ(d.uncorrectedBlocks, 63u);
    EXPECT_EQ(d.invalidStates, 72u);
    EXPECT_EQ(d.voteOps, 81u);
    EXPECT_EQ(d.programCacheHits, 90u);
    EXPECT_EQ(d.programCacheMisses, 99u);
    EXPECT_EQ(d.plansExecuted, 108u);
    EXPECT_EQ(d.planPrograms, 117u);
    EXPECT_EQ(d.planLeadPrograms, 126u);
    EXPECT_EQ(d.plannedOps, 135u);
    EXPECT_EQ(d.planFallbackOps, 144u);
    EXPECT_EQ(d.pendingPeeks, 234u);
    EXPECT_EQ(d.signFolds, 243u);
    EXPECT_EQ(d.drainPeeks, 252u);
    EXPECT_EQ(d.absorbPeeks, 261u);
    EXPECT_EQ(d.fabric.aap, 153u);
    EXPECT_EQ(d.fabric.ap, 162u);
    EXPECT_EQ(d.fabric.tra, 171u);
    EXPECT_EQ(d.fabric.faultsInjected, 180u);
    EXPECT_EQ(d.fabric.rowReads, 189u);
    EXPECT_EQ(d.fabric.rowWrites, 198u);
    EXPECT_EQ(d.fabric.gangedCommands, 207u);
    EXPECT_DOUBLE_EQ(d.fabric.fabricNj, 225.0);
    EXPECT_DOUBLE_EQ(d.fabric.attr(cim::FabricCat::Plan), 216.0);
    EXPECT_DOUBLE_EQ(d.fabric.attr(cim::FabricCat::Other), 0.1);
    // fabricNs is re-summed from the differenced rows (b's own
    // fabricNs field was never synced to its 0.1 "other" row), so
    // the window's ledger is exact.
    double ledger = 0.0;
    for (double row : d.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, d.fabric.fabricNs);
}

namespace {

/** 1..15-valued uniform point updates, as in bench/sharded_scaling. */
std::vector<BatchOp>
scalingOps(size_t n, size_t counters)
{
    Rng rng(99);
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < n; ++i)
        ops.push_back({rng.nextBounded(counters),
                       static_cast<int64_t>(1 + rng.nextBounded(15)),
                       0});
    return ops;
}

EngineConfig
scalingConfig(size_t counters, bool planner)
{
    EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = counters;
    cfg.maxMaskRows = 1;
    cfg.drainPlanner = planner;
    return cfg;
}

bool
ledgerExact(const EngineStats &st)
{
    double sum = 0.0;
    for (double row : st.fabric.attrNs)
        sum += row;
    return sum == st.fabric.fabricNs;
}

class WarmedWindow
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

} // namespace

// The bench/sharded_scaling sequence: warm-up, clear(), four timing
// reps, then a window over the measured batch alone. The window's
// critical path must lie within [fabric_ns/shards, fabric_ns]; a
// lifetime critical path would also count the warm-up and the reps.
TEST_P(WarmedWindow, CriticalPathBoundsTheWindow)
{
    const auto [shards, planner] = GetParam();
    const auto cfg = scalingConfig(2048, planner);
    const auto ops = scalingOps(2048, cfg.numCounters);
    ShardedEngine eng(cfg, shards);
    std::vector<BatchOp> warm;
    for (unsigned s = 0; s < shards; ++s)
        warm.push_back({eng.shardStart(s), 1, 0});
    eng.accumulateBatch(warm);
    eng.clear();
    for (int rep = 0; rep < 4; ++rep) {
        eng.accumulateBatch(ops);
        eng.clear();
    }
    const auto before = eng.shardStats();
    eng.accumulateBatch(ops);
    const auto w = core::statsWindow(eng, before);

    const double ns = w.total.fabric.fabricNs;
    EXPECT_GT(ns, 0.0);
    EXPECT_GE(w.criticalNs * (1.0 + 1e-12), ns / shards);
    EXPECT_LE(w.criticalNs, ns);
    EXPECT_TRUE(ledgerExact(w.total));
    EXPECT_EQ(w.shardNs.size(), shards);
    if (shards == 1) {
        EXPECT_EQ(w.criticalNs, ns);
        EXPECT_EQ(w.parallelEfficiency, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WarmedWindow,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Bool()));

// At 32 banks the rank window (one command per max(tRRD, tFAW/4))
// is tighter than a bank's period / 32, so the floor binds over a
// per-op drain. A gang-issued plan's follower commands run in their
// leader's issue slots: counted, they would bind the floor too.
TEST(StatsWindow, RankFloorExcludesGangedFollowers)
{
    constexpr unsigned kShards = 32;
    for (const bool planner : {false, true}) {
        const auto cfg = scalingConfig(2048, planner);
        ShardedEngine eng(cfg, kShards, 2);
        const auto before = eng.shardStats();
        eng.accumulateBatch(scalingOps(2048, cfg.numCounters));
        const auto w = core::statsWindow(eng, before);

        double slowest = 0.0;
        for (double ns : w.shardNs)
            slowest = std::max(slowest, ns);
        const auto &fab = w.total.fabric;
        const double interval =
            dram::DramTimings::ddr5_4400().issueIntervalNs(kShards);
        const double floor =
            static_cast<double>(fab.commands() - fab.gangedCommands) *
            interval;
        if (!planner) {
            EXPECT_EQ(fab.gangedCommands, 0u);
            EXPECT_GT(floor, slowest);
            EXPECT_EQ(w.criticalNs, floor);
        } else {
            EXPECT_GT(fab.gangedCommands, 0u);
            EXPECT_GT(static_cast<double>(fab.commands()) * interval,
                      slowest);
            EXPECT_EQ(w.criticalNs, slowest);
        }
        EXPECT_LE(w.criticalNs, fab.fabricNs);
    }
}

// ---------------------------------------------------------------------
// Digit-plane drain planner
// ---------------------------------------------------------------------

namespace {

/** Positive-delta stream (plans engage; no signed fallback). */
std::vector<BatchOp>
positiveOps(size_t n, size_t counters, uint64_t seed,
            unsigned groups = 1)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({rng.nextBounded(counters),
                       static_cast<int64_t>(1 + rng.nextBounded(50)),
                       static_cast<uint32_t>(rng.nextBounded(groups))});
    return ops;
}

/** Zipf(1.0)-skewed keys: the coalesced-bucket shape epochs see. */
std::vector<BatchOp>
zipfOps(size_t n, size_t counters, uint64_t seed)
{
    ZipfRng keys(counters, 1.0, seed);
    Rng val(seed ^ 0x5bf0);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({keys.next(),
                       static_cast<int64_t>(1 + val.nextBounded(7)),
                       0});
    return ops;
}

/** Adversarial: every counter hit once, every delta distinct. */
std::vector<BatchOp>
distinctDeltaOps(size_t counters)
{
    std::vector<BatchOp> ops;
    ops.reserve(counters);
    for (size_t c = 0; c < counters; ++c)
        ops.push_back({c, static_cast<int64_t>(c + 1), 0});
    return ops;
}

/** Run @p ops as one sharded batch with the planner on/off. */
std::pair<std::vector<int64_t>, EngineStats>
runPlanned(EngineConfig cfg, const std::vector<BatchOp> &ops,
           bool planner, unsigned shards = 4)
{
    cfg.drainPlanner = planner;
    ShardedEngine eng(cfg, shards);
    eng.accumulateBatch(ops);
    return {eng.readAllCounters(), eng.stats()};
}

} // namespace

TEST(DrainPlanner, UniformStreamMatchesSerialReplay)
{
    const auto cfg = baseConfig(96);
    const auto ops = positiveOps(600, cfg.numCounters, 3);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    const auto [off, stats_off] = runPlanned(cfg, ops, false);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(off, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_GT(stats_on.planPrograms, 0u);
    EXPECT_EQ(stats_on.plannedOps + stats_on.planFallbackOps,
              ops.size());
    // The column-parallel win: far fewer fabric programs.
    EXPECT_LT(stats_on.increments, stats_off.increments / 4);
    EXPECT_EQ(stats_off.plansExecuted, 0u);
    EXPECT_EQ(stats_on.inputsAccumulated, ops.size());
}

TEST(DrainPlanner, ZipfStreamMatchesSerialReplay)
{
    const auto cfg = baseConfig(256);
    const auto ops = zipfOps(2000, cfg.numCounters, 21);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
}

TEST(DrainPlanner, AdversarialDistinctDeltasMatch)
{
    // All-distinct deltas populate the most planes per plan — the
    // worst case for plane sharing; correctness must hold whether
    // the cost heuristic plans or falls back.
    const auto cfg = baseConfig(128);
    const auto ops = distinctDeltaOps(cfg.numCounters);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(stats_on.plannedOps + stats_on.planFallbackOps,
              ops.size());
}

TEST(DrainPlanner, PlanProgramsBoundedByDigitPlanes)
{
    const auto cfg = baseConfig(256);
    const auto ops = positiveOps(1500, cfg.numCounters, 9);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);
    eng.accumulateBatch(ops);
    const auto st = eng.stats();
    // One batch = at most one plan per (shard, group); each plan
    // issues at most D*bit_width(R-1) plane programs: a dense digit
    // folds into its binary-weighted planes.
    const unsigned D = eng.shard(0).backend().numDigits();
    const uint64_t bound = static_cast<uint64_t>(D) *
                           std::bit_width(cfg.radix - 1) *
                           eng.numShards();
    EXPECT_LE(st.planPrograms, bound);
    EXPECT_LE(st.plansExecuted, eng.numShards());
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, ops));
}

TEST(DrainPlanner, GuardDigitSumsFallBackInsteadOfPanicking)
{
    // 70000 unit hits on one counter: each raw op is in range, but
    // the summed delta's top digit would land in the guard digit the
    // planner cannot address — the bucket must fall back per-op (the
    // path that grows the counter via ripples), not abort.
    auto cfg = baseConfig(8);
    cfg.capacityBits = 16; // D = 9 digits at radix 4
    std::vector<BatchOp> ops(70000, BatchOp{0, 1, 0});
    ops.push_back({1, 3, 0});

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 1);
    eng.accumulateBatch(ops);
    const auto counters = eng.readAllCounters();
    EXPECT_EQ(counters[0], 70000);
    EXPECT_EQ(counters[1], 3);
    EXPECT_GT(eng.stats().planFallbackOps, 0u);
}

TEST(DrainPlanner, HotKeyDuplicatesPlanAgainstRawOpCost)
{
    // An uncoalesced hot-key bucket: the sums collapse to few
    // counters, so the plan must be costed against the RAW per-op
    // replay it replaces (~N programs), not against the sums —
    // otherwise 2000 unit hits would fall back to 2000 program
    // chains where a handful of planes suffice.
    const auto cfg = baseConfig(32);
    std::vector<BatchOp> ops(2000, BatchOp{4, 1, 0});
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true, 1);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(stats_on.planFallbackOps, 0u);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_LT(stats_on.increments, 20u);
}

TEST(DrainPlanner, RcaPricesReplayAtOneAddPerOp)
{
    // On RCA per-op replay is one W-bit add per op, whatever its
    // digits: 5 and 10 hitting one counter replay as 2 adds plus one
    // point-mask write, which beats the plan's 2 planes (digits of
    // 15) plus 2 plane-mask writes. Priced per nonzero digit, the
    // replay would look like 4 adds and lose to the plan.
    auto cfg = baseConfig(32);
    cfg.backend = core::BackendKind::Rca;
    const std::vector<BatchOp> ops = {{4, 5, 0}, {4, 10, 0}};
    const auto [on, stats_on] = runPlanned(cfg, ops, true, 1);
    EXPECT_EQ(on, core::replaySerial(cfg, ops));
    EXPECT_EQ(on[4], 15);
    EXPECT_EQ(stats_on.plansExecuted, 0u);
    EXPECT_EQ(stats_on.planFallbackOps, ops.size());
    EXPECT_EQ(stats_on.increments, ops.size());
}

TEST(DrainPlanner, SignedBucketsFallBackPerOp)
{
    // Mixed-sign buckets plan dual-rail: negative sums become
    // decrement planes instead of sending the bucket to per-op replay.
    const auto cfg = baseConfig(64);
    const auto ops = randomOps(400, cfg.numCounters, 19, true);
    const auto ref = runSingle(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(stats_on.planFallbackOps, 0u);
    EXPECT_EQ(stats_on.plannedOps, ops.size());
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_DOUBLE_EQ(stats_on.fabric.attr(cim::FabricCat::Fallback),
                     0.0);
}

TEST(DrainPlanner, SignedModeGroupNeverPlans)
{
    // A group in signed mode keeps planning: a later all-positive
    // bucket runs the increment rail and resolves its carries in
    // place instead of replaying per op.
    const auto cfg = baseConfig(32);
    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 1);
    // A lone op: two decrement planes cannot beat one point-mask
    // write, so it replays per op and enters signed mode there.
    std::vector<BatchOp> neg{{3, -5, 0}};
    eng.accumulateBatch(neg);
    EXPECT_TRUE(eng.shard(0).signedMode(0));
    const auto pos = positiveOps(100, cfg.numCounters, 31);
    eng.accumulateBatch(pos);

    const auto st = eng.stats();
    EXPECT_EQ(st.plansExecuted, 1u);
    EXPECT_EQ(st.plannedOps, pos.size());
    EXPECT_EQ(st.planFallbackOps, neg.size());
    EXPECT_TRUE(eng.shard(0).signedMode(0));

    std::vector<BatchOp> all = neg;
    all.insert(all.end(), pos.begin(), pos.end());
    EXPECT_EQ(eng.readAllCounters(), runSingle(cfg, all));
}

TEST(DrainPlanner, MultiGroupBucketsPlanIndependently)
{
    auto cfg = baseConfig(64);
    cfg.numGroups = 3;
    const auto ops = positiveOps(900, cfg.numCounters, 41, 3);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 2);
    eng.accumulateBatch(ops);
    EXPECT_GT(eng.stats().plansExecuted, 0u);
    for (unsigned g = 0; g < 3; ++g)
        EXPECT_EQ(eng.readAllCounters(g),
                  core::replaySerial(cfg, ops, g))
            << "group " << g;
}

class PlannerBackends
    : public ::testing::TestWithParam<core::BackendKind>
{
};

TEST_P(PlannerBackends, PlannedBatchMatchesSerialReplay)
{
    auto cfg = baseConfig(64);
    cfg.backend = GetParam();
    cfg.capacityBits = 16;
    const auto ops = zipfOps(1200, cfg.numCounters, 61);
    const auto ref = core::replaySerial(cfg, ops);

    const auto [on, stats_on] = runPlanned(cfg, ops, true);
    const auto [off, stats_off] = runPlanned(cfg, ops, false);
    EXPECT_EQ(on, ref);
    EXPECT_EQ(off, ref);
    EXPECT_GT(stats_on.plansExecuted, 0u);
    EXPECT_LT(stats_on.increments, stats_off.increments);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PlannerBackends,
    ::testing::Values(core::BackendKind::Ambit,
                      core::BackendKind::NvmPinatubo,
                      core::BackendKind::NvmMagic,
                      core::BackendKind::Rca),
    [](const ::testing::TestParamInfo<core::BackendKind> &info) {
        switch (info.param) {
          case core::BackendKind::Ambit:
            return "ambit";
          case core::BackendKind::NvmPinatubo:
            return "nvm_pinatubo";
          case core::BackendKind::NvmMagic:
            return "nvm_magic";
          default:
            return "rca";
        }
    });

class DenseDigit
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

// Every shard holds one counter per digit value k = 1..R-1 at digit 0,
// each reached by k unit ops (so replay costs far more than a plan):
// the digit folds into its binary-weighted planes and issues
// bit_width(R-1) programs per shard instead of R-1, on either rail.
TEST_P(DenseDigit, FoldsIntoBitWidthPlanesPerShard)
{
    const auto [radix, decrement] = GetParam();
    auto cfg = baseConfig(64, radix);
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    ShardedEngine eng(cfg, 2);
    std::vector<BatchOp> ops;
    for (unsigned s = 0; s < eng.numShards(); ++s)
        for (unsigned k = 1; k < radix; ++k)
            for (unsigned i = 0; i < k; ++i)
                ops.push_back({eng.shardStart(s) + k, decrement ? -1 : 1,
                               0});
    eng.accumulateBatch(ops);

    const auto st = eng.stats();
    EXPECT_EQ(st.planFallbackOps, 0u);
    EXPECT_EQ(st.planPrograms,
              eng.numShards() * std::bit_width(radix - 1));
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, ops));
}

INSTANTIATE_TEST_SUITE_P(
    RadixByRail, DenseDigit,
    ::testing::Combine(::testing::Values(4u, 6u, 8u, 10u, 16u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<unsigned, bool>>
           &info) {
        return "r" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_decrement" : "_increment");
    });

// ---------------------------------------------------------------------
// Hierarchical epoch pipeline (runEpoch): merged plans + gang issue
// ---------------------------------------------------------------------

namespace {

/** Route @p ops into per-shard epoch buckets and drain them through
    the hierarchical pipeline in one runEpoch call. */
void
drainEpoch(ShardedEngine &eng, const std::vector<BatchOp> &ops)
{
    std::vector<std::vector<BatchOp>> buckets(eng.numShards());
    for (const auto &op : ops)
        buckets[eng.shardOf(op.counter)].push_back(op);
    std::vector<ShardedEngine::EpochBucket> eb;
    for (unsigned s = 0; s < eng.numShards(); ++s)
        if (!buckets[s].empty())
            eb.push_back({s, buckets[s]});
    eng.runEpoch(eb);
}

/** Gang-issue ledger invariants every drained engine must satisfy. */
void
expectGangInvariants(const EngineStats &st, unsigned shards)
{
    // Followers are a subset of plan programs, ganged commands a
    // subset of all commands, and the attribution ledger stays
    // bit-exact with the PlanFanout row included.
    EXPECT_LE(st.planLeadPrograms, st.planPrograms);
    EXPECT_LE(st.fabric.gangedCommands, st.fabric.commands());
    double ledger = 0.0;
    for (double row : st.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, st.fabric.fabricNs);
    if (shards == 1) {
        // Single-shard plans are all-lead: nothing to gang.
        EXPECT_EQ(st.planLeadPrograms, st.planPrograms);
        EXPECT_EQ(st.fabric.gangedCommands, 0u);
        EXPECT_DOUBLE_EQ(
            st.fabric.attr(cim::FabricCat::PlanFanout), 0.0);
    }
}

} // namespace

class EpochPipeline
    : public ::testing::TestWithParam<
          std::tuple<core::BackendKind, unsigned>>
{
};

TEST_P(EpochPipeline, UnsignedEpochMatchesSerialReplay)
{
    const auto [backend, shards] = GetParam();
    auto cfg = baseConfig(96);
    cfg.backend = backend;
    cfg.capacityBits = 16;
    const auto ops = positiveOps(800, cfg.numCounters, 77);
    const auto ref = core::replaySerial(cfg, ops);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, shards);
    drainEpoch(eng, ops);
    EXPECT_EQ(eng.readAllCounters(), ref);

    const auto st = eng.stats();
    EXPECT_EQ(st.plannedOps + st.planFallbackOps, ops.size());
    expectGangInvariants(st, shards);
    if (shards > 1 && st.plansExecuted >= shards) {
        // A dense uniform stream touches the same (digit, k) planes
        // on every shard, so the merged plan must actually gang:
        // followers exist and are charged in their own ledger row.
        EXPECT_LT(st.planLeadPrograms, st.planPrograms);
        EXPECT_GT(st.fabric.gangedCommands, 0u);
        EXPECT_GT(st.fabric.attr(cim::FabricCat::PlanFanout), 0.0);
    }
}

TEST_P(EpochPipeline, SignedEpochFallsBackAndMatches)
{
    // A signed epoch drains as one merged dual-rail plan per group:
    // nothing replays per op, and the gang ledger stays exact with
    // the per-shard resolve ripples charged to the plan row.
    const auto [backend, shards] = GetParam();
    auto cfg = baseConfig(64);
    cfg.backend = backend;
    cfg.capacityBits = 16;
    const auto ops = randomOps(300, cfg.numCounters, 83, true);
    const auto ref = runSingle(cfg, ops);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, shards);
    drainEpoch(eng, ops);
    EXPECT_EQ(eng.readAllCounters(), ref);

    const auto st = eng.stats();
    EXPECT_EQ(st.planFallbackOps, 0u);
    EXPECT_EQ(st.plannedOps, ops.size());
    expectGangInvariants(st, shards);
    EXPECT_DOUBLE_EQ(st.fabric.attr(cim::FabricCat::Fallback), 0.0);
    EXPECT_GT(st.fabric.attr(cim::FabricCat::Plan), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsByShards, EpochPipeline,
    ::testing::Combine(
        ::testing::Values(core::BackendKind::Ambit,
                          core::BackendKind::NvmPinatubo,
                          core::BackendKind::NvmMagic,
                          core::BackendKind::Rca),
        ::testing::Values(1u, 2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<
        std::tuple<core::BackendKind, unsigned>> &info) {
        std::string name;
        switch (std::get<0>(info.param)) {
          case core::BackendKind::Ambit:
            name = "ambit";
            break;
          case core::BackendKind::NvmPinatubo:
            name = "nvm_pinatubo";
            break;
          case core::BackendKind::NvmMagic:
            name = "nvm_magic";
            break;
          default:
            name = "rca";
            break;
        }
        return name + "_x" + std::to_string(std::get<1>(info.param));
    });

TEST(EpochPipeline, RepeatedEpochsReuseScratchAndStayExact)
{
    // Three epochs of different shapes through one engine: the
    // per-part scratch (planes, tables, step lists) is reused across
    // runEpoch calls and must never leak state between epochs.
    auto cfg = baseConfig(128);
    cfg.capacityBits = 16;
    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);

    const auto e1 = positiveOps(500, cfg.numCounters, 5);
    const auto e2 = zipfOps(700, cfg.numCounters, 6);
    const auto e3 = distinctDeltaOps(cfg.numCounters);
    drainEpoch(eng, e1);
    drainEpoch(eng, e2);
    drainEpoch(eng, e3);

    std::vector<BatchOp> all = e1;
    all.insert(all.end(), e2.begin(), e2.end());
    all.insert(all.end(), e3.begin(), e3.end());
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, all));
    expectGangInvariants(eng.stats(), 4);
}

TEST(EpochPipeline, MultiGroupEpochMergesPerGroup)
{
    // Groups plan independently even inside one merged epoch: each
    // group gets its own global plan, sliced across the shards that
    // hold its ops.
    auto cfg = baseConfig(64);
    cfg.numGroups = 3;
    const auto ops = positiveOps(900, cfg.numCounters, 47, 3);

    EngineConfig pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine eng(pcfg, 4);
    drainEpoch(eng, ops);
    for (unsigned g = 0; g < 3; ++g)
        EXPECT_EQ(eng.readAllCounters(g),
                  core::replaySerial(cfg, ops, g))
            << "group " << g;
    expectGangInvariants(eng.stats(), 4);
}

TEST(EpochPipeline, MergedPlanAttributionSublinearInShards)
{
    // The tentpole claim: one gang-issued global plan instead of N
    // replicated per-shard plans. Lead programs stop scaling with
    // the shard count, so 8-shard plan attribution must stay well
    // under 4x the 1-shard cost for the same stream (it was exactly
    // 8x under replication).
    auto cfg = baseConfig(256);
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    const auto ops = positiveOps(4000, cfg.numCounters, 91);

    auto planAttr = [&](unsigned shards) {
        ShardedEngine eng(cfg, shards);
        drainEpoch(eng, ops);
        EXPECT_GT(eng.stats().plansExecuted, 0u);
        return eng.stats().fabric.attr(cim::FabricCat::Plan);
    };
    const double one = planAttr(1);
    const double eight = planAttr(8);
    EXPECT_GT(one, 0.0);
    EXPECT_LT(eight, 4.0 * one);
}

TEST(DrainPlanner, FoldedZipfEpochsRippleAsUnfoldedPlans)
{
    // Folded digits take IARM headroom from the largest summed digit,
    // exactly as unfolded plans did, so a multi-epoch unsigned Zipf
    // stream absorbs the carries of the same digits IARM would ripple
    // and issues no ripple, folded or not (pinned: the absorbed rows
    // and the plane programs, carries included). A headroom summed
    // over a digit's steps would read more rows; one taken from its
    // largest step, fewer (and unsoundly).
    auto cfg = baseConfig(256);
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    ShardedEngine eng(cfg, 4);
    std::vector<BatchOp> all;
    for (uint64_t e = 0; e < 8; ++e) {
        const auto ops = zipfOps(900, cfg.numCounters, 100 + e);
        drainEpoch(eng, ops);
        all.insert(all.end(), ops.begin(), ops.end());
    }
    const auto st = eng.stats();
    EXPECT_EQ(st.planFallbackOps, 0u);
    EXPECT_EQ(st.planPrograms, 210u);
    EXPECT_EQ(st.ripples, 0u);
    EXPECT_EQ(st.absorbPeeks, 64u);
    EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, all));
}

TEST(DrainPlanner, ProtectedConfigsStayExact)
{
    for (const auto prot : {Protection::Ecc, Protection::Tmr}) {
        auto cfg = baseConfig(48);
        cfg.protection = prot;
        const auto ops = positiveOps(300, cfg.numCounters, 51);
        const auto ref = core::replaySerial(cfg, ops);
        const auto [on, stats_on] = runPlanned(cfg, ops, true);
        EXPECT_EQ(on, ref);
        EXPECT_GT(stats_on.plansExecuted, 0u);
        if (prot == Protection::Ecc)
            EXPECT_GT(stats_on.checksRun, 0u);
        else
            EXPECT_GT(stats_on.voteOps, 0u);
    }
}

// ---------------------------------------------------------------------
// Carry-absorbing plans: due Onext rows ride the epoch's planes
// ---------------------------------------------------------------------

namespace {

/** A counting substrate with pending flags, by name. */
struct PendingSubstrate
{
    core::BackendKind backend;
    Protection protection;
    const char *name;
};

void
PrintTo(const PendingSubstrate &sub, std::ostream *os)
{
    *os << sub.name;
}

} // namespace

class DrainPlannerAbsorb
    : public ::testing::TestWithParam<PendingSubstrate>
{
};

// Eight unsigned Zipf epochs on 4 shards: IARM bounds pass 2R-1 from
// the second epoch on, so plans read due Onext rows into their sums
// instead of rippling them. Values stay exact after every epoch and
// Onext keeps meaning what readout says it means: draining at the
// end moves carries without changing any value.
TEST_P(DrainPlannerAbsorb, PlannedEpochsNeverRipple)
{
    auto cfg = baseConfig(256);
    cfg.backend = GetParam().backend;
    cfg.protection = GetParam().protection;
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    ShardedEngine eng(cfg, 4);
    std::vector<BatchOp> all;
    for (uint64_t e = 0; e < 8; ++e) {
        const auto ops = zipfOps(900, cfg.numCounters, 100 + e);
        const auto before = eng.stats();
        drainEpoch(eng, ops);
        const auto d = eng.stats().since(before);
        all.insert(all.end(), ops.begin(), ops.end());
        EXPECT_EQ(d.planFallbackOps, 0u) << "epoch " << e;
        EXPECT_EQ(d.ripples, 0u) << "epoch " << e;
        EXPECT_EQ(eng.readAllCounters(), core::replaySerial(cfg, all))
            << "epoch " << e;
    }
    EXPECT_GT(eng.stats().absorbPeeks, 0u);
    const auto values = eng.readAllCounters();
    eng.drain(0);
    EXPECT_EQ(eng.readAllCounters(), values);
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, DrainPlannerAbsorb,
    ::testing::Values(
        PendingSubstrate{core::BackendKind::Ambit, Protection::None,
                         "ambit"},
        PendingSubstrate{core::BackendKind::Ambit, Protection::Ecc,
                         "ambit_ecc"},
        PendingSubstrate{core::BackendKind::Ambit, Protection::Tmr,
                         "ambit_tmr"},
        PendingSubstrate{core::BackendKind::NvmPinatubo,
                         Protection::None, "nvm_pinatubo"},
        PendingSubstrate{core::BackendKind::NvmMagic, Protection::None,
                         "nvm_magic"}),
    [](const ::testing::TestParamInfo<PendingSubstrate> &info) {
        return std::string(info.param.name);
    });

TEST(DrainPlanner, TmrAbsorbsTheReplicaVoteOfEachPendingRow)
{
    // Counters 0..7 take +3 per epoch as three unit ops, so the third
    // epoch's plan must absorb digit 0 (bound 6 + 3 > 2R - 1), where
    // every counter holds 6 = 4 + 2: a carry in each column. A bit
    // planted by hand in one replica's Onext(0) row is outvoted by
    // the other two: no plan takes it in, and the clears remove it
    // from every replica. (The plan's own +3 wraps digit 0 again, so
    // the counters' carries are back in Onext(0) afterwards.)
    auto cfg = baseConfig(64);
    cfg.protection = Protection::Tmr;
    cfg.capacityBits = 16;
    cfg.drainPlanner = true;
    ShardedEngine eng(cfg, 1);
    std::vector<BatchOp> ops;
    for (uint64_t c = 0; c < 8; ++c)
        for (int i = 0; i < 3; ++i)
            ops.push_back({c, 1, 0});
    eng.accumulateBatch(ops);
    eng.accumulateBatch(ops);

    C2MEngine &shard = eng.shard(0);
    const auto onext = [&](unsigned replica) {
        return shard.backend()
            .layout(shard.physicalGroup(0, replica))
            .onextRow(0);
    };
    const auto plant = [&](unsigned replica, size_t col) {
        BitVector row = shard.subarray().peekRow(onext(replica));
        row.set(col, true);
        shard.backend().scrubWriteRow(onext(replica), row);
    };
    plant(0, 20); // the replica readout decodes
    plant(2, 30);
    std::vector<int64_t> want(cfg.numCounters, 0);
    for (size_t c = 0; c < 8; ++c)
        want[c] = 6;
    want[20] = 4; // Onext reads as R until the plan clears it
    EXPECT_EQ(eng.readAllCounters(), want);

    const auto before = eng.stats();
    eng.accumulateBatch(ops);
    const auto d = eng.stats().since(before);
    EXPECT_EQ(d.plansExecuted, 1u);
    EXPECT_EQ(d.absorbPeeks, 1u);
    EXPECT_EQ(d.ripples, 0u);
    for (size_t c = 0; c < 8; ++c)
        want[c] = 9;
    want[20] = 0;
    EXPECT_EQ(eng.readAllCounters(), want);
    const BitVector &row0 = shard.subarray().peekRow(onext(0));
    EXPECT_EQ(row0.popcount(), 8u);
    for (unsigned r = 1; r < 3; ++r)
        EXPECT_EQ(shard.subarray().peekRow(onext(r)), row0)
            << "replica " << r;
}

TEST(ShardedBatchErrors, OutOfRangeOpThrowsBeforeAnyShardRuns)
{
    // Checked on the caller's thread before any bucket runs, whatever
    // the op's position in the batch.
    for (const unsigned shards : {1u, 4u}) {
        auto cfg = baseConfig(64);
        cfg.numGroups = 2;
        ShardedEngine eng(cfg, shards);
        const std::vector<BatchOp> bad_counter = {
            {1, 5, 0}, {40, 2, 1}, {64, 1, 0}};
        const std::vector<BatchOp> bad_group = {
            {1, 5, 0}, {40, 2, 1}, {3, 1, 2}};
        const auto before = eng.stats();
        EXPECT_THROW(eng.accumulateBatch(bad_counter),
                     std::invalid_argument);
        EXPECT_THROW(eng.accumulateBatch(bad_group),
                     std::invalid_argument);
        const auto d = eng.stats().since(before);
        EXPECT_EQ(d.inputsAccumulated, 0u);
        EXPECT_EQ(d.fabric.commands(), 0u);
        EXPECT_EQ(d.fabric.rowWrites, 0u);
        EXPECT_EQ(eng.readAllCounters(0), std::vector<int64_t>(64, 0));
        EXPECT_EQ(eng.readAllCounters(1), std::vector<int64_t>(64, 0));
        eng.accumulateBatch(std::span(bad_counter).first(2));
        EXPECT_EQ(eng.readAllCounters(0)[1], 5);
        EXPECT_EQ(eng.readAllCounters(1)[40], 2);
    }
}

// ---------------------------------------------------------------------
// Dual-rail plans: seeded differential suite against replaySerial
// ---------------------------------------------------------------------

namespace {

/** A counting substrate of the sweep: backend plus protection. */
struct Substrate
{
    core::BackendKind backend;
    Protection protection;
    const char *name;
};

/** Print a substrate by name, so test names stay the same per build. */
void
PrintTo(const Substrate &sub, std::ostream *os)
{
    *os << sub.name;
}

/**
 * Substrate, full drain after every epoch (else IARM carries stay
 * deferred across epochs), shard count, radix.
 */
using DualRailParam = std::tuple<Substrate, bool, unsigned, unsigned>;

/** Split @p delta over 1..3 ops on @p counter (an uncoalesced sum). */
void
pushSplit(std::vector<BatchOp> &ops, Rng &rng, uint64_t counter,
          int64_t delta)
{
    const unsigned parts = 1 + static_cast<unsigned>(rng.nextBounded(3));
    for (unsigned i = 1; i < parts; ++i) {
        const int64_t piece =
            static_cast<int64_t>(rng.nextBounded(41)) - 20;
        ops.push_back({counter, piece, 0});
        delta -= piece;
    }
    ops.push_back({counter, delta, 0});
}

/**
 * Every Onext row of group 0 is empty on every replica (Ambit only:
 * read through the uncharged peekRow seam).
 */
void
expectNoPending(C2MEngine &eng, const char *what)
{
    for (unsigned r = 0; r < eng.numReplicas(); ++r) {
        const auto &l = eng.backend().layout(eng.physicalGroup(0, r));
        for (unsigned d = 0; d < l.numDigits(); ++d)
            EXPECT_EQ(eng.subarray().peekRow(l.onextRow(d)).popcount(),
                      0u)
                << what << ": replica " << r << " digit " << d;
    }
}

} // namespace

class DualRailDifferential
    : public ::testing::TestWithParam<DualRailParam>
{
};

// Multi-epoch mixed-sign streams through the planner; after every
// epoch the counters must equal replaySerial over the whole stream so
// far (and the host's exact sums). The epochs walk a group through
// the dual-rail cases: unsigned plans with deferred IARM carries,
// entering signed mode inside a planned epoch (with one rail and
// with both), every counter crossing zero (borrow chains run through
// the guard digit into Osign) and back, uncoalesced sums of zero,
// and a negative sum whose magnitude reaches the guard digit, which
// must replay per op. Radices 8 and 10 fold dense digits into planes
// 1, 2, 4 (and 8), whose weights sum past R-1 at radix 10. The _full
// cases drain every shard after each epoch, leaving the rows and
// bounds a scrub sweep leaves, so each plan starts from fully
// rippled counters and no Onext row
// may keep a pending; the _iarm cases leave IARM's deferred carries
// in place across epochs.
TEST_P(DualRailDifferential, EveryEpochMatchesSerialReplay)
{
    const auto [sub, full_drain, shards, radix] = GetParam();
    auto cfg = baseConfig(64, radix);
    cfg.backend = sub.backend;
    cfg.protection = sub.protection;
    cfg.capacityBits = 16; // D = 9 at radix 4: guard digit 4^8
    cfg.drainPlanner = true;
    ShardedEngine eng(cfg, shards);
    Rng rng(0xd0a1ULL * 8 + shards);

    std::vector<BatchOp> all;
    std::vector<int64_t> expect(cfg.numCounters, 0);
    const auto epoch = [&](const std::vector<BatchOp> &ops,
                           const char *what) {
        const auto before = eng.stats();
        drainEpoch(eng, ops);
        if (full_drain)
            eng.drain(0);
        all.insert(all.end(), ops.begin(), ops.end());
        for (const auto &op : ops)
            expect[op.counter] += op.value;
        const auto ref = core::replaySerial(cfg, all);
        EXPECT_EQ(ref, expect) << what;
        EXPECT_EQ(eng.readAllCounters(), ref) << what;
        // replaySerial runs the same resolve, and readout counts a
        // leftover carry flag as part of the value, so only the rows
        // show a pending the resolve missed.
        if (sub.backend == core::BackendKind::Ambit)
            for (unsigned s = 0; s < shards; ++s)
                if (full_drain || eng.shard(s).signedMode(0))
                    expectNoPending(eng.shard(s), what);
        const auto d = eng.stats().since(before);
        EXPECT_EQ(d.plannedOps + d.planFallbackOps, ops.size())
            << what;
        expectGangInvariants(eng.stats(), shards);
        return d;
    };
    const auto hotOps = [&](size_t n, double negative) {
        std::vector<BatchOp> ops;
        for (size_t i = 0; i < n; ++i) {
            auto v = static_cast<int64_t>(1 + rng.nextBounded(60));
            if (rng.nextBool(negative))
                v = -v;
            ops.push_back({rng.nextBounded(cfg.numCounters), v, 0});
        }
        return ops;
    };

    // Unsigned plans: IARM defers carries into pending flags.
    auto d = epoch(hotOps(400, 0.0), "unsigned");
    EXPECT_EQ(d.planFallbackOps, 0u);

    // Negative sums enter signed mode inside a planned epoch, on
    // exactly the shards that hold one. Even shards see only
    // negative sums (a decrement rail alone, over the carries IARM
    // left pending), odd shards only positive ones.
    std::vector<BatchOp> ops;
    for (size_t c = 0; c < cfg.numCounters; ++c) {
        const auto v = static_cast<int64_t>(1 + rng.nextBounded(500));
        pushSplit(ops, rng, c, eng.shardOf(c) % 2 ? v : -v);
    }
    d = epoch(ops, "enter signed mode, one rail");
    EXPECT_EQ(d.planFallbackOps, 0u);
    for (unsigned s = 0; s < shards; ++s)
        EXPECT_EQ(eng.shard(s).signedMode(0), s % 2 == 0)
            << "shard " << s;

    // Both rails at once, entering signed mode on the odd shards.
    ops = hotOps(400, 0.45);
    std::vector<int64_t> sums(cfg.numCounters, 0);
    for (const auto &op : ops)
        sums[op.counter] += op.value;
    d = epoch(ops, "enter signed mode, both rails");
    EXPECT_EQ(d.planFallbackOps, 0u);
    EXPECT_DOUBLE_EQ(d.fabric.attr(cim::FabricCat::Fallback), 0.0);
    for (unsigned s = 0; s < shards; ++s) {
        bool negative = s % 2 == 0;
        for (size_t c = eng.shardStart(s);
             c < eng.shardStart(s) + eng.shardWidth(s); ++c)
            negative = negative || sums[c] < 0;
        EXPECT_EQ(eng.shard(s).signedMode(0), negative) << "shard " << s;
    }

    // Every counter crosses zero downward (0 - 1 borrows through
    // every digit into Osign), then back up.
    ops.clear();
    for (size_t c = 0; c < cfg.numCounters; ++c)
        pushSplit(ops, rng, c,
                  -expect[c] - 1 -
                      static_cast<int64_t>(c % 4 ? rng.nextBounded(300)
                                                 : 0));
    epoch(ops, "cross zero down");
    ops.clear();
    for (size_t c = 0; c < cfg.numCounters; ++c)
        pushSplit(ops, rng, c,
                  -expect[c] + static_cast<int64_t>(rng.nextBounded(90)));
    epoch(ops, "cross zero up");

    // Uncoalesced sums of zero: no planes, values untouched.
    ops.clear();
    for (size_t c = 0; c < cfg.numCounters; ++c)
        pushSplit(ops, rng, c, 0);
    d = epoch(ops, "zero sums");
    EXPECT_EQ(d.planFallbackOps, 0u);
    EXPECT_EQ(d.planPrograms, 0u);

    // Negative twin of GuardDigitSumsFallBackInsteadOfPanicking: each
    // op is in range, the summed magnitude 1.5 R^(D-1) is not.
    uint64_t guard = 1;
    for (unsigned d = 1; d < eng.shard(0).backend().numDigits(); ++d)
        guard *= radix;
    ops = hotOps(300, 0.45);
    for (int i = 0; i < 3; ++i)
        ops.push_back({0, -static_cast<int64_t>(guard / 2), 0});
    d = epoch(ops, "guard digit");
    EXPECT_GT(d.planFallbackOps, 0u);

    // The signed-mode group keeps planning afterwards.
    epoch(hotOps(400, 0.45), "signed steady state");
}

INSTANTIATE_TEST_SUITE_P(
    SubstrateRippleShards, DualRailDifferential,
    ::testing::Combine(
        ::testing::Values(
            Substrate{core::BackendKind::Ambit, Protection::None,
                      "ambit"},
            Substrate{core::BackendKind::Ambit, Protection::Ecc,
                      "ambit_ecc"},
            Substrate{core::BackendKind::Ambit, Protection::Tmr,
                      "ambit_tmr"},
            Substrate{core::BackendKind::NvmPinatubo, Protection::None,
                      "nvm_pinatubo"},
            Substrate{core::BackendKind::NvmMagic, Protection::None,
                      "nvm_magic"},
            Substrate{core::BackendKind::Rca, Protection::None, "rca"}),
        ::testing::Bool(),
        ::testing::Values(1u, 2u, 4u, 8u),
        ::testing::Values(4u, 8u, 10u)),
    [](const ::testing::TestParamInfo<DualRailParam> &info) {
        std::string name = std::get<0>(info.param).name;
        name += std::get<1>(info.param) ? "_full" : "_iarm";
        name += "_x" + std::to_string(std::get<2>(info.param));
        // Radix 4 keeps the suite's original names.
        if (const unsigned radix = std::get<3>(info.param); radix != 4)
            name += "_r" + std::to_string(radix);
        return name;
    });
