/**
 * @file
 * Fabric-cost accounting tests: DramTimings/EnergyModel algebra
 * (incl. the tFAW/tRRD rank window vs per-bank period), cross-backend
 * cost invariants (command counts invariant under a fallback-forced
 * planner; strictly monotone fabric time; nonzero cost for nonzero
 * op streams), cost-model-vs-simulator
 * agreement on the fabric-time axis, and no-double-count checks
 * across the shard merge and the service attribution.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/costmodel.hpp"
#include "core/fabriccost.hpp"
#include "core/sharded.hpp"
#include "dram/scheduler.hpp"
#include "jc/layout.hpp"
#include "uprog/codegen_ambit.hpp"
#include "service/ingest.hpp"

using namespace c2m;
using core::BatchOp;
using core::EngineConfig;
using core::ShardedEngine;

namespace {

EngineConfig
baseConfig(core::BackendKind backend = core::BackendKind::Ambit)
{
    EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = 64;
    cfg.maxMaskRows = 4;
    cfg.backend = backend;
    return cfg;
}

std::vector<BatchOp>
randomOps(size_t n, size_t counters, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({rng.nextBounded(counters),
                       static_cast<int64_t>(1 + rng.nextBounded(30)),
                       0});
    return ops;
}

} // namespace

TEST(DramTimings, CommandAlgebra)
{
    const auto t = dram::DramTimings::ddr5_4400();
    EXPECT_DOUBLE_EQ(t.tAapNs(), t.tRasNs + t.tRpNs);
    EXPECT_DOUBLE_EQ(t.bankPeriodNs(), t.tAapNs() + t.tRrdNs);
    // A row access pays tRCD + burst + tRP; burst scales per 64 B.
    EXPECT_DOUBLE_EQ(t.rowAccessNs(64),
                     t.tRcdNs + t.tBurstNs + t.tRpNs);
    EXPECT_DOUBLE_EQ(t.rowAccessNs(128),
                     t.tRcdNs + 2.0 * t.tBurstNs + t.tRpNs);
}

TEST(DramTimings, FawWindowFloorsTheIssueInterval)
{
    auto t = dram::DramTimings::ddr5_4400();
    // One bank: the per-bank period dominates.
    EXPECT_DOUBLE_EQ(t.issueIntervalNs(1), t.bankPeriodNs());
    // Many banks: the rank-level window (max of tRRD and tFAW/4)
    // floors the interval — more banks stop helping.
    const double rank_floor = std::max(t.tRrdNs, t.tFawNs / 4.0);
    EXPECT_DOUBLE_EQ(t.issueIntervalNs(1024), rank_floor);
    // A wide tFAW makes the four-activate window the binding floor.
    t.tFawNs = 40.0;
    EXPECT_DOUBLE_EQ(t.issueIntervalNs(1024), t.tFawNs / 4.0);
}

TEST(EnergyModel, PerCommandEnergies)
{
    const auto e = dram::EnergyModel::ddr5();
    // AAP: two activates + one precharge on every chip of the rank.
    EXPECT_DOUBLE_EQ(e.aapEnergyNj(),
                     e.chipsPerRank *
                         (2.0 * e.eActPerChipNj + e.ePrePerChipNj));
    EXPECT_DOUBLE_EQ(e.apEnergyNj(),
                     e.chipsPerRank *
                         (e.eActPerChipNj + e.ePrePerChipNj));
    EXPECT_GT(e.rowAccessEnergyNj(128), e.rowAccessEnergyNj(64));
}

class CostBackends
    : public ::testing::TestWithParam<core::BackendKind>
{
};

TEST_P(CostBackends, NonzeroOpStreamHasNonzeroCost)
{
    const auto cfg = baseConfig(GetParam());
    ShardedEngine eng(cfg, 2);
    eng.accumulateBatch(randomOps(40, cfg.numCounters, 5));
    const auto st = eng.stats();
    EXPECT_GT(st.fabric.commands(), 0u);
    EXPECT_GT(st.fabric.fabricNs, 0.0);
    EXPECT_GT(st.fabric.fabricNj, 0.0);
    const auto w = core::statsWindow(eng);
    EXPECT_GT(w.criticalNs, 0.0);
    // The critical path is a lower bound on the serial total, and
    // with the rank window floor it cannot be cheaper than issuing
    // every command back to back at the steady interval.
    EXPECT_LE(w.criticalNs, st.fabric.fabricNs);
}

TEST_P(CostBackends, ForcedFallbackMatchesPlannerOffExactly)
{
    // Two counters whose deltas populate four distinct (digit, k)
    // planes: a plan would rewrite four plane rows to save two point
    // mask switches, so the cost model must pick per-op replay — and
    // then the planner-on engine must issue exactly the commands the
    // planner-off engine does.
    auto cfg = baseConfig(GetParam());
    const std::vector<BatchOp> ops = {{0, 5, 0}, {1, 10, 0}};

    // Deltas from the post-construction baseline: the planner
    // registers its persistent plane rows up front, which is setup
    // cost, not stream cost.
    cfg.drainPlanner = true;
    ShardedEngine on(cfg, 1);
    const auto on0 = on.stats().fabric;
    on.accumulateBatch(ops);
    cfg.drainPlanner = false;
    ShardedEngine off(cfg, 1);
    const auto off0 = off.stats().fabric;
    off.accumulateBatch(ops);

    EXPECT_EQ(on.stats().plansExecuted, 0u);
    EXPECT_EQ(on.stats().planFallbackOps, ops.size());
    const auto a = on.stats().fabric;
    const auto b = off.stats().fabric;
    EXPECT_EQ(a.aap - on0.aap, b.aap - off0.aap);
    EXPECT_EQ(a.ap - on0.ap, b.ap - off0.ap);
    EXPECT_EQ(a.tra - on0.tra, b.tra - off0.tra);
    EXPECT_EQ(a.rowWrites - on0.rowWrites,
              b.rowWrites - off0.rowWrites);
    // NEAR, not exact: the planner engine's larger construction
    // baseline makes the subtraction round differently.
    EXPECT_NEAR(a.fabricNs - on0.fabricNs,
                b.fabricNs - off0.fabricNs, 1e-6);
    EXPECT_NEAR(a.fabricNj - on0.fabricNj,
                b.fabricNj - off0.fabricNj, 1e-6);
    EXPECT_EQ(on.readAllCounters(), off.readAllCounters());
}

TEST_P(CostBackends, FabricTimeIsStrictlyMonotone)
{
    const auto cfg = baseConfig(GetParam());
    ShardedEngine eng(cfg, 1);
    const auto ops = randomOps(10, cfg.numCounters, 21);
    double prev = eng.stats().fabric.fabricNs;
    for (const auto &op : ops) {
        eng.accumulateBatch(std::span<const BatchOp>(&op, 1));
        const double now = eng.stats().fabric.fabricNs;
        EXPECT_GT(now, prev);
        prev = now;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CostBackends,
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

TEST(CostModel, DecrementOpsMatchGeneratedPrograms)
{
    // The planner prices decrement planes (and negative per-op
    // replay) with decrementOps(k): it must be the size of the
    // program the backend runs, at any digit. An unprotected step by
    // k costs 7n+6+min(k, 2n-k) commands in either direction, so here
    // decrementOps(k) equals incrementOps(k); the ECC programs detect
    // the borrow with another form, so there they differ.
    for (const unsigned radix : {4u, 6u, 10u, 16u}) {
        const core::C2mCostModel model(radix, 16);
        const jc::CounterLayout layout(radix, 16, 0);
        const uprog::AmbitCodegen gen(layout, uprog::CodegenOptions{});
        for (unsigned k = 1; k < radix; ++k) {
            EXPECT_EQ(model.decrementOps(k),
                      gen.karyDecrement(1, k, layout.endRow() + 3)
                          .totalOps())
                << "radix " << radix << " k " << k;
            EXPECT_EQ(model.incrementOps(k),
                      gen.karyIncrement(1, k, layout.endRow() + 3)
                          .totalOps())
                << "radix " << radix << " k " << k;
        }
    }
    EXPECT_EQ(core::C2mCostModel(4, 16).incrementOps(2), 20u);
    EXPECT_EQ(core::C2mCostModel(4, 16).decrementOps(2), 20u);
    EXPECT_EQ(core::C2mCostModel(16, 16).incrementOps(1), 63u);
    EXPECT_EQ(core::C2mCostModel(16, 16).decrementOps(1), 63u);
}

TEST(CostModelAgreement, StreamAapCountMatchesAmbitSimulation)
{
    // The analytic model and the bit-accurate simulator must agree
    // on the command count — and therefore on modeled fabric time:
    // every AAP/AP occupies its bank for one bankPeriodNs.
    const unsigned radix = 4;
    EngineConfig cfg = baseConfig();
    cfg.radix = radix;
    cfg.numCounters = 8;
    core::C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(8, 1));
    const auto before = eng.backend().opStats();

    const std::vector<uint64_t> values = {1, 3, 4, 15, 16, 255, 7};
    for (uint64_t v : values)
        eng.accumulate(v, h);

    const core::C2mCostModel model(radix, cfg.capacityBits);
    const auto cost = model.accumulateStream(values);
    const auto after = eng.backend().opStats();
    EXPECT_EQ(cost.aaps, after.commands() - before.commands());
    const double expected_ns =
        static_cast<double>(cost.aaps) *
        core::commandCosts(cfg.backend, cfg.numCounters).aapNs;
    EXPECT_NEAR(after.fabricNs - before.fabricNs, expected_ns,
                1e-9 * expected_ns);
}

TEST(CostAttribution, ShardMergeCountsEveryShardOnce)
{
    const auto cfg = baseConfig();
    ShardedEngine eng(cfg, 4);
    eng.accumulateBatch(randomOps(80, cfg.numCounters, 13));
    double sum_ns = 0.0, sum_nj = 0.0, max_ns = 0.0;
    for (unsigned s = 0; s < eng.numShards(); ++s) {
        const auto st = eng.shard(s).stats();
        sum_ns += st.fabric.fabricNs;
        sum_nj += st.fabric.fabricNj;
        max_ns = std::max(max_ns, st.fabric.fabricNs);
    }
    const auto merged = eng.stats();
    EXPECT_DOUBLE_EQ(merged.fabric.fabricNs, sum_ns);
    EXPECT_DOUBLE_EQ(merged.fabric.fabricNj, sum_nj);
    // Critical path: at least the slowest shard, at least the rank
    // window floor, never more than the serial sum.
    const auto w = core::statsWindow(eng);
    EXPECT_GE(w.criticalNs, max_ns);
    const double rank_floor =
        static_cast<double>(merged.fabric.commands()) *
        dram::DramTimings::ddr5_4400().issueIntervalNs(eng.numShards());
    EXPECT_GE(w.criticalNs, rank_floor);
    EXPECT_LE(w.criticalNs, merged.fabric.fabricNs);
}

TEST(CostAttribution, ServiceAttributesEngineFabricExactlyOnce)
{
    const auto cfg = baseConfig();
    ShardedEngine eng(cfg, 2);
    // Construction (counter clearing, reserved mask rows) is engine
    // cost the service never drove; its epochs add to it.
    const auto base = eng.stats().fabric;
    service::IngestService svc(eng);
    const auto ops = randomOps(50, cfg.numCounters, 17);
    svc.submit(std::span<const BatchOp>(ops));
    svc.flushAndWait();
    svc.stop();
    // The report carries fabric time once, as the engine's merged
    // total; the service keeps no copy of its epochs' slice.
    const auto fab = svc.engineStats().fabric;
    EXPECT_GT(fab.fabricNs, base.fabricNs);
    const auto report = svc.report();
    EXPECT_EQ(report.at("engine.fabric.ns"),
              static_cast<uint64_t>(std::llround(fab.fabricNs)));
    EXPECT_EQ(report.at("engine.fabric.nj"),
              static_cast<uint64_t>(std::llround(fab.fabricNj)));
    size_t fabric_ns_keys = 0;
    for (const auto &kv : report)
        fabric_ns_keys += kv.first.ends_with("fabric.ns") ||
                          kv.first.ends_with("fabric_ns");
    EXPECT_EQ(fabric_ns_keys, 1u);
}
