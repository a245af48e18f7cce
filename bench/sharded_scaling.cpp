/**
 * @file
 * Sharded batch engine scaling: ops/s of the point-update batch path
 * at 1/2/4/8 shards over a fixed logical counter space, with the
 * digit-plane drain planner off and on.
 *
 * Sharding narrows each shard's simulated subarray to 1/N of the
 * columns, so a routed point update expands into row operations that
 * touch 1/N of the bits; shards additionally run concurrently on the
 * thread pool. The planner compounds a third effect: a shard's whole
 * bucket collapses into at most D*bit_width(R-1) masked
 * column-parallel programs per group once its dense digits fold into
 * binary-weighted planes, so fabric programs stop scaling with the op
 * count at all. A radix-16 planner-on cell at 4 shards gates that
 * bound where folding pays most (4 planes per dense digit, not 15).
 * Both planner settings must stay bit-identical to the serial replay
 * baseline.
 *
 * Every cell is a window over the timed batch alone (bench/harness):
 * modeled fabric ns/nJ and the windowed critical path
 * (core::statsWindow, docs/perf.md). The serial-replay check reads the
 * counters after the window closes. The JSON carries an analytical GPU
 * baseline (GpuModel::countingRun) costed on the same axis for the
 * Fig. 14-style comparison.
 *
 * Usage: sharded_scaling [--trace FILE]
 */

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/gpu_model.hpp"
#include "harness.hpp"
#include "jc/digits.hpp"

using namespace c2m;

int
main(int argc, char **argv)
{
    bench::Harness h("sharded_scaling", "BENCH_sharded.json", argc,
                     argv);

    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = 32768;
    cfg.maxMaskRows = 1;

    const size_t num_ops = 32768;
    Rng rng(99);
    std::vector<core::BatchOp> ops;
    ops.reserve(num_ops);
    for (size_t i = 0; i < num_ops; ++i)
        ops.push_back({rng.nextBounded(cfg.numCounters),
                       static_cast<int64_t>(1 + rng.nextBounded(15)),
                       0});

    std::printf("sharded batch scaling: %zu point updates over %zu "
                "logical counters\n",
                num_ops, cfg.numCounters);
    TextTable t({"planner", "shards", "time_s", "ops/s", "speedup",
                 "programs", "plan_progs", "cache_hit%",
                 "fabric_us", "crit_us", "skew", "eff"});
    // One cell: @p pcfg over @p shards, its counters checked against
    // @p reference. The speedup column is against @p base_ops_per_s
    // (0: this cell is the base).
    const auto runCell = [&](const core::EngineConfig &pcfg,
                             unsigned shards, json::Value id,
                             const std::vector<int64_t> &reference,
                             double &base_ops_per_s) -> bench::Cell & {
        core::ShardedEngine eng(pcfg, shards);
        // Warm-up: touch every shard once so first-op setup (point
        // mask allocation, page faults) is off the clock.
        std::vector<core::BatchOp> warm;
        for (unsigned s = 0; s < shards; ++s)
            warm.push_back({eng.shardStart(s), 1, 0});
        eng.accumulateBatch(warm);
        eng.clear();
        // Wall time is best-of-5: planner-on cells drain in a few
        // milliseconds, where one sample is at the mercy of thread
        // wake-up jitter and the speedup column would flap. Four
        // throwaway reps race the clock first, cleared between runs.
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 4; ++rep) {
            const bench::Window r = h.open();
            eng.accumulateBatch(ops);
            best = std::min(best, r.seconds());
            eng.clear();
        }

        const bench::Window w = h.open(&eng);
        eng.accumulateBatch(ops);
        const double dt = std::min(best, w.seconds());
        bench::Cell &c = h.cell(std::move(id), eng, w, dt, num_ops);
        c.gate("match_serial_replay",
               eng.readAllCounters() == reference);

        const double rate = static_cast<double>(num_ops) / dt;
        if (base_ops_per_s == 0.0)
            base_ops_per_s = rate;
        const double speedup = rate / base_ops_per_s;
        const auto &win = c.window;
        c.model.set("fabric_programs", win.total.increments)
            .set("plan_programs", win.total.planPrograms)
            .set("plan_fallback_ops", win.total.planFallbackOps)
            .set("critical_shard", win.criticalShard);
        c.host.set("speedup", speedup);
        t.addRow({pcfg.drainPlanner ? "on" : "off",
                  std::to_string(shards) +
                      (pcfg.radix != cfg.radix
                           ? " r" + std::to_string(pcfg.radix)
                           : ""),
                  TextTable::fmt(dt, 3), TextTable::fmt(rate, 0),
                  TextTable::fmt(speedup, 2),
                  std::to_string(win.total.increments),
                  std::to_string(win.total.planPrograms),
                  TextTable::fmt(100.0 * win.cacheHitRate, 1),
                  TextTable::fmt(win.total.fabric.fabricNs / 1e3, 1),
                  TextTable::fmt(win.criticalNs / 1e3, 1),
                  TextTable::fmt(win.skew, 3),
                  TextTable::fmt(win.parallelEfficiency, 3)});
        return c;
    };

    const auto reference = core::replaySerial(cfg, ops);
    double four_shard_speedup = 0.0;
    double plan_attr_1 = 0.0, plan_attr_8 = 0.0;
    for (const bool planner : {false, true}) {
        double base_ops_per_s = 0.0;
        for (unsigned shards : {1u, 2u, 4u, 8u}) {
            auto pcfg = cfg;
            pcfg.drainPlanner = planner;
            const bench::Cell &c =
                runCell(pcfg, shards,
                        json::Value::object()
                            .set("planner", planner)
                            .set("shards", shards),
                        reference, base_ops_per_s);
            const double speedup = c.host.numberOr("speedup", 0.0);
            const double plan =
                c.window.total.fabric.attr(cim::FabricCat::Plan);
            if (!planner && shards == 4)
                four_shard_speedup = speedup;
            if (planner && shards == 1)
                plan_attr_1 = plan;
            if (planner && shards == 8)
                plan_attr_8 = plan;
        }
    }

    // planner_speedup_8: a planner-on batch drains in about 2 ms, where
    // thread wake-up jitter can flip a comparison of two best-of-5
    // cells, so the 1- and 8-shard engines take turns on the batch
    // until each has spent at least 100 ms on it, and the gate compares
    // those totals.
    double planner_speedup_8 = 0.0;
    {
        auto pcfg = cfg;
        pcfg.drainPlanner = true;
        core::ShardedEngine one(pcfg, 1);
        core::ShardedEngine eight(pcfg, 8);
        double secs_1 = 0.0, secs_8 = 0.0;
        for (int rep = 0; secs_1 < 0.1 || secs_8 < 0.1; ++rep) {
            for (auto [eng, secs] : {std::pair{&one, &secs_1},
                                     std::pair{&eight, &secs_8}}) {
                const bench::Window r = h.open();
                eng->accumulateBatch(ops);
                if (rep > 0) // the first rep warms up both engines
                    *secs += r.seconds();
                eng->clear();
            }
        }
        planner_speedup_8 = secs_1 / secs_8;
    }

    // Radix 16, 4 shards, planner on: the same values (1..15) fill
    // every k of digit 0 on every shard, which folds into planes 1, 2,
    // 4 and 8. Each shard then issues at most bit_width(R-1) programs
    // per digit and rail.
    {
        auto pcfg = cfg;
        pcfg.radix = 16;
        pcfg.drainPlanner = true;
        const unsigned shards = 4;
        double base_ops_per_s = 0.0;
        bench::Cell &c = runCell(pcfg, shards,
                                 json::Value::object()
                                     .set("planner", true)
                                     .set("shards", shards)
                                     .set("radix", pcfg.radix),
                                 core::replaySerial(pcfg, ops),
                                 base_ops_per_s);
        const unsigned D =
            jc::digitsForCapacityBits(pcfg.radix, pcfg.capacityBits) + 1;
        c.gate("plan_programs_bit_width_bound",
               static_cast<double>(c.window.total.planPrograms), "<=",
               static_cast<double>(shards * 2 * D *
                                   std::bit_width(pcfg.radix - 1)));
    }
    std::printf("%s", t.render().c_str());

    // Analytical GPU baseline on the same cost axis (Fig. 14): a
    // bandwidth-bound scatter-add histogram of the same op stream.
    const auto gpu = core::GpuModel::rtx3090ti().countingRun(
        num_ops, cfg.numCounters);
    std::printf("gpu model (rtx3090ti) same counting run: %.1f us, "
                "%.1f uJ\n",
                gpu.ns / 1e3, gpu.nj / 1e3);

    bench::Record &doc = h.doc();
    doc.id.set("backend", core::backendName(cfg.backend))
        .set("num_ops", num_ops)
        .set("num_counters", cfg.numCounters)
        .set("gpu_model", "rtx3090ti");
    const double plan_attr_ratio =
        plan_attr_1 > 0.0 ? plan_attr_8 / plan_attr_1 : 0.0;
    doc.model.set("plan_attr_ratio_8v1", plan_attr_ratio)
        .set("gpu_model", json::Value::object()
                              .set("fabric_ns", gpu.ns)
                              .set("fabric_nj", gpu.nj));
    doc.host.set("planner_speedup_8", planner_speedup_8);
    doc.gate("four_shard_speedup_planner_off", four_shard_speedup, ">",
             2.0);
    // The hierarchical drain plans once per group and gang-issues the
    // slices, so plan attribution must stop scaling with the shard
    // count (it was exactly Nx under per-shard replication) and the
    // planner must not invert the 8-shard scaling curve.
    doc.gate("plan_attr_1_shard", plan_attr_1, ">", 0.0);
    doc.gate("plan_attr_8_shard", plan_attr_8, ">", 0.0);
    doc.gate("plan_attr_ratio_8v1", plan_attr_ratio, "<", 4.0);
    doc.gate("planner_speedup_8", planner_speedup_8, ">=", 1.0);
    return h.finish();
}
