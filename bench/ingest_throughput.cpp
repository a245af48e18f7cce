/**
 * @file
 * Async ingest throughput: producers x shards x coalescing x drain
 * planner over uniform and Zipf(1.0)-skewed key streams, plus a
 * signed stream.
 *
 * Every cell is flush-driven: minDrainOps sits above any chunk, so
 * only the cell's own flushAndWait() after each chunk cuts an epoch,
 * and every cell gates epochs == chunks. A one-chunk cell drains the
 * whole stream as one epoch, so duplicate (counter, group) deltas
 * merge before touching the fabric and the drain planner sees the
 * whole stream as one bucket per shard — however the producers
 * interleave. The headline numbers:
 *
 *  - fabric inputs (EngineStats::inputsAccumulated): accumulate
 *    calls that actually reached the fabric. Coalescing on a skewed
 *    stream must cut this >= 2x vs. uncoalesced ingest — the
 *    write-combining win the batch substrate rewards.
 *  - fabric programs (EngineStats::increments): row-level k-ary
 *    increment programs executed. The digit-plane planner must cut
 *    this >= 5x on the coalesced Zipf 4p/4s cell — the
 *    column-parallel win (Fig. 15): one masked program per populated
 *    (digit, k) plane instead of one program chain per counter.
 *  - bit-identity: every cell's final counters are compared against
 *    one blocking C2MEngine replaying the same stream serially.
 *  - fabric cost (docs/perf.md): every cell reports the modeled
 *    fabric time, energy and critical path of its stream.
 *  - signed resolve: every cell reports its ripples, Onext row reads
 *    (pending_peeks) and Osign folds, and gates peeks <= steps +
 *    ripples and folds <= ripples.
 *  - absorbed carries: every planner-on cell of an unsigned stream
 *    gates ripples == 0 — its plans read due Onext rows into their
 *    planes (absorb_peeks) instead of rippling them.
 *  - plan-path program caching: an extra Zipf cell drains the same
 *    stream as 16 flushed chunks; because digit planes live in
 *    persistent reserved mask rows, plan programs generated in the
 *    first epochs replay from the ProgramCache afterwards — the
 *    cell's hit rate must exceed 90%.
 *  - dual-rail plans: a uniform stream whose every other delta is
 *    negative, at 4 shards with coalescing on, planner off and on.
 *    The planner-on cell must drain entirely as increment and
 *    decrement digit planes (no fallback ops, a zero fallback
 *    ledger row), and planner-off fabric ns over planner-on must
 *    stay above kSignedPlanGain.
 *
 * A cell's window is its engine's lifetime: construction, the
 * stream, and the service read-back whose counters the cell checks
 * (that read is part of the timed ingest and stays in the window).
 * The host clock starts after the engine and service are built.
 * The anomaly watchdog evaluates each cell's counters; it must stay
 * quiet. A final showcase drives a VirtualCounterSpace with an
 * attached Scrubber through an IngestService so a `--trace` run also
 * carries scrub.sweep spans and virt.spill / virt.restore events; the
 * written trace is read back and gated on every event family.
 * Gates and exit status: bench/harness.
 *
 * Usage: ingest_throughput [--trace FILE]
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/gpu_model.hpp"
#include "harness.hpp"
#include "obs/analyze.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;

namespace {

constexpr size_t kNumCounters = 4096;
constexpr size_t kNumOps = 4096;
/**
 * Above any chunk a cell submits, so the coalescing window never
 * fills: only flushes cut epochs.
 */
constexpr size_t kMinDrainOps = kNumOps + 1;
/**
 * Floor on the signed stream's planner-off / planner-on fabric ns.
 * Measured 55.8x since signed groups store v + B: 7.37 M / 132.2 k
 * ns (both sides lost their zero-crossing ripple chains, and the
 * planner-on cell pays each shard's host re-encode at signed-mode
 * entry); per-op replay of the signed cell would read 1x.
 */
constexpr double kSignedPlanGain = 50.0;

core::EngineConfig
engineConfig(bool planner = true)
{
    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = kNumCounters;
    cfg.maxMaskRows = 1;
    cfg.drainPlanner = planner;
    return cfg;
}

enum class Stream
{
    Uniform,
    Zipf,
    SignedUniform, ///< uniform keys, every other delta negative
};

std::vector<core::BatchOp>
makeStream(Stream kind)
{
    std::vector<core::BatchOp> ops;
    ops.reserve(kNumOps);
    Rng val_rng(7);
    if (kind == Stream::Zipf) {
        ZipfRng keys(kNumCounters, 1.0, 42);
        for (size_t i = 0; i < kNumOps; ++i)
            ops.push_back(
                {keys.next(),
                 static_cast<int64_t>(1 + val_rng.nextBounded(7)),
                 0});
    } else {
        Rng keys(42);
        for (size_t i = 0; i < kNumOps; ++i) {
            auto v = static_cast<int64_t>(1 + val_rng.nextBounded(7));
            if (kind == Stream::SignedUniform && i % 2)
                v = -v;
            ops.push_back({keys.nextBounded(kNumCounters), v, 0});
        }
    }
    return ops;
}

bench::Cell &
runCell(bench::Harness &h, obs::Watchdog &wd, const char *dist,
        const std::vector<core::BatchOp> &ops,
        const std::vector<int64_t> &reference, unsigned shards,
        unsigned producers, bool coalesce, bool planner,
        size_t chunks = 1)
{
    const bench::Window w = h.open();
    core::ShardedEngine engine(engineConfig(planner), shards);
    service::IngestConfig icfg;
    icfg.coalesce = coalesce;
    icfg.minDrainOps = kMinDrainOps;
    icfg.queueCapacity = 2 * kNumOps;
    service::IngestService svc(engine, icfg);
    // The host clock starts once the engine and service are built.
    const bench::Window timed = h.open();

    // One epoch per chunk: the flush cuts it once every producer
    // has pushed the whole chunk.
    const size_t per = (ops.size() + chunks - 1) / chunks;
    for (size_t lo = 0; lo < ops.size(); lo += per) {
        const size_t hi = std::min(ops.size(), lo + per);
        service::submitConcurrent(
            svc, std::span<const core::BatchOp>(ops).subspan(lo, hi - lo),
            producers);
        svc.flushAndWait();
    }
    const bool match = svc.readCounters() == reference;
    const double seconds = timed.seconds();

    const auto sst = svc.serviceStats();
    bench::Cell &c = h.cell(json::Value::object()
                                .set("dist", dist)
                                .set("shards", shards)
                                .set("producers", producers)
                                .set("coalesce", coalesce)
                                .set("planner", planner)
                                .set("chunks", chunks),
                            engine, w, seconds, kNumOps);
    const auto &est = c.window.total;
    c.model.set("fabric_inputs", est.inputsAccumulated)
        .set("fabric_increments", est.increments)
        .set("ripples", est.ripples)
        .set("pending_peeks", est.pendingPeeks)
        .set("absorb_peeks", est.absorbPeeks)
        .set("sign_folds", est.signFolds)
        .set("epochs", sst.epochs)
        .set("coalesced", sst.coalesced)
        .set("plans", est.plansExecuted)
        .set("plan_programs", est.planPrograms)
        .set("planned_ops", est.plannedOps)
        .set("plan_fallback_ops", est.planFallbackOps);
    c.host.set("steals", sst.steals).set("stalls", sst.stalls);
    c.counters = svc.report();
    c.gate("match_serial_replay", match);
    c.gate("epochs_eq_chunks", static_cast<double>(sst.epochs), "==",
           static_cast<double>(chunks));
    // Signed resolve reads an Onext row only where a step or a ripple
    // may have left a pending, and folds into Osign only after a
    // ripple into the top digit; a full scan per pass fails both.
    c.gate("peeks_le_steps_plus_ripples",
           static_cast<double>(est.pendingPeeks), "<=",
           static_cast<double>(est.increments + est.ripples));
    c.gate("folds_le_ripples", static_cast<double>(est.signFolds),
           "<=", static_cast<double>(est.ripples));
    // Unsigned plans take IARM's due carries into their planes
    // (absorbed Onext rows) instead of rippling them.
    if (planner && std::all_of(ops.begin(), ops.end(),
                               [](const core::BatchOp &op) {
                                   return op.value >= 0;
                               }))
        c.gate("planned_ripples", static_cast<double>(est.ripples),
               "==", 0.0);
    wd.evaluate(c.counters);
    return c;
}

/**
 * Observability showcase: a VirtualCounterSpace (service mode) with
 * an attached Scrubber under ECC + CIM fault injection, driven with
 * a skewed key stream over a tiny fabric so frame pressure forces
 * promotions, spills and restores while the scrubber sweeps at
 * epoch boundaries. Exists so a `--trace` run captures virt.spill /
 * virt.restore spans and scrub.sweep spans alongside the ingest
 * epochs.
 */
void
runObservabilityShowcase(bench::Record &doc, obs::Watchdog &wd)
{
    core::EngineConfig cfg = engineConfig();
    cfg.numCounters = 128;
    cfg.protection = core::Protection::Ecc;
    cfg.faultRate = 1e-3;
    core::ShardedEngine engine(cfg, 4);
    service::IngestService svc(engine);
    reliability::Scrubber scrub(engine);
    virt::VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 4;
    virt::VirtualCounterSpace space(svc, vcfg);
    space.attachScrubber(&scrub);

    // Three phased hot windows (A, B, A): while one window is hot
    // the other's groups fall quiet and become spill victims; when
    // the first window re-heats, its journaled deltas cross the
    // restore threshold and its images swap back in — so the trace
    // carries virt.spill AND virt.restore spans.
    Rng rng(61);
    for (int phase = 0; phase < 3; ++phase) {
        const uint64_t base = (phase % 2) ? 150 : 0;
        for (size_t i = 0; i < 8000; ++i) {
            uint64_t id = base + rng.nextBounded(150);
            space.add(splitMix64(id),
                      static_cast<int64_t>(1 + rng.nextBounded(3)));
        }
        space.flush();
    }
    svc.stop();

    // One single-op batch per shard: a one-op group prices the plan
    // at >= the per-op replay (one mask write + one increment each
    // way), so the planner declines and the trace also carries
    // plan.fallback instants.
    core::ShardedEngine tiny(engineConfig(), 4);
    for (unsigned s = 0; s < 4; ++s) {
        const std::vector<core::BatchOp> one = {
            {tiny.shardStart(s), 1, 0}};
        tiny.accumulateBatch(one);
    }

    const auto st = space.stats();
    const auto sweeps = scrub.stats().sweeps;
    std::printf("showcase (virt+scrub over ingest): %llu promotions, "
                "%llu spills, %llu restores, %llu sweeps\n",
                static_cast<unsigned long long>(st.promotions),
                static_cast<unsigned long long>(st.spills),
                static_cast<unsigned long long>(st.restores),
                static_cast<unsigned long long>(sweeps));
    // The counts follow thread scheduling (the drainer cuts an epoch
    // whenever it wakes, not once per flush), so they are host
    // numbers, which bench_diff skips.
    doc.host.set("showcase", json::Value::object()
                                  .set("promotions", st.promotions)
                                  .set("spills", st.spills)
                                  .set("restores", st.restores)
                                  .set("sweeps", sweeps));
    wd.evaluate(space.report());
}

/**
 * Gates on the written trace: every event family the tracer knows,
 * spans on the 4-shard grid's host-clock tracks (pid 1..4), fabric-
 * clock mirror tracks (pid >= 1000), and counter events.
 */
void
gateTrace(bench::Record &doc, const json::Value &trace)
{
    std::set<std::string> names;
    std::map<int, uint64_t> spans;
    uint64_t counters = 0;
    if (const json::Value *events = trace.find("traceEvents"))
        for (const auto &e : events->items) {
            names.insert(e.stringOr("name", ""));
            const std::string ph = e.stringOr("ph", "");
            if (ph == "B")
                ++spans[static_cast<int>(e.numberOr("pid", -1))];
            else if (ph == "C")
                ++counters;
        }
    for (const char *required :
         {"epoch", "shard.drain", "plan.commit", "plan.fallback",
          "scrub.sweep", "virt.spill", "virt.restore",
          "service.queued"})
        doc.gate(std::string("trace_has_") + required,
                 names.count(required) > 0);
    double shard_tracks = 0.0, fabric_spans = 0.0;
    for (const auto &[pid, n] : spans) {
        shard_tracks += pid >= 1 && pid <= 4;
        if (pid >= 1000)
            fabric_spans += static_cast<double>(n);
    }
    doc.gate("trace_shard_tracks_1_to_4", shard_tracks, "==", 4.0);
    doc.gate("trace_fabric_clock_spans", fabric_spans, ">", 0.0);
    doc.gate("trace_counter_events", static_cast<double>(counters),
             ">", 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("ingest_throughput", "BENCH_ingest.json", argc,
                     argv);
    obs::Watchdog watchdog;

    std::printf("async ingest throughput: %zu ops over %zu "
                "counters, one flushed epoch per chunk\n",
                kNumOps, kNumCounters);

    double zipf_on = 0.0, zipf_off = 0.0;
    double zipf_prog_plan = 0.0, zipf_prog_noplan = 0.0;
    double cache_hit_rate = 0.0;
    for (const bool zipf : {false, true}) {
        const char *dist = zipf ? "zipf1.0" : "uniform";
        const auto ops =
            makeStream(zipf ? Stream::Zipf : Stream::Uniform);
        const bench::Window replay = h.open();
        const auto reference =
            core::replaySerial(engineConfig(), ops);
        const double replay_s = replay.seconds();
        std::printf("%s: serial blocking replay %.3fs (%.0f ops/s)\n",
                    dist, replay_s,
                    static_cast<double>(kNumOps) / replay_s);
        for (const unsigned shards : {1u, 4u}) {
            for (const unsigned producers : {1u, 4u}) {
                for (const bool coalesce : {false, true}) {
                    for (const bool planner : {false, true}) {
                        const auto &c =
                            runCell(h, watchdog, dist, ops, reference,
                                    shards, producers, coalesce,
                                    planner);
                        const auto &est = c.window.total;
                        if (zipf && shards == 4 && producers == 4 &&
                            !planner) {
                            // Coalescing reduction, planner held off.
                            (coalesce ? zipf_on : zipf_off) =
                                static_cast<double>(
                                    est.inputsAccumulated);
                        }
                        if (zipf && shards == 4 && producers == 4 &&
                            coalesce) {
                            // Planner reduction on the coalesced
                            // cell: row-level programs executed.
                            (planner ? zipf_prog_plan
                                     : zipf_prog_noplan) =
                                static_cast<double>(est.increments);
                        }
                    }
                }
            }
        }
        if (zipf) {
            // Multi-epoch planner-cache cell: drain the same stream
            // as 16 flushed epochs. Digit planes live in persistent
            // reserved mask rows, so the plan programs generated in
            // the first epochs replay from the ProgramCache in every
            // later one.
            cache_hit_rate =
                runCell(h, watchdog, "zipf-16ep", ops, reference, 4,
                        4, true, true, 16)
                    .window.cacheHitRate;

            // Heaviest contention cell: 16 producers racing into an
            // 8-shard engine with coalescing and the hierarchical
            // gang-issue drain both on — the configuration the
            // merged planner exists for.
            runCell(h, watchdog, dist, ops, reference, 8, 16, true,
                    true);
        }
    }

    // Signed stream, planner off and on. One producer keeps the
    // per-op replay order, and with it the planner-off cell's
    // modeled numbers, fixed from run to run.
    const auto signed_ops = makeStream(Stream::SignedUniform);
    const auto signed_ref =
        core::replaySerial(engineConfig(), signed_ops);
    double signed_ns[2] = {0.0, 0.0};
    for (const bool planner : {false, true}) {
        auto &c = runCell(h, watchdog, "signed-uniform", signed_ops,
                          signed_ref, 4, 1, true, planner);
        const auto &fab = c.window.total.fabric;
        signed_ns[planner] = fab.fabricNs;
        if (planner) {
            c.gate("plan_fallback_ops",
                   static_cast<double>(
                       c.window.total.planFallbackOps),
                   "==", 0.0);
            c.gate("fallback_attr_ns",
                   fab.attr(cim::FabricCat::Fallback), "==", 0.0);
        }
    }
    const double signed_gain =
        signed_ns[1] > 0.0 ? signed_ns[0] / signed_ns[1] : 0.0;

    // Showcase after the gated grid: scrub sweeps and virt
    // spill/restore activity on the same recorder, so a --trace run
    // shows every event family the tracer knows about.
    runObservabilityShowcase(h.doc(), watchdog);

    TextTable t({"dist", "shards", "prod", "coalesce", "plan",
                 "time_s", "ops/s", "fabric_in", "programs",
                 "plan_progs", "fabric_us", "crit_us"});
    for (const auto &c : h.cells()) {
        const auto &est = c.window.total;
        t.addRow({c.id.stringOr("dist", ""),
                  TextTable::fmt(c.id.numberOr("shards", 0), 0),
                  TextTable::fmt(c.id.numberOr("producers", 0), 0),
                  c.id.boolOr("coalesce", false) ? "on" : "off",
                  c.id.boolOr("planner", false) ? "on" : "off",
                  TextTable::fmt(c.host.numberOr("time_s", 0.0), 3),
                  TextTable::fmt(c.host.numberOr("ops_per_s", 0.0), 0),
                  std::to_string(est.inputsAccumulated),
                  std::to_string(est.increments),
                  std::to_string(est.planPrograms),
                  TextTable::fmt(est.fabric.fabricNs / 1e3, 1),
                  TextTable::fmt(c.window.criticalNs / 1e3, 1)});
    }
    std::printf("%s", t.render().c_str());

    // Analytical GPU baseline on the same cost axis (Fig. 14): a
    // bandwidth-bound scatter-add histogram of the same op stream,
    // for eyeballing the fabric_ns columns against silicon.
    const auto gpu = core::GpuModel::rtx3090ti().countingRun(
        kNumOps, kNumCounters);
    std::printf("gpu model (rtx3090ti) same counting run: %.1f us, "
                "%.1f uJ\n",
                gpu.ns / 1e3, gpu.nj / 1e3);

    const double reduction = zipf_on > 0.0 ? zipf_off / zipf_on : 0.0;
    const double plan_reduction =
        zipf_prog_plan > 0.0 ? zipf_prog_noplan / zipf_prog_plan
                             : 0.0;
    const CounterMap wd = watchdog.counters();
    bench::Record &doc = h.doc();
    doc.id.set("num_ops", kNumOps)
        .set("num_counters", kNumCounters)
        .set("gpu_model", "rtx3090ti");
    doc.model.set("zipf_4x4_fabric_reduction", reduction)
        .set("plan_reduction", plan_reduction)
        .set("plan_cache_hit_rate", cache_hit_rate)
        .set("signed_plan_gain", signed_gain)
        .set("gpu_model", json::Value::object()
                              .set("fabric_ns", gpu.ns)
                              .set("fabric_nj", gpu.nj));
    doc.gate("zipf_4x4_fabric_reduction", reduction, ">=", 2.0);
    doc.gate("plan_reduction", plan_reduction, ">=", 5.0);
    doc.gate("plan_cache_hit_rate", cache_hit_rate, ">", 0.9);
    doc.gate("signed_plan_gain", signed_gain, ">=", kSignedPlanGain);
    doc.gate("watchdog_evaluations",
             static_cast<double>(wd.at("evaluations")), ">", 0.0);
    doc.gate("watchdog_alerts", static_cast<double>(wd.at("alerts")),
             "==", 0.0);
    if (const json::Value *trace = h.writeTrace())
        gateTrace(doc, *trace);
    return h.finish();
}
