/**
 * @file
 * Whole-stack benchmark: one binary, four workloads.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run builds the workload's system and warms it (set-up), then
 * drives a fixed number of closed-loop requests from one client
 * thread: requestsPerSecond x S, about S seconds on the reference
 * machine. The request count, and so every modeled number, depends
 * only on (workload, seed, S).
 *
 * --trace 0 reports the end-to-end metrics. Set-up runs five times
 *   and setup_s is their median; the last instance is measured. Host
 *   figures with a regression bound are read on the process CPU clock
 *   (see cpuNowNs), which a busy or oversubscribed host cannot stretch
 *   the way it stretches wall time; the wall-clock figures are logged.
 * --trace 1 reports the per-layer metrics: the same window runs once
 *   untraced and once on a fresh instance with a TraceRecorder
 *   installed and the outside-in layer timers on. Span self times
 *   come from obs::profileFromRecorder / buildEpochProfiles, counts
 *   from additive counter windows; the two runs' request rates give
 *   the tracing overhead, and the untraced run's wall-clock figures
 *   are reported here as wall.*.
 *
 * Every run checks the outputs against the workload's reference and
 * the cost model's own invariants (windowed critical path between
 * fabric_ns/shards and fabric_ns; bit-exact fabric ledger). The last
 * stdout line is one JSON object {correct, attempted, failed,
 * metrics}; the exit code is 0 iff the run is correct.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

using namespace perfbench;
using namespace c2m;

namespace {

constexpr unsigned kSetups = 5;

struct Options
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads:",
                 msg);
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value");
        const std::string flag = argv[i];
        const char *val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            for (const auto &w : workloads())
                if (w.name == std::string(val))
                    o.spec = &w;
            if (!o.spec)
                usage("unknown workload");
        } else if (flag == "--seed") {
            o.seed = std::strtoull(val, &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(val, &end);
            if (!(o.seconds > 0.0 && o.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            o.trace = std::strtol(val, &end, 10) != 0;
        } else {
            usage("unknown flag");
        }
        if (end && *end)
            usage("malformed number");
    }
    if (!o.spec)
        usage("--workload is required");
    return o;
}

constexpr size_t kSlices = 10;

/** One measured window: a fixed number of closed-loop requests. */
struct Window
{
    uint64_t requests = 0;
    uint64_t ops = 0;
    std::vector<int64_t> latNs, cpuNs;      ///< per request: wall, CPU
    std::vector<int64_t> readNs, readCpuNs; ///< per read: wall, CPU
    std::vector<int64_t> busyNs, busyCpuNs; ///< per request + its read
    Counters before, after;
    LayerTimers timers;

    /** Busy-time rate of each tenth of the requests, in order. */
    std::vector<double> sliceOpsPerS(const std::vector<int64_t> &busy) const
    {
        std::vector<double> rates;
        const size_t n = busy.size();
        const double per_req =
            static_cast<double>(ops) / static_cast<double>(n);
        for (size_t k = 0; k < kSlices; ++k) {
            const size_t lo = k * n / kSlices, hi = (k + 1) * n / kSlices;
            int64_t t = 0;
            for (size_t i = lo; i < hi; ++i)
                t += busy[i];
            if (t > 0)
                rates.push_back(per_req * static_cast<double>(hi - lo) /
                                (static_cast<double>(t) * 1e-9));
        }
        return rates;
    }

    /**
     * Median of the slice rates: a burst of host interference in one
     * part of the run moves one slice, not the result.
     */
    double opsPerS(const std::vector<int64_t> &busy) const
    {
        std::vector<double> r = sliceOpsPerS(busy);
        std::sort(r.begin(), r.end());
        const size_t m = r.size();
        return m % 2 ? r[m / 2] : 0.5 * (r[m / 2 - 1] + r[m / 2]);
    }
    double opsPerCpuS() const { return opsPerS(busyCpuNs); }
    double opsPerWallS() const { return opsPerS(busyNs); }
};

Window
runWindow(Workload &w, uint64_t requests, bool timers_on)
{
    Window win;
    win.requests = requests;
    win.timers.on = timers_on;
    for (auto *v : {&win.latNs, &win.cpuNs, &win.busyNs, &win.busyCpuNs})
        v->reserve(requests);
    win.before = w.counters();
    for (uint64_t i = 0; i < requests; ++i) {
        const RequestTiming t = w.request(win.timers);
        win.ops += t.ops;
        win.latNs.push_back(t.latencyNs);
        win.cpuNs.push_back(t.cpuNs);
        win.busyNs.push_back(t.latencyNs + std::max<int64_t>(t.readNs, 0));
        win.busyCpuNs.push_back(t.cpuNs +
                                std::max<int64_t>(t.readCpuNs, 0));
        if (t.readNs >= 0) {
            win.readNs.push_back(t.readNs);
            win.readCpuNs.push_back(t.readCpuNs);
        }
    }
    win.after = w.counters();
    return win;
}

/** Fabric-side window of every shard. */
struct FabricWindow
{
    std::vector<double> shardNs; ///< per-shard fabric ns delta
    core::EngineStats total;     ///< after - before, summed over shards
    double rows[cim::kFabricCatCount] = {};
    double ns = 0.0, nj = 0.0, criticalNs = 0.0;
    bool ledgerExact = true;
};

/** Field-wise after - before of the additive EngineStats counters. */
core::EngineStats
diff(const core::EngineStats &a, const core::EngineStats &b)
{
    core::EngineStats d;
    d.inputsAccumulated = a.inputsAccumulated - b.inputsAccumulated;
    d.increments = a.increments - b.increments;
    d.ripples = a.ripples - b.ripples;
    d.checksRun = a.checksRun - b.checksRun;
    d.faultsDetected = a.faultsDetected - b.faultsDetected;
    d.retries = a.retries - b.retries;
    d.uncorrectedBlocks = a.uncorrectedBlocks - b.uncorrectedBlocks;
    d.invalidStates = a.invalidStates - b.invalidStates;
    d.voteOps = a.voteOps - b.voteOps;
    d.programCacheHits = a.programCacheHits - b.programCacheHits;
    d.programCacheMisses = a.programCacheMisses - b.programCacheMisses;
    d.plansExecuted = a.plansExecuted - b.plansExecuted;
    d.planPrograms = a.planPrograms - b.planPrograms;
    d.planLeadPrograms = a.planLeadPrograms - b.planLeadPrograms;
    d.plannedOps = a.plannedOps - b.plannedOps;
    d.planFallbackOps = a.planFallbackOps - b.planFallbackOps;
    d.fabric.aap = a.fabric.aap - b.fabric.aap;
    d.fabric.ap = a.fabric.ap - b.fabric.ap;
    d.fabric.tra = a.fabric.tra - b.fabric.tra;
    d.fabric.faultsInjected =
        a.fabric.faultsInjected - b.fabric.faultsInjected;
    d.fabric.rowReads = a.fabric.rowReads - b.fabric.rowReads;
    d.fabric.rowWrites = a.fabric.rowWrites - b.fabric.rowWrites;
    d.fabric.gangedCommands =
        a.fabric.gangedCommands - b.fabric.gangedCommands;
    d.fabric.fabricNj = a.fabric.fabricNj - b.fabric.fabricNj;
    for (unsigned i = 0; i < cim::kFabricCatCount; ++i)
        d.fabric.attrNs[i] = a.fabric.attrNs[i] - b.fabric.attrNs[i];
    d.fabric.syncFabricTotal();
    return d;
}

/**
 * The window's fabric cost. The critical path is the largest
 * per-shard fabric-ns delta over the window (shards are banks working
 * in parallel), never the lifetime EngineStats::fabricCriticalNs.
 */
FabricWindow
fabricWindow(const Window &win)
{
    FabricWindow f;
    for (size_t s = 0; s < win.after.shards.size(); ++s) {
        const auto &a = win.after.shards[s];
        const auto &b = win.before.shards[s];
        f.ledgerExact = f.ledgerExact &&
                        obs::FabricLedger::fromStats(a).exact() &&
                        obs::FabricLedger::fromStats(b).exact();
        const core::EngineStats d = diff(a, b);
        const double ns = a.fabric.fabricNs - b.fabric.fabricNs;
        f.shardNs.push_back(ns);
        f.criticalNs = std::max(f.criticalNs, ns);
        f.ns += ns;
        f.total += d;
    }
    for (unsigned i = 0; i < cim::kFabricCatCount; ++i)
        f.rows[i] = f.total.fabric.attrNs[i];
    f.nj = f.total.fabric.fabricNj;
    // The window's ledger rows account for the per-shard deltas.
    f.ledgerExact = f.ledgerExact && std::abs(f.total.fabric.fabricNs -
                                              f.ns) <=
                                         1e-9 * std::max(1.0, f.ns);
    return f;
}

/** fabric_ns/shards <= critical <= fabric_ns, up to rounding. */
bool
criticalInBounds(const FabricWindow &f)
{
    const double slack = 1e-9 * std::max(1.0, f.ns);
    const double shards = static_cast<double>(f.shardNs.size());
    return f.ns / shards <= f.criticalNs + slack &&
           f.criticalNs <= f.ns + slack;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * The tail percentile: p90 when at least two samples lie beyond it per
 * tenth of the run (20 in all, so the tail is not one burst of host
 * interference), else p50. The sample count is a function of
 * (workload, --seconds), so the choice is the same on every run. The
 * tail stops at p90: under CPU contention the request-CPU p99 moved by
 * 15% of its median between runs, p90 by 3-9%.
 */
double
tailQuantile(size_t n)
{
    const auto rank =
        static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n)));
    return n >= rank + 2 * kSlices ? 0.9 : 0.5;
}

struct Verdict
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** Fold in a workload's checked outputs. */
void
addTally(Verdict &v, const Workload &w)
{
    v.attempted += w.tally().attempted;
    v.failed += w.tally().failed;
}

/**
 * Close a measured window: check the workload's final outputs, fold in
 * its tally, and check the cost model's own invariants over the window.
 */
FabricWindow
finish(Workload &w, const Window &win, Verdict &v)
{
    w.verifyFinal();
    addTally(v, w);
    const FabricWindow f = fabricWindow(win);
    if (!criticalInBounds(f)) {
        std::printf("FAIL critical path %.17g outside [%.17g, %.17g]\n",
                    f.criticalNs,
                    f.ns / static_cast<double>(f.shardNs.size()), f.ns);
        v.correct = false;
    }
    if (!f.ledgerExact) {
        std::printf("FAIL fabric ledger rows do not sum to fabric_ns\n");
        v.correct = false;
    }
    if (!(f.ns > 0.0 && f.nj > 0.0)) {
        std::printf("FAIL window charged no fabric cost\n");
        v.correct = false;
    }
    return f;
}

Metrics
endToEnd(const Options &o, Window &win, const FabricWindow &f,
         const Workload &w, double setup_s)
{
    const double ops = static_cast<double>(win.ops);
    const double tail_q = tailQuantile(win.cpuNs.size());
    Metrics m;
    m["setup_s"] = {setup_s, "s"};
    m["ops_per_cpu_s"] = {win.opsPerCpuS(), "1/s"};
    m["request_cpu_p50_us"] = {quantile(win.cpuNs, 0.5) / 1e3, "us"};
    m["request_cpu_tail_us"] = {quantile(win.cpuNs, tail_q) / 1e3, "us"};
    m["read_cpu_p50_us"] = {quantile(win.readCpuNs, 0.5) / 1e3, "us"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    m["fabric_ns_per_op"] = {f.ns / ops, "ns"};
    m["fabric_nj_per_op"] = {f.nj / ops, "nJ"};
    m["critical_ns_per_op"] = {f.criticalNs / ops, "ns"};
    m["gpu_time_ratio"] = {f.criticalNs / w.gpuNs(win.ops), "ratio"};
    const auto slices = win.sliceOpsPerS(win.busyCpuNs);
    const auto [lo, hi] = std::minmax_element(slices.begin(), slices.end());
    std::printf("%s seed %llu: %llu requests, %llu ops, %zu reads; "
                "slice ops per CPU-s %.6g..%.6g; request CPU tail = p%g "
                "over %zu samples (p90 %.1f, p99 %.1f us)\n",
                o.spec->name, static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(win.requests),
                static_cast<unsigned long long>(win.ops), win.readNs.size(),
                *lo, *hi, 100.0 * tail_q, win.cpuNs.size(),
                quantile(win.cpuNs, 0.9) / 1e3,
                quantile(win.cpuNs, 0.99) / 1e3);
    std::printf("%s wall clock: %.6g ops/s, request p50 %.1f us, "
                "p%g %.1f us, read p50 %.1f us\n",
                o.spec->name, win.opsPerWallS(),
                quantile(win.latNs, 0.5) / 1e3, 100.0 * tail_q,
                quantile(win.latNs, tail_q) / 1e3,
                quantile(win.readNs, 0.5) / 1e3);
    return m;
}

/** Wall-clock view of an untraced window, reported without a bound. */
void
wallMetrics(Window &win, Metrics &m)
{
    const double tail_q = tailQuantile(win.latNs.size());
    m["wall.ops_per_s"] = {win.opsPerWallS(), "1/s"};
    m["wall.latency_p50_us"] = {quantile(win.latNs, 0.5) / 1e3, "us"};
    m["wall.latency_tail_us"] = {quantile(win.latNs, tail_q) / 1e3, "us"};
    m["wall.read_p50_us"] = {quantile(win.readNs, 0.5) / 1e3, "us"};
}

/** Span sums of a traced window, from the recorder's own analytics. */
struct SpanTotals
{
    uint64_t epochs = 0;
    double epochNs = 0, epochSelfNs = 0, cutNs = 0, coalesceNs = 0;
    double executeNs = 0, observerNs = 0;
    uint64_t drainEpochs = 0;
    double drainMaxNs = 0, drainSkew = 0;
    uint64_t sweeps = 0, spills = 0, restores = 0;
    double sweepNs = 0, spillNs = 0, restoreNs = 0;
    uint64_t dropped = 0;
};

SpanTotals
spanTotals(const obs::TraceRecorder &rec)
{
    const obs::ProfileInput in = obs::profileFromRecorder(rec);
    SpanTotals t;
    t.dropped = in.droppedEvents;
    for (const obs::EpochProfile &ep : obs::buildEpochProfiles(in)) {
        if (ep.synthetic)
            continue;
        ++t.epochs;
        const double children = static_cast<double>(
            ep.cutNs + ep.coalesceNs + ep.executeNs + ep.observerNs);
        t.epochNs += static_cast<double>(ep.hostNs());
        t.epochSelfNs += static_cast<double>(ep.hostNs()) - children;
        t.cutNs += static_cast<double>(ep.cutNs);
        t.coalesceNs += static_cast<double>(ep.coalesceNs);
        t.executeNs += static_cast<double>(ep.executeNs);
        t.observerNs += static_cast<double>(ep.observerNs);
        if (!ep.shards.empty()) {
            ++t.drainEpochs;
            int64_t mx = 0;
            for (const auto &sd : ep.shards)
                mx = std::max(mx, sd.hostNs);
            t.drainMaxNs += static_cast<double>(mx);
            t.drainSkew += ep.skew;
        }
    }
    for (const obs::ProfSpan &s : in.spans) {
        const double ns = static_cast<double>(s.hostNs());
        if (s.name == "scrub.sweep") {
            ++t.sweeps;
            t.sweepNs += ns;
        } else if (s.name == "virt.spill") {
            ++t.spills;
            t.spillNs += ns;
        } else if (s.name == "virt.restore") {
            ++t.restores;
            t.restoreNs += ns;
        }
    }
    return t;
}

Metrics
perLayer(const Window &win, const FabricWindow &f, const SpanTotals &sp,
         double untraced_ops_per_cpu_s)
{
    const LayerTimers &t = win.timers;
    const core::EngineStats &e = f.total;
    const double ops = static_cast<double>(win.ops);
    const double reqs = static_cast<double>(win.requests);
    const double eps = static_cast<double>(sp.epochs);
    const double commands = static_cast<double>(e.fabric.commands());
    Metrics m;

    service::ServiceStats sv;
    if (win.after.service) {
        const auto &a = *win.after.service, &b = *win.before.service;
        sv.submitted = a.submitted - b.submitted;
        sv.coalesced = a.coalesced - b.coalesced;
        sv.stalls = a.stalls - b.stalls;
        sv.dropped = a.dropped - b.dropped;
    }
    m["service.submit_ns_per_op"] = {
        ratio(static_cast<double>(t.submitNs),
              static_cast<double>(t.submitOps)),
        "ns"};
    m["service.epoch_us"] = {ratio(sp.epochSelfNs, eps) / 1e3, "us"};
    m["service.cut_us"] = {ratio(sp.cutNs, eps) / 1e3, "us"};
    m["service.coalesce_us"] = {ratio(sp.coalesceNs, eps) / 1e3, "us"};
    m["service.handoff_us"] = {
        sp.epochs ? (static_cast<double>(t.serviceWaitNs) - sp.epochNs) /
                        reqs / 1e3
                  : 0.0,
        "us"};
    m["service.coalesce_ratio"] = {
        ratio(static_cast<double>(sv.coalesced),
              static_cast<double>(sv.submitted)),
        "frac"};
    m["service.stalls"] = {static_cast<double>(sv.stalls), "count"};
    m["service.dropped"] = {static_cast<double>(sv.dropped), "count"};

    m["core.execute_us"] = {ratio(sp.executeNs, eps) / 1e3, "us"};
    m["core.drain_max_us"] = {
        ratio(sp.drainMaxNs, static_cast<double>(sp.drainEpochs)) / 1e3,
        "us"};
    m["core.drain_skew"] = {
        ratio(sp.drainSkew, static_cast<double>(sp.drainEpochs)), "ratio"};
    m["core.planned_frac"] = {
        ratio(static_cast<double>(e.plannedOps),
              static_cast<double>(e.plannedOps + e.planFallbackOps)),
        "frac"};
    const double win_epochs =
        win.after.service
            ? static_cast<double>(win.after.service->epochs -
                                  win.before.service->epochs)
            : 0.0;
    m["core.plan_programs_per_epoch"] = {
        ratio(static_cast<double>(e.planPrograms), win_epochs), "count"};
    m["core.plan_lead_frac"] = {
        ratio(static_cast<double>(e.planLeadPrograms),
              static_cast<double>(e.planPrograms)),
        "frac"};
    m["core.broadcast_us_per_input"] = {
        ratio(static_cast<double>(t.broadcastNs),
              static_cast<double>(t.broadcastCalls)) /
            1e3,
        "us"};

    const double lookups =
        static_cast<double>(e.programCacheHits + e.programCacheMisses);
    m["uprog.progcache_hit_rate"] = {
        ratio(static_cast<double>(e.programCacheHits), lookups), "frac"};
    m["uprog.progcache_misses"] = {
        static_cast<double>(e.programCacheMisses), "count"};

    // Host time that drove the fabric: the epochs' execute phase on
    // the service path, the timed broadcasts on the direct path.
    const double exec_ns =
        sp.epochs ? sp.executeNs : static_cast<double>(t.broadcastNs);
    m["cim.commands_per_op"] = {commands / ops, "1/op"};
    m["cim.host_ns_per_command"] = {ratio(exec_ns, commands), "ns"};
    m["cim.faults_injected"] = {
        static_cast<double>(e.fabric.faultsInjected), "count"};

    double read_ns = 0;
    for (int64_t r : win.readNs)
        read_ns += static_cast<double>(r);
    m["jc.readback_ns_per_counter"] = {
        ratio(read_ns, static_cast<double>(t.countersRead)), "ns"};
    m["jc.ripples_per_op"] = {static_cast<double>(e.ripples) / ops, "1/op"};

    m["ecc.checks_per_op"] = {static_cast<double>(e.checksRun) / ops,
                              "1/op"};
    m["ecc.retries_per_op"] = {static_cast<double>(e.retries) / ops,
                               "1/op"};
    m["ecc.uncorrected_blocks"] = {
        static_cast<double>(e.uncorrectedBlocks), "count"};

    reliability::ScrubStats sc;
    if (win.after.scrub) {
        const auto &a = *win.after.scrub, &b = *win.before.scrub;
        sc.sweeps = a.sweeps - b.sweeps;
        sc.rowsRepaired = a.rowsRepaired - b.rowsRepaired;
        sc.wordsRecovered = a.wordsRecovered - b.wordsRecovered;
        sc.mirrorWordsLost = a.mirrorWordsLost - b.mirrorWordsLost;
    }
    m["reliability.sweep_us"] = {
        ratio(sp.sweepNs, static_cast<double>(sp.sweeps)) / 1e3, "us"};
    m["reliability.observer_us"] = {ratio(sp.observerNs, eps) / 1e3,
                                    "us"};
    m["reliability.sweeps"] = {static_cast<double>(sc.sweeps), "count"};
    m["reliability.rows_repaired"] = {static_cast<double>(sc.rowsRepaired),
                                      "count"};
    m["reliability.words_recovered"] = {
        static_cast<double>(sc.wordsRecovered), "count"};
    m["reliability.mirror_words_lost"] = {
        static_cast<double>(sc.mirrorWordsLost), "count"};

    virt::VirtStats vs;
    if (win.after.virt) {
        const auto &a = *win.after.virt, &b = *win.before.virt;
        vs.spills = a.spills - b.spills;
        vs.restores = a.restores - b.restores;
        vs.promotions = a.promotions - b.promotions;
    }
    m["virt.add_ns"] = {ratio(static_cast<double>(t.addNs),
                              static_cast<double>(t.adds)),
                        "ns"};
    m["virt.flush_us"] = {ratio(static_cast<double>(t.flushNs),
                                static_cast<double>(t.flushes)) /
                              1e3,
                          "us"};
    m["virt.spill_us"] = {
        ratio(sp.spillNs, static_cast<double>(sp.spills)) / 1e3, "us"};
    m["virt.restore_us"] = {
        ratio(sp.restoreNs, static_cast<double>(sp.restores)) / 1e3, "us"};
    m["virt.spills"] = {static_cast<double>(vs.spills), "count"};
    m["virt.restores"] = {static_cast<double>(vs.restores), "count"};
    m["virt.promotions"] = {static_cast<double>(vs.promotions), "count"};
    const double routed = static_cast<double>(t.routeExact + t.routeSketch);
    m["virt.route_exact_frac"] = {
        ratio(static_cast<double>(t.routeExact), routed), "frac"};
    m["virt.route_sketch_frac"] = {
        ratio(static_cast<double>(t.routeSketch), routed), "frac"};

    for (unsigned i = 0; i < cim::kFabricCatCount; ++i) {
        std::string name = "fabric.";
        name += cim::fabricCatName(static_cast<cim::FabricCat>(i));
        name += "_ns_per_op";
        m[name] = {f.rows[i] / ops, "ns"};
    }
    m["fabric.skew"] = {
        ratio(f.criticalNs,
              f.ns / static_cast<double>(f.shardNs.size())),
        "ratio"};

    m["obs.trace_overhead_frac"] = {
        1.0 - ratio(win.opsPerCpuS(), untraced_ops_per_cpu_s), "frac"};
    m["obs.dropped_events"] = {static_cast<double>(sp.dropped), "count"};
    return m;
}

void
printResult(const Verdict &v, const Metrics &m)
{
    std::string out = "{\"correct\": ";
    out += v.correct && v.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(v.attempted);
    out += ", \"failed\": " + std::to_string(v.failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, metric] : m) {
        const double value = std::isfinite(metric.value) ? metric.value : 0;
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               metric.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const uint64_t requests = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround(o.spec->requestsPerSecond * o.seconds)));
    Verdict v;
    Metrics metrics;

    if (!o.trace) {
        // Set-up is timed on the CPU clock, like every bounded host
        // metric; the wall-clock median goes to the log.
        std::vector<int64_t> setups, setup_walls;
        std::unique_ptr<Workload> w;
        for (unsigned i = 0; i < kSetups; ++i) {
            if (w)
                addTally(v, *w);
            w.reset();
            const Stamp t0 = Stamp::now();
            w = o.spec->make(o.seed);
            const Stamp t1 = Stamp::now();
            setups.push_back(cpuNs(t0, t1));
            setup_walls.push_back(wallNs(t0, t1));
        }
        std::printf("%s set-up: CPU %.4f s, wall %.4f s (medians of %u)\n",
                    o.spec->name, quantile(setups, 0.5) * 1e-9,
                    quantile(setup_walls, 0.5) * 1e-9, kSetups);
        Window win = runWindow(*w, requests, false);
        const FabricWindow f = finish(*w, win, v);
        metrics =
            endToEnd(o, win, f, *w, quantile(setups, 0.5) * 1e-9);
    } else {
        double untraced = 0.0;
        Metrics wall;
        {
            auto w = o.spec->make(o.seed);
            Window win = runWindow(*w, requests, false);
            untraced = win.opsPerCpuS();
            wallMetrics(win, wall);
            finish(*w, win, v);
        }
        auto w = o.spec->make(o.seed);
        // One lane per recording thread (client, drainer, two pool lanes),
        // each deep enough for a whole window: 4 x 512k events = 96 MiB.
        obs::TraceRecorder rec(obs::TraceConfig{4, 1u << 19});
        rec.install();
        Window win = runWindow(*w, requests, true);
        rec.uninstall();
        const FabricWindow f = finish(*w, win, v);
        metrics = perLayer(win, f, spanTotals(rec), untraced);
        metrics.insert(wall.begin(), wall.end());
    }
    printResult(v, metrics);
    return v.correct && v.failed == 0 ? 0 : 1;
}
