/**
 * @file
 * Google-benchmark microbenchmarks backing the Sec. 5.1 claim that
 * host-side muProgram generation is far faster than the DRAM module
 * can consume commands, plus the functional-simulation primitives.
 *
 * Fabric hot path section: AAP/TRA throughput of the AmbitSubarray
 * interpreter and a global-new counting probe that verifies the
 * steady-state hot path performs ZERO heap allocations per micro-op
 * (copies, triple activations, MAJ3 fault injection, cached checked
 * programs). The probe is also the process exit gate: if the fabric
 * hot path ever regresses into allocating, this binary fails.
 *
 * Host readout section: BM_ReadCounters times the word-parallel JC
 * readback (block transpose + digit-field lookup) per counter.
 *
 * Tracing overhead section: probeTracingOverhead() bounds the cost
 * of obs/ instrumentation when tracing is compiled in but no
 * recorder is installed (the default). It is the second exit gate:
 * disabled tracing must cost <= 2% of the drained-batch hot path
 * (docs/observability.md).
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "cim/ambit.hpp"
#include "core/backend_ambit.hpp"
#include "core/costmodel.hpp"
#include "core/sharded.hpp"
#include "dram/scheduler.hpp"
#include "jc/layout.hpp"
#include "obs/trace.hpp"
#include "reliability/mirror.hpp"
#include "uprog/codegen_ambit.hpp"

using namespace c2m;

// ---- Allocation-counting probe -------------------------------------
//
// Global operator new/delete overrides counting every heap
// allocation in the process. The fabric micro-op hot path must not
// appear here in steady state; benchmarks report allocs/op and
// probeFabricAllocFree() gates the exit code on zero.

namespace {
std::atomic<uint64_t> g_allocs{0};
} // namespace

// Every replacement operator allocates via the malloc family, and
// free() is specified to release both malloc and aligned_alloc
// memory. gcc's -Wmismatched-new-delete pairs inlined new/free
// bodies across functions and warns spuriously on replaced global
// operators; keeping the replacements out-of-line avoids that.
#if defined(__GNUC__)
#define C2M_NOINLINE __attribute__((noinline))
#else
#define C2M_NOINLINE
#endif

C2M_NOINLINE void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

C2M_NOINLINE void *
operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

C2M_NOINLINE void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t sz = ((n ? n : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, sz))
        return p;
    throw std::bad_alloc();
}

C2M_NOINLINE void *
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

C2M_NOINLINE void
operator delete(void *p) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete[](void *p) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}


C2M_NOINLINE void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

C2M_NOINLINE void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/**
 * Steady-state probe over the three fabric micro-op shapes: row copy
 * (AAP single source), triple activation (AP), and TRA under MAJ3
 * fault injection. Returns true iff none of them touch the heap.
 */
bool
probeFabricAllocFree()
{
    bool ok = true;
    const size_t cols = 8192;
    const auto probe_one = [&](const char *name, double p_maj) {
        cim::FaultModel fm = cim::FaultModel::reliable();
        fm.pMaj = p_maj;
        cim::AmbitSubarray sub(8, cols, fm, 11);
        Rng rng(3);
        for (size_t r = 0; r < 8; ++r)
            sub.rawRow(r).randomize(rng);
        cim::AmbitProgram prog;
        prog.aap(cim::RowRef::data(0), cim::RowRef::t(0));
        prog.aap(cim::RowRef::data(1), cim::RowRef::t(1));
        prog.aap(cim::RowRef::data(2), cim::RowRef::t(2));
        prog.ap(cim::RowSet::b12());
        prog.aap(cim::RowSet::b12(), cim::RowRef::data(3));
        // Warm-up covers any lazy first-use setup, then measure.
        for (int i = 0; i < 4; ++i)
            sub.run(prog);
        const uint64_t ops = 1000;
        const uint64_t before = allocCount();
        for (uint64_t i = 0; i < ops; ++i)
            sub.run(prog);
        const uint64_t delta = allocCount() - before;
        std::printf("fabric alloc probe [%s]: %llu allocations / "
                    "%llu micro-ops (%s)\n",
                    name, static_cast<unsigned long long>(delta),
                    static_cast<unsigned long long>(ops * prog.size()),
                    delta == 0 ? "ok" : "FAIL");
        ok = ok && delta == 0;
    };
    probe_one("fault-free", 0.0);
    probe_one("maj3-faults", 1e-3);
    return ok;
}

/**
 * Bound the cost of compiled-in-but-disabled tracing on the drained
 * batch path. With no recorder installed every instrumentation site
 * is one relaxed atomic load plus a never-taken branch, so the
 * disabled overhead is (sites hit per batch) x (cost per check).
 * Both factors are measured, not assumed: the site count comes from
 * installing a recorder once and counting emitted events (an
 * overestimate — a span is a single tracer() check but two events),
 * and the per-check cost from timing the check itself amplified over
 * millions of iterations. The gate holds the product under 2% of the
 * best-of-K batch time with tracing disabled.
 */
bool
probeTracingOverhead()
{
    using Clock = std::chrono::steady_clock;
    const auto seconds = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0)
            .count();
    };

    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = 8192;
    cfg.maxMaskRows = 1;
    cfg.drainPlanner = true;
    core::ShardedEngine eng(cfg, 2);
    Rng rng(23);
    std::vector<core::BatchOp> ops;
    ops.reserve(2000);
    for (size_t i = 0; i < 2000; ++i)
        ops.push_back({rng.nextBounded(cfg.numCounters),
                       static_cast<int64_t>(1 + rng.nextBounded(7)),
                       0});
    eng.accumulateBatch(ops); // warm: masks, program cache, pool

    obs::TraceRecorder rec;
    rec.install();
    const uint64_t ev0 = rec.eventCount();
    eng.accumulateBatch(ops);
    const uint64_t events = rec.eventCount() - ev0;
    rec.uninstall();

    double batch_s = 1e300;
    for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        eng.accumulateBatch(ops);
        batch_s = std::min(batch_s, seconds(t0));
    }

    const uint64_t checks = uint64_t{1} << 22;
    double check_s = 1e300;
    for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        uint64_t live = 0;
        for (uint64_t i = 0; i < checks; ++i) {
            obs::TraceRecorder *tr = obs::tracer();
            if (tr)
                ++live;
        }
        benchmark::DoNotOptimize(live);
        check_s = std::min(check_s, seconds(t0));
    }

    const double per_check_ns =
        check_s * 1e9 / static_cast<double>(checks);
    const double overhead =
        static_cast<double>(events) * per_check_ns /
        (batch_s * 1e9);
    std::printf("tracing-disabled overhead probe: %llu sites/batch x "
                "%.3f ns/check = %.4f%% of %.0f us batch (%s)\n",
                static_cast<unsigned long long>(events),
                per_check_ns, 100.0 * overhead, batch_s * 1e6,
                overhead <= 0.02 ? "ok" : "FAIL");
    return overhead <= 0.02;
}

} // namespace

static void
BM_MuProgramGeneration(benchmark::State &state)
{
    const unsigned radix = static_cast<unsigned>(state.range(0));
    jc::CounterLayout layout(radix, 64, 0);
    uprog::AmbitCodegen gen(layout, {});
    unsigned k = 1;
    size_t ops = 0;
    for (auto _ : state) {
        auto prog = gen.karyIncrement(0, k, layout.endRow());
        ops += prog.totalOps();
        benchmark::DoNotOptimize(prog);
        k = k % (radix - 1) + 1;
    }
    // Commands generated per second vs the DRAM consumption rate of
    // ~275 Mcmd/s (one AAP per 3.64 ns): the generation rate must be
    // orders of magnitude higher.
    state.counters["cmds/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MuProgramGeneration)->Arg(4)->Arg(10)->Arg(20);

static void
BM_FunctionalTra(benchmark::State &state)
{
    const size_t cols = static_cast<size_t>(state.range(0));
    cim::AmbitSubarray sub(4, cols);
    BitVector a(cols), b(cols);
    Rng rng(1);
    a.randomize(rng);
    b.randomize(rng);
    sub.pokeT(0, a);
    sub.pokeT(1, b);
    for (auto _ : state) {
        sub.execute(
            cim::AmbitOp::ap(cim::RowSet::b12()));
        benchmark::DoNotOptimize(sub.peekT(0));
    }
    state.counters["bits/s"] = benchmark::Counter(
        static_cast<double>(cols),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FunctionalTra)->Arg(512)->Arg(8192)->Arg(65536);

/**
 * Fabric hot path: AAP (copy) throughput plus observed heap
 * allocations per micro-op — must report allocs/op == 0.
 */
static void
BM_FabricAapCopy(benchmark::State &state)
{
    const size_t cols = static_cast<size_t>(state.range(0));
    cim::AmbitSubarray sub(4, cols);
    Rng rng(5);
    sub.rawRow(0).randomize(rng);
    const cim::AmbitOp op =
        cim::AmbitOp::aap(cim::RowRef::data(0), cim::RowRef::t(2));
    sub.execute(op); // warm
    const uint64_t before = allocCount();
    uint64_t ops = 0;
    for (auto _ : state) {
        sub.execute(op);
        ++ops;
        benchmark::DoNotOptimize(sub.peekT(2));
    }
    state.counters["cmds/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
    state.counters["allocs/op"] =
        ops ? static_cast<double>(allocCount() - before) /
                  static_cast<double>(ops)
            : 0.0;
}
BENCHMARK(BM_FabricAapCopy)->Arg(512)->Arg(8192)->Arg(65536);

/**
 * Fabric hot path: TRA with MAJ3 charge-sharing fault injection
 * active — the costliest micro-op shape; still zero allocs/op.
 */
static void
BM_FabricTraFaulty(benchmark::State &state)
{
    const size_t cols = static_cast<size_t>(state.range(0));
    cim::FaultModel fm = cim::FaultModel::reliable();
    fm.pMaj = 1e-3;
    cim::AmbitSubarray sub(4, cols, fm, 17);
    Rng rng(7);
    for (unsigned t = 0; t < 3; ++t) {
        BitVector v(cols);
        v.randomize(rng);
        sub.pokeT(t, v);
    }
    const cim::AmbitOp op = cim::AmbitOp::ap(cim::RowSet::b12());
    sub.execute(op); // warm
    const uint64_t before = allocCount();
    uint64_t ops = 0;
    for (auto _ : state) {
        sub.execute(op);
        ++ops;
        benchmark::DoNotOptimize(sub.peekT(0));
    }
    state.counters["cmds/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
    state.counters["allocs/op"] =
        ops ? static_cast<double>(allocCount() - before) /
                  static_cast<double>(ops)
            : 0.0;
}
BENCHMARK(BM_FabricTraFaulty)->Arg(512)->Arg(8192)->Arg(65536);

/**
 * Cached checked-program replay through the Ambit backend: the unit
 * of work the drain planner issues per digit plane. After the first
 * (generating) call the replay path is cache hits only.
 */
static void
BM_BackendKaryIncrementReplay(benchmark::State &state)
{
    core::EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 16;
    cfg.numCounters = static_cast<size_t>(state.range(0));
    cfg.maxMaskRows = 1;
    core::EngineStats stats;
    core::AmbitBackend backend(cfg, 1, stats);
    BitVector mask(cfg.numCounters);
    mask.fill(true);
    backend.writeMask(0, mask);
    backend.clearCounters();
    backend.karyIncrement(0, 0, 1, backend.maskRow(0)); // warm cache
    uint64_t ops = 0;
    for (auto _ : state) {
        backend.karyIncrement(0, 0, 1, backend.maskRow(0));
        backend.carryRipple(0, 0);
        ops += 2;
    }
    state.counters["progs/s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BackendKaryIncrementReplay)->Arg(512)->Arg(8192);

/**
 * Host readout: Ambit readCounters over every column, the path under
 * each snapshot. The counters hold random canonical values written
 * through a RowMirror image; "time/counter" is host time per counter.
 * Args: columns, radix, capacity bits.
 */
static void
BM_ReadCounters(benchmark::State &state)
{
    core::EngineConfig cfg;
    cfg.numCounters = static_cast<size_t>(state.range(0));
    cfg.radix = static_cast<unsigned>(state.range(1));
    cfg.capacityBits = static_cast<unsigned>(state.range(2));
    cfg.maxMaskRows = 1;
    core::EngineStats stats;
    core::AmbitBackend backend(cfg, 1, stats);
    const jc::CounterLayout &layout = backend.layout(0);
    Rng rng(9);
    const unsigned span_bits = cfg.capacityBits - 1;
    std::vector<int64_t> values(cfg.numCounters);
    for (auto &v : values)
        v = static_cast<int64_t>(rng.next() >> (64 - span_bits)) -
            (int64_t{1} << (span_bits - 1));
    reliability::RowMirror image(layout, cfg.numCounters);
    image.encodeValues(values);
    for (size_t r = 0; r < image.numRows(); ++r)
        backend.scrubWriteRow(image.fabricRow(layout, r),
                              image.dataBits(r));
    if (backend.readCounters(0, 0) != values)
        state.SkipWithError("readout does not match the written values");
    for (auto _ : state) {
        auto out = backend.readCounters(0, 0);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["time/counter"] = benchmark::Counter(
        static_cast<double>(cfg.numCounters),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_ReadCounters)
    ->Args({16384, 4, 32})
    ->Args({65536, 4, 32})
    ->Args({16384, 10, 64})
    ->Args({65536, 10, 64})
    ->Unit(benchmark::kMicrosecond);

static void
BM_IarmStreamCost(benchmark::State &state)
{
    core::C2mCostModel model(4, 64);
    Rng rng(2);
    std::vector<uint64_t> values(1024);
    for (auto &v : values)
        v = rng.nextBounded(256);
    for (auto _ : state) {
        auto cost = model.accumulateStream(values);
        benchmark::DoNotOptimize(cost);
    }
    state.counters["inputs/s"] = benchmark::Counter(
        1024.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IarmStreamCost);

static void
BM_SchedulerEventDriven(benchmark::State &state)
{
    const auto t = dram::DramTimings::ddr5_4400();
    for (auto _ : state) {
        dram::AapScheduler s(t, 16);
        s.issueRoundRobin(10000);
        benchmark::DoNotOptimize(s.finishNs());
    }
    state.counters["cmds/s"] = benchmark::Counter(
        10000.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SchedulerEventDriven);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    const bool alloc_free = probeFabricAllocFree();
    const bool trace_cheap = probeTracingOverhead();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::printf("fabric hot path allocation-free: %s\n",
                alloc_free ? "yes" : "NO");
    std::printf("tracing-disabled overhead <= 2%%: %s\n",
                trace_cheap ? "yes" : "NO");
    return (alloc_free && trace_cheap) ? 0 : 1;
}
