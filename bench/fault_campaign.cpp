/**
 * @file
 * Reliability fault campaign: Monte-Carlo sweep of CIM fault rate x
 * backend (Ambit / NVM / RCA) x protection level (None / ECC / TMR,
 * each with and without online scrubbing where the substrate
 * supports it) under live async ingest.
 *
 * Every cell streams the same op mix through an IngestService with
 * concurrent producers, in eight flush-separated chunks, so each cell
 * cuts at least eight epochs; an attached reliability::Scrubber
 * sweeps counter state at each epoch boundary when enabled (gated
 * sweeps >= 8). The mix is signed (30% negative deltas), so every
 * group turns signed in its first epoch and no sweep meets a pending
 * carry; two more scrub cells at 1e-3 (Ambit ECC, NVM unprotected)
 * stream the same keys with every delta positive, so later epochs
 * wrap digits earlier ones filled and the sweeps settle pending
 * carries under faults (gated carry_rows > 0). The final
 * snapshot is compared counter-by-counter against the exact host
 * sums (bit-identical to a fault-free core::replaySerial by the
 * sharded-engine invariants), giving:
 *
 *  - silent errors: counters ending with the wrong value;
 *  - corrected/recovered: flips healed by the scrubber's SEC-DED
 *    lanes vs. its mirror fallback;
 *  - throughput overhead: wall time and fabric commands relative to
 *    the same backend's unprotected fault-free cell;
 *  - the HealthMonitor's blind fault-rate estimate next to the
 *    injected truth.
 *
 * A cell's window is its engine's lifetime, including the service
 * snapshot the campaign checks: that read runs the protected read
 * path under faults, so it is part of the cost being measured. The
 * counter comparison itself is host-only. The host clock (wall time,
 * overhead) starts once the engine, scrubber and service are built.
 *
 * Emits BENCH_reliability.json. Besides the gates every cell carries
 * (bench/harness), each scrub-enabled cell at the paper's protected
 * operating points (fault rate <= 1e-3) must end with zero silent
 * errors.
 *
 * Usage: fault_campaign [--trials=small|full] [--seed=N] [--trace FILE]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"

using namespace c2m;

namespace {

struct CampaignScale
{
    size_t counters;
    size_t ops;
    unsigned shards;
    unsigned producers;
    std::vector<double> rates;
};

struct Scheme
{
    const char *name;
    core::Protection protection;
    bool scrub;
};

core::EngineConfig
cellConfig(core::BackendKind backend, const Scheme &scheme,
           double rate, size_t counters, uint64_t seed)
{
    core::EngineConfig cfg;
    cfg.numCounters = counters;
    cfg.capacityBits = 24;
    cfg.faultRate = rate;
    cfg.seed = seed;
    cfg.backend = backend;
    cfg.protection = scheme.protection;
    if (scheme.protection == core::Protection::Ecc) {
        cfg.frChecks = 2;
        cfg.maxRetries = 6;
    }
    return cfg;
}

/** Flush-separated parts every stream is submitted in. */
constexpr size_t kChunks = 8;

/** One op stream and its exact host sums. */
struct Stream
{
    const char *name;
    bool negatives;
    std::vector<core::BatchOp> ops;
    std::vector<int64_t> expected;
};

Stream
makeStream(const CampaignScale &scale, uint64_t seed, bool negatives)
{
    // Half uniform, half Zipf-skewed keys; with negatives, ~30% of
    // the deltas are negative so the signed path is under test too.
    Stream st{negatives ? "signed" : "unsigned", negatives, {},
              std::vector<int64_t>(scale.counters, 0)};
    Rng rng(seed);
    ZipfRng zipf(scale.counters, 1.0, seed ^ 0xabcdefULL);
    st.ops.reserve(scale.ops);
    for (size_t i = 0; i < scale.ops; ++i) {
        const uint64_t c = (i % 2) ? zipf.next()
                                   : rng.nextBounded(scale.counters);
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(40));
        if (rng.nextBool(0.3) && negatives)
            v = -v;
        st.ops.push_back({c, v, 0});
        st.expected[c] += v;
    }
    return st;
}

/**
 * Run one campaign cell and return its wall time; @p record adds it
 * to @p h (the clean baseline runs are not cells).
 */
double
runCell(bench::Harness &h, bool record, core::BackendKind backend,
        const Scheme &scheme, double rate, const CampaignScale &scale,
        const Stream &stream, uint64_t seed, double base_wall,
        TextTable &t)
{
    const std::vector<core::BatchOp> &ops = stream.ops;
    const std::vector<int64_t> &expected = stream.expected;
    const bench::Window w = h.open();
    const auto cfg =
        cellConfig(backend, scheme, rate, scale.counters, seed);
    core::ShardedEngine eng(cfg, scale.shards);
    // Observer before service: it must outlive the service's stop().
    std::unique_ptr<reliability::Scrubber> scrub;
    if (scheme.scrub)
        scrub = std::make_unique<reliability::Scrubber>(eng);
    service::IngestService svc(eng, {});
    if (scrub)
        svc.attachObserver(scrub.get());
    // The host clock starts once the engine and service are built.
    const bench::Window timed = h.open();

    const size_t per = (ops.size() + kChunks - 1) / kChunks;
    for (size_t lo = 0; lo < ops.size(); lo += per) {
        service::submitConcurrent(
            svc,
            std::span<const core::BatchOp>(ops).subspan(
                lo, std::min(per, ops.size() - lo)),
            scale.producers);
        svc.flushAndWait();
    }
    const auto snap = svc.snapshot();
    svc.stop();
    const double wall = timed.seconds();
    if (!record)
        return wall;

    size_t silent = 0;
    int64_t max_abs_err = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
        const int64_t err = snap.counters[i] - expected[i];
        if (err != 0) {
            ++silent;
            max_abs_err = std::max<int64_t>(max_abs_err, std::abs(err));
        }
    }
    bench::Cell &c =
        h.cell(json::Value::object()
                   .set("backend", core::backendName(backend))
                   .set("protection", scheme.name)
                   .set("scrub", scheme.scrub)
                   .set("stream", stream.name)
                   .set("fault_rate", rate),
               eng, w, wall, scale.ops);
    const auto &es = c.window.total;
    const auto ss = scrub ? scrub->stats() : reliability::ScrubStats{};
    const double est_rate =
        scrub ? scrub->health().estimatedFaultRate() : 0.0;
    const double overhead = base_wall > 0.0 ? wall / base_wall : 1.0;
    c.model.set("silent_errors", silent)
        .set("max_abs_err", max_abs_err)
        .set("fabric_commands", es.fabric.commands())
        .set("ripples", es.ripples)
        .set("drain_peeks", es.drainPeeks)
        .set("retries", es.retries)
        .set("uncorrected_blocks", es.uncorrectedBlocks)
        .set("faults_injected", es.fabric.faultsInjected)
        .set("sweeps", ss.sweeps)
        .set("sweep_fabric_ns", es.fabric.attr(cim::FabricCat::Scrub))
        .set("faulty_bits", ss.faultyBits)
        .set("carry_rows", ss.carryRows)
        .set("bits_corrected", ss.bitsCorrected)
        .set("words_recovered", ss.wordsRecovered)
        .set("est_fault_rate", est_rate);
    c.host.set("overhead", overhead);
    if (scrub)
        mergeCounters(c.counters, ss.toCounters());
    // At the paper's protected operating points (rate <= 1e-3) a
    // scrub-enabled run must end with zero silent errors.
    if (scheme.scrub && rate <= 1e-3)
        c.gate("silent_errors", static_cast<double>(silent), "==", 0.0);
    // Every chunk ends in an epoch boundary, and each one sweeps the
    // shards the chunk touched.
    if (scheme.scrub)
        c.gate("sweeps", static_cast<double>(ss.sweeps), ">=",
               static_cast<double>(kChunks));
    // An unsigned stream leaves carries pending at the sweeps, which
    // settle them through the rows they read.
    if (scheme.scrub && !stream.negatives)
        c.gate("carry_rows", static_cast<double>(ss.carryRows), ">", 0.0);

    t.addRow({core::backendName(backend), scheme.name, stream.name,
              TextTable::fmt(rate, 6), std::to_string(silent),
              std::to_string(max_abs_err), std::to_string(ss.sweeps),
              std::to_string(ss.bitsCorrected),
              std::to_string(ss.wordsRecovered),
              TextTable::fmt(est_rate, 6),
              TextTable::fmt(overhead, 2)});
    return wall;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("fault_campaign", "BENCH_reliability.json", argc,
                     argv,
                     {"--trials=small", "--trials=full", "--seed="});
    const bool small = h.has("--trials=small");
    const uint64_t seed =
        h.has("--seed=") ? std::strtoull(h.value("--seed="), nullptr, 10)
                         : 12345;

    const CampaignScale scale =
        small ? CampaignScale{96, 2000, 4, 2, {1e-4, 1e-3, 1e-2}}
              : CampaignScale{256, 8000, 4, 4,
                              {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}};
    h.doc()
        .id.set("trials", small ? "small" : "full")
        .set("seed", seed)
        .set("counters", scale.counters)
        .set("ops", scale.ops)
        .set("shards", scale.shards)
        .set("producers", scale.producers);

    const Stream mixed = makeStream(scale, seed, true);
    const Stream up = makeStream(scale, seed, false);
    // The unsigned-stream cells run at the paper's protected
    // operating point.
    constexpr double kUnsignedRate = 1e-3;

    // Protection levels per backend: scrubbing needs rowScrub
    // (Ambit, NVM); RCA runs its duplicate-compute ECC only.
    const std::vector<Scheme> ambitSchemes = {
        {"none", core::Protection::None, false},
        {"none+scrub", core::Protection::None, true},
        {"ecc", core::Protection::Ecc, false},
        {"ecc+scrub", core::Protection::Ecc, true},
        {"tmr", core::Protection::Tmr, false},
    };
    const std::vector<Scheme> nvmSchemes = {
        {"none", core::Protection::None, false},
        {"none+scrub", core::Protection::None, true},
    };
    const std::vector<Scheme> rcaSchemes = {
        {"none", core::Protection::None, false},
        {"ecc", core::Protection::Ecc, false},
    };
    // One unsigned-stream scrub cell per scrubbable backend.
    const Scheme ambitUnsigned{"ecc+scrub", core::Protection::Ecc, true};
    const Scheme nvmUnsigned{"none+scrub", core::Protection::None, true};
    struct BackendSchemes
    {
        core::BackendKind backend;
        const std::vector<Scheme> *schemes;
        const Scheme *unsignedScheme;
    };
    const std::vector<BackendSchemes> backends = {
        {core::BackendKind::Ambit, &ambitSchemes, &ambitUnsigned},
        {core::BackendKind::NvmPinatubo, &nvmSchemes, &nvmUnsigned},
        {core::BackendKind::Rca, &rcaSchemes, nullptr},
    };

    TextTable t({"backend", "protection", "stream", "rate", "silent",
                 "maxerr", "sweeps", "sec-fix", "mirror-fix",
                 "est-rate", "overhead"});
    // Clean unprotected baseline of a stream, for the overhead column.
    const Scheme base{"none", core::Protection::None, false};
    for (const auto &[backend, schemes, unsigned_scheme] : backends) {
        const double base_wall = runCell(h, false, backend, base, 0.0,
                                         scale, mixed, seed, 0.0, t);
        for (double rate : scale.rates)
            for (const auto &scheme : *schemes)
                runCell(h, true, backend, scheme, rate, scale, mixed,
                        seed, base_wall, t);
        if (!unsigned_scheme)
            continue;
        const double up_wall = runCell(h, false, backend, base, 0.0,
                                       scale, up, seed, 0.0, t);
        runCell(h, true, backend, *unsigned_scheme, kUnsignedRate, scale,
                up, seed, up_wall, t);
    }
    std::printf("%s", t.render().c_str());
    return h.finish();
}
