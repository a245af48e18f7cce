/**
 * @file
 * Async ingest service tests: op coalescing, concurrent producers
 * vs. blocking serial replay, epoch snapshot consistency, blocking
 * backpressure accounting, the stop path, work stealing on skewed
 * streams, and merged service/engine stats reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/coalesce.hpp"
#include "core/sharded.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;
using core::BatchOp;
using core::EngineConfig;
using core::EngineStats;
using core::ShardedEngine;
using service::IngestConfig;
using service::IngestService;
using service::ServiceStats;

namespace {

EngineConfig
baseConfig(size_t counters = 64)
{
    EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 20;
    cfg.numCounters = counters;
    cfg.maxMaskRows = 1;
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

} // namespace

TEST(Coalesce, MergesDuplicatesKeepsFirstOccurrenceOrder)
{
    const std::vector<BatchOp> ops = {
        {5, 2, 0}, {3, 1, 0}, {5, -1, 0}, {7, 4, 0}, {3, -1, 0}};
    core::CoalesceScratch sc;
    core::CoalesceResult r;
    core::coalesceOps(ops, sc, r);
    ASSERT_EQ(r.ops.size(), 2u);
    // Counter 3 cancels to zero and is elided; 5 and 7 keep the
    // order they first appeared in.
    EXPECT_EQ(r.ops[0].counter, 5u);
    EXPECT_EQ(r.ops[0].value, 1);
    EXPECT_EQ(r.ops[1].counter, 7u);
    EXPECT_EQ(r.ops[1].value, 4);
    EXPECT_EQ(r.merged, 3u);
}

TEST(Coalesce, GroupsStaySeparate)
{
    const std::vector<BatchOp> ops = {
        {5, 2, 0}, {5, 3, 1}, {5, 1, 0}};
    core::CoalesceScratch sc;
    core::CoalesceResult r;
    core::coalesceOps(ops, sc, r);
    ASSERT_EQ(r.ops.size(), 2u);
    EXPECT_EQ(r.ops[0].group, 0u);
    EXPECT_EQ(r.ops[0].value, 3);
    EXPECT_EQ(r.ops[1].group, 1u);
    EXPECT_EQ(r.ops[1].value, 3);
    EXPECT_EQ(r.merged, 1u);
}

TEST(Coalesce, SumsWrapInTwosComplement)
{
    // The drain planner reads each sum as a wrapping 64-bit delta;
    // the table must produce it without signed overflow.
    const std::vector<BatchOp> ops = {
        {4, INT64_MAX, 0}, {4, 1, 0}, {9, INT64_MIN, 0}, {9, -1, 0}};
    core::CoalesceScratch sc;
    core::CoalesceResult r;
    core::coalesceOps(ops, sc, r);
    ASSERT_EQ(r.ops.size(), 2u);
    EXPECT_EQ(r.ops[0].value, INT64_MIN);
    EXPECT_EQ(r.ops[1].value, INT64_MAX);
    EXPECT_EQ(r.merged, 2u);
}

TEST(Ingest, SingleProducerMatchesSerialReplay)
{
    const auto cfg = baseConfig(64);
    const auto ops = randomOps(300, cfg.numCounters, 7, true);

    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    EXPECT_EQ(svc.submit(ops), ops.size());
    const auto got = svc.readCounters();
    EXPECT_EQ(got, core::replaySerial(cfg, ops));

    const auto st = svc.serviceStats();
    EXPECT_EQ(st.submitted, ops.size());
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_EQ(st.flushedOps + st.coalesced, ops.size());
    EXPECT_GE(st.epochs, 1u);
}

TEST(Ingest, ConcurrentProducersMatchSerialReplay)
{
    const auto cfg = baseConfig(48);
    const unsigned producers = 4;
    const auto ops = randomOps(400, cfg.numCounters, 11, true);

    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    EXPECT_EQ(service::submitConcurrent(svc, ops, producers),
              ops.size());
    // Integer sums commute, so any producer interleaving must be
    // bit-identical to one blocking engine replaying the stream.
    EXPECT_EQ(svc.readCounters(), core::replaySerial(cfg, ops));
}

TEST(Ingest, CoalescingHalvesFabricOpsBitIdentical)
{
    auto cfg = baseConfig(32);
    // Hot keys: 400 ops over 16 distinct counters.
    Rng rng(13);
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < 400; ++i)
        ops.push_back({rng.nextBounded(16) * 2,
                       static_cast<int64_t>(1 + rng.nextBounded(5)),
                       0});
    const auto reference = core::replaySerial(cfg, ops);

    uint64_t inputs_on = 0;
    uint64_t inputs_off = 0;
    for (const bool coalesce : {true, false}) {
        ShardedEngine engine(cfg, 4);
        IngestConfig icfg;
        icfg.coalesce = coalesce;
        IngestService svc(engine, icfg);
        EXPECT_EQ(svc.submit(ops), ops.size());
        EXPECT_EQ(svc.readCounters(), reference);
        const auto est = svc.engineStats();
        (coalesce ? inputs_on : inputs_off) =
            est.inputsAccumulated;
        if (coalesce) {
            const auto st = svc.serviceStats();
            EXPECT_GT(st.coalesced, 0u);
            EXPECT_EQ(st.flushedOps + st.coalesced, ops.size());
        }
    }
    EXPECT_EQ(inputs_off, 400u);
    // A same-shard span lands in one epoch, so every duplicate in
    // the batch coalesces: >= 2x fewer fabric accumulates.
    EXPECT_LE(2 * inputs_on, inputs_off);
}

TEST(Ingest, PlannerDrainCutsFabricProgramsBitIdentical)
{
    auto cfg = baseConfig(64);
    // All-positive skewed stream in a one-epoch window, so each
    // shard's coalesced bucket becomes one digit-plane plan.
    Rng rng(29);
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < 800; ++i)
        ops.push_back({rng.nextBounded(cfg.numCounters),
                       static_cast<int64_t>(1 + rng.nextBounded(9)),
                       0});
    const auto reference = core::replaySerial(cfg, ops);

    uint64_t programs_on = 0, programs_off = 0;
    for (const bool planner : {true, false}) {
        auto pcfg = cfg;
        pcfg.drainPlanner = planner;
        ShardedEngine engine(pcfg, 4);
        IngestConfig icfg;
        icfg.minDrainOps = ops.size();
        icfg.queueCapacity = 2 * ops.size();
        IngestService svc(engine, icfg);
        EXPECT_EQ(svc.submit(ops), ops.size());
        EXPECT_EQ(svc.readCounters(), reference);
        const auto est = svc.engineStats();
        const auto sst = svc.serviceStats();
        (planner ? programs_on : programs_off) = est.increments;
        if (planner) {
            // The service is the engine's only driver, so the
            // engine's plan counters are the service's epochs'.
            EXPECT_GT(est.plansExecuted, 0u);
            EXPECT_GT(est.planPrograms, 0u);
            EXPECT_EQ(est.plannedOps + est.planFallbackOps,
                      sst.flushedOps + 0u);
            const auto report = svc.report();
            EXPECT_EQ(report.at("engine.plans_executed"),
                      est.plansExecuted);
            EXPECT_EQ(report.at("engine.plan_programs"),
                      est.planPrograms);
        } else {
            EXPECT_EQ(est.plansExecuted, 0u);
            EXPECT_EQ(est.planPrograms, 0u);
        }
    }
    // The column-parallel drain must clearly beat per-op replay.
    EXPECT_LT(4 * programs_on, programs_off);
}

TEST(Ingest, SnapshotNeverTearsAnAtomicSpan)
{
    const auto cfg = baseConfig(64);
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);

    constexpr size_t kSpan = 8;
    constexpr size_t kRounds = 30;
    std::thread writer([&] {
        const std::vector<BatchOp> span(kSpan, BatchOp{3, 1, 0});
        for (size_t r = 0; r < kRounds; ++r)
            svc.submit(span);
    });

    // Same-shard spans are epoch-atomic: every snapshot sees a
    // multiple of the span length, monotonically nondecreasing.
    int64_t last = 0;
    uint64_t last_epoch = 0;
    for (int i = 0; i < 20; ++i) {
        const auto snap = svc.snapshot();
        const int64_t v = snap.counters[3];
        EXPECT_EQ(v % static_cast<int64_t>(kSpan), 0);
        EXPECT_GE(v, last);
        EXPECT_GE(snap.epoch, last_epoch);
        last = v;
        last_epoch = snap.epoch;
    }
    writer.join();
    const auto final = svc.readCounters();
    EXPECT_EQ(final[3],
              static_cast<int64_t>(kSpan * kRounds));
}

TEST(IngestConfigErrors, ZeroQueueCapacityThrows)
{
    ShardedEngine engine(baseConfig(32), 2);
    IngestConfig icfg;
    icfg.queueCapacity = 0;
    EXPECT_THROW(IngestService(engine, icfg), std::invalid_argument);
}

TEST(IngestErrors, OutOfRangeOpThrowsOnTheCallersThread)
{
    // A bad counter or group must throw from submit(), before the
    // queue gauge moves or any op of the span is queued: thrown on
    // the drainer thread, it would end the process.
    for (const unsigned shards : {1u, 4u}) {
        auto cfg = baseConfig(64);
        cfg.numGroups = 2;
        ShardedEngine engine(cfg, shards);
        IngestService svc(engine);
        const std::vector<BatchOp> bad_counter = {
            {1, 5, 0}, {40, 2, 1}, {64, 1, 0}};
        const std::vector<BatchOp> bad_group = {
            {1, 5, 0}, {40, 2, 1}, {3, 1, 2}};
        EXPECT_THROW(svc.submit(bad_counter), std::invalid_argument);
        EXPECT_THROW(svc.submit(bad_group), std::invalid_argument);
        EXPECT_THROW(svc.submit(bad_counter.back()),
                     std::invalid_argument);
        svc.flushAndWait();
        auto st = svc.serviceStats();
        EXPECT_EQ(st.submitted, 0u);
        EXPECT_EQ(st.queued, 0u);
        EXPECT_EQ(st.flushedOps, 0u);
        EXPECT_EQ(engine.stats().inputsAccumulated, 0u);

        // The service keeps running.
        EXPECT_EQ(svc.submit(std::span(bad_counter).first(2)), 2u);
        EXPECT_EQ(svc.readCounters(0)[1], 5);
        EXPECT_EQ(svc.readCounters(1)[40], 2);
        st = svc.serviceStats();
        EXPECT_EQ(st.submitted, 2u);
        EXPECT_EQ(st.queued, 0u);
    }
}

TEST(IngestErrors, WaitOnATokenNoFlushIssuedThrows)
{
    // Such a token is never applied: the wait would block forever.
    ShardedEngine engine(baseConfig(32), 2);
    IngestService svc(engine);
    const uint64_t token = svc.flushAndWait();
    EXPECT_THROW(svc.wait(token + 1), std::invalid_argument);
    svc.submit(BatchOp{3, 4, 0});
    svc.wait(svc.forceEpoch());
    EXPECT_EQ(svc.readCounters()[3], 4);
}

TEST(Ingest, BlockBackpressureStallsButLosesNothing)
{
    const auto cfg = baseConfig(32);
    ShardedEngine engine(cfg, 4);
    IngestConfig icfg;
    icfg.queueCapacity = 2;
    IngestService svc(engine, icfg);

    // All ops on one shard so the producer outruns the fabric.
    size_t accepted = 0;
    for (int i = 0; i < 150; ++i)
        accepted += svc.submit(BatchOp{1, 1, 0}) ? 1 : 0;
    EXPECT_EQ(accepted, 150u);

    EXPECT_EQ(svc.readCounters()[1], 150);
    const auto st = svc.serviceStats();
    EXPECT_EQ(st.submitted, 150u);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_GT(st.stalls, 0u);
}

namespace {

/**
 * Observer that records the order of its calls: 'S' for onShardOps,
 * 'E' for onEpochApplied, 'T' for onStop.
 */
class RecordingObserver : public service::EpochObserver
{
  public:
    void onShardOps(unsigned, std::span<const BatchOp>) override
    {
        note('S');
    }
    void onEpochApplied(uint64_t) override { note('E'); }
    void onStop(uint64_t) override { note('T'); }

    std::string events() const
    {
        std::lock_guard<std::mutex> lk(m_);
        return events_;
    }

  private:
    void note(char c)
    {
        std::lock_guard<std::mutex> lk(m_);
        events_ += c;
    }

    mutable std::mutex m_;
    std::string events_;
};

} // namespace

TEST(Ingest, StopAppliesEveryAcceptedOpInAnEpoch)
{
    const auto cfg = baseConfig(64);
    ShardedEngine engine(cfg, 4);
    IngestConfig icfg;
    icfg.queueCapacity = 64;
    IngestService svc(engine, icfg);
    RecordingObserver observer;
    svc.attachObserver(&observer);

    // Four producers submit until the closed queues turn them away;
    // the cap only bounds a producer that never meets stop().
    constexpr unsigned kProducers = 4;
    constexpr size_t kMaxAttempts = 200000;
    std::atomic<size_t> accepted{0};
    std::vector<std::vector<int64_t>> sums(
        kProducers, std::vector<int64_t>(cfg.numCounters, 0));
    std::vector<size_t> attempts(kProducers, 0);
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            Rng rng(100 + p);
            unsigned rejected = 0;
            while (rejected < 16 && attempts[p] < kMaxAttempts) {
                const BatchOp op{
                    rng.nextBounded(cfg.numCounters),
                    static_cast<int64_t>(1 + rng.nextBounded(3)), 0};
                ++attempts[p];
                if (svc.submit(op)) {
                    sums[p][op.counter] += op.value;
                    accepted.fetch_add(1, std::memory_order_relaxed);
                } else {
                    ++rejected;
                }
            }
        });
    // Stop while the producers are still submitting.
    while (accepted.load(std::memory_order_relaxed) < 2000)
        std::this_thread::yield();
    svc.stop();
    for (auto &t : producers)
        t.join();

    std::vector<int64_t> expect(cfg.numCounters, 0);
    size_t attempted = 0;
    for (unsigned p = 0; p < kProducers; ++p) {
        attempted += attempts[p];
        for (size_t c = 0; c < expect.size(); ++c)
            expect[c] += sums[p][c];
    }
    EXPECT_EQ(engine.readAllCounters(), expect);
    const auto st = svc.serviceStats();
    EXPECT_EQ(st.submitted, accepted.load());
    EXPECT_EQ(st.submitted + st.dropped, attempted);
    EXPECT_EQ(st.queued, 0u);
    // stop() turned the producers away instead of draining behind
    // them until each reached its cap.
    EXPECT_GT(st.dropped, 0u);

    // Every onShardOps call is closed by its epoch's onEpochApplied
    // before the one final onStop: no op is applied outside an epoch.
    const std::string ev = observer.events();
    ASSERT_FALSE(ev.empty());
    EXPECT_EQ(ev.back(), 'T');
    EXPECT_EQ(std::count(ev.begin(), ev.end(), 'T'), 1);
    for (size_t i = 0; i + 1 < ev.size(); ++i) {
        if (ev[i] == 'S') {
            EXPECT_TRUE(ev[i + 1] == 'S' || ev[i + 1] == 'E')
                << "onShardOps at event " << i << " is followed by '"
                << ev[i + 1] << "'";
        }
    }
}

TEST(Ingest, WorkStealingOnFullySkewedBatch)
{
    const auto cfg = baseConfig(64);
    // Every op lands on shard 0 (counters 0..15 of 64 over 4
    // shards): any idle lane may claim the bucket.
    Rng rng(17);
    std::vector<BatchOp> ops;
    for (size_t i = 0; i < 300; ++i)
        ops.push_back({rng.nextBounded(16),
                       static_cast<int64_t>(rng.nextBounded(30)),
                       0});
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    EXPECT_EQ(service::submitConcurrent(svc, ops, 4), ops.size());
    EXPECT_EQ(svc.readCounters(), core::replaySerial(cfg, ops));
}

TEST(Ingest, SixteenProducersEightShardsBitExact)
{
    // The heaviest contention cell the benches run: 16 producers
    // racing into an 8-shard engine with the hierarchical drain
    // pipeline (merged gang-issued plans) active end to end.
    const auto cfg = baseConfig(256);
    const auto ops = randomOps(4096, cfg.numCounters, 23, true);

    auto pcfg = cfg;
    pcfg.drainPlanner = true;
    ShardedEngine engine(pcfg, 8);
    IngestService svc(engine);
    EXPECT_EQ(service::submitConcurrent(svc, ops, 16), ops.size());
    EXPECT_EQ(svc.readCounters(), core::replaySerial(cfg, ops));

    // Every batched op is accounted exactly once by the planner, and
    // the attribution ledger (including the plan_fanout row gang
    // followers charge) stays bit-exact under full concurrency.
    const auto sst = svc.serviceStats();
    const auto est = svc.engineStats();
    EXPECT_EQ(est.plannedOps + est.planFallbackOps, sst.flushedOps);
    EXPECT_LE(est.planLeadPrograms, est.planPrograms);
    EXPECT_LE(est.fabric.gangedCommands, est.fabric.commands());
    double ledger = 0.0;
    for (double row : est.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, est.fabric.fabricNs);
}

TEST(Ingest, ScrubAndVirtStayExactThroughEpochPipeline)
{
    // Scrub sweeps and virt spill/restore traffic ride the same
    // engine the pipeline drains; with every key promoted to the
    // exact tier, spill round trips under frame pressure must
    // preserve bit-exact values and a bit-exact ledger.
    auto cfg = baseConfig(128);
    cfg.drainPlanner = true;
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    reliability::Scrubber scrub(engine);
    virt::VirtConfig vcfg;
    vcfg.groupSize = 16;          // 8 frames
    vcfg.promoteThreshold = 1;    // every key exact on first sight
    vcfg.restoreOpThreshold = 8;
    virt::VirtualCounterSpace space(svc, vcfg);
    space.attachScrubber(&scrub);

    Rng rng(67);
    std::unordered_map<uint64_t, int64_t> expect;
    for (size_t i = 0; i < 20000; ++i) {
        const uint64_t key = 1 + rng.nextBounded(300);
        const int64_t v = static_cast<int64_t>(1 + rng.nextBounded(3));
        space.add(key, v);
        expect[key] += v;
    }
    space.flush();

    EXPECT_GT(space.stats().spills, 0u);
    EXPECT_GT(scrub.stats().sweeps, 0u);
    for (const auto &[key, want] : expect)
        ASSERT_EQ(space.read(key), want) << "key " << key;

    svc.stop();
    const auto est = svc.engineStats();
    double ledger = 0.0;
    for (double row : est.fabric.attrNs)
        ledger += row;
    EXPECT_EQ(ledger, est.fabric.fabricNs);
    EXPECT_GT(est.fabric.attr(cim::FabricCat::Scrub), 0.0);
    EXPECT_GT(est.fabric.attr(cim::FabricCat::VirtSpill), 0.0);
}

TEST(Ingest, FlushTokensOnIdleServiceResolveImmediately)
{
    const auto cfg = baseConfig(32);
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);

    const uint64_t t0 = svc.flushAndWait();
    EXPECT_EQ(svc.flush(), t0); // idle: nothing new to cover

    svc.submit(BatchOp{2, 5, 0});
    const uint64_t t1 = svc.flushAndWait();
    EXPECT_GE(t1, t0);
    const auto snap = svc.snapshot();
    EXPECT_GE(snap.epoch, t1);
    EXPECT_EQ(snap.counters[2], 5);
}

TEST(Ingest, ReportMergesServiceAndEngineCounters)
{
    const auto cfg = baseConfig(32);
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    const auto ops = randomOps(60, cfg.numCounters, 23, false);
    svc.submit(ops);
    svc.flushAndWait();

    const auto report = svc.report();
    ASSERT_TRUE(report.count("service.submitted"));
    ASSERT_TRUE(report.count("engine.inputs_accumulated"));
    EXPECT_EQ(report.at("service.submitted"), ops.size());
    EXPECT_EQ(report.at("engine.inputs_accumulated"),
              svc.serviceStats().flushedOps);

    const auto text = renderCounters(report);
    EXPECT_NE(text.find("service.epochs"), std::string::npos);
    EXPECT_NE(text.find("engine.increments"), std::string::npos);

    // Fabric-level command tallies ride along in the merged view.
    ASSERT_TRUE(report.count("engine.fabric.tra"));
    EXPECT_GT(report.at("engine.fabric.tra"), 0u);
    EXPECT_EQ(report.at("engine.fabric.faults_injected"), 0u);
}

TEST(Ingest, DrainLatencyPercentilesTrackEpochs)
{
    const auto cfg = baseConfig(64);
    ShardedEngine engine(cfg, 4);
    IngestService svc(engine);
    const auto &lat = svc.drainHistogram();
    EXPECT_EQ(lat.count(), 0u);

    const auto ops = randomOps(400, cfg.numCounters, 29, false);
    for (size_t lo = 0; lo < ops.size(); lo += 50) {
        svc.submit(std::span<const BatchOp>(ops).subspan(lo, 50));
        svc.flushAndWait();
    }

    EXPECT_GT(lat.count(), 0u);
    EXPECT_EQ(lat.count(), svc.serviceStats().epochs);
    EXPECT_LE(lat.percentile(0.50), lat.percentile(0.95));
    EXPECT_LE(lat.percentile(0.95), lat.percentile(0.99));
    EXPECT_LE(lat.percentile(0.99), lat.max());

    const auto report = svc.report();
    ASSERT_TRUE(report.count("service.drain_p50_us"));
    ASSERT_TRUE(report.count("service.drain_p99_us"));
    EXPECT_LE(report.at("service.drain_p50_us"),
              report.at("service.drain_max_us"));
}

TEST(ServiceStatsCounters, SumsAndCoversEveryField)
{
    static_assert(sizeof(ServiceStats) == 8 * sizeof(uint64_t),
                  "ServiceStats changed; update operator+=, "
                  "toCounters and this test");
    ServiceStats a{1, 2, 3, 4, 5, 6, 7, 8};
    const ServiceStats b{10, 20, 30, 40, 50, 60, 70, 80};
    a += b;
    EXPECT_EQ(a.submitted, 11u);
    EXPECT_EQ(a.queued, 22u);
    EXPECT_EQ(a.dropped, 33u);
    EXPECT_EQ(a.stalls, 44u);
    EXPECT_EQ(a.coalesced, 55u);
    EXPECT_EQ(a.flushedOps, 66u);
    EXPECT_EQ(a.epochs, 77u);
    EXPECT_EQ(a.steals, 88u);
    const auto m = a.toCounters();
    EXPECT_EQ(m.size(), 8u);
    EXPECT_EQ(m.at("service.submitted"), 11u);
    EXPECT_EQ(m.at("service.steals"), 88u);
}

TEST(EngineStatsCounters, CoversEveryField)
{
    static_assert(sizeof(EngineStats) == 39 * sizeof(uint64_t),
                  "EngineStats changed; update toCounters and this "
                  "test");
    const EngineStats s{1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                        11, 12, 13, 14, 15, 16, 26, 27, 28, 29,
                        {17, 18, 19, 20, 21, 22, 23, 24.0, 25.0,
                         {24.0}}};
    const auto m = s.toCounters();
    EXPECT_EQ(m.size(), 38u);
    EXPECT_EQ(m.at("engine.inputs_accumulated"), 1u);
    EXPECT_EQ(m.at("engine.program_cache_misses"), 11u);
    EXPECT_EQ(m.at("engine.plans_executed"), 12u);
    EXPECT_EQ(m.at("engine.plan_programs"), 13u);
    EXPECT_EQ(m.at("engine.plan_lead_programs"), 14u);
    EXPECT_EQ(m.at("engine.planned_ops"), 15u);
    EXPECT_EQ(m.at("engine.plan_fallback_ops"), 16u);
    EXPECT_EQ(m.at("engine.pending_peeks"), 26u);
    EXPECT_EQ(m.at("engine.sign_folds"), 27u);
    EXPECT_EQ(m.at("engine.drain_peeks"), 28u);
    EXPECT_EQ(m.at("engine.absorb_peeks"), 29u);
    EXPECT_EQ(m.at("engine.fabric.aap"), 17u);
    EXPECT_EQ(m.at("engine.fabric.faults_injected"), 20u);
    EXPECT_EQ(m.at("engine.fabric.row_writes"), 22u);
    EXPECT_EQ(m.at("engine.fabric.ganged"), 23u);
    EXPECT_EQ(m.at("engine.fabric.ns"), 24u);
    EXPECT_EQ(m.at("engine.fabric.nj"), 25u);
    EXPECT_EQ(m.at("engine.fabric.attr.plan"), 24u);
    EXPECT_EQ(m.at("engine.fabric.attr.fallback"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.mask_write"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.scrub"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.virt_spill"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.virt_restore"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.virt_materialize"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.plan_fanout"), 0u);
    EXPECT_EQ(m.at("engine.fabric.attr.other"), 0u);
}

TEST(CounterMaps, MergeSumsMatchingKeys)
{
    CounterMap a{{"x", 1}, {"y", 2}};
    const CounterMap b{{"y", 40}, {"z", 5}};
    mergeCounters(a, b);
    EXPECT_EQ(a.at("x"), 1u);
    EXPECT_EQ(a.at("y"), 42u);
    EXPECT_EQ(a.at("z"), 5u);
}

TEST(ThreadPoolLane, CurrentLaneIdentifiesWorkers)
{
    core::ThreadPool pool(2);
    EXPECT_EQ(pool.currentLane(), core::ThreadPool::kNoLane);
    std::atomic<unsigned> lane0{~0u}, lane1{~0u};
    pool.post(0, [&] { lane0 = pool.currentLane(); });
    pool.post(1, [&] { lane1 = pool.currentLane(); });
    pool.drain();
    EXPECT_EQ(lane0.load(), 0u);
    EXPECT_EQ(lane1.load(), 1u);
}

TEST(ThreadPoolLane, ZeroWorkersThrows)
{
    EXPECT_THROW(core::ThreadPool pool(0), std::invalid_argument);
}

TEST(ZipfRngTest, SkewsTowardsSmallKeys)
{
    ZipfRng zipf(1024, 1.0, 99);
    size_t head = 0;
    const size_t draws = 4000;
    for (size_t i = 0; i < draws; ++i)
        if (zipf.next() < 16)
            ++head;
    // Uniform would put ~1.6% in the first 16 keys; Zipf(1.0) puts
    // ~45% there.
    EXPECT_GT(head, draws / 4);
}
