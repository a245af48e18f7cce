/**
 * @file
 * Observability subsystem tests: log-bucketed histogram edge cases
 * (empty, single sample, top-octave saturation, concurrent writers,
 * percentile agreement with exact order statistics), trace recorder
 * ring semantics, Chrome-trace export sanitization and clock-domain
 * tracks, pluggable log sink capture + warning rate limiting, the
 * ingest service's drain-latency histogram, and counter-render
 * determinism. Suites are named Obs* so the TSan CI job picks them up.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/ingest.hpp"

using namespace c2m;
using core::EngineConfig;
using obs::EventKind;
using obs::LogHistogram;
using obs::TraceConfig;
using obs::TraceEvent;
using obs::TraceRecorder;

namespace {

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

struct CapturedLog
{
    std::vector<std::pair<LogLevel, std::string>> lines;
};

void
captureSink(void *ctx, LogLevel lvl, const char *msg)
{
    static_cast<CapturedLog *>(ctx)->lines.emplace_back(lvl, msg);
}

} // namespace

// ---------------------------------------------------------------------
// LogHistogram

TEST(ObsHistogram, EmptyHistogramReportsZeros)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
}

TEST(ObsHistogram, SingleSampleIsExact)
{
    LogHistogram h;
    h.record(37);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), 37u);
    EXPECT_EQ(h.min(), 37u);
    // Every quantile of a one-sample distribution is that sample: the
    // in-bucket interpolation is clamped to the tracked [min, max].
    EXPECT_EQ(h.percentile(0.0), 37u);
    EXPECT_EQ(h.percentile(0.5), 37u);
    EXPECT_EQ(h.percentile(0.99), 37u);
    EXPECT_EQ(h.percentile(1.0), 37u);
}

TEST(ObsHistogram, SmallValuesAreExact)
{
    LogHistogram h;
    for (uint64_t v = 0; v < 4; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketLo(static_cast<uint32_t>(v)), v);
        EXPECT_EQ(LogHistogram::bucketHi(static_cast<uint32_t>(v)),
                  v + 1);
    }
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(1.0), 3u);
}

TEST(ObsHistogram, BucketEdgesPartitionTheValueSpace)
{
    // Buckets tile [0, 2^64) without gaps or overlap: every bucket's
    // lo maps back to it, its hi-1 maps back to it, and hi is the
    // next bucket's lo.
    for (uint32_t i = 0; i < LogHistogram::kBucketCount; ++i) {
        const uint64_t lo = LogHistogram::bucketLo(i);
        const uint64_t hi = LogHistogram::bucketHi(i);
        ASSERT_LT(lo, hi) << "bucket " << i;
        EXPECT_EQ(LogHistogram::bucketIndex(lo), i);
        EXPECT_EQ(LogHistogram::bucketIndex(hi - 1), i);
        if (i + 1 < LogHistogram::kBucketCount) {
            EXPECT_EQ(LogHistogram::bucketHi(i),
                      LogHistogram::bucketLo(i + 1));
        }
    }
    // Width never exceeds 1/4 of the bucket's lower bound (above the
    // exact range), which is the quantile error bound we advertise.
    for (uint32_t i = 4; i < LogHistogram::kBucketCount; ++i) {
        const uint64_t lo = LogHistogram::bucketLo(i);
        const uint64_t hi = LogHistogram::bucketHi(i);
        if (hi != UINT64_MAX) {
            EXPECT_LE(hi - lo, lo / 4) << "bucket " << i;
        }
    }
}

TEST(ObsHistogram, TopOctaveSaturatesWithoutOverflow)
{
    LogHistogram h;
    h.record(UINT64_MAX);
    h.record(uint64_t{1} << 63);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), UINT64_MAX);
    EXPECT_EQ(LogHistogram::bucketIndex(UINT64_MAX),
              LogHistogram::kBucketCount - 1);
    EXPECT_EQ(LogHistogram::bucketHi(LogHistogram::kBucketCount - 1),
              UINT64_MAX);
    EXPECT_EQ(h.percentile(1.0), UINT64_MAX);
}

TEST(ObsHistogram, PercentileAgreesWithExactWithinOneBucket)
{
    LogHistogram h;
    Rng rng(0xC0FFEE);
    std::vector<uint64_t> exact;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform spread so every octave gets traffic.
        const uint64_t v =
            rng.next() >> (rng.next() % 56);
        exact.push_back(v);
        h.record(v);
    }
    std::sort(exact.begin(), exact.end());
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        const size_t rank = static_cast<size_t>(
            q * static_cast<double>(exact.size() - 1) + 0.5);
        const uint64_t truth = exact[std::min(rank, exact.size() - 1)];
        const uint64_t est = h.percentile(q);
        const uint32_t b = LogHistogram::bucketIndex(truth);
        const uint64_t width =
            LogHistogram::bucketHi(b) - LogHistogram::bucketLo(b);
        // Interpolation estimates within the truth's bucket, so the
        // error is two-sided and strictly under one bucket width (the
        // old upper-edge return was biased a full octave high at
        // sub-bucket boundaries).
        const uint64_t err = est > truth ? est - truth : truth - est;
        EXPECT_LT(err, width) << "q=" << q;
        EXPECT_GE(est, h.min()) << "q=" << q;
        EXPECT_LE(est, h.max()) << "q=" << q;
    }
}

TEST(ObsHistogram, QuantilesAreMonotoneAndBoundedByMax)
{
    LogHistogram h;
    Rng rng(42);
    for (int i = 0; i < 5000; ++i)
        h.record(rng.next() % 1000000);
    uint64_t prev = 0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const uint64_t v = h.percentile(q);
        EXPECT_GE(v, prev);
        EXPECT_LE(v, h.max());
        prev = v;
    }
}

TEST(ObsHistogram, ConcurrentLaneWritersSumExactly)
{
    // Run under TSan in CI: lock-free recording from many threads.
    LogHistogram h;
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kPerThread; ++i)
                h.record(static_cast<uint64_t>(t) * kPerThread + i);
        });
    for (auto &w : writers)
        w.join();
    const uint64_t n = kThreads * kPerThread;
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.max(), n - 1);
}

// ---------------------------------------------------------------------
// TraceRecorder

TEST(ObsTraceRecorder, DisabledByDefaultAndToggles)
{
    EXPECT_EQ(obs::tracer(), nullptr);
    {
        TraceRecorder rec;
        EXPECT_EQ(obs::tracer(), nullptr); // construction != install
        rec.install();
        EXPECT_EQ(obs::tracer(), &rec);
        rec.uninstall();
        EXPECT_EQ(obs::tracer(), nullptr);
        rec.install();
    } // destructor uninstalls
    EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(ObsTraceRecorder, RecordsEventsInOrder)
{
    TraceRecorder rec(TraceConfig{1, 64});
    rec.install();
    rec.spanBegin("work", 0, 10.0);
    rec.instant("mark", 0, 7, 9);
    rec.counter("gauge", 0, 123);
    rec.spanEnd("work", 0, 20.0);
    rec.uninstall();

    EXPECT_EQ(rec.eventCount(), 4u);
    EXPECT_EQ(rec.droppedEvents(), 0u);
    const auto evs = rec.laneSnapshot(0);
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(std::string(evs[0].name), "work");
    EXPECT_EQ(evs[0].kind, EventKind::SpanBegin);
    EXPECT_DOUBLE_EQ(evs[0].fabricNs, 10.0);
    EXPECT_EQ(evs[1].kind, EventKind::Instant);
    EXPECT_EQ(evs[1].arg, 7u);
    EXPECT_EQ(evs[1].arg2, 9u);
    EXPECT_EQ(evs[2].kind, EventKind::Counter);
    EXPECT_EQ(evs[2].arg, 123u);
    EXPECT_EQ(evs[3].kind, EventKind::SpanEnd);
    // Host stamps are monotone within a lane.
    for (size_t i = 1; i < evs.size(); ++i)
        EXPECT_GE(evs[i].hostNs, evs[i - 1].hostNs);
}

TEST(ObsTraceRecorder, RingOverwritesOldestAndCountsDrops)
{
    CapturedLog cap;
    resetLogRateLimiter();
    setLogSink(&captureSink, &cap); // keep test output clean
    TraceRecorder rec(TraceConfig{1, 8});
    rec.install();
    for (uint64_t i = 0; i < 20; ++i)
        rec.instant("tick", 0, i);
    rec.uninstall();
    setLogSink(nullptr, nullptr);

    // The first wrap fires a one-shot warning, which the log hook
    // records as a 21st event (a log.warn instant) — truncation is
    // never silent.
    ASSERT_EQ(cap.lines.size(), 1u);
    EXPECT_NE(cap.lines[0].second.find("trace ring wrapped"),
              std::string::npos);
    EXPECT_EQ(rec.eventCount(), 21u);
    EXPECT_EQ(rec.droppedEvents(), 13u);
    const auto evs = rec.laneSnapshot(0);
    ASSERT_EQ(evs.size(), 8u);
    // Oldest-first snapshot of the retained tail: args 12..19 (the
    // log.warn instant slotted in mid-stream and was itself
    // overwritten by later ticks).
    for (size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].arg, 12 + i);
    resetLogRateLimiter();
}

TEST(ObsTraceRecorder, ScopedSpanNoopsWhenDisabled)
{
    {
        obs::ScopedSpan span("nothing", 3);
        EXPECT_FALSE(span.active());
    }
    TraceRecorder rec(TraceConfig{1, 16});
    rec.install();
    {
        obs::ScopedSpan span("something", 3, 5.0);
        EXPECT_TRUE(span.active());
        span.setFabricEnd(9.0);
    }
    rec.uninstall();
    const auto evs = rec.laneSnapshot(0);
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].kind, EventKind::SpanBegin);
    EXPECT_EQ(evs[1].kind, EventKind::SpanEnd);
    EXPECT_DOUBLE_EQ(evs[1].fabricNs, 9.0);
}

// ---------------------------------------------------------------------
// Chrome-trace export

TEST(ObsChromeExport, EmitsBothClockDomainsAndBalancedSpans)
{
    TraceRecorder rec(TraceConfig{1, 256});
    rec.install();
    rec.spanBegin("shard.drain", 0, 100.0);
    rec.instant("plan.commit", 0, 50, 90, 150.0);
    rec.spanEnd("shard.drain", 0, 200.0);
    rec.counter("service.queued", obs::kServiceTrack, 17);
    rec.uninstall();

    const std::string json = obs::exportChromeTrace(rec);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Host-clock track for shard 0 is pid 1; its fabric clone is
    // pid 1001; the service counter lands on pid 0.
    EXPECT_NE(json.find("\"pid\":1,"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1001,"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":0,"), std::string::npos);
    // One host B/E pair and one fabric B/E pair.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"E\""), 2u);
    // The priced instant keeps both prices in args.
    EXPECT_NE(json.find("\"arg\":50,\"arg2\":90"), std::string::npos);
    // Track names label the clock domains.
    EXPECT_NE(json.find("shard 0 (host clock)"), std::string::npos);
    EXPECT_NE(json.find("shard 0 (fabric clock)"), std::string::npos);
    EXPECT_NE(json.find("service (host clock)"), std::string::npos);
}

TEST(ObsChromeExport, SanitizesUnbalancedSpans)
{
    TraceRecorder rec(TraceConfig{1, 64});
    rec.install();
    rec.spanEnd("orphan", 2);    // begin lost to (simulated) ring wrap
    rec.spanBegin("unclosed", 2); // recorder stopped mid-span
    rec.instant("last", 2);
    rec.uninstall();

    const std::string json = obs::exportChromeTrace(rec);
    // The orphan end is dropped; the unclosed begin gets a synthetic
    // end — output stays balanced.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"E\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"orphan\""), 0u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"unclosed\""), 2u);
}

// ---------------------------------------------------------------------
// Instrumented stack: spans flow from a live service into the export

TEST(ObsServiceTrace, IngestEpochsEmitDrainSpans)
{
    TraceRecorder rec(TraceConfig{8, 4096});
    rec.install();
    {
        EngineConfig cfg;
        cfg.numCounters = 256;
        core::ShardedEngine engine(cfg, 2);
        service::IngestService svc(engine);
        std::vector<core::BatchOp> ops;
        for (uint64_t i = 0; i < 512; ++i)
            ops.push_back({i % 256, 1, 0});
        svc.submit(ops);
        svc.flushAndWait();
        svc.stop();
    }
    rec.uninstall();

    const std::string json = obs::exportChromeTrace(rec);
    EXPECT_GT(rec.eventCount(), 0u);
    // The epoch lifecycle and per-shard drains both made it out.
    EXPECT_NE(json.find("\"name\":\"epoch\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"epoch.execute\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"shard.drain\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"service.queued\""),
              std::string::npos);
    // Fabric-clock clones exist for the drain spans.
    EXPECT_NE(json.find("\"pid\":1001,"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pluggable log sink + rate limiting

TEST(ObsLogSink, CapturesAndRestores)
{
    CapturedLog cap;
    resetLogRateLimiter();
    setLogSink(&captureSink, &cap);
    C2M_WARN("sink capture check ", 42);
    C2M_INFORM("inform capture check");
    setLogSink(nullptr, nullptr);
    C2M_INFORM("goes to stderr, not the vector");

    ASSERT_EQ(cap.lines.size(), 2u);
    EXPECT_EQ(cap.lines[0].first, LogLevel::Warn);
    EXPECT_EQ(cap.lines[0].second, "sink capture check 42");
    EXPECT_EQ(cap.lines[1].first, LogLevel::Inform);
}

TEST(ObsLogSink, RepeatedWarningsAreRateLimited)
{
    CapturedLog cap;
    resetLogRateLimiter();
    setLogSink(&captureSink, &cap);
    for (int i = 0; i < 300; ++i)
        C2M_WARN("hot warning");
    for (int i = 0; i < 300; ++i)
        C2M_INFORM("hot inform");
    setLogSink(nullptr, nullptr);

    size_t warns = 0, informs = 0;
    for (const auto &[lvl, msg] : cap.lines)
        (lvl == LogLevel::Warn ? warns : informs) += 1;
    // First kLogRepeatHead pass, then every kLogRepeatStride-th:
    // 8 + |{128, 256}| = 10 of 300.
    EXPECT_EQ(warns, kLogRepeatHead + 300 / kLogRepeatStride);
    EXPECT_EQ(informs, 300u); // informs are never limited
    // Passed repeats are annotated with the occurrence count.
    bool annotated = false;
    for (const auto &[lvl, msg] : cap.lines)
        if (msg.find("(repeated 128 times)") != std::string::npos)
            annotated = true;
    EXPECT_TRUE(annotated);
    resetLogRateLimiter();
}

TEST(ObsLogSink, WarningsBecomeTraceInstants)
{
    CapturedLog cap;
    resetLogRateLimiter();
    setLogSink(&captureSink, &cap); // keep test output clean
    TraceRecorder rec(TraceConfig{1, 64});
    rec.install();
    C2M_WARN("timeline-visible warning");
    C2M_INFORM("timeline-visible inform");
    rec.uninstall();
    C2M_WARN("not recorded after uninstall");
    setLogSink(nullptr, nullptr);

    const auto evs = rec.laneSnapshot(0);
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(std::string(evs[0].name), "log.warn");
    EXPECT_EQ(std::string(evs[1].name), "log.inform");
    EXPECT_EQ(evs[0].kind, EventKind::Instant);
    resetLogRateLimiter();
}

// ---------------------------------------------------------------------
// Drain-latency histogram inside the service: report() reads it

TEST(ObsServiceDrainHistogram, ExposesHistogramMatchingDrainLatency)
{
    EngineConfig cfg;
    cfg.numCounters = 64;
    core::ShardedEngine engine(cfg, 1);
    service::IngestService svc(engine);
    for (int e = 0; e < 10; ++e) {
        svc.submit({core::BatchOp{static_cast<uint64_t>(e % 64), 1, 0}});
        svc.flushAndWait();
    }
    svc.stop();
    const auto &h = svc.drainHistogram();
    const auto report = svc.report();
    EXPECT_EQ(h.count(), svc.serviceStats().epochs);
    EXPECT_EQ(report.at("service.drain_max_us"), h.max());
    EXPECT_EQ(report.at("service.drain_p50_us"), h.percentile(0.50));
    EXPECT_EQ(report.at("service.drain_p95_us"), h.percentile(0.95));
    EXPECT_EQ(report.at("service.drain_p99_us"), h.percentile(0.99));
    EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
    EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
    EXPECT_LE(h.percentile(0.99), h.max());
}

// ---------------------------------------------------------------------
// Render determinism

TEST(ObsRenderDeterminism, CounterMapsRenderIdenticallyRegardlessOfInsertionOrder)
{
    CounterMap a;
    a["zeta"] = 3;
    a["alpha"] = 1;
    a["mid"] = 2;
    CounterMap b;
    b["mid"] = 2;
    b["zeta"] = 3;
    b["alpha"] = 1;
    EXPECT_EQ(renderCounters(a), renderCounters(b));
    // Exact layout is pinned: lexicographic order, aligned columns.
    EXPECT_EQ(renderCounters(a, 0), "alpha  1\nmid    2\nzeta   3\n");
}

TEST(ObsRenderDeterminism, MergedReportsAreStableAcrossRuns)
{
    const auto run = [] {
        EngineConfig cfg;
        cfg.numCounters = 64;
        core::ShardedEngine engine(cfg, 1);
        service::IngestService svc(engine);
        std::vector<core::BatchOp> ops;
        for (uint64_t i = 0; i < 200; ++i)
            ops.push_back({i % 64, 1, 0});
        svc.submit(ops);
        svc.flushAndWait();
        svc.stop();
        // Drop timing-dependent values, keep the key structure.
        std::string keys;
        for (const auto &[k, v] : svc.report())
            keys += k + "\n";
        return keys;
    };
    EXPECT_EQ(run(), run());
}
