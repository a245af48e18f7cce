/**
 * @file
 * Trace-analytics and attribution tests: the JSON reader, epoch
 * critical-path profiles from both input paths (live recorder and a
 * Chrome-export round trip), span-family aggregation, the anomaly
 * watchdog's rules, and — the load-bearing invariant — the fabric-time
 * ledger summing bit-exactly to EngineStats fabric_ns across every
 * backend, planner setting, and with scrub + virtualization active.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "obs/analyze.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;
using namespace c2m::obs;

namespace {

struct CapturedLog
{
    std::mutex m;
    std::vector<std::string> lines;
};

void
captureSink(void *ctx, LogLevel, const char *msg)
{
    auto *cap = static_cast<CapturedLog *>(ctx);
    std::lock_guard<std::mutex> lock(cap->m);
    cap->lines.emplace_back(msg);
}

core::EngineConfig
smallConfig(core::BackendKind backend, bool planner)
{
    core::EngineConfig cfg;
    cfg.numCounters = 256;
    cfg.capacityBits = 16;
    cfg.maxMaskRows = 1;
    cfg.backend = backend;
    cfg.drainPlanner = planner;
    cfg.seed = 0xabcdULL;
    return cfg;
}

std::vector<core::BatchOp>
randomOps(size_t n, size_t counters, uint64_t seed)
{
    Rng rng(seed);
    std::vector<core::BatchOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back({rng.nextBounded(counters),
                       static_cast<int64_t>(1 + rng.nextBounded(7)),
                       0});
    return ops;
}

} // namespace

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(Json, ParsesNestedDocument)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"a": 1.5, "b": [true, null, "x\ny"], "c": {"d": -3e2}})",
        v, &err))
        << err;
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.5);
    const json::Value *b = v.find("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].isBool() && b->items[0].boolean);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].string, "x\ny");
    const json::Value *c = v.find("c");
    ASSERT_TRUE(c && c->isObject());
    EXPECT_DOUBLE_EQ(c->numberOr("d", 0.0), -300.0);
}

TEST(Json, PreservesMemberOrderAndFallbacks)
{
    json::Value v;
    ASSERT_TRUE(json::parse(R"({"z": 1, "a": 2})", v));
    ASSERT_EQ(v.members.size(), 2u);
    EXPECT_EQ(v.members[0].first, "z");
    EXPECT_EQ(v.members[1].first, "a");
    EXPECT_DOUBLE_EQ(v.numberOr("missing", 7.0), 7.0);
    EXPECT_EQ(v.stringOr("missing", "dflt"), "dflt");
    EXPECT_TRUE(v.boolOr("missing", true));
}

TEST(Json, RejectsMalformedInput)
{
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\": }", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json::parse("[1, 2] trailing", v, &err));
    EXPECT_FALSE(json::parse("{\"a\": truth}", v, &err));
    EXPECT_FALSE(json::parse("", v, &err));
    // Nesting is capped at 256 levels instead of recursing until the
    // stack runs out.
    EXPECT_FALSE(json::parse(std::string(100000, '['), v, &err));
    EXPECT_NE(err.find("nested deeper than 256"), std::string::npos)
        << err;
    EXPECT_TRUE(json::parse(std::string(256, '[') + std::string(256, ']'),
                            v, &err))
        << err;
}

TEST(Json, ParsesUnicodeEscapes)
{
    json::Value v;
    ASSERT_TRUE(json::parse("[\"A\\u00e9\"]", v));
    ASSERT_EQ(v.items.size(), 1u);
    EXPECT_EQ(v.items[0].string, "A\xC3\xA9");
}

TEST(Json, WriterRoundTripsThroughTheReader)
{
    json::Value inner = json::Value::object();
    inner.set("z", 0.1).set("a", -3e-300).set("n", uint64_t{1} << 52);
    json::Value list = json::Value::array();
    list.push(true).push(json::Value()).push("tab\there");
    json::Value doc = json::Value::object();
    doc.set("quote\"back\\slash", "ctl\x01\n\r\b\f")
        .set("inner", inner)
        .set("list", list)
        .set("empty", json::Value::object());
    doc.set("inner", inner); // replaces in place, keeps the order

    for (const unsigned wrap : {0u, 1u, 3u}) {
        const std::string text = json::write(doc, wrap);
        json::Value back;
        std::string err;
        ASSERT_TRUE(json::parse(text, back, &err)) << err << text;
        EXPECT_EQ(json::write(back, wrap), text);
        ASSERT_EQ(back.members.size(), 4u);
        EXPECT_EQ(back.members[0].first, "quote\"back\\slash");
        EXPECT_EQ(back.members[0].second.string, "ctl\x01\n\r\b\f");
        EXPECT_EQ(back.members[1].first, "inner");
        const json::Value *in = back.find("inner");
        ASSERT_TRUE(in && in->isObject());
        ASSERT_EQ(in->members.size(), 3u);
        EXPECT_EQ(in->members[0].first, "z");
        EXPECT_EQ(in->numberOr("z", 0.0), 0.1);
        EXPECT_EQ(in->numberOr("a", 0.0), -3e-300);
        EXPECT_EQ(in->numberOr("n", 0.0), 4503599627370496.0);
        const json::Value *l = back.find("list");
        ASSERT_TRUE(l && l->isArray() && l->items.size() == 3u);
        EXPECT_TRUE(l->items[0].boolean);
        EXPECT_TRUE(l->items[1].isNull());
        EXPECT_EQ(l->items[2].string, "tab\there");
        EXPECT_TRUE(back.find("empty")->isObject());
    }
    EXPECT_EQ(json::write(inner), R"({"z": 0.1, "a": -3e-300, )"
                                  R"("n": 4503599627370496})");
    EXPECT_EQ(json::write(list, 1),
              "[\n  true,\n  null,\n  \"tab\\there\"\n]");
}

TEST(Json, WriterEmitsNonFiniteNumbersAsNull)
{
    json::Value v = json::Value::array();
    v.push(std::numeric_limits<double>::infinity())
        .push(-std::numeric_limits<double>::infinity())
        .push(std::nan(""))
        .push(2.5);
    EXPECT_EQ(json::write(v), "[null, null, null, 2.5]");
}

// ---------------------------------------------------------------------
// Epoch profiles
// ---------------------------------------------------------------------

namespace {

/**
 * Hand-stamped scenario: one 100us epoch with an execute phase, two
 * shard drains (shard 1 is the 60us straggler; fabric deltas 500ns
 * and 20000ns), and one plan commit + one fallback instant.
 */
TraceRecorder &
recordScenario(TraceRecorder &rec)
{
    using K = EventKind;
    rec.record({"epoch", 1000, 0, 0, 0, kServiceTrack, K::SpanBegin});
    rec.record({"epoch.execute", 2000, 0, 0, 0, kServiceTrack,
                K::SpanBegin});
    rec.record({"shard.drain", 10000, 100.0, 0, 0, 0, K::SpanBegin});
    rec.record({"shard.drain", 10000, 50.0, 0, 0, 1, K::SpanBegin});
    rec.record({"plan.commit", 50000, 0, 111, 222, 1, K::Instant});
    rec.record({"shard.drain", 40000, 600.0, 0, 0, 0, K::SpanEnd});
    rec.record({"plan.fallback", 60000, 0, 10, 333, 1, K::Instant});
    rec.record({"shard.drain", 70000, 20050.0, 0, 0, 1, K::SpanEnd});
    rec.record({"epoch.execute", 90000, 0, 0, 0, kServiceTrack,
                K::SpanEnd});
    rec.record({"epoch", 101000, 0, 0, 0, kServiceTrack, K::SpanEnd});
    return rec;
}

void
checkScenarioProfile(const std::vector<EpochProfile> &eps)
{
    ASSERT_EQ(eps.size(), 1u);
    const EpochProfile &ep = eps[0];
    EXPECT_FALSE(ep.synthetic);
    EXPECT_EQ(ep.hostNs(), 100000);
    EXPECT_EQ(ep.executeNs, 88000);
    ASSERT_EQ(ep.shards.size(), 2u);
    EXPECT_EQ(ep.criticalShard, 1);
    // Straggler 60us over mean 45us.
    EXPECT_NEAR(ep.skew, 60000.0 / 45000.0, 1e-9);
    EXPECT_DOUBLE_EQ(ep.fabricCriticalNs, 20000.0);
    EXPECT_NEAR(ep.utilization, 0.2, 1e-9);
    EXPECT_EQ(ep.planCommits, 1u);
    EXPECT_EQ(ep.planFallbacks, 1u);
    EXPECT_DOUBLE_EQ(ep.planPricedNs, 111.0);    // commit: arg
    EXPECT_DOUBLE_EQ(ep.fallbackPricedNs, 333.0); // fallback: arg2
}

} // namespace

TEST(EpochProfile, CriticalPathFromLiveRecorder)
{
    TraceRecorder rec;
    const ProfileInput in = profileFromRecorder(recordScenario(rec));
    EXPECT_EQ(in.spans.size(), 4u);
    EXPECT_EQ(in.instants.size(), 2u);
    checkScenarioProfile(buildEpochProfiles(in));
}

TEST(EpochProfile, ChromeExportRoundTripsIdentically)
{
    TraceRecorder rec;
    recordScenario(rec);
    const std::string jsonText = exportChromeTrace(rec);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(jsonText, doc, &err)) << err;
    ProfileInput in;
    ASSERT_TRUE(profileFromChromeJson(doc, in));
    EXPECT_EQ(in.spans.size(), 4u);
    EXPECT_EQ(in.instants.size(), 2u);
    EXPECT_EQ(in.eventCount, 10u);
    EXPECT_EQ(in.droppedEvents, 0u);
    checkScenarioProfile(buildEpochProfiles(in));
    // And the report renderers accept the round-tripped input.
    EXPECT_NE(renderEpochProfiles(buildEpochProfiles(in)).find("1.333"),
              std::string::npos);
    EXPECT_NE(renderTrackLatency(in, "shard.drain").find("shard1"),
              std::string::npos);
}

TEST(EpochProfile, SyntheticWindowWhenNoEpochSpans)
{
    TraceRecorder rec;
    using K = EventKind;
    rec.record({"shard.drain", 1000, 10.0, 0, 0, 0, K::SpanBegin});
    rec.record({"shard.drain", 5000, 110.0, 0, 0, 0, K::SpanEnd});
    rec.record({"shard.drain", 1000, 10.0, 0, 0, 1, K::SpanBegin});
    rec.record({"shard.drain", 9000, 210.0, 0, 0, 1, K::SpanEnd});
    const auto eps = buildEpochProfiles(profileFromRecorder(rec));
    ASSERT_EQ(eps.size(), 1u);
    EXPECT_TRUE(eps[0].synthetic);
    EXPECT_EQ(eps[0].beginNs, 1000);
    EXPECT_EQ(eps[0].criticalShard, 1);
    EXPECT_DOUBLE_EQ(eps[0].fabricCriticalNs, 200.0);
}

TEST(EpochProfile, UnclosedBeginClosedAtLastStamp)
{
    TraceRecorder rec;
    using K = EventKind;
    rec.record({"shard.drain", 1000, 0, 0, 0, 0, K::SpanBegin});
    rec.record({"tick", 8000, 0, 0, 0, 0, K::Instant});
    const ProfileInput in = profileFromRecorder(rec);
    ASSERT_EQ(in.spans.size(), 1u);
    EXPECT_EQ(in.spans[0].endNs, 8000);
    EXPECT_LT(in.spans[0].fabricDeltaNs, 0.0); // unstamped
}

TEST(SpanFamilies, AggregatesAndRanksByTotalTime)
{
    TraceRecorder rec;
    using K = EventKind;
    rec.record({"short", 0, 0, 0, 0, 0, K::SpanBegin});
    rec.record({"short", 100, 0, 0, 0, 0, K::SpanEnd});
    rec.record({"long", 200, 10.0, 0, 0, 0, K::SpanBegin});
    rec.record({"long", 10200, 60.0, 0, 0, 0, K::SpanEnd});
    rec.record({"short", 300, 0, 0, 0, 1, K::SpanBegin});
    rec.record({"short", 700, 0, 0, 0, 1, K::SpanEnd});
    const auto fams =
        topSpanFamilies(profileFromRecorder(rec), 10);
    ASSERT_EQ(fams.size(), 2u);
    EXPECT_EQ(fams[0].name, "long");
    EXPECT_DOUBLE_EQ(fams[0].totalFabricNs, 50.0);
    EXPECT_EQ(fams[1].name, "short");
    EXPECT_EQ(fams[1].count, 2u);
    EXPECT_EQ(fams[1].totalHostNs, 500);
    EXPECT_EQ(fams[1].maxHostNs, 400);
    // topN truncation keeps the heaviest family.
    const auto one = topSpanFamilies(profileFromRecorder(rec), 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].name, "long");
}

// ---------------------------------------------------------------------
// Fabric-time ledger: every modeled ns lands in exactly one category
// and the rows sum bit-exactly to the fabric_ns total.
// ---------------------------------------------------------------------

TEST(FabricLedger, BitExactAcrossBackendsAndPlannerSettings)
{
    const auto ops = randomOps(600, 256, 7);
    for (const core::BackendKind backend :
         {core::BackendKind::Ambit, core::BackendKind::NvmPinatubo,
          core::BackendKind::NvmMagic, core::BackendKind::Rca}) {
        for (const bool planner : {false, true}) {
            core::ShardedEngine eng(smallConfig(backend, planner), 2);
            eng.accumulateBatch(ops);
            const auto st = eng.stats();
            const FabricLedger led = FabricLedger::fromStats(st);
            SCOPED_TRACE(std::string(core::backendName(backend)) +
                         (planner ? "/planner" : "/per-op"));
            EXPECT_TRUE(led.exact());
            EXPECT_GT(led.totalNs, 0.0);
            if (planner) {
                EXPECT_GT(led.rows[static_cast<unsigned>(
                              cim::FabricCat::Plan)],
                          0.0);
            } else {
                EXPECT_DOUBLE_EQ(led.rows[static_cast<unsigned>(
                                     cim::FabricCat::Plan)],
                                 0.0);
                EXPECT_GT(led.rows[static_cast<unsigned>(
                              cim::FabricCat::Fallback)],
                          0.0);
            }
            const std::string rendered = led.render();
            EXPECT_NE(rendered.find("bit-exact"), std::string::npos);
        }
    }
}

TEST(FabricLedger, ScrubAndVirtChargesLandInTheirCategories)
{
    core::EngineConfig cfg =
        smallConfig(core::BackendKind::Ambit, true);
    cfg.numCounters = 64;
    core::ShardedEngine engine(cfg, 2);
    service::IngestService svc(engine);
    reliability::Scrubber scrub(engine);
    virt::VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 8;
    virt::VirtualCounterSpace space(svc, vcfg);
    space.attachScrubber(&scrub);

    Rng rng(61);
    for (size_t i = 0; i < 20000; ++i)
        space.add(1 + rng.nextBounded(300), // distinct nonzero keys
                  static_cast<int64_t>(1 + rng.nextBounded(3)));
    space.flush();
    svc.stop();

    const auto st = engine.stats();
    const FabricLedger led = FabricLedger::fromStats(st);
    EXPECT_TRUE(led.exact());
    EXPECT_GT(space.stats().spills, 0u);
    EXPECT_GT(scrub.stats().sweeps, 0u);
    EXPECT_GT(
        led.rows[static_cast<unsigned>(cim::FabricCat::Scrub)], 0.0);
    EXPECT_GT(
        led.rows[static_cast<unsigned>(cim::FabricCat::VirtSpill)],
        0.0);
    // Restores and materializations follow from re-touched groups.
    EXPECT_GT(
        led.rows[static_cast<unsigned>(cim::FabricCat::VirtRestore)] +
            led.rows[static_cast<unsigned>(
                cim::FabricCat::VirtMaterialize)],
        0.0);
}

TEST(FabricLedger, MergedShardStatsStayExact)
{
    // The invariant must survive the += merge across shard stats,
    // which re-sums rows in canonical order rather than adding the
    // two fabricNs totals directly.
    const auto ops = randomOps(400, 256, 13);
    core::ShardedEngine eng(
        smallConfig(core::BackendKind::Ambit, true), 4);
    eng.accumulateBatch(ops);
    core::EngineStats merged;
    for (unsigned s = 0; s < eng.numShards(); ++s)
        merged += eng.shard(s).stats();
    EXPECT_TRUE(FabricLedger::fromStats(merged).exact());
    EXPECT_TRUE(FabricLedger::fromStats(eng.stats()).exact());
    EXPECT_DOUBLE_EQ(FabricLedger::fromStats(merged).totalNs,
                     FabricLedger::fromStats(eng.stats()).totalNs);
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, HealthySnapshotFiresNothing)
{
    Watchdog wd;
    const CounterMap delta = {{"service.submitted", 10000},
                              {"service.stalls", 3},
                              {"service.dropped", 0},
                              {"engine.program_cache_hits", 900},
                              {"engine.program_cache_misses", 100},
                              {"engine.uncorrected_blocks", 0}};
    EXPECT_EQ(wd.evaluate(delta), 0u);
    const CounterMap c = wd.counters();
    EXPECT_EQ(c.at("evaluations"), 1u);
    EXPECT_EQ(c.at("alerts"), 0u);
}

TEST(Watchdog, EachRuleFiresAndCounts)
{
    CapturedLog cap;
    setLogSink(&captureSink, &cap);
    resetLogRateLimiter();
    Watchdog wd;
    const CounterMap delta = {{"service.submitted", 1000},
                              {"service.stalls", 600},
                              {"service.dropped", 100},
                              {"engine.program_cache_hits", 10},
                              {"engine.program_cache_misses", 990},
                              {"engine.uncorrected_blocks", 2}};
    EXPECT_EQ(wd.evaluate(delta), 3u);
    setLogSink(nullptr, nullptr);

    const CounterMap c = wd.counters();
    EXPECT_EQ(c.at("alerts"), 3u);
    EXPECT_EQ(c.at("alert.queue_stall"), 1u);
    EXPECT_EQ(c.at("alert.cache_collapse"), 1u);
    EXPECT_EQ(c.at("alert.uncorrected"), 1u);
    EXPECT_EQ(c.at("alert.trace_drops"), 0u);
    ASSERT_EQ(cap.lines.size(), 3u);
    for (const std::string &line : cap.lines)
        EXPECT_NE(line.find("watchdog:"), std::string::npos);
}

TEST(Watchdog, CacheRuleNeedsMinimumLookups)
{
    Watchdog wd;
    // 10 lookups at 0% hit rate: below cacheMinLookups, no alert.
    const CounterMap delta = {{"engine.program_cache_hits", 0},
                              {"engine.program_cache_misses", 10}};
    EXPECT_EQ(wd.evaluate(delta), 0u);
}

TEST(Watchdog, TraceDropRuleWatchesInstalledRecorder)
{
    TraceConfig tcfg;
    tcfg.lanes = 1;
    tcfg.capacityPerLane = 8;
    TraceRecorder rec(tcfg);
    CapturedLog cap;
    setLogSink(&captureSink, &cap);
    resetLogRateLimiter();
    rec.install();
    Watchdog wd;
    const CounterMap delta;
    EXPECT_EQ(wd.evaluate(delta), 0u); // nothing dropped yet
    for (int i = 0; i < 40; ++i)
        rec.instant("tick", 0, static_cast<uint64_t>(i));
    EXPECT_GT(rec.droppedEvents(), 0u);
    EXPECT_EQ(wd.evaluate(delta), 1u);
    // The alert's own warning is traced into the full ring and
    // dropped, so the rule would re-fire; uninstall to quiesce.
    rec.uninstall();
    EXPECT_EQ(wd.evaluate(delta), 0u); // no tracer: rule is silent
    setLogSink(nullptr, nullptr);
    EXPECT_EQ(wd.counters().at("alert.trace_drops"), 1u);
}
