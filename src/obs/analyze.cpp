#include "obs/analyze.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace c2m::obs {

std::vector<SpanFamily>
topSpanFamilies(const ProfileInput &in, size_t topN)
{
    std::map<std::string, SpanFamily> byName;
    for (const ProfSpan &s : in.spans) {
        SpanFamily &f = byName[s.name];
        f.name = s.name;
        ++f.count;
        f.totalHostNs += s.hostNs();
        f.maxHostNs = std::max(f.maxHostNs, s.hostNs());
        if (s.fabricDeltaNs >= 0.0)
            f.totalFabricNs += s.fabricDeltaNs;
    }
    std::vector<SpanFamily> fams;
    fams.reserve(byName.size());
    for (auto &[name, f] : byName)
        fams.push_back(std::move(f));
    std::sort(fams.begin(), fams.end(),
              [](const SpanFamily &a, const SpanFamily &b) {
                  return a.totalHostNs != b.totalHostNs
                             ? a.totalHostNs > b.totalHostNs
                             : a.name < b.name;
              });
    if (fams.size() > topN)
        fams.resize(topN);
    return fams;
}

std::string
renderSpanFamilies(const std::vector<SpanFamily> &fams)
{
    TextTable t({"span", "count", "total_us", "mean_us", "max_us",
                 "fabric_us"});
    for (const SpanFamily &f : fams)
        t.addRow({f.name, TextTable::fmt(f.count),
                  TextTable::fmt(
                      static_cast<double>(f.totalHostNs) / 1e3, 1),
                  TextTable::fmt(f.meanHostNs() / 1e3, 2),
                  TextTable::fmt(
                      static_cast<double>(f.maxHostNs) / 1e3, 1),
                  TextTable::fmt(f.totalFabricNs / 1e3, 1)});
    return t.render();
}

std::string
renderTrackLatency(const ProfileInput &in,
                   const std::string &spanName)
{
    std::map<uint32_t, std::unique_ptr<LogHistogram>> hists;
    for (const ProfSpan &s : in.spans) {
        if (s.name != spanName)
            continue;
        auto &h = hists[s.track];
        if (!h)
            h = std::make_unique<LogHistogram>();
        h->record(static_cast<uint64_t>(std::max<int64_t>(
            0, s.hostNs())));
    }
    TextTable t({"track", "count", "p50_ns", "p95_ns", "p99_ns",
                 "max_ns"});
    for (const auto &[track, h] : hists)
        t.addRow({track == kServiceTrack
                      ? std::string("service")
                      : "shard" + std::to_string(track),
                  TextTable::fmt(h->count()),
                  TextTable::fmt(h->percentile(0.50)),
                  TextTable::fmt(h->percentile(0.95)),
                  TextTable::fmt(h->percentile(0.99)),
                  TextTable::fmt(h->max())});
    return t.render();
}

namespace {

/** The counter named @p key, 0 when absent. */
uint64_t
counterOr0(const CounterMap &m, const char *key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0 : it->second;
}

/** service.stalls / service.submitted above this trips. */
constexpr double kStallRatioMax = 0.5;
/** Program-cache hit rate below this trips... */
constexpr double kCacheHitRateMin = 0.5;
/** ...once an interval has made this many lookups. */
constexpr uint64_t kCacheMinLookups = 256;

} // namespace

uint32_t
Watchdog::evaluate(const CounterMap &d)
{
    ++evaluations_;
    uint32_t fired = 0;

    const uint64_t submitted = counterOr0(d, "service.submitted");
    if (submitted > 0) {
        const uint64_t stalls = counterOr0(d, "service.stalls");
        const double stallRatio =
            static_cast<double>(stalls) /
            static_cast<double>(submitted);
        if (stallRatio > kStallRatioMax) {
            ++queueStall_;
            ++fired;
            C2M_WARN("watchdog: ingest stall ratio ", stallRatio,
                     " exceeds ", kStallRatioMax, " (", stalls,
                     " stalls / ", submitted,
                     " submitted this interval)");
        }
    }

    const uint64_t hits = counterOr0(d, "engine.program_cache_hits");
    const uint64_t misses =
        counterOr0(d, "engine.program_cache_misses");
    const uint64_t lookups = hits + misses;
    if (lookups >= kCacheMinLookups) {
        const double hitRate = static_cast<double>(hits) /
                               static_cast<double>(lookups);
        if (hitRate < kCacheHitRateMin) {
            ++cacheCollapse_;
            ++fired;
            C2M_WARN("watchdog: program cache hit rate ", hitRate,
                     " below ", kCacheHitRateMin, " (", hits,
                     " hits / ", lookups,
                     " lookups this interval)");
        }
    }

    const uint64_t bad = counterOr0(d, "engine.uncorrected_blocks");
    if (bad > 0) {
        ++uncorrected_;
        ++fired;
        C2M_WARN("watchdog: ", bad,
                 " uncorrected block(s) this interval -- "
                 "counters may be silently corrupt; attach a "
                 "scrubber or strengthen ECC");
    }

    if (const TraceRecorder *tr = tracer()) {
        const uint64_t dropped = tr->droppedEvents();
        if (dropped > prevTraceDropped_) {
            ++traceDrops_;
            ++fired;
            C2M_WARN("watchdog: trace ring dropped ",
                     dropped - prevTraceDropped_,
                     " event(s) this interval (", dropped,
                     " total); exports are truncated");
        }
        prevTraceDropped_ = dropped;
    }

    alerts_ += fired;
    return fired;
}

CounterMap
Watchdog::counters() const
{
    return {
        {"evaluations", evaluations_},
        {"alerts", alerts_},
        {"alert.queue_stall", queueStall_},
        {"alert.cache_collapse", cacheCollapse_},
        {"alert.uncorrected", uncorrected_},
        {"alert.trace_drops", traceDrops_},
    };
}

} // namespace c2m::obs
