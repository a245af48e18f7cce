#ifndef C2M_OBS_ANALYZE_HPP
#define C2M_OBS_ANALYZE_HPP

/**
 * @file
 * Trace reports and the anomaly watchdog.
 *
 * The report helpers aggregate a normalized ProfileInput (see
 * obs/profiler.hpp) into the views `tools/trace_analyze` prints:
 * top-N span families by total host time, and per-track latency
 * distributions of the drain spans.
 *
 * The Watchdog is a rule engine over counter deltas: each evaluate()
 * checks a fixed set of health rules (queue stall ratio,
 * program-cache hit-rate collapse, uncorrected ECC blocks, trace
 * ring drops) against one interval's counters, fires a C2M_WARN per
 * violated rule, and counts firings in its own watchdog.* counters
 * so alert rates are themselves observable.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/profiler.hpp"

namespace c2m::obs {

/** Aggregate of every span sharing one name (a span family). */
struct SpanFamily
{
    std::string name;
    uint64_t count = 0;
    int64_t totalHostNs = 0;
    int64_t maxHostNs = 0;
    double totalFabricNs = 0.0; ///< summed stamped deltas only

    double meanHostNs() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(totalHostNs) /
                                static_cast<double>(count);
    }
};

/** Span families sorted by total host time, truncated to @p topN. */
std::vector<SpanFamily> topSpanFamilies(const ProfileInput &in,
                                        size_t topN);

/** Render span families as an aligned table. */
std::string renderSpanFamilies(const std::vector<SpanFamily> &fams);

/**
 * Per-track latency report: feeds every span named @p spanName into a
 * LogHistogram per track and renders count/p50/p95/p99/max columns.
 */
std::string renderTrackLatency(const ProfileInput &in,
                               const std::string &spanName);

/**
 * Rule-based anomaly detector over counter deltas.
 *
 * Intended use: hand evaluate() the counters one interval added
 * (a report() window, or a bench cell's own counters). Each violated
 * rule logs one C2M_WARN (the logging layer rate-limits repeats) and
 * bumps a per-rule counter that counters() reports.
 */
class Watchdog
{
  public:
    /**
     * Check all rules against one interval's counters, keyed as
     * report() names them (service.*, engine.*). Returns alerts fired.
     */
    uint32_t evaluate(const CounterMap &delta);

    /** watchdog.evaluations / .alerts / .alert.<rule> totals. */
    CounterMap counters() const;

  private:
    uint64_t evaluations_ = 0;
    uint64_t alerts_ = 0;
    uint64_t queueStall_ = 0;
    uint64_t cacheCollapse_ = 0;
    uint64_t uncorrected_ = 0;
    uint64_t traceDrops_ = 0;
    uint64_t prevTraceDropped_ = 0; ///< tracer() drop watermark
};

} // namespace c2m::obs

#endif // C2M_OBS_ANALYZE_HPP
