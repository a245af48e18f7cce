#ifndef C2M_PERFBENCH_HARNESS_HPP
#define C2M_PERFBENCH_HARNESS_HPP

/**
 * @file
 * Shared plumbing of the whole-stack benchmark: the workload
 * interface, the outside-in layer timers, additive counter snapshots
 * whose differences form a measurement window, and the metric record
 * printed as the final JSON line.
 *
 * Two clocks are kept apart throughout. Host metrics are read around
 * calls into the library's public API, on two host clocks: the
 * process CPU clock (every thread's run time) and
 * std::chrono::steady_clock (wall time). Modeled metrics come only
 * from additive EngineStats counters (fabric ns/nJ, command and event
 * counts) read before and after the window, so for a fixed seed and
 * request count they repeat exactly.
 */

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/sharded.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/virtspace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/**
 * CPU time of the whole process (all threads) in ns. A thread is
 * charged only while it runs, so time spent waiting for a core
 * (preemption, wake-up delay, and on kernels with steal-time
 * accounting the time a hypervisor gives the core to another guest)
 * is not counted. On a shared host this is the steady measure of how
 * much work the software did; wall time is reported alongside it.
 */
inline int64_t
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** One reading of both host clocks. */
struct Stamp
{
    Clock::time_point wall;
    int64_t cpuNs;

    static Stamp now() { return {Clock::now(), cpuNowNs()}; }
};

inline int64_t
wallNs(const Stamp &a, const Stamp &b)
{
    return nsBetween(a.wall, b.wall);
}

inline int64_t
cpuNs(const Stamp &a, const Stamp &b)
{
    return b.cpuNs - a.cpuNs;
}

/**
 * Host-clock timers around the public calls of each layer. The
 * workloads fill them only while `on` (the traced run), so the
 * untraced run pays for no per-call clock reads. Route counts are
 * deterministic and always kept.
 */
struct LayerTimers
{
    bool on = false;
    int64_t submitNs = 0;      ///< IngestService::submit
    uint64_t submitOps = 0;
    int64_t serviceWaitNs = 0; ///< blocked on the service's epochs
    int64_t broadcastNs = 0;   ///< ShardedEngine::accumulate
    uint64_t broadcastCalls = 0;
    int64_t addNs = 0;         ///< VirtualCounterSpace::add
    uint64_t adds = 0;
    int64_t flushNs = 0;       ///< VirtualCounterSpace::flush
    uint64_t flushes = 0;
    uint64_t countersRead = 0; ///< counters returned by timed reads
    uint64_t routeExact = 0;   ///< adds served by the exact tier
    uint64_t routeSketch = 0;  ///< adds absorbed by the sketch
};

/** Timing of one closed-loop request. */
struct RequestTiming
{
    uint64_t ops = 0;
    int64_t latencyNs = 0; ///< wall
    int64_t cpuNs = 0;     ///< process CPU over the same span
    int64_t readNs = -1;   ///< epoch-consistent read (wall), -1 when none
    int64_t readCpuNs = -1;
};

/** Outputs checked against each workload's own reference. */
struct Tally
{
    uint64_t attempted = 0; ///< ops submitted
    uint64_t failed = 0;    ///< wrong outputs plus refused/dropped ops
};

/**
 * Additive counters of every layer at one instant. Two snapshots
 * taken with the system quiescent bound a window; their difference is
 * everything the window did, independent of what ran before it.
 */
struct Counters
{
    std::vector<c2m::core::EngineStats> shards;
    std::optional<c2m::service::ServiceStats> service;
    std::optional<c2m::reliability::ScrubStats> scrub;
    std::optional<c2m::virt::VirtStats> virt;
};

/**
 * One benchmark workload: a system built from the library's public
 * API plus a deterministic, seeded request stream. Construction plus
 * warmUp() is the set-up; request() is one closed-loop request whose
 * inputs are generated and whose outputs are checked outside the
 * timed region.
 */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /** Run requests until the program cache and plane rows are steady. */
    virtual void warmUp() = 0;
    virtual RequestTiming request(LayerTimers &timers) = 0;
    /** End-of-run check of every output against the reference. */
    virtual void verifyFinal() = 0;
    /** Snapshot every layer's counters; the system must be idle. */
    virtual Counters counters() = 0;

    /** Modeled GPU ns for the same work as @p ops ops (GpuModel). */
    virtual double gpuNs(uint64_t ops) const = 0;

    const Tally &tally() const { return tally_; }

  protected:
    Tally tally_;
};

/** Static description of a workload. */
struct WorkloadSpec
{
    const char *name;
    /**
     * Closed-loop requests per --seconds: a run is a fixed request
     * count, sized to take about --seconds on the reference machine,
     * so both clocks cover exactly the same work on every commit.
     */
    double requestsPerSecond;
    std::unique_ptr<Workload> (*make)(uint64_t seed);
};

const std::vector<WorkloadSpec> &workloads();

std::unique_ptr<Workload> makeIngestZipf(uint64_t seed);
std::unique_ptr<Workload> makeIngestSignedReads(uint64_t seed);
std::unique_ptr<Workload> makeVmmTernary(uint64_t seed);
std::unique_ptr<Workload> makeVirtReliable(uint64_t seed);

/**
 * Warm-up rule shared by every workload: run requests in blocks of
 * @p block until a block generates no more program-cache misses than
 * the block before it (misses stopped falling), after at least
 * @p min_blocks blocks and at most @p max_blocks.
 */
void warmUntilSteady(Workload &w, unsigned block, unsigned min_blocks,
                     unsigned max_blocks);

/** One named metric with its unit. */
struct Metric
{
    double value;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** Nearest-rank quantile of @p v (sorted in place). */
double quantile(std::vector<int64_t> &v, double q);

} // namespace perfbench

#endif // C2M_PERFBENCH_HARNESS_HPP
