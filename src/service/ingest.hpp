#ifndef C2M_SERVICE_INGEST_HPP
#define C2M_SERVICE_INGEST_HPP

/**
 * @file
 * Asynchronous ingest service over the sharded engine.
 *
 * IngestService fronts a ShardedEngine with one bounded MPSC queue
 * per shard. Any number of producer threads submit() BatchOps; a
 * background drainer runs deterministic epochs:
 *
 *   1. cut: every shard queue's pending ops are swapped out (each
 *      cut is a FIFO prefix of that shard's submissions);
 *   2. coalesce: per shard, duplicate (counter, group) deltas are
 *      summed through a per-shard write-combining table
 *      (core/coalesce.hpp) so a hot counter costs one fabric update
 *      per epoch;
 *   3. execute: the epoch's buckets run through the engine's
 *      hierarchical drain pipeline (ShardedEngine::runEpoch) on the
 *      lane pool — stage tasks claimed by whichever lane is free, so
 *      one skewed shard cannot serialize the epoch behind busy lanes.
 *      With the engine's drain planner on
 *      (EngineConfig::drainPlanner, default), the epoch executes as
 *      ONE merged set of column-parallel digit planes, gang-issued
 *      across shards — about D*bit_width(R-1) leader fabric programs
 *      per group and rail per epoch (dense digits fold into
 *      binary-weighted planes) instead of one replicated plan per
 *      shard.
 *
 * Ordering and consistency:
 *  - Per (producer, shard), ops apply in submission order; a
 *    same-shard span submitted in one call lands in one epoch
 *    (capacity permitting). Cross-shard spans may straddle an epoch
 *    boundary — only per-shard atomicity is promised.
 *  - Epochs are barriers: epoch E finishes on every shard before
 *    E+1 cuts, so per-shard buckets never reorder and work stealing
 *    cannot change results — final counters are bit-identical to a
 *    single blocking engine replaying the same ops.
 *  - flush() returns an epoch token covering everything submitted
 *    before the call; wait(token) blocks until it is applied.
 *    snapshot()/readCounters() drain up to such a token and read
 *    the engine between epochs, so readers never observe a torn
 *    (partially applied) epoch; the snapshot may be newer than the
 *    token, never older.
 *
 * A full shard queue stalls its producers until the drainer catches
 * up. While a service is attached, drive the engine only through it
 * (direct accumulateBatch/readAllCounters calls would race the
 * drainer).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "core/coalesce.hpp"
#include "core/sharded.hpp"
#include "obs/metrics.hpp"
#include "service/queue.hpp"

namespace c2m {
namespace service {

struct IngestConfig
{
    size_t queueCapacity = 4096; ///< per-shard pending-op bound
    /**
     * Coalescing window: the drainer sleeps until this many ops are
     * queued (across all shards) before cutting an epoch. flush(),
     * stop() and full queues override it. Larger windows merge more
     * duplicates per epoch at the cost of ingest latency.
     */
    size_t minDrainOps = 1;
    bool coalesce = true;
};

struct ServiceStats
{
    uint64_t submitted = 0;  ///< ops accepted into shard queues
    uint64_t queued = 0;     ///< ops currently pending (gauge)
    uint64_t dropped = 0;    ///< ops rejected once stop() began
    uint64_t stalls = 0;     ///< producer blocks on a full queue
    uint64_t coalesced = 0;  ///< ops merged away before the fabric
    uint64_t flushedOps = 0; ///< ops actually executed on the fabric
    uint64_t epochs = 0;     ///< drain epochs applied
    uint64_t steals = 0;     ///< buckets executed off their home lane

    ServiceStats &operator+=(const ServiceStats &o)
    {
        submitted += o.submitted;
        queued += o.queued;
        dropped += o.dropped;
        stalls += o.stalls;
        coalesced += o.coalesced;
        flushedOps += o.flushedOps;
        epochs += o.epochs;
        steals += o.steals;
        return *this;
    }

    /** Named "service.*" counters for the merged report. */
    CounterMap toCounters() const;
};

/**
 * Hook into the drainer's epoch boundary. The service invokes the
 * observer from the drainer thread while it holds the engine: after
 * an epoch's buckets have executed, onShardOps() reports each
 * shard's applied (coalesced) ops, then onEpochApplied() marks the
 * boundary — the engine is quiescent for its whole duration, so the
 * observer may drive it (this is where the reliability scrubber
 * sweeps counter rows). Both run *before* the epoch is marked
 * applied: snapshot readers waiting on the epoch see the
 * post-observer state. counters() is merged into report().
 */
class EpochObserver
{
  public:
    virtual ~EpochObserver() = default;

    /** Ops of @p shard just applied to the engine (epoch executing). */
    virtual void onShardOps(unsigned shard,
                            std::span<const core::BatchOp> ops) = 0;

    /** Epoch @p epoch fully executed; engine quiescent. */
    virtual void onEpochApplied(uint64_t epoch) = 0;

    /**
     * Service shutting down after the last epoch was applied (every
     * accepted op went through onShardOps and onEpochApplied); the
     * engine stays quiescent from here on. Observers that defer work
     * across boundaries (a virtual space's pending restores) must
     * finish it now so post-stop engine reads see fully reconciled
     * state. The default is one more boundary.
     */
    virtual void onStop(uint64_t epoch) { onEpochApplied(epoch); }

    /** Named counters merged into IngestService::report(). */
    virtual CounterMap counters() const { return {}; }
};

class IngestService
{
  public:
    /**
     * Attach to @p engine and start the drainer. The engine must
     * outlive the service and not be driven directly while attached.
     * @throws std::invalid_argument if queueCapacity is 0, before the
     *         drainer starts.
     */
    explicit IngestService(core::ShardedEngine &engine,
                           const IngestConfig &cfg = {});
    ~IngestService();

    IngestService(const IngestService &) = delete;
    IngestService &operator=(const IngestService &) = delete;

    const IngestConfig &config() const { return cfg_; }
    core::ShardedEngine &engine() { return engine_; }

    /**
     * Attach an epoch-boundary observer (e.g. a
     * reliability::Scrubber). Must be called before any traffic is
     * submitted; the observer must outlive the service. Pass nullptr
     * to detach (only while idle).
     */
    void attachObserver(EpochObserver *observer);

    /**
     * Submit ops from any thread; returns how many were accepted
     * (all, until stop() begins). Ops are routed to their owning
     * shard's queue; each shard's portion of the span is enqueued
     * contiguously.
     * @throws std::invalid_argument on an op whose counter or group
     *         is out of range (ShardedEngine::checkOps); nothing of
     *         the span is queued then.
     */
    size_t submit(std::span<const core::BatchOp> ops);
    bool submit(const core::BatchOp &op);

    /**
     * Epoch token covering every op submitted before this call;
     * wakes the drainer regardless of minDrainOps.
     */
    uint64_t flush();
    /** Block until epoch @p token has been applied. */
    void wait(uint64_t token);
    uint64_t flushAndWait();

    /**
     * Cut and apply one epoch even when no ops are queued, unlike
     * flush(), which short-circuits on an idle service. Epoch
     * observers that defer maintenance to boundaries (e.g. a
     * virtualized space whose deltas are all journaled host-side)
     * need a boundary to make progress on an otherwise idle
     * service. Returns the token to wait() on.
     */
    uint64_t forceEpoch();

    struct Snapshot
    {
        uint64_t epoch; ///< the applied epoch the counters reflect
        std::vector<int64_t> counters;
    };

    /**
     * Epoch-consistent read: drains everything submitted before the
     * call, then reads the full counter space between epochs. The
     * returned epoch is >= the flush token — never a torn batch.
     */
    Snapshot snapshot(unsigned group = 0);
    std::vector<int64_t> readCounters(unsigned group = 0);

    /**
     * Close every shard queue, let the drainer apply what they hold
     * in normal epochs, join it, then give the observer its onStop
     * turn (idempotent; the destructor calls it). Every op accepted
     * before the close is applied; ops submitted once stop() begins
     * are rejected and counted in ServiceStats::dropped, so stop
     * producers first.
     */
    void stop();

    /** What the service counts itself; engine work is engineStats(). */
    ServiceStats serviceStats() const;
    /**
     * Engine stats, read race-free against the drainer: the planner,
     * program-cache and fabric counters of every driver of the
     * engine, this service's epochs included.
     */
    core::EngineStats engineStats() const;
    /**
     * Merged service.* + engine.* (+ observer) counters plus the
     * drain-latency percentiles service.drain_{p50,p95,p99,max}_us,
     * renderCounters-ready.
     */
    CounterMap report() const;

    /**
     * Per-epoch drain latency in us (cut through observer hooks) over
     * the service lifetime. Quantiles are exact below 4 us and within
     * one bucket width (<= 25% relative) above.
     */
    const obs::LogHistogram &drainHistogram() const { return drainHist_; }

  private:
    struct Bucket
    {
        unsigned shard;
        std::vector<core::BatchOp> ops;
    };

    void drainerLoop();
    /** Cut + coalesce + execute one epoch; returns ops cut. */
    size_t runEpoch(uint64_t epoch);
    void executeEpoch(uint64_t epoch, std::vector<Bucket> &buckets,
                      ServiceStats &epoch_stats);
    /** Producer-side: force a drain now (full queue, flush). */
    void kick();

    core::ShardedEngine &engine_;
    const IngestConfig cfg_;
    EpochObserver *observer_ = nullptr;
    std::vector<std::unique_ptr<BoundedOpQueue>> queues_;
    /** Total pending ops; adjusted under the owning queue's mutex. */
    std::atomic<size_t> queuedOps_{0};

    mutable std::mutex m_;
    std::condition_variable drainCv_; ///< wakes the drainer
    std::condition_variable epochCv_; ///< wakes wait()ers
    uint64_t cutEpoch_ = 0;     ///< epochs started  (guarded by m_)
    uint64_t appliedEpoch_ = 0; ///< epochs finished (guarded by m_)
    uint64_t flushTarget_ = 0;  ///< newest token    (guarded by m_)
    bool forceDrain_ = false;   ///< guarded by m_
    bool stop_ = false;         ///< guarded by m_
    bool stopFinalized_ = false; ///< stop() ran once (guarded by m_)
    ServiceStats stats_;        ///< epoch-side sums (guarded by m_)
    /** Coalescing window in ops: max(1, minDrainOps). */
    const size_t drainWindow_;

    /** Per-epoch drain latency in us; lock-free record. */
    obs::LogHistogram drainHist_;

    /** Serializes epoch execution against snapshot reads. */
    mutable std::mutex engineMutex_;
    /** Drainer-only: last epoch executed per shard (FIFO assert). */
    std::vector<uint64_t> lastShardEpoch_;
    /** Drainer-only: per-shard write-combining coalesce tables. */
    std::vector<core::CoalesceScratch> coalesceScratch_;

    std::thread drainer_;
};

/**
 * Split @p ops into @p num_producers contiguous slices and submit
 * each from its own producer thread (num_producers == 0 behaves as
 * 1). Returns the total ops accepted. Final counter values equal a
 * serial submission of @p ops: per-counter sums commute, whatever
 * epoch each slice lands in.
 */
size_t submitConcurrent(IngestService &service,
                        std::span<const core::BatchOp> ops,
                        unsigned num_producers);

} // namespace service
} // namespace c2m

#endif // C2M_SERVICE_INGEST_HPP
