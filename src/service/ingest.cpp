#include "service/ingest.hpp"

#include <algorithm>
#include <chrono>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace service {

CounterMap
ServiceStats::toCounters() const
{
    return {
        {"service.submitted", submitted},
        {"service.queued", queued},
        {"service.dropped", dropped},
        {"service.stalls", stalls},
        {"service.coalesced", coalesced},
        {"service.flushed_ops", flushedOps},
        {"service.epochs", epochs},
        {"service.steals", steals},
    };
}

IngestService::IngestService(core::ShardedEngine &engine,
                             const IngestConfig &cfg)
    : engine_(engine), cfg_(cfg),
      drainWindow_(std::max<size_t>(1, cfg.minDrainOps))
{
    if (cfg_.queueCapacity < 1)
        C2M_FATAL("IngestConfig::queueCapacity must be >= 1");
    lastShardEpoch_.assign(engine_.numShards(), 0);
    coalesceScratch_.resize(engine_.numShards());
    for (unsigned s = 0; s < engine_.numShards(); ++s)
        queues_.push_back(std::make_unique<BoundedOpQueue>(
            cfg_.queueCapacity, [this] { kick(); }, s));
    drainer_ = std::thread([this] { drainerLoop(); });
}

IngestService::~IngestService() { stop(); }

void
IngestService::attachObserver(EpochObserver *observer)
{
    std::lock_guard<std::mutex> lk(m_);
    if (observer) {
        C2M_ASSERT(cutEpoch_ == 0 &&
                       queuedOps_.load(std::memory_order_relaxed) ==
                           0,
                   "attach the epoch observer before submitting "
                   "traffic");
    } else {
        // Detach requires a quiescent service (no epoch in flight,
        // nothing queued, no concurrent producers).
        C2M_ASSERT(cutEpoch_ == appliedEpoch_ &&
                       queuedOps_.load(std::memory_order_relaxed) ==
                           0,
                   "detach the epoch observer only while idle");
    }
    observer_ = observer;
}

size_t
IngestService::submit(std::span<const core::BatchOp> ops)
{
    if (ops.empty())
        return 0;
    // Checked on the caller's thread: a bad op must not reach the
    // drainer, whose throw would end the process.
    engine_.checkOps(ops);
    // Pre-charge the gauge so an op sitting in a queue is always
    // counted; rejected ops are refunded below. Overcounting between
    // the two points only wakes the drainer early.
    queuedOps_.fetch_add(ops.size(), std::memory_order_relaxed);
    size_t accepted = 0;
    const unsigned nshards = engine_.numShards();
    if (nshards == 1) {
        accepted = queues_[0]->push(ops);
    } else if (ops.size() == 1) {
        // Single-op hot path: route directly, no group buffers.
        accepted =
            queues_[engine_.shardOf(ops[0].counter)]->push(ops);
    } else {
        // Bucket by owning shard, preserving order, so each shard's
        // portion is pushed contiguously under one queue lock (one
        // epoch, capacity permitting).
        std::vector<std::vector<core::BatchOp>> groups(nshards);
        for (const auto &op : ops)
            groups[engine_.shardOf(op.counter)].push_back(op);
        for (unsigned s = 0; s < nshards; ++s)
            if (!groups[s].empty())
                accepted += queues_[s]->push(groups[s]);
    }
    if (accepted < ops.size())
        queuedOps_.fetch_sub(ops.size() - accepted,
                             std::memory_order_relaxed);
    if (accepted > 0 &&
        queuedOps_.load(std::memory_order_relaxed) >= drainWindow_) {
        std::lock_guard<std::mutex> lk(m_);
        drainCv_.notify_one();
    }
    return accepted;
}

bool
IngestService::submit(const core::BatchOp &op)
{
    return submit(std::span<const core::BatchOp>(&op, 1)) == 1;
}

uint64_t
IngestService::flush()
{
    std::lock_guard<std::mutex> lk(m_);
    // Nothing queued and no epoch in flight: already satisfied.
    if (stop_ || (cutEpoch_ == appliedEpoch_ &&
                  queuedOps_.load(std::memory_order_relaxed) == 0))
        return appliedEpoch_;
    const uint64_t token = cutEpoch_ + 1;
    flushTarget_ = std::max(flushTarget_, token);
    drainCv_.notify_one();
    return token;
}

void
IngestService::wait(uint64_t token)
{
    std::unique_lock<std::mutex> lk(m_);
    C2M_ASSERT(token <= std::max(flushTarget_, appliedEpoch_),
               "epoch token ", token, " was never issued");
    epochCv_.wait(lk, [&] { return appliedEpoch_ >= token; });
}

uint64_t
IngestService::flushAndWait()
{
    const uint64_t token = flush();
    wait(token);
    return token;
}

uint64_t
IngestService::forceEpoch()
{
    std::lock_guard<std::mutex> lk(m_);
    if (stop_)
        return appliedEpoch_;
    const uint64_t token = cutEpoch_ + 1;
    flushTarget_ = std::max(flushTarget_, token);
    drainCv_.notify_one();
    return token;
}

IngestService::Snapshot
IngestService::snapshot(unsigned group)
{
    wait(flush());
    // Holding engineMutex_ keeps the drainer out of its execute
    // phase, so the read happens exactly at an epoch boundary (>= the
    // flush token; cuts may still proceed concurrently).
    std::lock_guard<std::mutex> ek(engineMutex_);
    uint64_t epoch;
    {
        std::lock_guard<std::mutex> lk(m_);
        epoch = appliedEpoch_;
    }
    return {epoch, engine_.readAllCounters(group)};
}

std::vector<int64_t>
IngestService::readCounters(unsigned group)
{
    return snapshot(group).counters;
}

void
IngestService::stop()
{
    // Close the queues before the drainer may exit: a producer
    // charges queuedOps_ before its push, and the push shares the
    // queue mutex with close(), so every op accepted before the close
    // is counted when the drainer sees stop_, and the drainer only
    // exits once it has applied them all in normal epochs.
    for (auto &q : queues_)
        q->close();
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
        drainCv_.notify_one();
    }
    if (drainer_.joinable())
        drainer_.join();
    EpochObserver *observer;
    {
        // The observer shutdown turn runs exactly once; a second
        // stop() (typically the destructor's) must not call back
        // into an observer the caller may have destroyed. The
        // observer pointer is snapshotted under m_ like report()'s.
        std::lock_guard<std::mutex> lk(m_);
        if (stopFinalized_)
            return;
        stopFinalized_ = true;
        observer = observer_;
    }
    // Final observer turn: an observer that defers work across
    // boundaries (a virtual space's pending restores) finishes it
    // before the engine is read post-stop.
    if (observer) {
        std::lock_guard<std::mutex> ek(engineMutex_);
        uint64_t final_epoch;
        {
            std::lock_guard<std::mutex> lk(m_);
            final_epoch = appliedEpoch_;
        }
        observer->onStop(final_epoch);
    }
}

ServiceStats
IngestService::serviceStats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lk(m_);
        s = stats_;
    }
    for (const auto &q : queues_) {
        const auto qs = q->stats();
        s.submitted += qs.submitted;
        s.dropped += qs.dropped;
        s.stalls += qs.stalls;
    }
    s.queued = queuedOps_.load(std::memory_order_relaxed);
    return s;
}

core::EngineStats
IngestService::engineStats() const
{
    std::lock_guard<std::mutex> ek(engineMutex_);
    return engine_.stats();
}

CounterMap
IngestService::report() const
{
    CounterMap merged = serviceStats().toCounters();
    mergeCounters(merged, engineStats().toCounters());
    merged["service.drain_p50_us"] = drainHist_.percentile(0.50);
    merged["service.drain_p95_us"] = drainHist_.percentile(0.95);
    merged["service.drain_p99_us"] = drainHist_.percentile(0.99);
    merged["service.drain_max_us"] = drainHist_.max();
    EpochObserver *observer;
    {
        // Snapshot under m_: attachObserver() writes under the same
        // lock, so a detach racing this report is ordered.
        std::lock_guard<std::mutex> lk(m_);
        observer = observer_;
    }
    if (observer)
        mergeCounters(merged, observer->counters());
    return merged;
}

void
IngestService::kick()
{
    std::lock_guard<std::mutex> lk(m_);
    forceDrain_ = true;
    drainCv_.notify_one();
}

void
IngestService::drainerLoop()
{
    for (;;) {
        uint64_t epoch;
        {
            std::unique_lock<std::mutex> lk(m_);
            drainCv_.wait(lk, [&] {
                return stop_ || forceDrain_ ||
                       flushTarget_ > cutEpoch_ ||
                       queuedOps_.load(std::memory_order_relaxed) >=
                           drainWindow_;
            });
            const bool work_left =
                flushTarget_ > cutEpoch_ ||
                queuedOps_.load(std::memory_order_relaxed) > 0;
            if (stop_ && !work_left)
                break;
            forceDrain_ = false;
            epoch = ++cutEpoch_;
        }
        runEpoch(epoch);
    }
}

size_t
IngestService::runEpoch(uint64_t epoch)
{
    obs::ScopedSpan epoch_span("epoch", obs::kServiceTrack);
    std::vector<Bucket> buckets;
    size_t cut_total = 0;
    {
        obs::ScopedSpan cut_span("epoch.cut", obs::kServiceTrack);
        for (unsigned s = 0; s < engine_.numShards(); ++s) {
            auto ops = queues_[s]->cut();
            if (ops.empty())
                continue;
            cut_total += ops.size();
            buckets.push_back({s, std::move(ops)});
        }
        queuedOps_.fetch_sub(cut_total, std::memory_order_relaxed);
    }
    if (auto *tr = obs::tracer())
        tr->counter("service.queued", obs::kServiceTrack,
                    queuedOps_.load(std::memory_order_relaxed));

    ServiceStats es;
    es.epochs = 1;
    if (cfg_.coalesce) {
        obs::ScopedSpan co_span("epoch.coalesce", obs::kServiceTrack);
        // Per-shard write-combining tables persist across epochs, so
        // the steady-state coalesce pass allocates only the output
        // vector it hands to the bucket.
        core::CoalesceResult r;
        for (auto &b : buckets) {
            core::coalesceOps(b.ops, coalesceScratch_[b.shard], r);
            es.coalesced += r.merged;
            b.ops = std::move(r.ops);
        }
    }
    for (const auto &b : buckets)
        es.flushedOps += b.ops.size();

    const auto t0 = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> ek(engineMutex_);
        // The engine-wide stats merge only feeds the tracer: the
        // execute span's fabric stamps and the program-cache counters.
        obs::TraceRecorder *const tr = obs::tracer();
        {
            obs::ScopedSpan x_span(
                "epoch.execute", obs::kServiceTrack,
                tr ? engine_.stats().fabric.fabricNs : 0.0);
            executeEpoch(epoch, buckets, es);
            if (tr)
                x_span.setFabricEnd(engine_.stats().fabric.fabricNs);
        }
        if (tr) {
            // Program-cache hit/miss bursts, sampled per epoch: the
            // counter track's slope shows cache-busting epochs.
            const auto after = engine_.stats();
            tr->counter("progcache.hits", obs::kServiceTrack,
                        after.programCacheHits);
            tr->counter("progcache.misses", obs::kServiceTrack,
                        after.programCacheMisses);
        }
        if (observer_) {
            // Observer hooks run before the epoch is marked applied,
            // so a scrub at the boundary is visible to every snapshot
            // waiting on this epoch.
            obs::ScopedSpan ob_span("epoch.observer",
                                    obs::kServiceTrack);
            for (const auto &b : buckets)
                observer_->onShardOps(b.shard, b.ops);
            observer_->onEpochApplied(epoch);
        }
        const auto us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        // Applied-marking happens inside engineMutex_ so a snapshot
        // taken between epochs sees an epoch label matching the
        // counters it reads.
        std::lock_guard<std::mutex> lk(m_);
        appliedEpoch_ = epoch;
        stats_ += es;
        drainHist_.record(static_cast<uint64_t>(us));
        epochCv_.notify_all();
    }
    return cut_total;
}

void
IngestService::executeEpoch(uint64_t epoch,
                            std::vector<Bucket> &buckets,
                            ServiceStats &epoch_stats)
{
    for (const auto &b : buckets) {
        // The stealing contract: whole ready buckets only, applied in
        // strictly increasing epoch order per shard.
        C2M_ASSERT(lastShardEpoch_[b.shard] < epoch,
                   "bucket reorder on shard ", b.shard);
        lastShardEpoch_[b.shard] = epoch;
    }
    // One call per epoch into the engine's hierarchical drain
    // pipeline: per-shard combine/count stages run on the lane pool
    // (any free lane claims a bucket), the merged scan/offset plan is
    // priced globally, and cross-shard plane programs gang-issue
    // instead of replicating per shard.
    std::vector<core::ShardedEngine::EpochBucket> eb;
    eb.reserve(buckets.size());
    for (const auto &b : buckets)
        eb.push_back({b.shard, b.ops});
    engine_.runEpoch(eb, &epoch_stats.steals);
}

size_t
submitConcurrent(IngestService &service,
                 std::span<const core::BatchOp> ops,
                 unsigned num_producers)
{
    const unsigned n = std::max(1u, num_producers);
    if (n == 1 || ops.size() < n)
        return service.submit(ops);
    std::atomic<size_t> accepted{0};
    std::vector<std::thread> producers;
    producers.reserve(n);
    const size_t per = (ops.size() + n - 1) / n;
    for (unsigned p = 0; p < n; ++p) {
        const size_t lo = p * per;
        const size_t hi = std::min(ops.size(), lo + per);
        if (lo >= hi)
            break;
        producers.emplace_back([&, lo, hi] {
            accepted.fetch_add(
                service.submit(ops.subspan(lo, hi - lo)),
                std::memory_order_relaxed);
        });
    }
    for (auto &t : producers)
        t.join();
    return accepted.load(std::memory_order_relaxed);
}

} // namespace service
} // namespace c2m
