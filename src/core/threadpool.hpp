#ifndef C2M_CORE_THREADPOOL_HPP
#define C2M_CORE_THREADPOOL_HPP

/**
 * @file
 * Fixed-size thread pool with per-worker (lane) FIFO queues.
 *
 * Every task runs on a worker, never on the posting thread: a pool
 * has at least one worker (ThreadPool(0) throws).
 *
 * Built for the sharded engine: work for shard s is always posted to
 * lane s % size(), so tasks touching the same shard are serialized in
 * post order on a single worker while different shards run on
 * different workers. No task ever migrates between lanes, which keeps
 * execution — and therefore simulation results — independent of how
 * the OS schedules the workers.
 *
 * Lane FIFO guarantee: tasks posted to one lane run one at a time, in
 * post order, entirely on that lane's worker. The pool itself never
 * steals — a queued task is invisible to every other worker. Work
 * stealing (service::IngestService's drain path) is therefore built
 * ABOVE the pool: a claim loop posted to every lane pops whole ready
 * per-shard buckets from a shared list, so a "stolen" bucket still
 * runs start-to-finish on a single worker and per-shard order is
 * fixed by the claim order, never by lane scheduling. Stealers can
 * identify their worker via currentLane() and the sharded engine
 * asserts single-threaded shard access underneath (see
 * ShardedEngine::runEpoch).
 *
 * Locks are taken only at enqueue/dequeue; the tasks themselves (the
 * hot path, whole per-shard batches) run without any shared mutable
 * state.
 */

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace c2m {
namespace core {

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count, one lane each.
     * @throws std::invalid_argument if @p num_threads is 0.
     */
    explicit ThreadPool(unsigned num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (>= 1). */
    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** currentLane() value on threads that are not workers of this pool. */
    static constexpr unsigned kNoLane = ~0u;

    /**
     * Lane index of the calling thread if it is one of this pool's
     * workers, kNoLane otherwise. Lets a claim-loop task tell whether
     * it is executing a bucket on its home lane or stealing it.
     */
    unsigned currentLane() const;

    /**
     * Enqueue @p fn on lane @p lane % size(); tasks on one lane run
     * FIFO.
     */
    void post(unsigned lane, std::function<void()> fn);

    /**
     * Block until every task posted so far has finished. Rethrows the
     * first exception any task raised since the previous drain().
     * Panics when called from one of this pool's own workers: the
     * worker would wait for itself and deadlock.
     */
    void drain();

  private:
    struct Lane
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<std::function<void()>> q;
    };

    void workerLoop(unsigned index, Lane &lane);
    void runTask(const std::function<void()> &fn);
    void finishTask();

    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::thread> workers_;
    std::atomic<bool> stop_{false};

    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    size_t pending_ = 0;           ///< guarded by doneMutex_
    std::exception_ptr firstError_; ///< guarded by doneMutex_
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_THREADPOOL_HPP
