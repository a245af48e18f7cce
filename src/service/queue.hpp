#ifndef C2M_SERVICE_QUEUE_HPP
#define C2M_SERVICE_QUEUE_HPP

/**
 * @file
 * Bounded multi-producer op queue, one per shard of the ingest
 * service.
 *
 * Producers append BatchOp groups under the queue mutex; the drainer
 * cuts the entire pending vector in O(1) (swap) at each epoch
 * boundary. A group pushed in one call lands contiguously in a
 * single cut — same-shard spans are therefore epoch-atomic as long
 * as they fit the capacity (larger groups are split into
 * capacity-sized chunks).
 *
 * When a group does not fit, the producer kicks the drainer and
 * sleeps until a cut frees space (counted in stalls). A closed queue
 * rejects whatever is left of the group (counted in dropped).
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/sharded.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace service {

class BoundedOpQueue
{
  public:
    struct Stats
    {
        uint64_t submitted = 0; ///< ops accepted into the queue
        uint64_t dropped = 0;   ///< ops rejected by a closed queue
        uint64_t stalls = 0;    ///< producer blocks on a full queue
    };

    /**
     * @param capacity max pending ops (>= 1).
     * @param kick called (with the queue mutex held) right before a
     *        producer blocks, so the owner can wake its drainer; must
     *        not call back into this queue.
     * @param shard trace track for stall events (the owning shard
     *        index; defaults to the service track).
     */
    BoundedOpQueue(size_t capacity, std::function<void()> kick,
                   uint32_t shard = obs::kServiceTrack);

    /**
     * Append @p ops FIFO; returns how many were accepted. Blocks
     * while full; a closed queue accepts nothing more, and a
     * producer blocked at close() returns with what it had pushed.
     */
    size_t push(std::span<const core::BatchOp> ops);

    /** Swap out every pending op and wake blocked producers. */
    std::vector<core::BatchOp> cut();

    /** Reject current and future blocked producers (for shutdown). */
    void close();

    /** Counter snapshot (consistent under the queue mutex). */
    Stats stats() const;

    /** Pending op count; racy, for heuristics only. */
    size_t sizeApprox() const;

  private:
    const size_t capacity_;
    const std::function<void()> kick_;
    const uint32_t shard_;

    mutable std::mutex m_;
    std::condition_variable notFull_;
    std::vector<core::BatchOp> pending_;
    Stats stats_;
    bool closed_ = false;
};

} // namespace service
} // namespace c2m

#endif // C2M_SERVICE_QUEUE_HPP
