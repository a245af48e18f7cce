#include "service/queue.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace c2m {
namespace service {

BoundedOpQueue::BoundedOpQueue(size_t capacity,
                               std::function<void()> kick,
                               uint32_t shard)
    : capacity_(capacity), kick_(std::move(kick)), shard_(shard)
{
    C2M_ASSERT(capacity_ >= 1, "queue capacity must be >= 1");
}

size_t
BoundedOpQueue::push(std::span<const core::BatchOp> ops)
{
    size_t accepted = 0;
    std::unique_lock<std::mutex> lk(m_);
    while (accepted < ops.size()) {
        if (closed_) {
            stats_.dropped += ops.size() - accepted;
            break;
        }
        // Chunks never exceed the capacity, so a blocked producer is
        // always satisfiable by one cut.
        const size_t chunk =
            std::min(ops.size() - accepted, capacity_);
        if (pending_.size() + chunk > capacity_) {
            kick_();
            ++stats_.stalls;
            {
                // The stall span shows exactly how long this producer
                // sat behind the drainer on this shard's queue.
                obs::ScopedSpan stall("queue.stall", shard_);
                notFull_.wait(lk, [&] {
                    return closed_ ||
                           pending_.size() + chunk <= capacity_;
                });
            }
            continue;
        }
        pending_.insert(pending_.end(), ops.begin() + accepted,
                        ops.begin() + (accepted + chunk));
        accepted += chunk;
        stats_.submitted += chunk;
    }
    return accepted;
}

std::vector<core::BatchOp>
BoundedOpQueue::cut()
{
    std::vector<core::BatchOp> out;
    std::lock_guard<std::mutex> lk(m_);
    out.swap(pending_);
    notFull_.notify_all();
    return out;
}

void
BoundedOpQueue::close()
{
    std::lock_guard<std::mutex> lk(m_);
    closed_ = true;
    notFull_.notify_all();
}

BoundedOpQueue::Stats
BoundedOpQueue::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    return stats_;
}

size_t
BoundedOpQueue::sizeApprox() const
{
    std::lock_guard<std::mutex> lk(m_);
    return pending_.size();
}

} // namespace service
} // namespace c2m
