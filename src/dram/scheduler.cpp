#include "dram/scheduler.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace c2m {
namespace dram {

AapScheduler::AapScheduler(DramTimings timings, unsigned num_banks)
    : timings_(timings)
{
    C2M_ASSERT(num_banks >= 1, "need at least one bank");
    bankReady_.assign(num_banks, 0.0);
    reset();
}

void
AapScheduler::reset()
{
    std::fill(bankReady_.begin(), bankReady_.end(), 0.0);
    lastIssue_ = -1e18;
    for (auto &t : faw_)
        t = -1e18;
    fawHead_ = 0;
    issued_ = 0;
    lastFinish_ = 0.0;
    rrNext_ = 0;
}

double
AapScheduler::issueOne(unsigned bank)
{
    C2M_ASSERT(bank < bankReady_.size(), "bank ", bank,
               " out of range");
    double t = 0.0;
    t = std::max(t, bankReady_[bank]);
    t = std::max(t, lastIssue_ + timings_.tRrdNs);
    // The oldest of the last four issues bounds the 4-activation
    // window: this issue must start at least tFAW after it.
    t = std::max(t, faw_[fawHead_] + timings_.tFawNs);

    lastIssue_ = t;
    faw_[fawHead_] = t;
    fawHead_ = (fawHead_ + 1) % 4;
    bankReady_[bank] = t + timings_.bankPeriodNs();
    lastFinish_ = std::max(lastFinish_, t + timings_.tAapNs());
    ++issued_;
    return t;
}

void
AapScheduler::issueRoundRobin(uint64_t count)
{
    for (uint64_t i = 0; i < count; ++i) {
        issueOne(rrNext_);
        rrNext_ = (rrNext_ + 1) % bankReady_.size();
    }
}

double
AapScheduler::finishNs() const
{
    return lastFinish_;
}

double
AapScheduler::streamTimeNs(const DramTimings &t, uint64_t count,
                           unsigned banks)
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(count - 1) * t.issueIntervalNs(banks) +
           t.tAapNs();
}

} // namespace dram
} // namespace c2m
