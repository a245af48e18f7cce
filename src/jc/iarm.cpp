#include "jc/iarm.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace c2m {
namespace jc {

IarmScheduler::IarmScheduler(unsigned radix, unsigned num_digits)
    : radix_(radix), bounds_(num_digits, 0)
{
    C2M_ASSERT(radix >= 2, "bad radix");
    C2M_ASSERT(num_digits >= 1, "need at least one digit");
}

void
IarmScheduler::resolveChain(unsigned pos, std::vector<unsigned> &out)
{
    const unsigned R = radix_;
    C2M_ASSERT(bounds_[pos] >= R,
               "resolveChain on digit with no pending overflow");
    if (pos + 1 >= bounds_.size())
        C2M_PANIC("counter capacity exceeded at digit ", pos,
                  "; size counters with a guard digit");
    // The carry into pos+1 needs headroom there first. The top digit
    // is the guard: in-capacity values never reach it, so its bound
    // (inflated by the conservative R-1 resets) saturates instead of
    // chaining further.
    if (bounds_[pos + 1] + 1 > 2 * R - 1 &&
        pos + 2 < bounds_.size())
        resolveChain(pos + 1, out);
    out.push_back(pos);
    ++ripples_;
    // Pending counters drop by R (<= R-1 afterwards); non-pending ones
    // may already sit at R-1, so the sound new bound is R-1.
    bounds_[pos] = R - 1;
    if (pos + 2 < bounds_.size())
        bounds_[pos + 1] += 1;
    else
        bounds_[pos + 1] =
            std::min(bounds_[pos + 1] + 1, 2 * R - 1);
}

std::vector<unsigned>
IarmScheduler::prepareAdd(const std::vector<unsigned> &digits)
{
    C2M_ASSERT(digits.size() <= bounds_.size(),
               "input has more digits than the counters");
    const unsigned R = radix_;
    std::vector<unsigned> out;
    for (unsigned pos = 0; pos < digits.size(); ++pos) {
        const unsigned k = digits[pos];
        if (k == 0)
            continue;
        C2M_ASSERT(k < R, "digit ", k, " out of range for radix ", R);
        if (bounds_[pos] + k > 2 * R - 1)
            resolveChain(pos, out);
        C2M_ASSERT(bounds_[pos] + k <= 2 * R - 1,
                   "IARM failed to create headroom");
    }
    return out;
}

void
IarmScheduler::applyAdd(const std::vector<unsigned> &digits)
{
    for (unsigned pos = 0; pos < digits.size(); ++pos) {
        bounds_[pos] += digits[pos];
        C2M_ASSERT(bounds_[pos] <= 2 * radix_ - 1,
                   "prepareAdd was not called before applyAdd");
    }
}

void
IarmScheduler::absorb(unsigned digit)
{
    C2M_ASSERT(digit + 1 < bounds_.size(),
               "absorbed a carry out of the top digit");
    bounds_[digit] = std::min(bounds_[digit], radix_ - 1);
}

void
IarmScheduler::cover(const std::vector<unsigned> &digits)
{
    C2M_ASSERT(digits.size() <= bounds_.size(), "too many digits");
    for (unsigned pos = 0; pos < digits.size(); ++pos)
        bounds_[pos] = std::max(bounds_[pos], digits[pos]);
}

std::vector<unsigned>
IarmScheduler::fullPassDescending()
{
    const unsigned R = radix_;
    std::vector<unsigned> out;
    for (unsigned pos = static_cast<unsigned>(bounds_.size()) - 1;
         pos-- > 0;) {
        out.push_back(pos);
        ++ripples_;
        if (bounds_[pos] >= R) {
            bounds_[pos] = R - 1;
            if (pos + 2 < bounds_.size()) {
                bounds_[pos + 1] += 1;
                // The digit above was processed first: it has room.
                C2M_ASSERT(bounds_[pos + 1] <= 2 * R - 1,
                           "carry into a digit without headroom");
            } else {
                // Guard digit: saturate (see resolveChain).
                bounds_[pos + 1] =
                    std::min(bounds_[pos + 1] + 1, 2 * R - 1);
            }
        }
    }
    return out;
}

std::vector<unsigned>
IarmScheduler::drain()
{
    std::vector<unsigned> out;
    for (unsigned pos = 0; pos + 1 < bounds_.size(); ++pos) {
        if (bounds_[pos] >= radix_)
            resolveChain(pos, out);
    }
    // The guard digit's (conservatively inflated) bound may stay at
    // or above R; real in-capacity counters never carry there.
    return out;
}

} // namespace jc
} // namespace c2m
