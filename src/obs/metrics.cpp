#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace c2m::obs {

void
LogHistogram::record(uint64_t value)
{
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    uint64_t lo = min_.load(std::memory_order_relaxed);
    while (value < lo &&
           !min_.compare_exchange_weak(lo, value,
                                       std::memory_order_relaxed)) {
    }
}

uint32_t
LogHistogram::bucketIndex(uint64_t value)
{
    if (value < 4)
        return static_cast<uint32_t>(value);
    const uint32_t e = 63 - static_cast<uint32_t>(std::countl_zero(value));
    const uint32_t sub =
        static_cast<uint32_t>((value >> (e - 2)) - kSubBuckets);
    return 4 + (e - 2) * kSubBuckets + sub;
}

uint64_t
LogHistogram::bucketLo(uint32_t index)
{
    if (index < 4)
        return index;
    const uint32_t o = (index - 4) / kSubBuckets;   // octave - 2
    const uint32_t sub = (index - 4) % kSubBuckets;
    return static_cast<uint64_t>(kSubBuckets + sub) << o;
}

uint64_t
LogHistogram::bucketHi(uint32_t index)
{
    if (index < 4)
        return index + 1;
    const uint32_t o = (index - 4) / kSubBuckets;
    const uint64_t lo = bucketLo(index);
    const uint64_t hi = lo + (static_cast<uint64_t>(1) << o);
    return hi > lo ? hi : UINT64_MAX;  // top bucket saturates
}

uint64_t
LogHistogram::percentile(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0;
    q = std::min(1.0, std::max(0.0, q));
    // Same rank convention as the exact-sort percentile this replaced.
    uint64_t rank = static_cast<uint64_t>(
        q * static_cast<double>(n - 1) + 0.5);
    if (rank >= n)
        rank = n - 1;
    // The top order statistic is tracked exactly.
    if (rank == n - 1)
        return max();
    uint64_t cum = 0;
    for (uint32_t i = 0; i < kBucketCount; ++i) {
        const uint64_t c = bucketCount(i);
        cum += c;
        if (cum > rank) {
            // Interpolate the rank's position within its bucket: the
            // p-th of c samples sits at the (p+0.5)/c point of the
            // bucket span under a uniform spread. Clamping to the
            // tracked [min, max] keeps single-bucket distributions
            // exact and the estimate inside the observed range (the
            // old upper-edge return biased a whole octave high at
            // sub-bucket boundaries).
            const uint64_t lo = bucketLo(i);
            const uint64_t hi = bucketHi(i);
            if (hi == UINT64_MAX)  // saturated top bucket: no width
                return max();
            const uint64_t width = hi - lo;
            const uint64_t p = rank - (cum - c);
            const uint64_t est =
                lo + static_cast<uint64_t>(
                         static_cast<double>(width) *
                         ((static_cast<double>(p) + 0.5) /
                          static_cast<double>(c)));
            return std::min(max(), std::max(min(), est));
        }
    }
    return max();
}

uint64_t
hostRssKb()
{
#ifdef __linux__
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    uint64_t kb = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            unsigned long long v = 0;
            if (std::sscanf(line + 6, "%llu", &v) == 1)
                kb = v;
            break;
        }
    }
    std::fclose(f);
    return kb;
#else
    return 0;
#endif
}

}  // namespace c2m::obs
