#ifndef C2M_OBS_METRICS_HPP
#define C2M_OBS_METRICS_HPP

// Host-side distributions and process metrics: a log-bucketed
// concurrent histogram (the ingest service's drain latencies, the
// trace analyzer's per-track span latencies) and the process RSS
// every bench cell records.

#include <atomic>
#include <cstdint>

namespace c2m::obs {

/**
 * Fixed-footprint log-bucketed histogram of uint64 samples with
 * lock-free concurrent recording.
 *
 * Buckets: values 0..3 are exact; above that each octave [2^e, 2^(e+1))
 * splits into 4 sub-buckets, so any bucket's width is at most 1/4 of
 * its lower bound (quantiles are accurate to ~25% relative error, and
 * exact below 4).  All 2^64 values map to one of kBucketCount buckets;
 * recording is two relaxed fetch_adds plus a CAS max and min.
 */
class LogHistogram {
public:
    // 4 exact buckets + 4 sub-buckets per octave for octaves 2..63.
    static constexpr uint32_t kSubBuckets = 4;
    static constexpr uint32_t kBucketCount = 4 + 62 * kSubBuckets;

    LogHistogram() = default;

    // Thread-safe, allocation-free.
    void record(uint64_t value);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    /** Smallest recorded sample (0 when empty). */
    uint64_t min() const {
        const uint64_t v = min_.load(std::memory_order_relaxed);
        return v == UINT64_MAX ? 0 : v;
    }

    /**
     * Quantile estimate, q in [0, 1].  Uses the same rank convention as
     * the exact-sort percentile it replaced (rank = floor(q*(n-1)+0.5))
     * and interpolates the rank's position within its bucket (assuming
     * samples spread uniformly across the bucket) instead of returning
     * the bucket's upper edge, then clamps to the tracked [min, max].
     * Monotone in q; the exact order statistic lies in the same bucket,
     * so the estimate is always within one bucket width of it.
     */
    uint64_t percentile(double q) const;

    static uint32_t bucketIndex(uint64_t value);
    // Inclusive lower / exclusive upper value edges of bucket i.
    static uint64_t bucketLo(uint32_t index);
    static uint64_t bucketHi(uint32_t index);

    uint64_t bucketCount(uint32_t index) const {
        return buckets_[index].load(std::memory_order_relaxed);
    }

private:
    std::atomic<uint64_t> buckets_[kBucketCount] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> max_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
};

/** Resident-set size of this process in KiB (0 if unavailable). */
uint64_t hostRssKb();

}  // namespace c2m::obs

#endif  // C2M_OBS_METRICS_HPP
