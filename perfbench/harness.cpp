#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

const std::vector<WorkloadSpec> &
workloads()
{
    // requestsPerSecond: closed-loop requests per second of busy time
    // on the reference machine (4-core x86-64 container, gcc 12 -O3),
    // so a --seconds 10 run measures about 10 s.
    static const std::vector<WorkloadSpec> kAll = {
        {"ingest_zipf", 2200, makeIngestZipf},
        {"ingest_signed_reads", 480, makeIngestSignedReads},
        {"vmm_ternary", 38, makeVmmTernary},
        {"virt_reliable", 190, makeVirtReliable},
    };
    return kAll;
}

namespace {

/** Sum of the per-shard program-cache misses. */
uint64_t
cacheMisses(const Counters &c)
{
    uint64_t m = 0;
    for (const auto &s : c.shards)
        m += s.programCacheMisses;
    return m;
}

} // namespace

void
warmUntilSteady(Workload &w, unsigned block, unsigned min_blocks,
                unsigned max_blocks)
{
    LayerTimers timers;
    uint64_t prev = cacheMisses(w.counters());
    uint64_t prev_block = UINT64_MAX;
    for (unsigned b = 0; b < max_blocks; ++b) {
        for (unsigned i = 0; i < block; ++i)
            w.request(timers);
        const uint64_t now = cacheMisses(w.counters());
        const uint64_t misses = now - prev;
        prev = now;
        if (b + 1 >= min_blocks && (misses == 0 || misses >= prev_block))
            return;
        prev_block = misses;
    }
}

double
quantile(std::vector<int64_t> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least q of all
    // samples at or below it.
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return static_cast<double>(v[rank - 1]);
}

} // namespace perfbench
