#include "workloads/sparsity.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "service/ingest.hpp"

namespace c2m {
namespace workloads {

namespace {

/** Feed one point update per value and read the counts back. */
Histogram
countOccurrences(const std::vector<uint64_t> &values,
                 core::ShardedEngine &engine)
{
    const size_t n = engine.numCounters();
    std::vector<core::BatchOp> ops;
    ops.reserve(values.size());
    for (uint64_t v : values) {
        C2M_ASSERT(v < n, "value ", v,
                   " needs more engine counters than ", n);
        ops.push_back({v, 1, 0});
    }
    engine.accumulateBatch(ops);
    return core::countersToHistogram(engine, 0,
                                     static_cast<int64_t>(n) - 1);
}

/** One point update per value, pushed through the ingest service. */
Histogram
countOccurrencesAsync(const std::vector<uint64_t> &values,
                      service::IngestService &service,
                      unsigned num_producers)
{
    const size_t n = service.engine().numCounters();
    std::vector<core::BatchOp> ops;
    ops.reserve(values.size());
    for (uint64_t v : values) {
        C2M_ASSERT(v < n, "value ", v,
                   " needs more engine counters than ", n);
        ops.push_back({v, 1, 0});
    }
    service::submitConcurrent(service, ops, num_producers);
    const auto counters = service.readCounters();
    return core::countersToHistogram(counters, 0,
                                     static_cast<int64_t>(n) - 1);
}

/** Engine over [0, max(values)] sized for the chosen backend. */
core::ShardedEngine
engineForValues(const std::vector<uint64_t> &values,
                core::BackendKind backend, unsigned num_shards)
{
    uint64_t max_v = 0;
    for (uint64_t v : values)
        max_v = v > max_v ? v : max_v;
    core::EngineConfig cfg;
    cfg.backend = backend;
    cfg.capacityBits = 24;
    cfg.numCounters = std::max<size_t>(max_v + 1, num_shards);
    // Public mask rows only: ShardedEngine reserves its point and
    // plane rows ADDITIVELY on top of this, so 1 never starves
    // planned drains.
    cfg.maxMaskRows = 1;
    return core::ShardedEngine(cfg, num_shards);
}

} // namespace

std::vector<int64_t>
sparseSignedVector(size_t n, unsigned bits, double sparsity,
                   uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> v(n, 0);
    const int64_t half = int64_t{1} << (bits - 1);
    for (auto &x : v) {
        if (rng.nextBool(sparsity))
            continue;
        do {
            x = rng.nextRange(-half, half - 1);
        } while (x == 0);
    }
    return v;
}

std::vector<uint64_t>
sparseUnsignedVector(size_t n, unsigned bits, double sparsity,
                     uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> v(n, 0);
    for (auto &x : v) {
        if (rng.nextBool(sparsity))
            continue;
        x = 1 + rng.nextBounded((1ULL << bits) - 1);
    }
    return v;
}

std::vector<std::vector<int8_t>>
randomTernaryMatrix(size_t rows, size_t cols, double density,
                    uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<int8_t>> m(rows,
                                       std::vector<int8_t>(cols, 0));
    for (auto &row : m)
        for (auto &v : row)
            if (rng.nextBool(density))
                v = rng.nextBool(0.5) ? 1 : -1;
    return m;
}

std::vector<std::vector<uint8_t>>
randomBinaryMatrix(size_t rows, size_t cols, double density,
                   uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<uint8_t>> m(rows,
                                        std::vector<uint8_t>(cols, 0));
    for (auto &row : m)
        for (auto &v : row)
            v = rng.nextBool(density) ? 1 : 0;
    return m;
}

Histogram
valueHistogram(const std::vector<uint64_t> &values,
               core::ShardedEngine &engine)
{
    return countOccurrences(values, engine);
}

Histogram
magnitudeHistogram(const std::vector<int64_t> &values,
                   core::ShardedEngine &engine)
{
    std::vector<uint64_t> mags;
    mags.reserve(values.size());
    for (int64_t v : values)
        // Negate in unsigned arithmetic so INT64_MIN stays defined.
        mags.push_back(v < 0 ? 0 - static_cast<uint64_t>(v)
                             : static_cast<uint64_t>(v));
    return countOccurrences(mags, engine);
}

Histogram
valueHistogram(const std::vector<uint64_t> &values,
               core::BackendKind backend, unsigned num_shards)
{
    auto engine = engineForValues(values, backend, num_shards);
    return valueHistogram(values, engine);
}

Histogram
magnitudeHistogram(const std::vector<int64_t> &values,
                   core::BackendKind backend, unsigned num_shards)
{
    std::vector<uint64_t> mags;
    mags.reserve(values.size());
    for (int64_t v : values)
        mags.push_back(v < 0 ? 0 - static_cast<uint64_t>(v)
                             : static_cast<uint64_t>(v));
    auto engine = engineForValues(mags, backend, num_shards);
    return valueHistogram(mags, engine);
}

Histogram
valueHistogram(const std::vector<uint64_t> &values,
               service::IngestService &service,
               unsigned num_producers)
{
    return countOccurrencesAsync(values, service, num_producers);
}

Histogram
magnitudeHistogram(const std::vector<int64_t> &values,
                   service::IngestService &service,
                   unsigned num_producers)
{
    std::vector<uint64_t> mags;
    mags.reserve(values.size());
    for (int64_t v : values)
        mags.push_back(v < 0 ? 0 - static_cast<uint64_t>(v)
                             : static_cast<uint64_t>(v));
    return countOccurrencesAsync(mags, service, num_producers);
}

} // namespace workloads
} // namespace c2m
