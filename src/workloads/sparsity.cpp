#include "workloads/sparsity.hpp"

#include "common/rng.hpp"

namespace c2m {
namespace workloads {

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

} // namespace workloads
} // namespace c2m
