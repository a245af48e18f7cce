#ifndef C2M_WORKLOADS_SPARSITY_HPP
#define C2M_WORKLOADS_SPARSITY_HPP

/**
 * @file
 * Controlled-sparsity operand generators (Sec. 7.2.3, Fig. 16).
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace c2m {
namespace workloads {

/** Signed values in [-2^(bits-1), 2^(bits-1)) with given sparsity. */
std::vector<int64_t> sparseSignedVector(size_t n, unsigned bits,
                                        double sparsity,
                                        uint64_t seed);

/** Unsigned values in [1, 2^bits) with given sparsity (zeros). */
std::vector<uint64_t> sparseUnsignedVector(size_t n, unsigned bits,
                                           double sparsity,
                                           uint64_t seed);

/** Random ternary matrix (K x N) with given nonzero density. */
std::vector<std::vector<int8_t>> randomTernaryMatrix(size_t rows,
                                                     size_t cols,
                                                     double density,
                                                     uint64_t seed);

/** Random binary matrix (K x N) with given one-density. */
std::vector<std::vector<uint8_t>> randomBinaryMatrix(size_t rows,
                                                     size_t cols,
                                                     double density,
                                                     uint64_t seed);

} // namespace workloads
} // namespace c2m

#endif // C2M_WORKLOADS_SPARSITY_HPP
