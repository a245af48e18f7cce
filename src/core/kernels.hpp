#ifndef C2M_CORE_KERNELS_HPP
#define C2M_CORE_KERNELS_HPP

/**
 * @file
 * Kernels accelerated by Count2Multiply (Sec. 5.2) plus plain host
 * reference implementations the functional engines are verified
 * against.
 *
 * Vector-matrix multiplication is reinterpreted as masked matrix
 * accumulation: y = sum_i x_i * Z_i with the rows Z_i of the
 * stationary matrix stored as counting masks (Fig. 1a). Ternary
 * matrices use two mask planes (+1/-1) with dual-rail counters. The
 * integer x integer product over CSD bit slices (Sec. 5.2.3) is not
 * carried: no workload multiplies by integer weights.
 */

#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace c2m {
namespace core {

// ---- Host references ----

/** y_j = sum_i x_i * Z[i][j], Z binary (K rows of N). */
std::vector<int64_t> refGemvBinary(
    const std::vector<uint64_t> &x,
    const std::vector<std::vector<uint8_t>> &Z);

/** Ternary Z in {-1, 0, +1}. */
std::vector<int64_t> refGemvTernary(
    const std::vector<int64_t> &x,
    const std::vector<std::vector<int8_t>> &Z);

/** Y = X.Z with ternary Z; X is M x K, result M x N. */
std::vector<std::vector<int64_t>> refGemmTernary(
    const std::vector<std::vector<int64_t>> &X,
    const std::vector<std::vector<int8_t>> &Z);

// ---- Count2Multiply engine kernels ----

/**
 * Integer-vector x binary-matrix product on a fresh engine (masks are
 * added by the call; engine needs maxMaskRows >= K and numCounters
 * >= N).
 */
std::vector<int64_t> gemvIntBinary(
    C2MEngine &engine, const std::vector<uint64_t> &x,
    const std::vector<std::vector<uint8_t>> &Z);

/**
 * Integer-vector x ternary-matrix product, dual rail: group 0
 * accumulates +1 contributions, group 1 accumulates -1 contributions
 * (engine needs numGroups >= 2, maxMaskRows >= 2K).
 */
std::vector<int64_t> gemvIntTernary(
    C2MEngine &engine, const std::vector<int64_t> &x,
    const std::vector<std::vector<int8_t>> &Z);

/**
 * Integer-matrix x ternary-matrix product: rows of Y computed
 * sequentially, reusing the stationary masks (Sec. 5.2.2).
 */
std::vector<std::vector<int64_t>> gemmIntTernary(
    C2MEngine &engine, const std::vector<std::vector<int64_t>> &X,
    const std::vector<std::vector<int8_t>> &Z);

// ---- SIMDRAM baseline kernels ----

/**
 * Ternary GEMV as the SIMDRAM baseline runs it: one signed
 * (two's-complement) group, and both mask planes of row i get x_i
 * or -x_i for every input, zeros included — on the RCA backend one
 * full-width add each (engine needs maxMaskRows >= 2K).
 */
std::vector<int64_t> simdramGemvTernary(
    C2MEngine &engine, const std::vector<int64_t> &x,
    const std::vector<std::vector<int8_t>> &Z);

} // namespace core
} // namespace c2m

#endif // C2M_CORE_KERNELS_HPP
