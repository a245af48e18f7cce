#ifndef C2M_DRAM_SUBARRAY_HPP
#define C2M_DRAM_SUBARRAY_HPP

/**
 * @file
 * Vertical (bit-serial) data layout helpers.
 *
 * CIM engines store a vector of values "vertically": bit b of element
 * j lives in row b at column j, so one bulk-bitwise command touches
 * bit b of every element at once. These helpers transpose between
 * host-side value vectors and row-major BitVector images, and are used
 * by both the C2M engine (mask rows, counter initialization/readout)
 * and the SIMDRAM baseline (operand/accumulator rows).
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"

namespace c2m {
namespace dram {

/**
 * Transpose values into @p num_bits rows of @p cols columns.
 * Element j contributes bit b of its value to rows[b] at column j.
 * Values must fit in num_bits; extra columns are zero. Works one
 * 64-column block at a time through transpose64.
 */
std::vector<BitVector> transposeToRows(const std::vector<uint64_t> &values,
                                       unsigned num_bits, size_t cols);

/**
 * Inverse of transposeToRows: collect column j's bits (row b = bit b)
 * into values[j]. Reads @p count columns of the rows in place.
 */
std::vector<uint64_t>
transposeFromRows(std::span<const BitVector *const> rows, size_t count);

/** Build a mask row: bit j = mask[j] (padded with zeros to cols). */
BitVector maskRow(const std::vector<uint8_t> &mask, size_t cols);

} // namespace dram
} // namespace c2m

#endif // C2M_DRAM_SUBARRAY_HPP
