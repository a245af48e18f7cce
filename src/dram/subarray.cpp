#include "dram/subarray.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace c2m {
namespace dram {

std::vector<BitVector>
transposeToRows(const std::vector<uint64_t> &values, unsigned num_bits,
                size_t cols)
{
    C2M_ASSERT(values.size() <= cols, "more values than columns");
    C2M_ASSERT(num_bits >= 1 && num_bits <= 64, "bad bit width");
    std::vector<BitVector> rows(num_bits, BitVector(cols));
    uint64_t m[64];
    for (size_t c0 = 0; c0 < values.size(); c0 += 64) {
        const size_t width = std::min<size_t>(64, values.size() - c0);
        for (size_t c = 0; c < 64; ++c) {
            const uint64_t v = c < width ? values[c0 + c] : 0;
            if (num_bits < 64)
                C2M_ASSERT(v < (1ULL << num_bits), "value ", v,
                           " does not fit in ", num_bits, " bits");
            m[c] = v;
        }
        transpose64(m);
        for (unsigned b = 0; b < num_bits; ++b)
            rows[b].word(c0 / 64) = m[b];
    }
    return rows;
}

std::vector<uint64_t>
transposeFromRows(std::span<const BitVector *const> rows, size_t count)
{
    C2M_ASSERT(!rows.empty(), "no rows to transpose");
    C2M_ASSERT(rows.size() <= 64, "too many rows for uint64 values");
    C2M_ASSERT(count <= rows[0]->size(), "more columns than the row has");
    for (const BitVector *r : rows)
        C2M_ASSERT(r->size() == rows[0]->size(), "ragged row widths");
    std::vector<uint64_t> values(count);
    uint64_t m[64];
    for (size_t c0 = 0; c0 < count; c0 += 64) {
        for (size_t b = 0; b < 64; ++b)
            m[b] = b < rows.size() ? rows[b]->word(c0 / 64) : 0;
        transpose64(m);
        std::copy_n(m, std::min<size_t>(64, count - c0), &values[c0]);
    }
    return values;
}

BitVector
maskRow(const std::vector<uint8_t> &mask, size_t cols)
{
    C2M_ASSERT(mask.size() <= cols, "mask longer than the row");
    BitVector row(cols);
    for (size_t c0 = 0; c0 < mask.size(); c0 += 64) {
        uint64_t w = 0;
        const size_t width = std::min<size_t>(64, mask.size() - c0);
        for (size_t c = 0; c < width; ++c)
            w |= uint64_t{mask[c0 + c] != 0} << c;
        row.word(c0 / 64) = w;
    }
    return row;
}

} // namespace dram
} // namespace c2m
