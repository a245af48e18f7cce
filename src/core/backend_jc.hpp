#ifndef C2M_CORE_BACKEND_JC_HPP
#define C2M_CORE_BACKEND_JC_HPP

/**
 * @file
 * Shared Johnson-counter readout for row-organized backends.
 *
 * Ambit and NVM fabrics store the same JC row layout, so both decode
 * counters identically through jc::ColumnCodec: per digit the n bit
 * rows plus Onext, each column's JC pattern decoded (nearest-state on
 * faulted patterns) and weighted by radix^digit, minus the modulus
 * where Osign is set, less the group's value offset. Parameterized
 * over a row-read callable so each backend plugs in its own
 * simulator access.
 */

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "core/config.hpp"
#include "jc/colcodec.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace core {

/** Chain one CounterLayout per physical group from row 0. */
inline std::vector<jc::CounterLayout>
buildJcLayouts(unsigned radix, unsigned capacity_bits,
               unsigned physical_groups)
{
    std::vector<jc::CounterLayout> layouts;
    unsigned base = 0;
    for (unsigned g = 0; g < physical_groups; ++g) {
        layouts.emplace_back(radix, capacity_bits, base);
        base = layouts.back().endRow();
    }
    return layouts;
}

/**
 * Call @p fn(row) for each state row of the group in jc::ColumnCodec
 * field order: per digit the n bit rows then Onext, then Osign.
 */
template <typename Fn>
void
forEachJcFieldRow(const jc::CounterLayout &l, Fn &&fn)
{
    for (unsigned dd = 0; dd < l.numDigits(); ++dd) {
        for (unsigned i = 0; i < l.bitsPerDigit(); ++i)
            fn(l.bitRow(dd, i));
        fn(l.onextRow(dd));
    }
    fn(l.osignRow());
}

/**
 * Read the group's rows once each, in field order, and decode them
 * word-parallel, less @p offset (C2MEngine::valueOffset).
 * @p read: callable unsigned row -> const BitVector &.
 */
template <typename ReadRow>
std::vector<int64_t>
decodeJcCounters(const jc::CounterLayout &l, size_t num_cols,
                 EngineStats &stats, int64_t offset, ReadRow &&read)
{
    std::vector<const BitVector *> rows;
    rows.reserve(size_t{l.numDigits()} * (l.bitsPerDigit() + 1) + 1);
    forEachJcFieldRow(l, [&](unsigned r) { rows.push_back(&read(r)); });

    std::vector<int64_t> out(num_cols);
    stats.invalidStates +=
        jc::ColumnCodec(l.radix(), l.numDigits())
            .decode(rows, out, offset);
    return out;
}

/** Decode one digit per column, pending flags excluded. */
template <typename ReadRow>
std::vector<unsigned>
decodeJcDigit(const jc::CounterLayout &l, unsigned digit,
              size_t num_cols, EngineStats &stats, ReadRow &&read)
{
    const unsigned n = l.bitsPerDigit();
    // A one-digit group whose Onext and Osign rows read as zero.
    std::vector<const BitVector *> rows(n + 2, nullptr);
    for (unsigned i = 0; i < n; ++i)
        rows[i] = &read(l.bitRow(digit, i));

    std::vector<int64_t> values(num_cols);
    stats.invalidStates +=
        jc::ColumnCodec(l.radix(), 1).decode(rows, values);
    return std::vector<unsigned>(values.begin(), values.end());
}

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_JC_HPP
