#ifndef C2M_JC_COLCODEC_HPP
#define C2M_JC_COLCODEC_HPP

/**
 * @file
 * Word-parallel conversion between JC counter rows and column values.
 *
 * A counter group stores, per digit d, a *field* of n + 1 rows — the
 * digit's n JC bit rows (LSB first) then its Onext row — followed by
 * one Osign row. Read top to bottom, column c of those D(n + 1) + 1
 * rows is one bit string with digit d's field at bit d(n + 1) and
 * Osign at bit D(n + 1).
 *
 * The codec moves 64 columns at a time: it gathers one word of every
 * row, bit-transposes 64 x 64 blocks (transpose64) so each column's
 * bit string lands in one word per 64 rows, and then maps fields to
 * digit values through a lookup table — as many whole fields per
 * lookup as fit 12 index bits (four at radix 4, two at radix 10) —
 * accumulating Horner sums in wrap-around uint64.
 * The value is therefore the low 64 bits of the exact sum
 *
 *   sum_d (v_d + R * Onext_d) * R^d  -  R^D * Osign,
 *
 * which is exact whenever that sum fits int64, including layouts with
 * R^D >= 2^64 or more than 64 rows. Invalid JC patterns decode to
 * jc::decodeNearest and are counted. Encoding is the inverse under
 * canonical form (Onext clear, Osign set on negatives).
 *
 * Both directions take a value offset: the rows hold v + offset and
 * the codec moves v. Signed-mode groups store every counter with an
 * excess-B bias (core::C2MEngine::valueOffset), so readout removes it
 * in the same pass that sums the digits.
 *
 * Scratch is one 64-column block of bit strings; rows are read and
 * written in place, never copied whole. The lookup tables are built
 * once per digit width and shared by every codec of that width.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"

namespace c2m {
namespace jc {

class ColumnCodec
{
  public:
    /** @param radix even JC radix R = 2n; @param digits D >= 1. */
    ColumnCodec(unsigned radix, unsigned digits);

    /** Rows per group, in field order: D(n + 1) digit rows + Osign. */
    size_t numRows() const { return osignBit_ + 1; }

    /**
     * Decode columns [first, first + out.size()) of @p rows (numRows()
     * pointers in field order; nullptr reads as an all-zero row) into
     * @p out, less @p offset. With @p invalid_cols (out.size() wide
     * or more), bit c of it is set iff a digit of out[c] was not a
     * valid state; the words covering out.size() are overwritten.
     *
     * @return the number of digits whose JC bits were not a valid
     *         state (decoded nearest-state).
     */
    uint64_t decode(std::span<const BitVector *const> rows,
                    std::span<int64_t> out, int64_t offset = 0,
                    BitVector *invalid_cols = nullptr,
                    size_t first = 0) const;

    /**
     * Write the canonical encoding of each value plus @p offset into
     * columns [first, first + values.size()) of @p rows (numRows()
     * pointers in field order; nullptr rows are skipped). Other
     * columns are untouched. Panics if a value plus @p offset lies
     * outside [-R^D, R^D).
     */
    void encode(std::span<const int64_t> values,
                std::span<BitVector *const> rows, int64_t offset = 0,
                size_t first = 0) const;

    /**
     * @p x reduced into the ring [-R^D, R^D) the rows can hold, i.e.
     * modulo 2 R^D (identity when R^D >= 2^63). A faulted group can
     * decode to any value of that ring, so re-encoding it at another
     * offset reduces first.
     */
    int64_t reduce(int64_t x) const;

  private:
    /** The digit fields one lookup covers, in a column bit string. */
    struct Group
    {
        uint32_t word;  ///< 64-row chunk holding the first field bit
        uint32_t shift; ///< bit offset within that chunk
        uint64_t mask;  ///< bits of this group's fields
    };

    unsigned bits_;         ///< n
    unsigned fieldBits_;    ///< n + 1
    unsigned perGroup_;     ///< digit fields per lookup
    uint64_t groupRadix_;   ///< R^perGroup
    uint64_t modulus_;      ///< R^D mod 2^64
    bool wide_;             ///< R^D >= 2^64
    size_t osignBit_;       ///< D(n + 1)
    size_t chunks_;         ///< 64-row blocks per group
    std::vector<Group> groups_;        ///< least significant first
    /** Group bits -> value << 3 | invalid fields; empty if too wide. */
    const std::vector<uint32_t> *lut_ = nullptr;
    /** Digits of one group -> their JC field bits (Onext clear). */
    const std::vector<uint64_t> *pattern_ = nullptr;
};

} // namespace jc
} // namespace c2m

#endif // C2M_JC_COLCODEC_HPP
