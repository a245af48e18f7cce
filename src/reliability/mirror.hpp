#ifndef C2M_RELIABILITY_MIRROR_HPP
#define C2M_RELIABILITY_MIRROR_HPP

/**
 * @file
 * ECC-encoded mirror of one counter group's canonical row image.
 *
 * A RowMirror is the scrubber's trusted side store: for every
 * persistent counter-state row of a group (digit bit rows, Onext
 * rows, Osign) it keeps the *canonical* image — the bit pattern a
 * fault-free engine holds right after drain(): Onext all zero, each
 * digit the Johnson encoding of a base-R digit of v + offset (the
 * group's core::C2MEngine::valueOffset), Osign set exactly on
 * columns where v + offset is negative. Images are widened with
 * ecc::RowCodec parity lanes, modelling spare ECC-protected rows
 * maintained through the reliable host RD/WR path; the store itself
 * is scrubbed (decode-correct-re-encode) on every sweep so it
 * tolerates its own bit decay.
 *
 * Canonical form is a pure function of (counter values, offset),
 * which is what makes epoch-boundary scrubbing exact: expected
 * values = mirrored values + journaled deltas, and every deviation
 * of the fabric's rows from encodeValues(expected, offset) is either
 * a pending carry (its column still decodes, through decodeRows, to
 * the expected value) or a fault; rewriting the row from the image
 * settles both (the CanonicalEncode tests in test_reliability.cpp
 * pin the image against drained fabric rows). The mirror remembers
 * the offset of its image, so a group that enters signed mode between
 * two sweeps decodes at the old offset and re-encodes at the new one.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "ecc/rowcodec.hpp"
#include "jc/colcodec.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace reliability {

class RowMirror
{
  public:
    /**
     * @param layout JC layout of the mirrored group (any replica;
     *        only radix/digit geometry is used).
     * @param cols   counter columns of the owning shard.
     */
    RowMirror(const jc::CounterLayout &layout, size_t cols);

    size_t cols() const { return cols_; }
    /** Persistent counter-state rows: D*n bit rows + D Onext + Osign. */
    size_t numRows() const { return rows_.size(); }
    const ecc::RowCodec &codec() const { return codec_; }

    /**
     * Fabric row index of mirror row @p r under @p layout (the
     * replica being swept). Mirror rows are ordered bit rows first
     * (digit-major), then Onext rows, then Osign.
     */
    unsigned fabricRow(const jc::CounterLayout &layout, size_t r) const;

    /** Encoded (data + parity) image of mirror row @p r. */
    const BitVector &row(size_t r) const { return rows_[r]; }
    BitVector &row(size_t r) { return rows_[r]; }

    /**
     * Replace the store with the canonical encoding of @p values at
     * value offset @p offset (the rows hold v + offset), and remember
     * the offset.
     */
    void encodeValues(std::span<const int64_t> values,
                      int64_t offset = 0);

    /** Overwrite columns [first, first + values.size()) with the
     *  canonical encoding of @p values at the image's offset. Only the
     *  ECC words covering them are touched: SEC-DED corrected first
     *  (so decay is not sealed under new parity), then re-encoded.
     *  @return the corrections. */
    ecc::RowCodec::CorrectResult
    spliceValues(size_t first, std::span<const int64_t> values);

    /**
     * SEC-DED pass over the store itself, then decode the mirrored
     * counter values, less the offset the image was encoded with.
     * Words the code cannot repair are decoded nearest-state (the
     * affected counters lose exactness until the next encodeValues);
     * the aggregate correction result is returned through
     * @p store_scrub when non-null.
     */
    std::vector<int64_t>
    decodeValues(ecc::RowCodec::CorrectResult *store_scrub = nullptr);

    /** Variant decoding into @p out, which must be cols() long. */
    void decodeValues(std::span<int64_t> out,
                      ecc::RowCodec::CorrectResult *store_scrub = nullptr);

    /**
     * Decode the counter values that fabric rows hold: @p rows in
     * mirror order (numRows() of them, each at least cols() wide),
     * Onext rows included, less @p offset. These are the values
     * readCounters reports for the same columns, pending carries and
     * sign included, through the same jc::ColumnCodec decode; with
     * @p invalid_cols, bit c is set iff a digit of column c held an
     * invalid JC pattern. The store is not touched.
     * @return the number of invalid digits (decoded nearest-state).
     */
    uint64_t decodeRows(std::span<const BitVector> rows,
                        std::span<int64_t> out, int64_t offset = 0,
                        BitVector *invalid_cols = nullptr);

    /** Copy the data prefix of mirror row @p r (fabric width). */
    BitVector dataBits(size_t r) const;

    /** Allocation-free variant: @p out must be cols() wide. */
    void dataBitsInto(size_t r, BitVector &out) const;

  private:
    /**
     * @p out <- pointers to @p rows (mirror order) in jc::ColumnCodec
     * field order, Onext rows as nullptr unless @p with_onext.
     */
    template <typename Row>
    void fieldOrder(std::span<Row> rows, bool with_onext,
                    std::vector<Row *> &out) const;

    unsigned bits_;    ///< bits per digit (n)
    unsigned digits_;  ///< digit count (D)
    size_t cols_;
    ecc::RowCodec codec_;
    jc::ColumnCodec jc_;
    std::vector<BitVector> rows_;
    /** Scratch: the rows being encoded / decoded, in field order. */
    std::vector<BitVector *> encodeFields_;
    std::vector<const BitVector *> decodeFields_;
    int64_t offset_ = 0; ///< value offset of the current image
};

} // namespace reliability
} // namespace c2m

#endif // C2M_RELIABILITY_MIRROR_HPP
