#ifndef C2M_ECC_ROWCODEC_HPP
#define C2M_ECC_ROWCODEC_HPP

/**
 * @file
 * Row-level ECC lanes (Sec. 6).
 *
 * A protected subarray row is widened with parity lanes: every 64
 * data columns carry 8 Hamming(72,64) parity columns, stored in the
 * ECC chip of the rank. Because the lanes are ordinary columns,
 * bulk-bitwise CIM commands act on them exactly like on data columns;
 * for any row produced as an XOR of validly coded rows, the lanes
 * hold a valid parity (linearity), so the standard syndrome hardware
 * can check or correct the row.
 */

#include <cstddef>

#include "common/bitvec.hpp"

namespace c2m {
namespace ecc {

class RowCodec
{
  public:
    /** @param data_bits Number of data columns in a row. */
    explicit RowCodec(size_t data_bits);

    size_t dataBits() const { return dataBits_; }
    size_t numWords() const { return numWords_; }
    size_t parityBits() const { return numWords_ * 8; }
    /** Total row width: data columns followed by parity lanes. */
    size_t totalBits() const { return dataBits_ + parityBits(); }

    /** Compute and store the parity lanes of @p row's data prefix
     *  (of its storage words [@p w0, @p w1) only, when given). */
    void encodeRow(BitVector &row, size_t w0 = 0,
                   size_t w1 = SIZE_MAX) const;

    /** True iff every word's syndrome is clean. */
    bool checkRow(const BitVector &row) const;

    struct CorrectResult
    {
        size_t corrected = 0;    ///< words with a corrected single error
        size_t uncorrectable = 0; ///< words flagged with double errors
        bool clean() const { return corrected == 0 && uncorrectable == 0; }
    };

    /** Correct single-bit errors per word in place (in storage words
     *  [@p w0, @p w1) only, when given). */
    CorrectResult correctRow(BitVector &row, size_t w0 = 0,
                             size_t w1 = SIZE_MAX) const;

    /** Extract word @p w of the data prefix. */
    uint64_t dataWord(const BitVector &row, size_t w) const;

    // ---- Batch decode-correct path (scrub sweeps) ----

    /** encodeRow over every row of @p rows. */
    void encodeRows(std::vector<BitVector> &rows) const;

    /** correctRow over every row of @p rows; aggregate result. */
    CorrectResult correctRows(std::vector<BitVector> &rows) const;

    /**
     * Scrub one fabric row against a trusted encoded image: decode
     * the codeword [@p data | parity lanes of @p encoded], correct
     * single-flip words through the code, and repair words the code
     * flags (or miscorrects) from @p encoded's data — the journal/
     * checkpoint fallback. On return @p data equals @p encoded's data
     * prefix exactly.
     *
     * @param data     fabric row, dataBits() columns (corrected in place)
     * @param encoded  trusted totalBits() image with valid parity
     * @return corrected = words fixed by the code alone,
     *         uncorrectable = words that needed the trusted image.
     */
    CorrectResult scrubRow(BitVector &data,
                           const BitVector &encoded) const;

  private:
    /** Data columns of storage word @p w. */
    uint64_t dataMask(size_t w) const;
    void setDataWord(BitVector &row, size_t w, uint64_t v) const;
    uint8_t parityOf(const BitVector &row, size_t w) const;
    void setParity(BitVector &row, size_t w, uint8_t parity) const;

    size_t dataBits_;
    size_t numWords_;
};

} // namespace ecc
} // namespace c2m

#endif // C2M_ECC_ROWCODEC_HPP
