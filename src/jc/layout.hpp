#ifndef C2M_JC_LAYOUT_HPP
#define C2M_JC_LAYOUT_HPP

/**
 * @file
 * Row layout of a group of multi-digit Johnson counters inside one
 * subarray (Fig. 5). All bits of a counter live in the same column;
 * each digit occupies n bit-rows (LSB..MSB) plus one Onext row, and
 * the group is followed by scratch rows used by the muPrograms:
 * theta rows (k-ary feedback saves of the ECC-protected Ambit steps
 * and the NVM steps; the unprotected Ambit steps save no bit) and the
 * protection scratch rows (IR1, IR2, FR, T2cp) of Fig. 13a, plus an
 * optional Osign row.
 */

#include <cstdint>

#include "jc/digits.hpp"
#include "jc/johnson.hpp"

namespace c2m {
namespace jc {

class CounterLayout
{
  public:
    /**
     * @param radix Even JC radix (2n).
     * @param capacity_bits Binary capacity the counters must meet or
     *        exceed (e.g. 64 for int64 accumulation); one guard digit
     *        is added so IARM never ripples out of the top digit.
     * @param base_row First data-group row of the counter block.
     */
    CounterLayout(unsigned radix, unsigned capacity_bits,
                  unsigned base_row = 0);

    unsigned radix() const { return radix_; }
    unsigned bitsPerDigit() const { return bits_; }
    unsigned numDigits() const { return digits_; }
    unsigned capacityBits() const { return capacityBits_; }
    unsigned baseRow() const { return baseRow_; }

    /** Row of bit @p i (0 = LSB) of digit @p d (0 = LSD). */
    unsigned bitRow(unsigned d, unsigned i) const;

    /** Row of the pending-overflow flag of digit @p d. */
    unsigned onextRow(unsigned d) const;

    /** Row of the sign flag (underflow beyond zero). */
    unsigned osignRow() const;

    /**
     * Scratch row theta_j, j in [0, bitsPerDigit): a feedback save of
     * an ECC-protected Ambit or an NVM k-ary step.
     */
    unsigned thetaRow(unsigned j) const;

    /** Protection scratch rows (Fig. 13a). */
    unsigned ir1Row() const;
    unsigned ir2Row() const;
    unsigned frRow() const;
    unsigned t2Row() const;

    /** One general-purpose scratch row (mask staging, vector add). */
    unsigned scratchRow(unsigned j) const;
    unsigned numScratchRows() const { return 4; }

    /** Total data-group rows consumed by the block. */
    unsigned totalRows() const;

    /** First row past the block (e.g. where mask rows can start). */
    unsigned endRow() const { return baseRow_ + totalRows(); }

  private:
    unsigned radix_;
    unsigned bits_;
    unsigned digits_;
    unsigned capacityBits_;
    unsigned baseRow_;
};

} // namespace jc
} // namespace c2m

#endif // C2M_JC_LAYOUT_HPP
