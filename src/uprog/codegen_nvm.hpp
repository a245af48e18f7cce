#ifndef C2M_UPROG_CODEGEN_NVM_HPP
#define C2M_UPROG_CODEGEN_NVM_HPP

/**
 * @file
 * Counting muPrograms for NVM bulk-bitwise backends (Sec. 4.6,
 * Fig. 10).
 *
 * Pinatubo-style non-stateful logic computes AND/OR/NOT of sensed
 * rows (with free operand negation) and writes the result back:
 * a masked bit update costs 3 ops, so an n-bit increment costs about
 * 3n+4 including the theta save and overflow check. MAGIC has only
 * NOR: caching ~m once per increment gives 6 NORs per bit, about
 * 6n+4 per increment, matching the paper's figures.
 */

#include "cim/nvm.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace uprog {

class NvmCodegen
{
  public:
    NvmCodegen(jc::CounterLayout layout, cim::NvmTech tech);

    const jc::CounterLayout &layout() const { return layout_; }
    cim::NvmTech tech() const { return tech_; }

    /** Masked k-ary increment of a digit, overflow into Onext. */
    cim::NvmProgram karyIncrement(unsigned digit, unsigned k,
                                  unsigned mask_row) const;

    /** Masked k-ary decrement; borrows are OR-ed into Onext. */
    cim::NvmProgram karyDecrement(unsigned digit, unsigned k,
                                  unsigned mask_row) const;

    /** Carry ripple: unit-increment digit+1 masked by Onext(digit). */
    cim::NvmProgram carryRipple(unsigned digit) const;

    /** Borrow ripple: unit-decrement digit+1 masked by Onext(digit). */
    cim::NvmProgram borrowRipple(unsigned digit) const;

    /** Zero every counter row (bits, Onext, Osign). */
    cim::NvmProgram clearCounters() const;

    /** Onext(digit) <- 0: the clear a carry ripple ends with. */
    cim::NvmProgram clearPending(unsigned digit) const;

    /** Osign ^= Onext(top); Onext(top) <- 0 (signed-mode fold). */
    cim::NvmProgram foldTopBorrowIntoSign() const;

  private:
    /** JC state shift by @p eff_k under the mask (incr/decr body). */
    void emitShiftedUpdate(cim::NvmProgram &p, unsigned digit,
                           unsigned eff_k, unsigned mask_row,
                           unsigned not_m_row) const;

    /** row <- 0 within the available op set of the technology. */
    void emitClearRow(cim::NvmProgram &p, unsigned row) const;
    /**
     * dst = ((src ^ src_neg) AND m) OR (dst AND ~m).
     * @p not_m_row: row caching ~m (MAGIC only; pass any row for
     * Pinatubo, unused).
     */
    void emitMaskedUpdate(cim::NvmProgram &p, unsigned dst,
                          unsigned src, bool src_neg, unsigned mask,
                          unsigned not_m_row) const;

    void emitWrapDetect(cim::NvmProgram &p, unsigned old_msb,
                        unsigned new_msb, unsigned onext,
                        unsigned mask, bool or_form) const;

    void emitCopy(cim::NvmProgram &p, unsigned src,
                  unsigned dst) const;

    jc::CounterLayout layout_;
    cim::NvmTech tech_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_CODEGEN_NVM_HPP
