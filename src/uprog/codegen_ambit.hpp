#ifndef C2M_UPROG_CODEGEN_AMBIT_HPP
#define C2M_UPROG_CODEGEN_AMBIT_HPP

/**
 * @file
 * muProgram generators for Ambit-style DRAM CIM (Sec. 4, Sec. 6).
 *
 * Produces the AAP/AP command sequences that realize masked k-ary
 * Johnson-counter increments/decrements (Alg. 1, Fig. 6b), overflow
 * detection, deferred carry rippling, and the ECC-protected variants
 * of Fig. 13a. Generated programs are verified bit-exactly against
 * the jc:: golden model by the test suite.
 *
 * Cost note (docs/backends.md, "Per-operation costs"): under a
 * strictly destructive triple-row-activation model, with every
 * activation set one of Ambit's B-group addresses, an unprotected
 * masked bit-row update costs 7 commands (plain source), the paper's
 * per-bit cost, or 8 (complemented source, loaded through DCC0). An
 * unprotected k-ary step saves no bit: it walks the cycles of the
 * digit's rotation so each update reads the old bit the previous one
 * left in T3, and detects the wrap from the B rows in 6 commands. A
 * masked increment or decrement by k costs 7n+6+min(k, 2n-k) (7n+6
 * for k = n, seven-command masked NOTs), so an increment by one is
 * the paper's 7n+7. An ECC-protected bit update costs 14+8f+(4 or 8)
 * commands at f FR checks per block, plus theta saves and a 7- or
 * 9-command wrap detect per step. All benches report the exact op
 * counts these generators emit, alongside the paper's 7n+7 / 13n+16
 * formulas.
 */

#include <cstdint>

#include "cim/rowaddr.hpp"
#include "jc/layout.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace uprog {

struct CodegenOptions
{
    /** Emit the ECC-protected (XOR-embedded) masked updates. */
    bool protect = false;

    /**
     * FR computations per protected masking step (1..3). The paper's
     * Tab. 1 "FR checks" column counts both masking steps of a bit
     * update, i.e. Tab. 1's {2, 4, 6} correspond to frChecks {1, 2, 3}.
     */
    unsigned frChecks = 1;
};

class AmbitCodegen
{
  public:
    explicit AmbitCodegen(jc::CounterLayout layout,
                          CodegenOptions opts = {});

    const jc::CounterLayout &layout() const { return layout_; }
    const CodegenOptions &options() const { return opts_; }

    /**
     * Masked k-ary increment of digit @p digit by @p k (1..2n-1);
     * counters whose bit in @p mask_row is 0 are unchanged. Wraps are
     * OR-ed into the digit's Onext row (Alg. 1).
     */
    CheckedProgram karyIncrement(unsigned digit, unsigned k,
                                 unsigned mask_row) const;

    /** Masked k-ary decrement; borrows are OR-ed into Onext. */
    CheckedProgram karyDecrement(unsigned digit, unsigned k,
                                 unsigned mask_row) const;

    /**
     * Deferred carry ripple (Sec. 4.5.2): unit-increment digit+1
     * masked by Onext(digit), then clear Onext(digit).
     */
    CheckedProgram carryRipple(unsigned digit) const;

    /**
     * Borrow ripple for decrements: unit-decrement digit+1 masked by
     * Onext(digit) (pending borrow), then clear. At the top digit the
     * pending borrow is folded into Osign instead.
     */
    CheckedProgram borrowRipple(unsigned digit) const;

    /** Zero every counter row (bits, Onext, Osign). */
    cim::AmbitProgram clearCounters() const;

    // ---- Generic row-level logic (also used by tensor ops) ----

    static void emitCopy(cim::AmbitProgram &p, unsigned src,
                         unsigned dst);
    static void emitNot(cim::AmbitProgram &p, unsigned src,
                        unsigned dst);
    static void emitOr(cim::AmbitProgram &p, unsigned a, unsigned b,
                       unsigned dst);
    static void emitAnd(cim::AmbitProgram &p, unsigned a, unsigned b,
                        unsigned dst);
    /** dst = a AND NOT b. */
    static void emitAndNot(cim::AmbitProgram &p, unsigned a,
                           unsigned b, unsigned dst);

    // ---- Paper cost formulas (for comparison tables) ----

    /** Unprotected masked increment: 7n+7 (Sec. 4.5.1). */
    static uint64_t paperIncrementOps(unsigned n)
    {
        return 7ULL * n + 7;
    }

    /** Protected increments (Tab. 1): 13n+16 / 23n+26 / 33n+36. */
    static uint64_t paperProtectedOps(unsigned n,
                                      unsigned fr_checks_total)
    {
        const uint64_t extra = 5ULL * (fr_checks_total - 2);
        return (13 + extra) * n + (16 + extra);
    }

  private:
    /**
     * dst = (dst AND NOT m) OR ((src XOR src_neg) AND m), the masked
     * bit-row update of Sec. 4.2, as the XOR-embedded checked blocks
     * of Fig. 13a.
     */
    void emitProtectedMaskedUpdate(CheckedProgram &cp,
                                   unsigned dst_row, unsigned src_row,
                                   bool src_neg,
                                   unsigned mask_row) const;

    /**
     * ECC-protected k-ary step: save the feedback bits into theta
     * rows, shift with protected updates, detect the wrap from the
     * saved old MSB.
     */
    CheckedProgram protectedStep(unsigned digit, unsigned k,
                                 unsigned mask_row,
                                 bool decrement) const;

    /** Unprotected k-ary step: save-free cycle walk (see file note). */
    CheckedProgram cycleStep(unsigned digit, unsigned k,
                             unsigned mask_row, bool decrement) const;

    jc::CounterLayout layout_;
    CodegenOptions opts_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_CODEGEN_AMBIT_HPP
