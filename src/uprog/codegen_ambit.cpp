#include "uprog/codegen_ambit.hpp"

#include <numeric>

#include "common/logging.hpp"

namespace c2m {
namespace uprog {

using cim::AmbitProgram;
using cim::RowRef;
using cim::RowSet;

namespace {

RowRef
d(unsigned row)
{
    return RowRef::data(row);
}

} // namespace

AmbitCodegen::AmbitCodegen(jc::CounterLayout layout, CodegenOptions opts)
    : layout_(layout), opts_(opts)
{
    C2M_ASSERT(opts_.frChecks >= 1 && opts_.frChecks <= 3,
               "frChecks must be 1..3");
}

// ---------------------------------------------------------------------
// Generic row logic
// ---------------------------------------------------------------------

void
AmbitCodegen::emitCopy(AmbitProgram &p, unsigned src, unsigned dst)
{
    p.aap(d(src), d(dst));
}

void
AmbitCodegen::emitNot(AmbitProgram &p, unsigned src, unsigned dst)
{
    p.aap(d(src), RowRef::dccNeg(0)); // cell0 <- ~src
    p.aap(RowRef::dcc(0), d(dst));    // dst  <- cell0
}

void
AmbitCodegen::emitOr(AmbitProgram &p, unsigned a, unsigned b,
                     unsigned dst)
{
    p.aap(d(a), RowRef::t(0));
    p.aap(d(b), RowRef::t(2));
    p.aap(RowRef::c1(), RowRef::t(1));
    p.aap(RowSet::b12(), d(dst));
}

void
AmbitCodegen::emitAnd(AmbitProgram &p, unsigned a, unsigned b,
                      unsigned dst)
{
    p.aap(d(a), RowRef::t(0));
    p.aap(d(b), RowRef::t(2));
    p.aap(RowRef::c0(), RowRef::t(1));
    p.aap(RowSet::b12(), d(dst));
}

void
AmbitCodegen::emitAndNot(AmbitProgram &p, unsigned a, unsigned b,
                         unsigned dst)
{
    p.aap(d(b), RowRef::dccNeg(0)); // cell0 <- ~b
    p.aap(d(a), RowRef::t(2));
    p.aap(RowRef::c0(), RowRef::t(1));
    p.aap(RowSet::b14(), d(dst));
}

// ---------------------------------------------------------------------
// ECC-protected k-ary steps
// ---------------------------------------------------------------------

namespace {

/**
 * and_dst = a AND b', then or_dst = a OR b', b' = (b_neg ? NOT b : b),
 * from one set of paired loads: B14 = {DCC0, T1, T2} takes the AND
 * over a 0 and B15 = {DCC1, T0, T3} the OR over a 1. 7 commands.
 */
void
emitAndOr(AmbitProgram &p, unsigned a, unsigned b, bool b_neg,
          unsigned and_dst, unsigned or_dst)
{
    if (b_neg) {
        p.aap(d(b), RowSet::b8());         // T0=b, cell0=~b
        p.aap(d(b), RowSet::b9());         // T1=b, cell1=~b
        p.aap(RowRef::c1(), RowRef::t(0)); // T0=1
        p.aap(RowRef::c0(), RowRef::t(1)); // T1=0
        p.aap(d(a), RowSet::b10());        // T2=T3=a
    } else {
        p.aap(RowRef::c1(), RowSet::b8()); // T0=1, cell0=0
        p.aap(RowRef::c0(), RowSet::b9()); // T1=0, cell1=1
        p.aap(d(a), RowRef::t(0));         // T0=a
        p.aap(d(a), RowRef::t(1));         // T1=a
        p.aap(d(b), RowSet::b10());        // T2=T3=b
    }
    p.aap(RowSet::b14(), d(and_dst));
    p.aap(RowSet::b15(), d(or_dst));
}

/**
 * Onext |= the wrap from a stored old MSB row (Alg. 1 lines 6/13).
 * The and-form w = old AND NOT new is identically 0 where the mask is
 * 0; the or-form w = (old OR NOT new) AND m is not, so it reads the
 * mask.
 */
void
emitWrapDetect(AmbitProgram &p, unsigned old_msb_row,
               unsigned new_msb_row, unsigned onext_row,
               unsigned mask_row, bool or_form)
{
    if (!or_form) {
        p.aap(d(new_msb_row), RowRef::dccNeg(0)); // cell0=~new
        p.aap(d(old_msb_row), RowRef::t(2));      // T2=old
        p.aap(RowRef::c0(), RowRef::t(1));        // T1=0
        p.ap(RowSet::b14());                      // w -> T2
        p.aap(d(onext_row), RowRef::t(0));        // T0=Onext
        p.aap(RowRef::c1(), RowRef::t(1));        // T1=1
        p.aap(RowSet::b12(), d(onext_row));       // Onext OR w
        return;
    }

    p.aap(d(new_msb_row), RowSet::b9());          // cell1=~new
    p.aap(d(old_msb_row), RowRef::t(0));          // T0=old
    p.aap(RowRef::c1(), RowRef::t(3));            // T3=1
    p.ap(RowSet::b15());                          // w1 -> T3
    p.aap(RowRef::c0(), RowSet::b9());            // T1=0, cell1=1
    p.aap(d(mask_row), RowRef::t(2));             // T2=m
    p.ap(RowSet::b13());                          // w = m AND w1 -> T3
    p.aap(d(onext_row), RowRef::t(0));            // T0=Onext
    p.aap(RowSet::b15(), d(onext_row));           // Onext OR w
}

} // namespace

void
AmbitCodegen::emitProtectedMaskedUpdate(CheckedProgram &cp,
                                        unsigned dst_row,
                                        unsigned src_row, bool src_neg,
                                        unsigned mask_row) const
{
    const unsigned t2r = layout_.t2Row();
    const unsigned ir1r = layout_.ir1Row();
    const unsigned ir2r = layout_.ir2Row();
    const unsigned fr_rows[3] = {layout_.frRow(), layout_.scratchRow(0),
                                 layout_.scratchRow(1)};

    // Emit c FR syntheses FR_j = ir1 AND NOT ir2 from stored IR rows.
    auto emit_frs = [&](AmbitProgram &p, unsigned ir2_row) {
        for (unsigned j = 0; j < opts_.frChecks; ++j) {
            p.aap(d(ir2_row), RowRef::dccNeg(0)); // cell0=~ir2
            p.aap(d(ir1r), RowRef::t(2));         // T2=ir1
            p.aap(RowRef::c0(), RowRef::t(1));    // T1=0
            p.aap(RowSet::b14(), d(fr_rows[j]));  // FR_j
        }
    };

    auto add_checks = [&](Block &blk, unsigned row_a, bool a_neg,
                          unsigned row_b, bool b_neg) {
        for (unsigned j = 0; j < opts_.frChecks; ++j)
            blk.checks.push_back(FrCheck::xorOf(fr_rows[j], row_a,
                                                a_neg, row_b, b_neg));
    };

    // ---- Block A: ir2a = m AND s -> t2 row, ir1a = m OR s, checked ----
    {
        Block blk;
        emitAndOr(blk.prog, mask_row, src_row, src_neg, t2r, ir1r);
        emit_frs(blk.prog, t2r);
        add_checks(blk, src_row, src_neg, mask_row, false);
        cp.appendBlock(std::move(blk));
    }

    // ---- Block B: ir2b = dst AND ~m -> ir2 row, ir1b = dst OR ~m ----
    {
        Block blk;
        emitAndOr(blk.prog, dst_row, mask_row, true, ir2r, ir1r);
        emit_frs(blk.prog, ir2r);
        add_checks(blk, dst_row, false, mask_row, true);
        cp.appendBlock(std::move(blk));
    }

    // ---- Commit: dst = t2 OR ir2 (mutually exclusive => XOR) ----
    if (opts_.frChecks >= 2) {
        // Higher-protection configurations also guard the committing
        // OR by duplicate computation; the retry re-reads t2/ir2,
        // which the commit never overwrites.
        Block blk;
        emitOr(blk.prog, t2r, ir2r, dst_row);
        emitOr(blk.prog, t2r, ir2r, fr_rows[0]);
        blk.checks.push_back(FrCheck::equalRows(dst_row, fr_rows[0]));
        cp.appendBlock(std::move(blk));
    } else {
        AmbitProgram p;
        emitOr(p, t2r, ir2r, dst_row);
        cp.appendUnchecked(p);
    }
}

CheckedProgram
AmbitCodegen::protectedStep(unsigned digit, unsigned k,
                            unsigned mask_row, bool decrement) const
{
    // Decrement by k is the state shift of an increment by 2n-k.
    const unsigned n = layout_.bitsPerDigit();
    const unsigned eff_k = decrement ? 2 * n - k : k;
    const bool over = eff_k > n;
    const unsigned kk = eff_k == n ? 1 : (over ? eff_k - n : eff_k);

    // Save the feedback sources b[n-kk .. n-1] into theta rows; the
    // old MSB is theta[kk-1].
    CheckedProgram cp;
    AmbitProgram saves;
    for (unsigned j = 0; j < kk; ++j)
        emitCopy(saves, layout_.bitRow(digit, n - kk + j),
                 layout_.thetaRow(j));
    cp.appendUnchecked(saves);

    if (eff_k == n) {
        // Adding n complements every bit under the mask.
        for (unsigned i = 0; i < n; ++i)
            emitProtectedMaskedUpdate(cp, layout_.bitRow(digit, i),
                                      layout_.bitRow(digit, i), true,
                                      mask_row);
    } else {
        // Shift toward the MSB, descending so sources are read before
        // they are overwritten, then feed the low kk bits back from
        // the thetas. For eff_k > n every bit is also complemented.
        for (unsigned i = n; i-- > kk;)
            emitProtectedMaskedUpdate(cp, layout_.bitRow(digit, i),
                                      layout_.bitRow(digit, i - kk),
                                      over, mask_row);
        for (unsigned i = 0; i < kk; ++i)
            emitProtectedMaskedUpdate(cp, layout_.bitRow(digit, i),
                                      layout_.thetaRow(i), !over,
                                      mask_row);
    }

    // Borrow = NOT wrap(eff_k): where the increment's wrap is
    // old AND NOT new, the borrow is ~old OR new, and vice versa.
    const unsigned old_msb = layout_.thetaRow(kk - 1);
    const unsigned new_msb = layout_.bitRow(digit, n - 1);
    AmbitProgram wrap;
    if (decrement)
        emitWrapDetect(wrap, new_msb, old_msb, layout_.onextRow(digit),
                       mask_row, /*or_form=*/eff_k <= n);
    else
        emitWrapDetect(wrap, old_msb, new_msb, layout_.onextRow(digit),
                       mask_row, /*or_form=*/over);
    cp.appendUnchecked(wrap);
    return cp;
}

// ---------------------------------------------------------------------
// Unprotected k-ary steps
// ---------------------------------------------------------------------

namespace {

/**
 * dst = MAJ(m AND s, dst, NOT m OR s), s = (src_neg ? NOT src : src):
 * s where m is 1, dst where m is 0 (Sec. 4.2). Both inner TRAs read
 * paired loads: s sits in T2 and T3, B9 puts m into T1 and ~m into
 * DCC1, and B8 puts 1 into T0 and 0 into DCC0, so B14 = MAJ(0, m, s)
 * and B15 = MAJ(~m, 1, s). dst is loaded through B10 after them, so
 * T3 ends holding the old dst for the next update of a cycle walk,
 * and T0..T2 the new one. @p src is a D row or T3: 7 commands for
 * s = src, 8 for s = ~src.
 */
void
emitMaskedUpdate(AmbitProgram &p, unsigned dst_row, RowRef src,
                 bool src_neg, unsigned mask_row)
{
    if (src_neg) {
        p.aap(src, RowRef::dccNeg(0));        // cell0=~src
        p.aap(RowRef::dcc(0), RowSet::b10()); // T2=T3=~src
    } else if (src == RowRef::t(3)) {
        p.aap(src, RowRef::t(2));             // T2=T3=src
    } else {
        p.aap(src, RowSet::b10());            // T2=T3=src
    }
    p.aap(d(mask_row), RowSet::b9());         // T1=m, cell1=~m
    p.aap(RowRef::c1(), RowSet::b8());        // T0=1, cell0=0
    p.ap(RowSet::b14());                      // T1,T2 = m AND s
    p.ap(RowSet::b15());                      // T0,T3 = ~m OR s
    p.aap(d(dst_row), RowSet::b10());         // T2=T3=dst
    p.aap(RowSet::b12(), d(dst_row));         // dst = MAJ(T0, T1, dst)
}

/**
 * dst = (NOT m AND dst) OR (m AND NOT dst): the masked NOT of adding
 * n. B14 = MAJ(~dst, m, 0) and B15 = MAJ(~m, dst, 0) from paired
 * loads, OR-ed over a 1. 7 commands.
 */
void
emitMaskedNot(AmbitProgram &p, unsigned dst_row, unsigned mask_row)
{
    p.aap(d(dst_row), RowSet::b8());    // T0=dst, cell0=~dst
    p.aap(d(mask_row), RowSet::b9());   // T1=m, cell1=~m
    p.aap(RowRef::c0(), RowSet::b10()); // T2=T3=0
    p.ap(RowSet::b14());                // T1,T2 = m AND ~dst
    p.ap(RowSet::b15());                // T0,T3 = ~m AND dst
    p.aap(RowRef::c1(), RowRef::t(2));  // T2=1
    p.aap(RowSet::b12(), d(dst_row));   // dst = T0 OR T1
}

/**
 * Onext |= the wrap of adding n (the borrow of subtracting n), run
 * before the masked NOTs: m AND msb (m AND NOT msb). 6 commands.
 */
void
emitFlipWrap(AmbitProgram &p, unsigned msb_row, unsigned onext_row,
             unsigned mask_row, bool borrow)
{
    if (!borrow) {
        // MAJ(Onext, MAJ(m, msb, 0), 1).
        p.aap(RowRef::c1(), RowSet::b8());  // T0=1, cell0=0
        p.aap(d(mask_row), RowRef::t(1));   // T1=m
        p.aap(d(msb_row), RowRef::t(2));    // T2=msb
        p.ap(RowSet::b14());                // T1,T2 = m AND msb
        p.aap(d(onext_row), RowRef::t(2));  // T2=Onext
        p.aap(RowSet::b12(), d(onext_row));
        return;
    }
    // MAJ(Onext, NOT msb, m OR msb).
    p.aap(d(msb_row), RowSet::b8());        // T0=msb, cell0=~msb
    p.aap(d(mask_row), RowRef::t(1));       // T1=m
    p.aap(RowRef::c1(), RowRef::t(2));      // T2=1
    p.ap(RowSet::b12());                    // T1,T2 = m OR msb
    p.aap(d(onext_row), RowRef::t(1));      // T1=Onext
    p.aap(RowSet::b14(), d(onext_row));
}

/**
 * Onext |= the wrap (borrow) of a cycle walk, read from the B rows it
 * leaves: T3 = old MSB, T0 = new MSB. 6 commands.
 *  - and-form (k < n): w = old AND NOT new (borrow: NOT old AND new),
 *    0 where m is 0 because old = new there; Onext = MAJ(Onext, w, 1).
 *  - or-form (k > n): x = old OR NOT new (borrow: NOT old OR new) and
 *    Onext = MAJ(Onext, m, x): x is 1 where m is 0, so Onext keeps its
 *    value there, and Onext OR x where m is 1.
 * The increment negates T0 (new), the borrow T3 (old).
 */
void
emitWrapFromBRows(AmbitProgram &p, unsigned onext_row,
                  unsigned mask_row, bool or_form, bool borrow)
{
    const RowRef negated = borrow ? RowRef::t(3) : RowRef::t(0);
    p.aap(negated, RowRef::dccNeg(1));     // cell1=~negated
    p.aap(or_form ? RowRef::c1() : RowRef::c0(), negated);
    p.ap(RowSet::b15());                   // T0 = w (x)
    p.aap(d(onext_row), RowRef::t(1));     // T1=Onext
    p.aap(or_form ? d(mask_row) : RowRef::c1(), RowRef::t(2));
    p.aap(RowSet::b12(), d(onext_row));
}

} // namespace

CheckedProgram
AmbitCodegen::cycleStep(unsigned digit, unsigned k, unsigned mask_row,
                        bool decrement) const
{
    const unsigned n = layout_.bitsPerDigit();
    const unsigned eff_k = decrement ? 2 * n - k : k;
    const unsigned onext = layout_.onextRow(digit);
    AmbitProgram p;

    if (eff_k == n) {
        emitFlipWrap(p, layout_.bitRow(digit, n - 1), onext, mask_row,
                     decrement);
        for (unsigned i = 0; i < n; ++i)
            emitMaskedNot(p, layout_.bitRow(digit, i), mask_row);
    } else {
        // New bit i is old bit (i - kk) mod n, complemented on the
        // feedback edges i < kk (every other edge when eff_k > n).
        // Each of the gcd(n, kk) cycles of that rotation is walked
        // forward: only its first source is read from a D row, the
        // rest from T3, which every update leaves holding its old
        // dst. The MSB's cycle runs last, from bit kk-1, so the walk
        // ends with T3 = old MSB and T0 = new MSB.
        const bool over = eff_k > n;
        const unsigned kk = over ? eff_k - n : eff_k;
        const unsigned cycles = std::gcd(n, kk);
        for (unsigned c = 0; c < cycles; ++c) {
            unsigned dst = kk - cycles + c;
            RowRef src = d(layout_.bitRow(digit, (dst + n - kk) % n));
            for (unsigned j = 0; j < n / cycles; ++j) {
                emitMaskedUpdate(p, layout_.bitRow(digit, dst), src,
                                 (dst < kk) != over, mask_row);
                src = RowRef::t(3);
                dst = (dst + kk) % n;
            }
        }
        emitWrapFromBRows(p, onext, mask_row, /*or_form=*/k > n,
                          decrement);
    }

    CheckedProgram cp;
    cp.appendUnchecked(p);
    return cp;
}

CheckedProgram
AmbitCodegen::karyIncrement(unsigned digit, unsigned k,
                            unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(digit < layout_.numDigits(), "digit out of range");
    C2M_ASSERT(k >= 1 && k < 2 * n, "increment step ", k,
               " out of range for radix ", 2 * n);
    return opts_.protect ? protectedStep(digit, k, mask_row, false)
                         : cycleStep(digit, k, mask_row, false);
}

CheckedProgram
AmbitCodegen::karyDecrement(unsigned digit, unsigned k,
                            unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(digit < layout_.numDigits(), "digit out of range");
    C2M_ASSERT(k >= 1 && k < 2 * n, "decrement step ", k,
               " out of range for radix ", 2 * n);
    return opts_.protect ? protectedStep(digit, k, mask_row, true)
                         : cycleStep(digit, k, mask_row, true);
}

CheckedProgram
AmbitCodegen::carryRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "carry ripple out of the top digit");
    CheckedProgram cp =
        karyIncrement(digit + 1, 1, layout_.onextRow(digit));
    AmbitProgram clear;
    clear.aap(RowRef::c0(), d(layout_.onextRow(digit)));
    cp.appendUnchecked(clear);
    return cp;
}

CheckedProgram
AmbitCodegen::borrowRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "borrow ripple out of the top digit");
    CheckedProgram cp =
        karyDecrement(digit + 1, 1, layout_.onextRow(digit));
    AmbitProgram clear;
    clear.aap(RowRef::c0(), d(layout_.onextRow(digit)));
    cp.appendUnchecked(clear);
    return cp;
}

cim::AmbitProgram
AmbitCodegen::clearCounters() const
{
    AmbitProgram p;
    for (unsigned dd = 0; dd < layout_.numDigits(); ++dd) {
        for (unsigned i = 0; i < layout_.bitsPerDigit(); ++i)
            p.aap(RowRef::c0(), d(layout_.bitRow(dd, i)));
        p.aap(RowRef::c0(), d(layout_.onextRow(dd)));
    }
    p.aap(RowRef::c0(), d(layout_.osignRow()));
    return p;
}

} // namespace uprog
} // namespace c2m
