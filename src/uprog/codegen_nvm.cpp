#include "uprog/codegen_nvm.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace uprog {

using cim::NvmProgram;
using cim::NvmRef;
using cim::NvmTech;

NvmCodegen::NvmCodegen(jc::CounterLayout layout, cim::NvmTech tech)
    : layout_(layout), tech_(tech)
{
}

void
NvmCodegen::emitCopy(NvmProgram &p, unsigned src, unsigned dst) const
{
    if (tech_ == NvmTech::Pinatubo) {
        p.copy(dst, NvmRef::of(src));
        return;
    }
    // MAGIC: copy via double NOR through a scratch row.
    const unsigned tmp = layout_.frRow();
    p.nor(tmp, NvmRef::of(src), NvmRef::of(src));
    p.nor(dst, NvmRef::of(tmp), NvmRef::of(tmp));
}

void
NvmCodegen::emitMaskedUpdate(NvmProgram &p, unsigned dst, unsigned src,
                             bool src_neg, unsigned mask,
                             unsigned not_m_row) const
{
    const unsigned o1 = layout_.ir1Row();
    const unsigned o2 = layout_.ir2Row();

    if (tech_ == NvmTech::Pinatubo) {
        // Fig. 10a: two ANDs (negation is free in sensing) and an OR.
        p.and_(o1, NvmRef::of(mask),
               src_neg ? NvmRef::inv(src) : NvmRef::of(src));
        p.and_(o2, NvmRef::inv(mask), NvmRef::of(dst));
        p.or_(dst, NvmRef::of(o1), NvmRef::of(o2));
        return;
    }

    // Fig. 10b (MAGIC, NOR-only); ~m is cached in not_m_row.
    const unsigned tmp = layout_.t2Row();
    if (src_neg) {
        // r1 = m AND ~src = NOR(~m, src)
        p.nor(o1, NvmRef::of(not_m_row), NvmRef::of(src));
    } else {
        // r1 = m AND src = NOR(~m, ~src)
        p.nor(tmp, NvmRef::of(src), NvmRef::of(src));
        p.nor(o1, NvmRef::of(not_m_row), NvmRef::of(tmp));
    }
    // r2 = dst AND ~m = NOR(~dst, m)
    p.nor(tmp, NvmRef::of(dst), NvmRef::of(dst));
    p.nor(o2, NvmRef::of(tmp), NvmRef::of(mask));
    // dst = r1 OR r2 = NOT NOR(r1, r2)
    p.nor(tmp, NvmRef::of(o1), NvmRef::of(o2));
    p.nor(dst, NvmRef::of(tmp), NvmRef::of(tmp));
}

void
NvmCodegen::emitWrapDetect(NvmProgram &p, unsigned old_msb,
                           unsigned new_msb, unsigned onext,
                           unsigned mask, bool or_form) const
{
    const unsigned w = layout_.frRow();
    const unsigned tmp = layout_.t2Row();

    if (tech_ == NvmTech::Pinatubo) {
        if (!or_form) {
            p.and_(w, NvmRef::of(old_msb), NvmRef::inv(new_msb));
            p.or_(onext, NvmRef::of(onext), NvmRef::of(w));
        } else {
            p.or_(w, NvmRef::of(old_msb), NvmRef::inv(new_msb));
            p.and_(w, NvmRef::of(w), NvmRef::of(mask));
            p.or_(onext, NvmRef::of(onext), NvmRef::of(w));
        }
        return;
    }

    // MAGIC.
    const unsigned not_m = layout_.scratchRow(2);
    if (!or_form) {
        // w = old AND ~new = NOR(~old, new)
        p.nor(tmp, NvmRef::of(old_msb), NvmRef::of(old_msb));
        p.nor(w, NvmRef::of(tmp), NvmRef::of(new_msb));
    } else {
        // w1 = old OR ~new; w = w1 AND m = NOR(~w1, ~m);
        // ~w1 = ~old AND new = NOR(old, ~new)
        p.nor(tmp, NvmRef::of(new_msb), NvmRef::of(new_msb));
        p.nor(tmp, NvmRef::of(old_msb), NvmRef::of(tmp));
        p.nor(w, NvmRef::of(tmp), NvmRef::of(not_m));
    }
    p.nor(tmp, NvmRef::of(onext), NvmRef::of(w));
    p.nor(onext, NvmRef::of(tmp), NvmRef::of(tmp));
}

void
NvmCodegen::emitShiftedUpdate(NvmProgram &p, unsigned digit,
                              unsigned eff_k, unsigned mask_row,
                              unsigned not_m_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    const bool eq_n = (eff_k == n);
    const bool over = eff_k > n;
    const unsigned kk = eq_n ? 1 : (over ? eff_k - n : eff_k);

    if (eq_n) {
        emitCopy(p, layout_.bitRow(digit, n - 1), layout_.thetaRow(0));
        for (unsigned i = 0; i < n; ++i)
            emitMaskedUpdate(p, layout_.bitRow(digit, i),
                             layout_.bitRow(digit, i), true, mask_row,
                             not_m_row);
        return;
    }
    for (unsigned j = 0; j < kk; ++j)
        emitCopy(p, layout_.bitRow(digit, n - kk + j),
                 layout_.thetaRow(j));
    for (unsigned i = n; i-- > kk;)
        emitMaskedUpdate(p, layout_.bitRow(digit, i),
                         layout_.bitRow(digit, i - kk), over, mask_row,
                         not_m_row);
    for (unsigned i = 0; i < kk; ++i)
        emitMaskedUpdate(p, layout_.bitRow(digit, i),
                         layout_.thetaRow(i), !over, mask_row,
                         not_m_row);
}

cim::NvmProgram
NvmCodegen::karyIncrement(unsigned digit, unsigned k,
                          unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(k >= 1 && k < 2 * n, "increment step out of range");

    NvmProgram p;
    const unsigned not_m = layout_.scratchRow(2);
    if (tech_ == NvmTech::Magic)
        p.nor(not_m, NvmRef::of(mask_row), NvmRef::of(mask_row));

    emitShiftedUpdate(p, digit, k, mask_row, not_m);

    const unsigned kk = k == n ? 1 : (k > n ? k - n : k);
    emitWrapDetect(p, layout_.thetaRow(k == n ? 0 : kk - 1),
                   layout_.bitRow(digit, n - 1),
                   layout_.onextRow(digit), mask_row,
                   /*or_form=*/k > n);
    return p;
}

cim::NvmProgram
NvmCodegen::karyDecrement(unsigned digit, unsigned k,
                          unsigned mask_row) const
{
    const unsigned n = layout_.bitsPerDigit();
    C2M_ASSERT(k >= 1 && k < 2 * n, "decrement step out of range");

    // Decrement by k is the state shift of an increment by 2n-k.
    const unsigned eff_k = 2 * n - k;
    NvmProgram p;
    const unsigned not_m = layout_.scratchRow(2);
    if (tech_ == NvmTech::Magic)
        p.nor(not_m, NvmRef::of(mask_row), NvmRef::of(mask_row));

    emitShiftedUpdate(p, digit, eff_k, mask_row, not_m);

    // Borrow = NOT wrap(eff_k), realized by swapping old/new operands
    // (same derivation as the Ambit generator).
    const unsigned kk =
        eff_k == n ? 1 : (eff_k > n ? eff_k - n : eff_k);
    const unsigned old_msb = layout_.thetaRow(eff_k == n ? 0 : kk - 1);
    const unsigned new_msb = layout_.bitRow(digit, n - 1);
    emitWrapDetect(p, new_msb, old_msb, layout_.onextRow(digit),
                   mask_row, /*or_form=*/eff_k <= n);
    return p;
}

cim::NvmProgram
NvmCodegen::carryRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "carry ripple out of the top digit");
    NvmProgram p =
        karyIncrement(digit + 1, 1, layout_.onextRow(digit));
    // Clear the consumed Onext: AND with constant zero (Pinatubo) or
    // NOR with all-ones scratch (MAGIC); both modeled as one op via
    // NOR(x, ~x) = 0 trick to stay within the available op set.
    emitClearRow(p, layout_.onextRow(digit));
    return p;
}

cim::NvmProgram
NvmCodegen::borrowRipple(unsigned digit) const
{
    C2M_ASSERT(digit + 1 < layout_.numDigits(),
               "borrow ripple out of the top digit");
    NvmProgram p =
        karyDecrement(digit + 1, 1, layout_.onextRow(digit));
    emitClearRow(p, layout_.onextRow(digit));
    return p;
}

void
NvmCodegen::emitClearRow(NvmProgram &p, unsigned row) const
{
    if (tech_ == NvmTech::Pinatubo) {
        // row = row AND ~row = 0 (negation is free in sensing).
        p.and_(row, NvmRef::of(row), NvmRef::inv(row));
        return;
    }
    // MAGIC: tmp = ~row; row = NOR(row, ~row) = 0.
    const unsigned tmp = layout_.t2Row();
    p.nor(tmp, NvmRef::of(row), NvmRef::of(row));
    p.nor(row, NvmRef::of(row), NvmRef::of(tmp));
}

cim::NvmProgram
NvmCodegen::clearCounters() const
{
    NvmProgram p;
    for (unsigned dd = 0; dd < layout_.numDigits(); ++dd) {
        for (unsigned i = 0; i < layout_.bitsPerDigit(); ++i)
            emitClearRow(p, layout_.bitRow(dd, i));
        emitClearRow(p, layout_.onextRow(dd));
    }
    emitClearRow(p, layout_.osignRow());
    return p;
}

cim::NvmProgram
NvmCodegen::clearPending(unsigned digit) const
{
    NvmProgram p;
    emitClearRow(p, layout_.onextRow(digit));
    return p;
}

cim::NvmProgram
NvmCodegen::foldTopBorrowIntoSign() const
{
    const unsigned top = layout_.numDigits() - 1;
    const unsigned sign = layout_.osignRow();
    const unsigned pend = layout_.onextRow(top);
    const unsigned o1 = layout_.ir1Row();
    const unsigned o2 = layout_.ir2Row();

    NvmProgram p;
    if (tech_ == NvmTech::Pinatubo) {
        // sign ^= pend via (sign AND ~pend) OR (~sign AND pend).
        p.and_(o1, NvmRef::of(sign), NvmRef::inv(pend));
        p.and_(o2, NvmRef::inv(sign), NvmRef::of(pend));
        p.or_(sign, NvmRef::of(o1), NvmRef::of(o2));
    } else {
        // Classic 5-NOR XOR through the protection scratch rows.
        const unsigned o3 = layout_.frRow();
        p.nor(o1, NvmRef::of(sign), NvmRef::of(pend));
        p.nor(o2, NvmRef::of(sign), NvmRef::of(o1));
        p.nor(o3, NvmRef::of(pend), NvmRef::of(o1));
        p.nor(o1, NvmRef::of(o2), NvmRef::of(o3)); // XNOR
        p.nor(sign, NvmRef::of(o1), NvmRef::of(o1));
    }
    emitClearRow(p, pend);
    return p;
}

} // namespace uprog
} // namespace c2m
