#include "uprog/codegen_rca.hpp"

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

/**
 * TRA over T0, T1 and DCC0: MAJ(a, x_b, ~c_in) once DCC0 holds ~c_in.
 * Not an address of Ambit's B-group table (its B11 is {T0, T3}).
 */
RowSet
traT0T1Dcc0()
{
    return {RowRef::t(0), RowRef::t(1), RowRef::dcc(0)};
}

} // namespace

RcaCodegen::RcaCodegen(RcaLayout layout, Options opts)
    : layout_(layout), opts_(opts)
{
    C2M_ASSERT(layout_.width >= 1 && layout_.width <= 64,
               "accumulator width out of range");
}

void
RcaCodegen::emitFullAdder(CheckedProgram &cp, unsigned bit,
                          bool addend_bit, unsigned mask_row,
                          unsigned carry_parity) const
{
    const unsigned a_row = layout_.bitRow(bit);
    const unsigned cin = layout_.carryRow(carry_parity);
    const unsigned cout = layout_.carryRow(carry_parity + 1);

    // The addend row: the mask itself when bit b of x is 1 (adding m
    // adds 1 exactly where the mask is set), constant zero otherwise.
    auto addend = [&]() -> RowRef {
        return addend_bit ? d(mask_row) : RowRef::c0();
    };

    if (!opts_.protect) {
        AmbitProgram p;
        // c_out = MAJ(a, x_b, c_in)
        p.aap(d(a_row), RowRef::t(0));
        p.aap(addend(), RowRef::t(1));
        p.aap(d(cin), RowRef::t(2));
        p.aap(RowSet::b12(), d(cout));
        // t = MAJ(a, x_b, ~c_in)
        p.aap(d(a_row), RowRef::t(0));
        p.aap(addend(), RowRef::t(1));
        p.aap(d(cin), RowRef::dccNeg(0));       // cell0 = ~c_in
        p.aap(traT0T1Dcc0(), RowRef::t(2));     // t -> T2
        // s = MAJ(~c_out, c_in, t)
        p.aap(d(cout), RowRef::dccNeg(0));      // cell0 = ~c_out
        p.aap(d(cin), RowRef::t(1));
        p.aap(RowSet{RowRef::t(1), RowRef::t(2), RowRef::dcc(0)},
              d(a_row));
        cp.appendUnchecked(p);
        return;
    }

    // Protected: compute carry, t and sum twice each into distinct
    // rows; the ECC check compares the duplicates, and the commit
    // (writing the accumulator bit) happens only after they agree.
    Block blk;
    AmbitProgram &p = blk.prog;
    auto emit_carry = [&](unsigned dst) {
        p.aap(d(a_row), RowRef::t(0));
        p.aap(addend(), RowRef::t(1));
        p.aap(d(cin), RowRef::t(2));
        p.aap(RowSet::b12(), d(dst));
    };
    auto emit_t = [&](unsigned dst) {
        p.aap(d(a_row), RowRef::t(0));
        p.aap(addend(), RowRef::t(1));
        p.aap(d(cin), RowRef::dccNeg(0));
        p.aap(traT0T1Dcc0(), d(dst));
    };
    auto emit_sum = [&](unsigned carry_src, unsigned t_src,
                        unsigned dst) {
        p.aap(d(carry_src), RowRef::dccNeg(0)); // cell0 = ~c_out
        p.aap(d(cin), RowRef::t(1));
        p.aap(d(t_src), RowRef::t(2));
        p.aap(RowSet{RowRef::t(1), RowRef::t(2), RowRef::dcc(0)},
              d(dst));
    };

    emit_carry(cout);
    emit_carry(layout_.carry2Row());
    emit_t(layout_.tRow());
    emit_t(layout_.t2Row());
    emit_sum(cout, layout_.tRow(), layout_.sum1Row());
    emit_sum(layout_.carry2Row(), layout_.t2Row(), layout_.sum2Row());

    blk.checks.push_back(
        FrCheck::equalRows(cout, layout_.carry2Row()));
    blk.checks.push_back(
        FrCheck::equalRows(layout_.tRow(), layout_.t2Row()));
    blk.checks.push_back(
        FrCheck::equalRows(layout_.sum1Row(), layout_.sum2Row()));
    cp.appendBlock(std::move(blk));

    AmbitProgram commit;
    commit.aap(d(layout_.sum1Row()), d(a_row));
    cp.appendUnchecked(commit);
}

CheckedProgram
RcaCodegen::maskedAccumulate(uint64_t addend, unsigned mask_row) const
{
    if (layout_.width < 64)
        C2M_ASSERT(addend < (1ULL << layout_.width),
                   "addend does not fit the accumulator");

    CheckedProgram cp;
    AmbitProgram init;
    init.aap(RowRef::c0(), d(layout_.carryRow(0)));
    cp.appendUnchecked(init);

    for (unsigned b = 0; b < layout_.width; ++b)
        emitFullAdder(cp, b, (addend >> b) & 1, mask_row, b);
    return cp;
}

cim::AmbitProgram
RcaCodegen::clearAccumulators() const
{
    AmbitProgram p;
    for (unsigned b = 0; b < layout_.width; ++b)
        p.aap(RowRef::c0(), d(layout_.bitRow(b)));
    p.aap(RowRef::c0(), d(layout_.carryRow(0)));
    p.aap(RowRef::c0(), d(layout_.carryRow(1)));
    return p;
}

} // namespace uprog
} // namespace c2m
