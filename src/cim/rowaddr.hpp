#ifndef C2M_CIM_ROWADDR_HPP
#define C2M_CIM_ROWADDR_HPP

/**
 * @file
 * Row operand model and command ISA for Ambit-style CIM (Sec. 2.2).
 *
 * A subarray's row-address space is split into three groups (Fig. 1b):
 *
 *  - B-group: four temporary rows T0..T3 and two dual-contact cells
 *    DCC0/DCC1. A DCC exposes a positive port (reads/writes the cell)
 *    and a negative port (reads/writes the complement), which is how
 *    Ambit realizes NOT for free during row copies.
 *  - C-group: constant rows C0 (all zeros) and C1 (all ones).
 *  - D-group: the data rows (counters, masks, operands).
 *
 * The B-group's 16 addresses map to sets of 1, 2 or 3 simultaneously
 * activated rows; a 3-row activation (TRA) computes MAJ3 destructively
 * (all three rows end up holding the result). We model activation sets
 * directly as RowSet so muPrograms stay readable. Ambit's B-group
 * table (Seshadri et al., MICRO'17) is
 *
 *   B0..B3 T0..T3       B4 DCC0           B5 ~DCC0     B6 DCC1
 *   B7 ~DCC1            B8 {~DCC0, T0}    B9 {~DCC1, T1}
 *   B10 {T2, T3}        B11 {T0, T3}      B12 {T0, T1, T2}
 *   B13 {T1, T2, T3}    B14 {DCC0, T1, T2}
 *   B15 {DCC1, T0, T3}
 *
 * and the multi-row addresses the generated sequences use are named
 * constructors below.
 *
 * Commands:
 *  - AAP src, dst ("activate-activate-precharge"): resolve src on the
 *    bitlines (computing MAJ3 if src is a triple), then activate dst to
 *    overwrite its rows with that value (complemented through negative
 *    DCC ports), then precharge.
 *  - AP addr ("activate-precharge"): a bare multi-row activation; for
 *    a triple this leaves MAJ3 in all three activated rows.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace c2m {
namespace cim {

/** One row operand. */
struct RowRef
{
    enum class Kind : uint8_t
    {
        Data,    ///< D-group row (index = row number)
        T,       ///< B-group temporary (index in 0..3)
        DccPos,  ///< DCC cell through the positive port (index 0..1)
        DccNeg,  ///< DCC cell through the negative port (index 0..1)
        C0,      ///< constant zero row
        C1,      ///< constant one row
    };

    Kind kind = Kind::Data;
    uint32_t index = 0;

    static RowRef data(uint32_t row) { return {Kind::Data, row}; }
    static RowRef t(uint32_t i) { return {Kind::T, i}; }
    static RowRef dcc(uint32_t i) { return {Kind::DccPos, i}; }
    static RowRef dccNeg(uint32_t i) { return {Kind::DccNeg, i}; }
    static RowRef c0() { return {Kind::C0, 0}; }
    static RowRef c1() { return {Kind::C1, 0}; }

    bool operator==(const RowRef &o) const
    {
        return kind == o.kind && index == o.index;
    }

    std::string toString() const;
};

/** Set of rows activated together (1, 2 or 3 rows). */
struct RowSet
{
    RowRef rows[3];
    uint8_t count = 0;

    RowSet() = default;
    RowSet(RowRef a);                          // NOLINT(implicit)
    RowSet(RowRef a, RowRef b);
    RowSet(RowRef a, RowRef b, RowRef c);

    bool isTriple() const { return count == 3; }

    std::string toString() const;

    // -- Ambit B-group addresses used by the generated programs --

    /** B8: write v into T0 and v-bar into DCC0. */
    static RowSet b8() { return {RowRef::t(0), RowRef::dccNeg(0)}; }
    /** B9: write v into T1 and v-bar into DCC1. */
    static RowSet b9() { return {RowRef::t(1), RowRef::dccNeg(1)}; }
    /** B10: write v into T2 and T3. */
    static RowSet b10() { return {RowRef::t(2), RowRef::t(3)}; }
    /** B12: TRA over T0, T1, T2. */
    static RowSet b12()
    {
        return {RowRef::t(0), RowRef::t(1), RowRef::t(2)};
    }
    /** B13: TRA over T1, T2, T3. */
    static RowSet b13()
    {
        return {RowRef::t(1), RowRef::t(2), RowRef::t(3)};
    }
    /** B14: TRA over DCC0, T1, T2. */
    static RowSet b14()
    {
        return {RowRef::dcc(0), RowRef::t(1), RowRef::t(2)};
    }
    /** B15: TRA over DCC1, T0, T3. */
    static RowSet b15()
    {
        return {RowRef::dcc(1), RowRef::t(0), RowRef::t(3)};
    }
};

/** One Ambit command. */
struct AmbitOp
{
    enum class Kind : uint8_t { AAP, AP };

    Kind kind = Kind::AAP;
    RowSet src;
    RowSet dst;   ///< unused for AP

    static AmbitOp aap(RowSet src, RowSet dst)
    {
        return {Kind::AAP, src, dst};
    }

    static AmbitOp ap(RowSet set) { return {Kind::AP, set, {}}; }

    /** Number of row activations this command issues (2 for AAP). */
    unsigned activations() const
    {
        return kind == Kind::AAP ? 2 : 1;
    }

    std::string toString() const;
};

/** A straight-line sequence of Ambit commands. */
struct AmbitProgram
{
    std::vector<AmbitOp> ops;

    void aap(RowSet src, RowSet dst)
    {
        ops.push_back(AmbitOp::aap(src, dst));
    }

    void ap(RowSet set) { ops.push_back(AmbitOp::ap(set)); }

    void append(const AmbitProgram &other)
    {
        ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    }

    size_t size() const { return ops.size(); }
    bool empty() const { return ops.empty(); }

    /** Commands whose source is a triple (MAJ3 computations). */
    size_t traCount() const;

    std::string toString() const;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_ROWADDR_HPP
