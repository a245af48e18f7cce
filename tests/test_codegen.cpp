/**
 * @file
 * Bit-exact equivalence of the generated Ambit muPrograms against the
 * golden Johnson-counter model: masked k-ary increments/decrements
 * with overflow/underflow detection (Alg. 1, Fig. 6b), carry/borrow
 * rippling, and the generic row-logic emitters -- swept over the
 * paper's radix range and every k.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cim/ambit.hpp"
#include "common/rng.hpp"
#include "jc/johnson.hpp"
#include "jc/layout.hpp"
#include "uprog/codegen_ambit.hpp"

using namespace c2m;

namespace {

struct Harness
{
    jc::CounterLayout layout;
    unsigned maskRow;
    cim::AmbitSubarray sub;
    uprog::AmbitCodegen gen;

    Harness(unsigned radix, unsigned capacity_bits, size_t cols,
            uprog::CodegenOptions opts = {})
        : layout(radix, capacity_bits, 0),
          maskRow(layout.endRow()),
          sub(layout.endRow() + 4, cols),
          gen(layout, opts)
    {
    }

    unsigned n() const { return layout.bitsPerDigit(); }

    void
    setDigit(unsigned digit, size_t col, unsigned value)
    {
        const uint64_t bits = jc::encode(n(), value);
        for (unsigned i = 0; i < n(); ++i)
            sub.rawRow(layout.bitRow(digit, i))
                .set(col, (bits >> i) & 1);
    }

    int
    getDigit(unsigned digit, size_t col)
    {
        uint64_t bits = 0;
        for (unsigned i = 0; i < n(); ++i)
            if (sub.peekRow(layout.bitRow(digit, i)).get(col))
                bits |= 1ULL << i;
        return jc::decode(n(), bits);
    }

    void
    setMask(size_t col, bool v)
    {
        sub.rawRow(maskRow).set(col, v);
    }

    bool
    onext(unsigned digit, size_t col)
    {
        return sub.peekRow(layout.onextRow(digit)).get(col);
    }

    /** Column of (value, mask bit, Onext-in) in fillSweep's layout. */
    static size_t
    sweepCol(unsigned v, bool m, bool onext_in)
    {
        return 4 * size_t{v} + 2 * m + onext_in;
    }

    /**
     * Digit 0 holds every value once per (mask bit, Onext-in) pair:
     * 4 x radix columns.
     */
    void
    fillSweep()
    {
        for (unsigned v = 0; v < layout.radix(); ++v)
            for (const bool m : {false, true})
                for (const bool o : {false, true}) {
                    const size_t c = sweepCol(v, m, o);
                    setDigit(0, c, v);
                    setMask(c, m);
                    sub.rawRow(layout.onextRow(0)).set(c, o);
                }
    }

    void
    run(const uprog::CheckedProgram &prog)
    {
        for (const auto &b : prog.blocks)
            sub.run(b.prog);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Generic row logic
// ---------------------------------------------------------------------

TEST(RowLogic, CopyNotAndOrAndNot)
{
    cim::AmbitSubarray sub(6, 8);
    sub.rawRow(0) = BitVector::fromString("11001010");
    sub.rawRow(1) = BitVector::fromString("10100110");

    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitCopy(p, 0, 2);
    uprog::AmbitCodegen::emitNot(p, 0, 3);
    uprog::AmbitCodegen::emitOr(p, 0, 1, 4);
    uprog::AmbitCodegen::emitAnd(p, 0, 1, 5);
    sub.run(p);

    EXPECT_EQ(sub.peekRow(2).toString(), "11001010");
    EXPECT_EQ(sub.peekRow(3).toString(), "00110101");
    EXPECT_EQ(sub.peekRow(4).toString(), "11101110");
    EXPECT_EQ(sub.peekRow(5).toString(), "10000010");

    cim::AmbitProgram q;
    uprog::AmbitCodegen::emitAndNot(q, 0, 1, 2);
    sub.run(q);
    EXPECT_EQ(sub.peekRow(2).toString(), "01001000");
}

// ---------------------------------------------------------------------
// Parameterized sweep: (radix, k) for increments
// ---------------------------------------------------------------------

class KaryIncrement
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(KaryIncrement, MatchesGoldenModelUnderMask)
{
    const unsigned radix = std::get<0>(GetParam());
    const unsigned k = std::get<1>(GetParam());
    const unsigned n = radix / 2;

    // The wrap detects read Onext, so half the columns start with it
    // set: it must end as Onext-in OR wrap where the mask is 1 and
    // keep Onext-in where it is 0.
    Harness h(radix, 16, 4 * radix);
    h.fillSweep();

    h.run(h.gen.karyIncrement(0, k, h.maskRow));

    for (unsigned v = 0; v < radix; ++v)
        for (const bool m : {false, true})
            for (const bool o : {false, true}) {
                const size_t c = Harness::sweepCol(v, m, o);
                const int want = m ? static_cast<int>(jc::add(n, v, k))
                                   : static_cast<int>(v);
                EXPECT_EQ(h.getDigit(0, c), want)
                    << "radix=" << radix << " k=" << k << " v=" << v
                    << " m=" << m << " onext=" << o;
                EXPECT_EQ(h.onext(0, c), o || (m && jc::wraps(n, v, k)))
                    << "radix=" << radix << " k=" << k << " v=" << v
                    << " m=" << m << " onext=" << o;
            }
}

TEST_P(KaryIncrement, DecrementMatchesGoldenModelUnderMask)
{
    const unsigned radix = std::get<0>(GetParam());
    const unsigned k = std::get<1>(GetParam());
    const unsigned n = radix / 2;

    Harness h(radix, 16, 4 * radix);
    h.fillSweep();

    h.run(h.gen.karyDecrement(0, k, h.maskRow));

    for (unsigned v = 0; v < radix; ++v)
        for (const bool m : {false, true})
            for (const bool o : {false, true}) {
                const size_t c = Harness::sweepCol(v, m, o);
                const unsigned want = m ? (v + radix - k) % radix : v;
                EXPECT_EQ(h.getDigit(0, c), static_cast<int>(want))
                    << "radix=" << radix << " k=" << k << " v=" << v
                    << " m=" << m << " onext=" << o;
                EXPECT_EQ(h.onext(0, c),
                          o || (m && jc::borrows(n, v, k)))
                    << "radix=" << radix << " k=" << k << " v=" << v
                    << " m=" << m << " onext=" << o;
            }
}

TEST_P(KaryIncrement, OnextAccumulatesAcrossIncrements)
{
    const unsigned radix = std::get<0>(GetParam());
    const unsigned k = std::get<1>(GetParam());
    const unsigned n = radix / 2;

    Harness h(radix, 16, 4);
    h.setDigit(0, 0, radix - 1); // will wrap on first increment
    h.setMask(0, true);
    h.run(h.gen.karyIncrement(0, k, h.maskRow));
    ASSERT_TRUE(h.onext(0, 0));
    // A second increment that does not wrap must keep Onext set.
    const unsigned v1 = jc::add(n, radix - 1, k);
    if (!jc::wraps(n, v1, k)) {
        h.run(h.gen.karyIncrement(0, k, h.maskRow));
        EXPECT_TRUE(h.onext(0, 0));
        EXPECT_EQ(h.getDigit(0, 0),
                  static_cast<int>(jc::add(n, v1, k)));
    }
}

namespace {

/** Every (radix, k) pair of the sweep with a valid step k < radix. */
std::vector<std::tuple<unsigned, unsigned>>
validRadixSteps()
{
    std::vector<std::tuple<unsigned, unsigned>> out;
    for (unsigned radix : {2u, 4u, 6u, 8u, 10u, 16u, 20u})
        for (unsigned k : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 11u, 15u, 19u})
            if (k < radix)
                out.emplace_back(radix, k);
    return out;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(RadixByK, KaryIncrement,
                         ::testing::ValuesIn(validRadixSteps()));

// ---------------------------------------------------------------------
// Carry rippling
// ---------------------------------------------------------------------

TEST(CarryRipple, MovesPendingOverflowUp)
{
    Harness h(10, 16, 4);
    // Column 0: digit0 pending (Onext set), digit1 = 3.
    h.setDigit(0, 0, 7);
    h.sub.rawRow(h.layout.onextRow(0)).set(0, true);
    h.setDigit(1, 0, 3);
    // Column 1: nothing pending.
    h.setDigit(0, 1, 5);
    h.setDigit(1, 1, 2);

    h.run(h.gen.carryRipple(0));

    EXPECT_EQ(h.getDigit(1, 0), 4);     // received the carry
    EXPECT_FALSE(h.onext(0, 0));        // consumed
    EXPECT_EQ(h.getDigit(0, 0), 7);     // LSD unchanged
    EXPECT_EQ(h.getDigit(1, 1), 2);     // column 1 untouched
    EXPECT_FALSE(h.onext(0, 1));
}

TEST(CarryRipple, CarryIntoFullDigitSetsItsOnext)
{
    Harness h(4, 16, 2);
    h.sub.rawRow(h.layout.onextRow(0)).set(0, true);
    h.setDigit(1, 0, 3); // will wrap to 0 with Onext(1) set
    h.run(h.gen.carryRipple(0));
    EXPECT_EQ(h.getDigit(1, 0), 0);
    EXPECT_TRUE(h.onext(1, 0));
    EXPECT_FALSE(h.onext(0, 0));
}

TEST(BorrowRipple, MovesPendingBorrowUp)
{
    Harness h(10, 16, 2);
    h.sub.rawRow(h.layout.onextRow(0)).set(0, true); // pending borrow
    h.setDigit(1, 0, 3);
    h.run(h.gen.borrowRipple(0));
    EXPECT_EQ(h.getDigit(1, 0), 2);
    EXPECT_FALSE(h.onext(0, 0));
    EXPECT_FALSE(h.onext(1, 0));
}

// ---------------------------------------------------------------------
// Multi-digit end-to-end accumulation at muProgram level
// ---------------------------------------------------------------------

class RadixOnly : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RadixOnly, MultiDigitAccumulationMatchesArithmetic)
{
    const unsigned radix = GetParam();
    Harness h(radix, 16, 8);
    for (size_t col = 0; col < 8; ++col)
        h.setMask(col, col % 2 == 0);

    // Accumulate a few values digit-wise with full rippling.
    const std::vector<uint64_t> values = {1, radix - 1, radix + 3,
                                          2 * radix + 1, 17, 255};
    uint64_t expected = 0;
    for (uint64_t v : values) {
        uint64_t rest = v;
        unsigned pos = 0;
        while (rest != 0) {
            const unsigned k = static_cast<unsigned>(rest % radix);
            if (k != 0)
                h.run(h.gen.karyIncrement(pos, k, h.maskRow));
            rest /= radix;
            ++pos;
        }
        // Full ripple pass.
        for (unsigned d = 0; d + 1 < h.layout.numDigits(); ++d)
            h.run(h.gen.carryRipple(d));
        expected += v;
    }

    for (size_t col = 0; col < 8; ++col) {
        uint64_t got = 0;
        for (unsigned dd = h.layout.numDigits(); dd-- > 0;) {
            const int dv = h.getDigit(dd, col);
            ASSERT_GE(dv, 0) << "invalid JC state";
            got = got * radix + static_cast<unsigned>(dv);
            EXPECT_FALSE(h.onext(dd, col)) << "unresolved overflow";
        }
        EXPECT_EQ(got, col % 2 == 0 ? expected : 0)
            << "radix=" << radix << " col=" << col;
    }
}

TEST_P(RadixOnly, IncrementOpCountNearlyConstantInK)
{
    // Sec. 4.5.1 claims increment-by-k has the same latency as
    // increment-by-one; our strict-destructive codegen adds only one
    // command per complemented update, min(k, 2n-k) of them.
    const unsigned radix = GetParam();
    const unsigned n = radix / 2;
    jc::CounterLayout layout(radix, 16, 0);
    uprog::AmbitCodegen gen(layout, {});
    const uint64_t base = gen.karyIncrement(0, 1, 99).totalOps();
    for (unsigned k = 2; k < radix; ++k) {
        const uint64_t ops = gen.karyIncrement(0, k, 99).totalOps();
        EXPECT_LE(ops, base + 4 * n) << "k=" << k;
        EXPECT_GE(ops + 4 * n, base) << "k=" << k;
    }
}

TEST_P(RadixOnly, ClearCountersZeroesEverything)
{
    const unsigned radix = GetParam();
    Harness h(radix, 16, 4);
    h.setDigit(0, 1, radix - 1);
    h.sub.rawRow(h.layout.onextRow(0)).set(1, true);
    h.sub.run(h.gen.clearCounters());
    EXPECT_EQ(h.getDigit(0, 1), 0);
    EXPECT_FALSE(h.onext(0, 1));
}

INSTANTIATE_TEST_SUITE_P(Radices, RadixOnly,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u, 16u,
                                           20u));

// ---------------------------------------------------------------------
// Cost formulas
// ---------------------------------------------------------------------

TEST(CostFormulas, PaperConstants)
{
    EXPECT_EQ(uprog::AmbitCodegen::paperIncrementOps(5), 42u);
    EXPECT_EQ(uprog::AmbitCodegen::paperProtectedOps(5, 2), 81u);
    EXPECT_EQ(uprog::AmbitCodegen::paperProtectedOps(5, 4), 141u);
    EXPECT_EQ(uprog::AmbitCodegen::paperProtectedOps(5, 6), 201u);
}

TEST(CostFormulas, GeneratedCountsTrackPaperScaling)
{
    // Unprotected: 7 commands per plain-source bit update (the paper's
    // per-bit cost), 8 per complemented one, and a 6-command wrap
    // detect; at k = n, a 6-command wrap and 7-command masked NOTs. So
    // 7n+6+min(k, 2n-k) either way, and a ripple is an increment by
    // one plus the clear: 7n+8 (7n+7 at radix 2, where 1 = n).
    for (unsigned radix = 2; radix <= 20; radix += 2) {
        const unsigned n = radix / 2;
        jc::CounterLayout layout(radix, 16, 0);
        uprog::AmbitCodegen gen(layout, {});
        const auto step = [&](unsigned k) -> uint64_t {
            return 7 * n + 6 + (k == n ? 0 : std::min(k, 2 * n - k));
        };
        for (unsigned k = 1; k < radix; ++k) {
            EXPECT_EQ(gen.karyIncrement(0, k, 99).totalOps(), step(k))
                << "radix=" << radix << " k=" << k;
            EXPECT_EQ(gen.karyDecrement(0, k, 99).totalOps(), step(k))
                << "radix=" << radix << " k=" << k;
        }
        EXPECT_EQ(step(1), n == 1 ? 13u : 7 * n + 7);
        EXPECT_EQ(gen.carryRipple(0).totalOps(), step(1) + 1);
        EXPECT_EQ(gen.borrowRipple(0).totalOps(), step(1) + 1);
    }

    // ECC: per bit, blocks A and B take 7 compute commands and 4 per
    // FR check each, and the commit 4 (8 when duplicated at f >= 2):
    // 14+8f+(f>=2 ? 8 : 4), i.e. 26/38/46. Per step add one theta
    // save per feedback bit and a 7-command and-form or 9-command
    // or-form wrap detect.
    for (unsigned f = 1; f <= 3; ++f) {
        const uint64_t per_bit = 14 + 8 * f + (f >= 2 ? 8 : 4);
        EXPECT_EQ(per_bit, f == 1 ? 26u : f == 2 ? 38u : 46u);
        for (unsigned radix = 2; radix <= 20; radix += 2) {
            const unsigned n = radix / 2;
            jc::CounterLayout layout(radix, 16, 0);
            uprog::AmbitCodegen gen(layout, {true, f});
            for (unsigned k = 1; k < radix; ++k) {
                const auto saves = [&](unsigned eff_k) -> uint64_t {
                    return eff_k == n ? 1 : eff_k > n ? eff_k - n : eff_k;
                };
                const uint64_t inc =
                    saves(k) + n * per_bit + (k > n ? 9 : 7);
                const uint64_t dec =
                    saves(2 * n - k) + n * per_bit + (k >= n ? 9 : 7);
                EXPECT_EQ(gen.karyIncrement(0, k, 99).totalOps(), inc)
                    << "f=" << f << " radix=" << radix << " k=" << k;
                EXPECT_EQ(gen.karyDecrement(0, k, 99).totalOps(), dec)
                    << "f=" << f << " radix=" << radix << " k=" << k;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Activation sets
// ---------------------------------------------------------------------

namespace {

/**
 * True iff @p set is one of Ambit's B-group addresses B0..B15
 * (Seshadri et al., MICRO'17) or a single D-group or C-group row.
 */
bool
isAmbitAddress(const cim::RowSet &set)
{
    using cim::RowRef;
    if (set.count == 1 && (set.rows[0].kind == RowRef::Kind::Data ||
                           set.rows[0].kind == RowRef::Kind::C0 ||
                           set.rows[0].kind == RowRef::Kind::C1))
        return true;
    static const std::vector<cim::RowSet> bGroup = {
        RowRef::t(0), RowRef::t(1), RowRef::t(2), RowRef::t(3),
        RowRef::dcc(0), RowRef::dccNeg(0), RowRef::dcc(1),
        RowRef::dccNeg(1),
        {RowRef::dccNeg(0), RowRef::t(0)},
        {RowRef::dccNeg(1), RowRef::t(1)},
        {RowRef::t(2), RowRef::t(3)},
        {RowRef::t(0), RowRef::t(3)},
        {RowRef::t(0), RowRef::t(1), RowRef::t(2)},
        {RowRef::t(1), RowRef::t(2), RowRef::t(3)},
        {RowRef::dcc(0), RowRef::t(1), RowRef::t(2)},
        {RowRef::dcc(1), RowRef::t(0), RowRef::t(3)},
    };
    return std::any_of(bGroup.begin(), bGroup.end(),
                       [&](const cim::RowSet &b) {
                           return b.count == set.count &&
                                  std::is_permutation(
                                      b.rows, b.rows + b.count, set.rows);
                       });
}

void
expectAmbitAddresses(const cim::AmbitProgram &p, const std::string &what)
{
    for (const cim::AmbitOp &op : p.ops) {
        EXPECT_TRUE(isAmbitAddress(op.src)) << what << ": "
                                            << op.toString();
        if (op.kind == cim::AmbitOp::Kind::AAP) {
            EXPECT_TRUE(isAmbitAddress(op.dst)) << what << ": "
                                                << op.toString();
        }
    }
}

void
expectAmbitAddresses(const uprog::CheckedProgram &cp,
                     const std::string &what)
{
    for (const uprog::Block &b : cp.blocks)
        expectAmbitAddresses(b.prog, what);
}

} // namespace

TEST(ActivationSets, EveryGeneratedSetIsAnAmbitAddress)
{
    // The interpreter activates whatever set a command names; real
    // Ambit decodes only its B-group table, so a program that uses
    // another set could not run on it.
    cim::AmbitProgram logic;
    uprog::AmbitCodegen::emitCopy(logic, 0, 2);
    uprog::AmbitCodegen::emitNot(logic, 0, 3);
    uprog::AmbitCodegen::emitOr(logic, 0, 1, 4);
    uprog::AmbitCodegen::emitAnd(logic, 0, 1, 5);
    uprog::AmbitCodegen::emitAndNot(logic, 0, 1, 2);
    expectAmbitAddresses(logic, "row logic");

    std::vector<uprog::CodegenOptions> modes = {{}};
    for (unsigned fr = 1; fr <= 3; ++fr)
        modes.push_back({true, fr});
    for (const uprog::CodegenOptions &opts : modes) {
        for (unsigned radix = 2; radix <= 20; radix += 2) {
            jc::CounterLayout layout(radix, 16, 0);
            uprog::AmbitCodegen gen(layout, opts);
            std::string what = "radix ";
            what += std::to_string(radix);
            what += opts.protect ? " ecc fr " : " none fr ";
            what += std::to_string(opts.frChecks);
            const unsigned mask = layout.endRow();
            for (unsigned k = 1; k < radix; ++k) {
                const std::string kth = what + " k " + std::to_string(k);
                expectAmbitAddresses(gen.karyIncrement(0, k, mask),
                                     kth + " increment");
                expectAmbitAddresses(gen.karyDecrement(0, k, mask),
                                     kth + " decrement");
            }
            expectAmbitAddresses(gen.carryRipple(0), what + " carry");
            expectAmbitAddresses(gen.borrowRipple(0), what + " borrow");
            expectAmbitAddresses(gen.clearCounters(), what + " clear");
        }
    }
}

// ---------------------------------------------------------------------
// Program footprint
// ---------------------------------------------------------------------

TEST(ProgramFootprint, NoReadOfAnUnwrittenBRowAndNoWriteOutsideTheDigit)
{
    // Every program on a subarray shares T0..T3 and DCC0..1, so each
    // must write a B row before it reads it (the cycle walk reads T3
    // across updates): random B rows at entry must leave every data
    // row as a run from zeroed B rows does. An unprotected program
    // writes only its digit's bit rows and Onext, plus the source
    // Onext a ripple clears: no theta or scratch row.
    constexpr size_t kCols = 64;
    Rng rng(53);
    std::vector<uprog::CodegenOptions> modes = {{}};
    for (unsigned fr = 1; fr <= 3; ++fr)
        modes.push_back({true, fr});
    for (const uprog::CodegenOptions &opts : modes) {
        for (unsigned radix = 2; radix <= 20; radix += 2) {
            const unsigned n = radix / 2;
            const jc::CounterLayout layout(radix, 16, 0);
            const uprog::AmbitCodegen gen(layout, opts);
            const unsigned digit = 1;
            const unsigned mask = layout.endRow();
            const size_t rows = mask + 1;

            struct Program
            {
                std::string what;
                uprog::CheckedProgram prog;
                unsigned digit; ///< the digit whose rows it updates
            };
            std::vector<Program> progs;
            std::string mode = opts.protect ? " ecc fr " : " none fr ";
            mode += std::to_string(opts.frChecks);
            for (unsigned k = 1; k < radix; ++k) {
                std::string what = "radix " + std::to_string(radix);
                what += mode + " k " + std::to_string(k);
                progs.push_back({what + " increment",
                                 gen.karyIncrement(digit, k, mask), digit});
                progs.push_back({what + " decrement",
                                 gen.karyDecrement(digit, k, mask), digit});
            }
            const std::string ripple = "radix " + std::to_string(radix);
            progs.push_back(
                {ripple + mode + " carry", gen.carryRipple(digit),
                 digit + 1});
            progs.push_back(
                {ripple + mode + " borrow", gen.borrowRipple(digit),
                 digit + 1});

            for (const Program &pr : progs) {
                SCOPED_TRACE(pr.what);
                cim::AmbitSubarray zeroed(rows, kCols);
                cim::AmbitSubarray poked(rows, kCols);
                std::vector<BitVector> before(rows, BitVector(kCols));
                for (size_t r = 0; r < rows; ++r) {
                    before[r].randomize(rng);
                    zeroed.rawRow(r) = before[r];
                    poked.rawRow(r) = before[r];
                }
                BitVector v(kCols);
                for (unsigned i = 0; i < 4; ++i) {
                    v.randomize(rng);
                    poked.pokeT(i, v);
                }
                for (unsigned i = 0; i < 2; ++i) {
                    v.randomize(rng);
                    poked.pokeDcc(i, v);
                }
                for (const uprog::Block &b : pr.prog.blocks) {
                    zeroed.run(b.prog);
                    poked.run(b.prog);
                }

                std::vector<bool> may_write(rows, opts.protect);
                for (unsigned i = 0; i < n; ++i)
                    may_write[layout.bitRow(pr.digit, i)] = true;
                may_write[layout.onextRow(pr.digit)] = true;
                may_write[layout.onextRow(digit)] = true;
                for (size_t r = 0; r < rows; ++r) {
                    EXPECT_EQ(poked.peekRow(r), zeroed.peekRow(r))
                        << "row " << r;
                    if (!may_write[r]) {
                        EXPECT_EQ(zeroed.peekRow(r), before[r])
                            << "row " << r;
                    }
                }
            }
        }
    }
}
