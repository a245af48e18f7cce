/**
 * @file
 * NVM backend tests (Sec. 4.6): Pinatubo and MAGIC machines execute
 * the counting muPrograms with results identical to the golden model,
 * and the op counts match the paper's 3n+O(1) / 6n+O(1) figures.
 */

#include <gtest/gtest.h>

#include "cim/nvm.hpp"
#include "jc/johnson.hpp"
#include "jc/layout.hpp"
#include "uprog/codegen_nvm.hpp"

using namespace c2m;

namespace {

struct NvmHarness
{
    jc::CounterLayout layout;
    unsigned maskRow;
    cim::NvmMachine mach;
    uprog::NvmCodegen gen;

    NvmHarness(unsigned radix, cim::NvmTech tech, size_t cols)
        : layout(radix, 16, 0),
          maskRow(layout.endRow()),
          mach(layout.endRow() + 2, cols, tech),
          gen(layout, tech)
    {
    }

    unsigned n() const { return layout.bitsPerDigit(); }

    void
    setDigit(unsigned digit, size_t col, unsigned value)
    {
        const uint64_t bits = jc::encode(n(), value);
        for (unsigned i = 0; i < n(); ++i) {
            BitVector row = mach.row(layout.bitRow(digit, i));
            row.set(col, (bits >> i) & 1);
            mach.hostWriteRow(layout.bitRow(digit, i), row);
        }
    }

    int
    getDigit(unsigned digit, size_t col)
    {
        uint64_t bits = 0;
        for (unsigned i = 0; i < n(); ++i)
            if (mach.row(layout.bitRow(digit, i)).get(col))
                bits |= 1ULL << i;
        return jc::decode(n(), bits);
    }

    void
    setMask(size_t col, bool v)
    {
        BitVector row = mach.row(maskRow);
        row.set(col, v);
        mach.hostWriteRow(maskRow, row);
    }

    bool
    onext(unsigned digit, size_t col)
    {
        return mach.row(layout.onextRow(digit)).get(col);
    }
};

} // namespace

TEST(NvmMachine, PinatuboLogicOps)
{
    cim::NvmMachine m(4, 8, cim::NvmTech::Pinatubo);
    m.hostWriteRow(0, BitVector::fromString("11001010"));
    m.hostWriteRow(1, BitVector::fromString("10100110"));
    cim::NvmProgram p;
    p.and_(2, cim::NvmRef::of(0), cim::NvmRef::of(1));
    p.or_(3, cim::NvmRef::of(0), cim::NvmRef::inv(1));
    m.run(p);
    EXPECT_EQ(m.row(2).toString(), "10000010");
    EXPECT_EQ(m.row(3).toString(), "11011011");
}

TEST(NvmMachine, MagicNorOnly)
{
    cim::NvmMachine m(3, 4, cim::NvmTech::Magic);
    m.hostWriteRow(0, BitVector::fromString("1100"));
    m.hostWriteRow(1, BitVector::fromString("1010"));
    cim::NvmProgram p;
    p.nor(2, cim::NvmRef::of(0), cim::NvmRef::of(1));
    m.run(p);
    EXPECT_EQ(m.row(2).toString(), "0001");
}

class NvmTechRadix
    : public ::testing::TestWithParam<std::tuple<cim::NvmTech,
                                                 unsigned>>
{
};

TEST_P(NvmTechRadix, KaryIncrementMatchesGolden)
{
    const auto tech = std::get<0>(GetParam());
    const unsigned radix = std::get<1>(GetParam());
    const unsigned n = radix / 2;

    for (unsigned k = 1; k < radix; ++k) {
        NvmHarness h(radix, tech, 2 * radix);
        for (unsigned v = 0; v < radix; ++v) {
            h.setDigit(0, 2 * v, v);
            h.setMask(2 * v, true);
            h.setDigit(0, 2 * v + 1, v);
            h.setMask(2 * v + 1, false);
        }
        h.mach.run(h.gen.karyIncrement(0, k, h.maskRow));
        for (unsigned v = 0; v < radix; ++v) {
            EXPECT_EQ(h.getDigit(0, 2 * v),
                      static_cast<int>(jc::add(n, v, k)))
                << "tech=" << int(tech) << " radix=" << radix
                << " k=" << k << " v=" << v;
            EXPECT_EQ(h.onext(0, 2 * v), jc::wraps(n, v, k));
            EXPECT_EQ(h.getDigit(0, 2 * v + 1), static_cast<int>(v));
        }
    }
}

TEST_P(NvmTechRadix, CarryRippleWorks)
{
    const auto tech = std::get<0>(GetParam());
    const unsigned radix = std::get<1>(GetParam());
    NvmHarness h(radix, tech, 2);
    BitVector on = h.mach.row(h.layout.onextRow(0));
    on.set(0, true);
    h.mach.hostWriteRow(h.layout.onextRow(0), on);
    const unsigned start = radix > 2 ? 1 : 0;
    h.setDigit(1, 0, start);
    h.mach.run(h.gen.carryRipple(0));
    EXPECT_EQ(h.getDigit(1, 0), static_cast<int>(start + 1));
    EXPECT_FALSE(h.onext(0, 0));
}

INSTANTIATE_TEST_SUITE_P(
    TechByRadix, NvmTechRadix,
    ::testing::Combine(::testing::Values(cim::NvmTech::Pinatubo,
                                         cim::NvmTech::Magic),
                       ::testing::Values(2u, 4u, 6u, 10u, 16u)));

TEST(NvmCost, PinatuboUnitIncrementIs3nPlusConstant)
{
    // Fig. 10a: counting costs 3n+4 ops, overflow +3.
    for (unsigned radix : {4u, 10u, 16u, 20u}) {
        const unsigned n = radix / 2;
        jc::CounterLayout layout(radix, 16, 0);
        uprog::NvmCodegen gen(layout, cim::NvmTech::Pinatubo);
        const size_t ops =
            gen.karyIncrement(0, 1, layout.endRow()).size();
        EXPECT_GE(ops, 3u * n + 2) << "radix=" << radix;
        EXPECT_LE(ops, 3u * n + 7) << "radix=" << radix;
    }
}

TEST(NvmCost, MagicUnitIncrementIs6nPlusConstant)
{
    // Fig. 10b: MAGIC needs ~6n+4 NOR operations.
    for (unsigned radix : {4u, 10u, 16u, 20u}) {
        const unsigned n = radix / 2;
        jc::CounterLayout layout(radix, 16, 0);
        uprog::NvmCodegen gen(layout, cim::NvmTech::Magic);
        const size_t ops =
            gen.karyIncrement(0, 1, layout.endRow()).size();
        EXPECT_GE(ops, 6u * n - n) << "radix=" << radix;
        EXPECT_LE(ops, 6u * n + 10) << "radix=" << radix;
    }
}

TEST(NvmCost, MagicCostsMoreThanPinatubo)
{
    jc::CounterLayout layout(10, 16, 0);
    uprog::NvmCodegen pin(layout, cim::NvmTech::Pinatubo);
    uprog::NvmCodegen mag(layout, cim::NvmTech::Magic);
    EXPECT_LT(pin.karyIncrement(0, 3, layout.endRow()).size(),
              mag.karyIncrement(0, 3, layout.endRow()).size());
}

TEST(NvmMachine, MagicRejectsAndOps)
{
    cim::NvmMachine m(2, 4, cim::NvmTech::Magic);
    cim::NvmProgram p;
    p.and_(1, cim::NvmRef::of(0), cim::NvmRef::of(0));
    EXPECT_DEATH(m.run(p), "MAGIC");
}

TEST(NvmMachine, FaultInjectionOnLogicOps)
{
    cim::FaultModel fm;
    fm.pMaj = 1.0;
    cim::NvmMachine m(3, 32, cim::NvmTech::Pinatubo, fm, 3);
    m.hostWriteRow(0, BitVector(32));
    cim::NvmProgram p;
    p.or_(2, cim::NvmRef::of(0), cim::NvmRef::of(0)); // 0 -> all flip
    m.run(p);
    EXPECT_EQ(m.row(2).popcount(), 32u);
    EXPECT_EQ(m.stats().faultsInjected, 32u);
}
