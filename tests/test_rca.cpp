/**
 * @file
 * RCA (SIMDRAM baseline) muProgram tests: masked bit-serial addition
 * equals plain integer addition, cost is width-proportional and
 * radix-independent, and the protected variant detects faults.
 */

#include <gtest/gtest.h>

#include "cim/ambit.hpp"
#include "common/rng.hpp"
#include "dram/subarray.hpp"
#include "uprog/codegen_rca.hpp"

using namespace c2m;

namespace {

struct RcaHarness
{
    uprog::RcaLayout layout;
    unsigned maskRow;
    cim::AmbitSubarray sub;
    uprog::RcaCodegen gen;

    RcaHarness(unsigned width, size_t cols,
               uprog::RcaCodegen::Options opts = {})
        : layout{width, 0},
          maskRow(layout.endRow()),
          sub(layout.endRow() + 1, cols),
          gen(layout, opts)
    {
    }

    void
    writeAcc(const std::vector<uint64_t> &vals)
    {
        const auto rows = dram::transposeToRows(vals, layout.width,
                                                sub.numCols());
        for (unsigned b = 0; b < layout.width; ++b)
            sub.rawRow(layout.bitRow(b)) = rows[b];
    }

    std::vector<uint64_t>
    readAcc(size_t count)
    {
        std::vector<const BitVector *> rows;
        for (unsigned b = 0; b < layout.width; ++b)
            rows.push_back(&sub.peekRow(layout.bitRow(b)));
        return dram::transposeFromRows(rows, count);
    }

    void
    run(const uprog::CheckedProgram &prog)
    {
        for (const auto &b : prog.blocks)
            sub.run(b.prog);
    }
};

} // namespace

class RcaWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RcaWidth, MaskedAccumulateEqualsIntegerAdd)
{
    const unsigned W = GetParam();
    const size_t cols = 16;
    RcaHarness h(W, cols);
    Rng rng(100 + W);

    std::vector<uint64_t> acc(cols);
    const uint64_t mod_mask =
        W == 64 ? ~0ULL : (1ULL << W) - 1;
    for (auto &v : acc)
        v = rng.next() & mod_mask;
    h.writeAcc(acc);

    for (int step = 0; step < 6; ++step) {
        const uint64_t addend = rng.next() & mod_mask;
        for (size_t j = 0; j < cols; ++j) {
            const bool m = rng.nextBool(0.5);
            h.sub.rawRow(h.maskRow).set(j, m);
            if (m)
                acc[j] = (acc[j] + addend) & mod_mask;
        }
        h.run(h.gen.maskedAccumulate(addend, h.maskRow));
    }

    EXPECT_EQ(h.readAcc(cols), acc);
}

TEST_P(RcaWidth, CostIsElevenOpsPerBit)
{
    const unsigned W = GetParam();
    uprog::RcaLayout layout{W, 0};
    uprog::RcaCodegen gen(layout);
    const size_t ops = gen.maskedAccumulate(1, 99).totalOps();
    EXPECT_EQ(ops, uprog::RcaCodegen::kOpsPerBit * W + 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, RcaWidth,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));

TEST(Rca, ZeroAddendStillRipples)
{
    // The paper's key point: the RCA pays the full carry chain even
    // for tiny (or zero) addends -- same op count for any value.
    uprog::RcaLayout layout{32, 0};
    uprog::RcaCodegen gen(layout);
    EXPECT_EQ(gen.maskedAccumulate(0, 99).totalOps(),
              gen.maskedAccumulate((1u << 31) | 1u, 99).totalOps());
}

TEST(Rca, CarryPropagatesAcrossFullWidth)
{
    RcaHarness h(16, 2);
    h.writeAcc({0xffffu, 0x00ffu});
    h.sub.rawRow(h.maskRow).fill(true);
    h.run(h.gen.maskedAccumulate(1, h.maskRow));
    EXPECT_EQ(h.readAcc(2), (std::vector<uint64_t>{0, 0x100}));
}

TEST(Rca, ClearAccumulatorsZeroes)
{
    RcaHarness h(8, 4);
    h.writeAcc({1, 2, 3, 4});
    h.sub.run(h.gen.clearAccumulators());
    EXPECT_EQ(h.readAcc(4), (std::vector<uint64_t>{0, 0, 0, 0}));
}

TEST(RcaProtected, FaultFreeMatchesUnprotected)
{
    uprog::RcaCodegen::Options opts;
    opts.protect = true;
    RcaHarness h(16, 8, opts);
    std::vector<uint64_t> acc = {1, 2, 3, 4, 5, 6, 7, 8};
    h.writeAcc(acc);
    h.sub.rawRow(h.maskRow).fill(true);
    h.run(h.gen.maskedAccumulate(100, h.maskRow));
    for (auto &v : acc)
        v += 100;
    EXPECT_EQ(h.readAcc(8), acc);
}

TEST(RcaProtected, CostRoughlyDoubles)
{
    uprog::RcaLayout layout{32, 0};
    uprog::RcaCodegen plain(layout);
    uprog::RcaCodegen::Options opts;
    opts.protect = true;
    uprog::RcaCodegen prot(layout, opts);
    const double ratio =
        static_cast<double>(prot.maskedAccumulate(1, 99).totalOps()) /
        static_cast<double>(plain.maskedAccumulate(1, 99).totalOps());
    EXPECT_GT(ratio, 1.8);
    EXPECT_LT(ratio, 2.8);
}

TEST(RcaProtected, ChecksFlagInjectedFaults)
{
    uprog::RcaCodegen::Options opts;
    opts.protect = true;
    uprog::RcaLayout layout{8, 0};
    uprog::RcaCodegen gen(layout, opts);
    const auto prog = gen.maskedAccumulate(3, layout.endRow());

    // With a high fault rate, duplicate computations must disagree in
    // at least one block of one run.
    cim::FaultModel fm;
    fm.pMaj = 0.05;
    cim::AmbitSubarray sub(layout.endRow() + 1, 64, fm, 5);
    sub.rawRow(layout.endRow()).fill(true);

    size_t mismatches = 0;
    for (int trial = 0; trial < 10; ++trial) {
        for (const auto &blk : prog.blocks) {
            sub.run(blk.prog);
            for (const auto &chk : blk.checks) {
                ASSERT_EQ(chk.mode,
                          uprog::FrCheck::Mode::EqualRows);
                if (sub.peekRow(chk.frRow) != sub.peekRow(chk.rowA))
                    ++mismatches;
            }
        }
    }
    EXPECT_GT(mismatches, 0u);
}
