/**
 * @file
 * C2M engine integration tests: masked accumulation against plain
 * arithmetic across radices and scheduling modes, signed
 * accumulation and its pending resolve, the peek-gated drain, tensor
 * ops (vector add, ReLU, shift-left), and the protection schemes
 * under injected faults.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "core/backend_nvm.hpp"
#include "core/engine.hpp"
#include "core/fabriccost.hpp"

using namespace c2m;
using core::C2MEngine;
using core::CountMode;
using core::EngineConfig;
using core::Protection;
using core::RippleMode;

namespace {

EngineConfig
smallConfig(unsigned radix, size_t counters = 16)
{
    EngineConfig cfg;
    cfg.radix = radix;
    cfg.capacityBits = 20;
    cfg.numCounters = counters;
    cfg.maxMaskRows = 8;
    return cfg;
}

} // namespace

class EngineRadix : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(EngineRadix, MaskedAccumulationMatchesArithmetic)
{
    const unsigned radix = GetParam();
    C2MEngine eng(smallConfig(radix));
    Rng rng(radix);

    std::vector<std::vector<uint8_t>> masks;
    std::vector<unsigned> handles;
    for (int m = 0; m < 4; ++m) {
        std::vector<uint8_t> mask(16);
        for (auto &b : mask)
            b = rng.nextBool(0.5);
        masks.push_back(mask);
        handles.push_back(eng.addMask(mask));
    }

    std::vector<int64_t> expected(16, 0);
    for (int step = 0; step < 60; ++step) {
        const uint64_t v = rng.nextBounded(256);
        const unsigned m = static_cast<unsigned>(rng.nextBounded(4));
        eng.accumulate(v, handles[m]);
        for (size_t j = 0; j < 16; ++j)
            if (masks[m][j])
                expected[j] += static_cast<int64_t>(v);
    }

    EXPECT_EQ(eng.readCounters(), expected) << "radix=" << radix;
    EXPECT_EQ(eng.stats().invalidStates, 0u);
}

TEST_P(EngineRadix, FullRippleModeAgreesWithIarm)
{
    const unsigned radix = GetParam();
    auto cfg = smallConfig(radix);
    C2MEngine iarm(cfg);
    cfg.ripple = RippleMode::FullRipple;
    C2MEngine full(cfg);

    std::vector<uint8_t> mask(16, 1);
    const unsigned hi = iarm.addMask(mask);
    const unsigned hf = full.addMask(mask);

    Rng rng(17);
    for (int step = 0; step < 40; ++step) {
        const uint64_t v = rng.nextBounded(512);
        iarm.accumulate(v, hi);
        full.accumulate(v, hf);
    }
    EXPECT_EQ(iarm.readCounters(), full.readCounters());
    // IARM must issue (strictly) fewer ripples.
    EXPECT_LT(iarm.stats().ripples, full.stats().ripples);
}

TEST_P(EngineRadix, UnitCountingAgreesWithKary)
{
    const unsigned radix = GetParam();
    auto cfg = smallConfig(radix);
    C2MEngine kary(cfg);
    cfg.counting = CountMode::Unit;
    C2MEngine unit(cfg);

    std::vector<uint8_t> mask(16, 1);
    const unsigned hk = kary.addMask(mask);
    const unsigned hu = unit.addMask(mask);

    Rng rng(23);
    for (int step = 0; step < 15; ++step) {
        const uint64_t v = rng.nextBounded(200);
        kary.accumulate(v, hk);
        unit.accumulate(v, hu);
    }
    EXPECT_EQ(kary.readCounters(), unit.readCounters());
    // k-ary needs fewer increment muPrograms.
    EXPECT_LE(kary.stats().increments, unit.stats().increments);
}

INSTANTIATE_TEST_SUITE_P(Radices, EngineRadix,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u, 16u,
                                           20u));

TEST(Engine, OddRadixConfigThrowsToTheCaller)
{
    // A JC digit has 2n states: an odd radix is a configuration
    // error the caller can catch, not a process exit.
    EXPECT_THROW(C2MEngine(smallConfig(5)), std::invalid_argument);
}

TEST(Engine, ZeroInputsAreSkipped)
{
    C2MEngine eng(smallConfig(4));
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    const auto before = eng.subarray().stats().commands();
    eng.accumulate(0, h);
    EXPECT_EQ(eng.subarray().stats().commands(), before);
    EXPECT_EQ(eng.stats().inputsAccumulated, 1u);
}

TEST(Engine, SignedAccumulationCrossesZero)
{
    auto cfg = smallConfig(10);
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));

    eng.accumulateSigned(5, h);
    eng.accumulateSigned(-12, h);
    auto v = eng.readCounters();
    for (auto x : v)
        EXPECT_EQ(x, -7);

    eng.accumulateSigned(20, h);
    v = eng.readCounters();
    for (auto x : v)
        EXPECT_EQ(x, 13);
}

TEST(Engine, SignedRandomWalkMatchesArithmetic)
{
    auto cfg = smallConfig(4);
    C2MEngine eng(cfg);
    std::vector<uint8_t> mask(16);
    Rng rng(31);
    for (auto &b : mask)
        b = rng.nextBool(0.5);
    const unsigned h = eng.addMask(mask);

    std::vector<int64_t> expected(16, 0);
    for (int step = 0; step < 30; ++step) {
        const int64_t v = rng.nextRange(-40, 40);
        eng.accumulateSigned(v, h);
        for (size_t j = 0; j < 16; ++j)
            if (mask[j])
                expected[j] += v;
    }
    EXPECT_EQ(eng.readCounters(), expected);
}

TEST(Engine, TwoGroupsAreIndependent)
{
    auto cfg = smallConfig(6);
    cfg.numGroups = 2;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    eng.accumulate(7, h, 0);
    eng.accumulate(11, h, 1);
    for (auto v : eng.readCounters(0))
        EXPECT_EQ(v, 7);
    for (auto v : eng.readCounters(1))
        EXPECT_EQ(v, 11);
}

TEST(Engine, AddCountersImplementsAlg2)
{
    auto cfg = smallConfig(10);
    cfg.numGroups = 2;
    C2MEngine eng(cfg);
    std::vector<uint8_t> m0(16, 0), m1(16, 0);
    for (size_t j = 0; j < 16; ++j)
        (j % 2 ? m0 : m1)[j] = 1;
    const unsigned h0 = eng.addMask(m0);
    const unsigned h1 = eng.addMask(m1);
    const unsigned hall = eng.addMask(std::vector<uint8_t>(16, 1));

    eng.accumulate(123, hall, 0);
    eng.accumulate(77, h0, 1);
    eng.accumulate(55, h1, 1);

    eng.addCounters(0, 1);

    const auto v = eng.readCounters(0);
    for (size_t j = 0; j < 16; ++j)
        EXPECT_EQ(v[j], 123 + (j % 2 ? 77 : 55)) << "col " << j;
    // Source group unchanged.
    const auto s = eng.readCounters(1);
    for (size_t j = 0; j < 16; ++j)
        EXPECT_EQ(s[j], j % 2 ? 77 : 55);
}

TEST(Engine, ReluZeroesNegativeCounters)
{
    auto cfg = smallConfig(4);
    C2MEngine eng(cfg);
    std::vector<uint8_t> neg_mask(16, 0), all(16, 1);
    for (size_t j = 0; j < 8; ++j)
        neg_mask[j] = 1;
    const unsigned hn = eng.addMask(neg_mask);
    const unsigned ha = eng.addMask(all);

    eng.accumulateSigned(10, ha);
    eng.accumulateSigned(-25, hn); // first 8 go negative
    eng.relu(0);
    const auto v = eng.readCounters();
    for (size_t j = 0; j < 16; ++j)
        EXPECT_EQ(v[j], j < 8 ? 0 : 10) << "col " << j;
}

TEST(Engine, ShiftLeftDoubles)
{
    auto cfg = smallConfig(6);
    cfg.numGroups = 2;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    eng.accumulate(13, h, 0);
    eng.shiftLeft(0, 1, 3); // x8
    for (auto v : eng.readCounters(0))
        EXPECT_EQ(v, 104);
}

TEST(Engine, DrainClearsPendingOverflows)
{
    auto cfg = smallConfig(4);
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    for (int i = 0; i < 10; ++i)
        eng.accumulate(3, h);
    eng.drain(0);
    // After draining, every Onext row must be clear.
    const auto &l = eng.layout(0);
    for (unsigned d = 0; d < l.numDigits(); ++d)
        EXPECT_EQ(eng.subarray().peekRow(l.onextRow(d)).popcount(),
                  0u);
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, 30);
}

// ---------------------------------------------------------------------
// Signed resolve: the host tracks which digits can hold a pending,
// reads only their Onext rows, and folds into Osign only after a
// ripple reaches the top digit
// ---------------------------------------------------------------------

class SignedResolve : public ::testing::Test
{
  protected:
    /** Radix 4 over 16 bits: D = 9, the top digit the guard. */
    static EngineConfig config()
    {
        EngineConfig cfg = smallConfig(4);
        cfg.capacityBits = 16;
        return cfg;
    }

    /**
     * The stats window @p op spans. No mask is written inside it, so
     * every modeled ns is a command or a charged row read.
     */
    template <typename Op>
    core::EngineStats window(Op op)
    {
        const core::EngineStats before = eng_.stats();
        op();
        const core::EngineStats d = eng_.stats().since(before);
        const double want =
            static_cast<double>(d.fabric.commands()) * costs_.aapNs +
            static_cast<double>(d.fabric.rowReads) * costs_.rowReadNs;
        EXPECT_NEAR(d.fabric.fabricNs, want, 1e-9 * want);
        EXPECT_EQ(d.fabric.rowWrites, 0u);
        return d;
    }

    /** Every counter reads @p value and no Onext row holds a flag. */
    void expectResolved(int64_t value)
    {
        for (auto v : eng_.readCounters())
            EXPECT_EQ(v, value);
        const auto &l = eng_.layout();
        for (unsigned d = 0; d < l.numDigits(); ++d)
            EXPECT_EQ(eng_.subarray().peekRow(l.onextRow(d)).popcount(),
                      0u)
                << "digit " << d;
    }

    C2MEngine eng_{config()};
    const unsigned mask_ = eng_.addMask(std::vector<uint8_t>(16, 1));
    const cim::CommandCosts costs_ = core::dramCommandCosts(
        eng_.config().dramTimings, eng_.config().dramEnergy,
        eng_.config().numCounters);
};

TEST_F(SignedResolve, BorrowFromZeroRipplesThroughEveryDigit)
{
    ASSERT_EQ(eng_.layout().numDigits(), 9u);
    // 0 - 1 wraps digit 0, and each borrow wraps the next digit up to
    // the top one: one charged Onext read per ripple, one fold.
    const auto d = window([&] { eng_.accumulateSigned(-1, mask_); });
    EXPECT_EQ(d.ripples, 8u);
    EXPECT_EQ(d.pendingPeeks, 8u);
    EXPECT_EQ(d.fabric.rowReads, 8u);
    EXPECT_EQ(d.signFolds, 1u);
    expectResolved(-1);
}

TEST_F(SignedResolve, CarryBackAcrossZeroRipplesThroughEveryDigit)
{
    eng_.accumulateSigned(-1, mask_);
    // -1 + 3 carries through every digit; the top digit's carry
    // cancels Osign.
    const auto d = window([&] { eng_.accumulate(3, mask_); });
    EXPECT_EQ(d.ripples, 8u);
    EXPECT_EQ(d.pendingPeeks, 8u);
    EXPECT_EQ(d.fabric.rowReads, 8u);
    EXPECT_EQ(d.signFolds, 1u);
    expectResolved(2);
}

TEST_F(SignedResolve, DecrementWithinADigitPeeksOnce)
{
    eng_.accumulateSigned(-1, mask_);
    eng_.accumulate(3, mask_);
    // 2 - 1 stays inside digit 0: its Onext row reads empty.
    const auto d = window([&] { eng_.accumulateSigned(-1, mask_); });
    EXPECT_EQ(d.ripples, 0u);
    EXPECT_EQ(d.pendingPeeks, 1u);
    EXPECT_EQ(d.fabric.rowReads, 1u);
    EXPECT_EQ(d.signFolds, 0u);
    expectResolved(1);
}

// ---------------------------------------------------------------------
// Peek-gated drain: IARM's bounds are mask-oblivious, so drain() reads
// the Onext row of each digit the scheduler flags and ripples only
// where some column is pending
// ---------------------------------------------------------------------

class PeekGatedDrain : public ::testing::TestWithParam<core::BackendKind>
{
  protected:
    /** Radix 4 over 64 columns; columns 0 and 1 each have a mask. */
    static EngineConfig config()
    {
        EngineConfig cfg = smallConfig(4, 64);
        cfg.backend = GetParam();
        return cfg;
    }

    static unsigned oneColumnMask(C2MEngine &eng, size_t col)
    {
        std::vector<uint8_t> m(64, 0);
        m[col] = 1;
        return eng.addMask(m);
    }

    /**
     * The stats window of one drain(0). No mask is written inside
     * it, so every modeled ns is a command or a charged row read.
     */
    core::EngineStats drainWindow()
    {
        const core::EngineStats before = eng_.stats();
        eng_.drain(0);
        const core::EngineStats d = eng_.stats().since(before);
        const double want =
            static_cast<double>(d.fabric.commands()) * costs_.aapNs +
            static_cast<double>(d.fabric.rowReads) * costs_.rowReadNs;
        EXPECT_NEAR(d.fabric.fabricNs, want, 1e-9 * (want + 1.0));
        EXPECT_EQ(d.fabric.rowReads, d.drainPeeks);
        EXPECT_EQ(d.fabric.rowWrites, 0u);
        EXPECT_EQ(d.pendingPeeks, 0u);
        return d;
    }

    /** Uncharged view of an Onext row (white-box, either fabric). */
    const BitVector &onext(unsigned digit)
    {
        const unsigned row = eng_.layout().onextRow(digit);
        if (GetParam() == core::BackendKind::Ambit)
            return eng_.subarray().peekRow(row);
        return dynamic_cast<core::NvmBackend &>(eng_.backend())
            .machine()
            .row(row);
    }

    /** Columns 0 and 1 read @p a and @p b, every Onext row empty. */
    void expectDrained(int64_t a, int64_t b)
    {
        const auto v = eng_.readCounters();
        EXPECT_EQ(v[0], a);
        EXPECT_EQ(v[1], b);
        for (unsigned d = 0; d < eng_.layout().numDigits(); ++d)
            EXPECT_EQ(onext(d).popcount(), 0u) << "digit " << d;
    }

    C2MEngine eng_{config()};
    const unsigned a_ = oneColumnMask(eng_, 0);
    const unsigned b_ = oneColumnMask(eng_, 1);
    const cim::CommandCosts costs_ =
        GetParam() == core::BackendKind::Ambit
            ? core::dramCommandCosts(eng_.config().dramTimings,
                                     eng_.config().dramEnergy,
                                     eng_.config().numCounters)
            : eng_.config().nvmCost.commandCosts();
};

TEST_P(PeekGatedDrain, IdleDigitReadsItsRowAndIssuesNothing)
{
    // 3 into each column: digit 0's bound is 6 >= R, yet neither
    // column wrapped. A blind drain would ripple it.
    eng_.accumulate(3, a_);
    eng_.accumulate(3, b_);
    ASSERT_EQ(onext(0).popcount(), 0u);
    const auto d = drainWindow();
    EXPECT_EQ(d.drainPeeks, 1u);
    EXPECT_EQ(d.fabric.rowReads, 1u);
    EXPECT_EQ(d.ripples, 0u);
    EXPECT_EQ(d.fabric.commands(), 0u);
    // One row read: 29.45 ns on Ambit at 64 columns, 120 ns on NVM.
    EXPECT_NEAR(d.fabric.fabricNs, costs_.rowReadNs,
                1e-9 * costs_.rowReadNs);
    expectDrained(3, 3);
}

TEST_P(PeekGatedDrain, PendingDigitRipples)
{
    eng_.accumulate(3, a_);
    eng_.accumulate(3, b_);
    // Two more 3s into column 0: 9 = 2*4 + 1 leaves digit 0 pending.
    eng_.accumulate(3, a_);
    eng_.accumulate(3, a_);
    ASSERT_EQ(onext(0).popcount(), 1u);
    const auto d = drainWindow();
    EXPECT_EQ(d.drainPeeks, 1u);
    EXPECT_EQ(d.ripples, 1u);
    EXPECT_GT(d.fabric.commands(), 0u);
    expectDrained(9, 3);
}

TEST_P(PeekGatedDrain, IdleDigitBelowAPendingOne)
{
    // 15 then 12 into column 0, 3 into column 1: digit bounds (6, 6),
    // digit 0 holds 3 in both columns, digit 1 of column 0 holds 6.
    // The scheduler resolves digit 0 then digit 1.
    eng_.accumulate(15, a_);
    eng_.accumulate(12, a_);
    eng_.accumulate(3, b_);
    ASSERT_EQ(onext(0).popcount(), 0u);
    ASSERT_EQ(onext(1).popcount(), 1u);
    const auto d = drainWindow();
    EXPECT_EQ(d.drainPeeks, 2u);
    EXPECT_EQ(d.ripples, 1u);
    expectDrained(27, 3);
}

TEST_P(PeekGatedDrain, RippleThatWrapsTheDigitAboveIsSeen)
{
    // 15 then 3 into column 0: digit 0 pending, digit 1 at 3. The
    // digit-0 ripple wraps digit 1, so digit 1's row must be read
    // after that ripple, not before it.
    eng_.accumulate(15, a_);
    eng_.accumulate(3, a_);
    ASSERT_EQ(onext(0).popcount(), 1u);
    ASSERT_EQ(onext(1).popcount(), 0u);
    const auto d = drainWindow();
    EXPECT_EQ(d.drainPeeks, 2u);
    EXPECT_EQ(d.ripples, 2u);
    expectDrained(18, 0);
}

INSTANTIATE_TEST_SUITE_P(
    JcFabrics, PeekGatedDrain,
    ::testing::Values(core::BackendKind::Ambit,
                      core::BackendKind::NvmPinatubo),
    [](const ::testing::TestParamInfo<core::BackendKind> &info) {
        return info.param == core::BackendKind::Ambit
                   ? std::string("ambit")
                   : std::string("nvm");
    });

// ---------------------------------------------------------------------
// Protection
// ---------------------------------------------------------------------

TEST(EngineProtected, FaultFreeEccMatchesUnprotected)
{
    auto cfg = smallConfig(10);
    cfg.protection = Protection::Ecc;
    cfg.frChecks = 1;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    Rng rng(41);
    int64_t expected = 0;
    for (int i = 0; i < 20; ++i) {
        const uint64_t v = rng.nextBounded(100);
        eng.accumulate(v, h);
        expected += static_cast<int64_t>(v);
    }
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, expected);
    EXPECT_EQ(eng.stats().faultsDetected, 0u);
    EXPECT_GT(eng.stats().checksRun, 0u);
}

TEST(EngineProtected, EccDetectsAndRetriesUnderFaults)
{
    auto cfg = smallConfig(10, 64);
    cfg.protection = Protection::Ecc;
    cfg.frChecks = 2;
    cfg.faultRate = 1e-3;
    cfg.maxRetries = 8;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(64, 1));
    int64_t expected = 0;
    Rng rng(43);
    for (int i = 0; i < 25; ++i) {
        const uint64_t v = rng.nextBounded(50);
        eng.accumulate(v, h);
        expected += static_cast<int64_t>(v);
    }
    EXPECT_GT(eng.stats().faultsDetected, 0u);
    EXPECT_GT(eng.stats().retries, 0u);

    // Detection + retry keeps most counters exact; the residue is
    // the unchecked commit OR (documented in DESIGN.md).
    const auto v = eng.readCounters();
    size_t exact = 0;
    for (auto x : v)
        if (x == expected)
            ++exact;
    EXPECT_GE(exact, v.size() * 7 / 10);
}

TEST(EngineProtected, EccBeatsUnprotectedUnderFaults)
{
    const double p = 2e-3;
    auto make = [&](Protection prot) {
        auto cfg = smallConfig(10, 64);
        cfg.protection = prot;
        cfg.faultRate = p;
        cfg.maxRetries = 8;
        cfg.seed = 91;
        return C2MEngine(cfg);
    };

    auto run = [&](C2MEngine &eng) {
        const unsigned h = eng.addMask(std::vector<uint8_t>(64, 1));
        Rng rng(45);
        int64_t expected = 0;
        for (int i = 0; i < 30; ++i) {
            const uint64_t v = rng.nextBounded(60);
            eng.accumulate(v, h);
            expected += static_cast<int64_t>(v);
        }
        double err = 0;
        for (auto x : eng.readCounters())
            err += std::abs(static_cast<double>(x - expected));
        return err;
    };

    auto none_eng = make(Protection::None);
    auto ecc_eng = make(Protection::Ecc);
    const double err_none = run(none_eng);
    const double err_ecc = run(ecc_eng);
    EXPECT_LT(err_ecc, err_none);
}

TEST(EngineProtected, TmrFaultFreeWorks)
{
    auto cfg = smallConfig(4);
    cfg.protection = Protection::Tmr;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    eng.accumulate(42, h);
    eng.accumulate(13, h);
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, 55);
    EXPECT_GT(eng.stats().voteOps, 0u);
}

TEST(EngineProtected, TmrMasksSingleReplicaFaults)
{
    auto cfg = smallConfig(4, 64);
    cfg.protection = Protection::Tmr;
    cfg.faultRate = 1e-3;
    cfg.seed = 7;
    C2MEngine tmr(cfg);
    cfg.protection = Protection::None;
    C2MEngine raw(cfg);

    auto run = [&](C2MEngine &eng) {
        const unsigned h = eng.addMask(std::vector<uint8_t>(64, 1));
        int64_t expected = 0;
        Rng rng(49);
        for (int i = 0; i < 25; ++i) {
            const uint64_t v = rng.nextBounded(40);
            eng.accumulate(v, h);
            expected += static_cast<int64_t>(v);
        }
        double err = 0;
        for (auto x : eng.readCounters())
            err += std::abs(static_cast<double>(x - expected));
        return err;
    };

    EXPECT_LE(run(tmr), run(raw));
}

TEST(EngineProtected, EccCostCheaperThanTmr)
{
    auto cfg = smallConfig(10);
    cfg.protection = Protection::Ecc;
    cfg.frChecks = 1;
    C2MEngine ecc_eng(cfg);
    cfg.protection = Protection::Tmr;
    C2MEngine tmr_eng(cfg);
    cfg.protection = Protection::None;
    C2MEngine raw_eng(cfg);

    auto ops = [](C2MEngine &eng) {
        const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
        const auto before = eng.subarray().stats().commands();
        eng.accumulate(9, h);
        return eng.subarray().stats().commands() - before;
    };

    const auto raw = ops(raw_eng);
    const auto ecc = ops(ecc_eng);
    const auto tmr = ops(tmr_eng);
    EXPECT_GT(ecc, raw);
    EXPECT_GT(tmr, ecc); // TMR's ~4x beats ECC's overhead (Sec. 3)
}

TEST(Engine, ClearResetsCountersButKeepsMasks)
{
    C2MEngine eng(smallConfig(4));
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    eng.accumulate(9, h);
    eng.clear();
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, 0);
    eng.accumulate(5, h); // mask still valid
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, 5);
}
