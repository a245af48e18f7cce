/**
 * @file
 * C2M engine integration tests: masked accumulation against plain
 * arithmetic across radices, IARM ripples and k-ary increments
 * against the analytic full-ripple and unit-counting baselines, signed
 * accumulation and its pending resolve, the peek-gated drain, tensor
 * ops (vector add, ReLU, shift-left), and the protection schemes
 * under injected faults.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/backend_nvm.hpp"
#include "core/costmodel.hpp"
#include "core/engine.hpp"
#include "core/fabriccost.hpp"
#include "core/sharded.hpp"

using namespace c2m;
using core::BackendKind;
using core::BatchOp;
using core::C2MEngine;
using core::C2mCostModel;
using core::CountMode;
using core::EngineConfig;
using core::EngineStats;
using core::Protection;
using core::RippleMode;
using core::ShardedEngine;

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

namespace {

/**
 * Broadcast @p values over an all-ones mask into an engine at
 * @p radix and return its stats; the counters must read back the
 * host sum.
 */
core::EngineStats
accumulateAllOnes(unsigned radix, const std::vector<uint64_t> &values)
{
    C2MEngine eng(smallConfig(radix));
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    int64_t sum = 0;
    for (const uint64_t v : values) {
        eng.accumulate(v, h);
        sum += static_cast<int64_t>(v);
    }
    EXPECT_EQ(eng.readCounters(), std::vector<int64_t>(16, sum));
    return eng.stats();
}

std::vector<uint64_t>
boundedValues(uint64_t seed, size_t n, uint64_t bound)
{
    Rng rng(seed);
    std::vector<uint64_t> values(n);
    for (auto &v : values)
        v = rng.nextBounded(bound);
    return values;
}

} // namespace

// The engine runs only k-ary increments with IARM; full rippling and
// unit counting exist only as the analytic Fig. 8 baselines, so the
// engine's executed counts are held against the model's.
TEST_P(EngineRadix, FullRippleModeAgreesWithIarm)
{
    const unsigned radix = GetParam();
    const auto values = boundedValues(17, 40, 512);
    const auto st = accumulateAllOnes(radix, values);
    const C2mCostModel full(radix, smallConfig(radix).capacityBits,
                            false, 1, CountMode::Kary,
                            RippleMode::FullRipple);
    // IARM must issue (strictly) fewer ripples.
    EXPECT_LT(st.ripples, full.accumulateStream(values).ripples);
}

TEST_P(EngineRadix, UnitCountingAgreesWithKary)
{
    const unsigned radix = GetParam();
    const auto values = boundedValues(23, 15, 200);
    const auto st = accumulateAllOnes(radix, values);
    const C2mCostModel unit(radix, smallConfig(radix).capacityBits,
                            false, 1, CountMode::Unit);
    // k-ary needs fewer increment muPrograms.
    EXPECT_LE(st.increments, unit.accumulateStream(values).increments);
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

// ---------------------------------------------------------------------
// Config errors reach the caller as std::invalid_argument
// ---------------------------------------------------------------------

TEST(EngineConfigValidate, DefaultConfigIsValid)
{
    EXPECT_EQ(EngineConfig{}.validate(), "");
    EXPECT_EQ(smallConfig(20).validate(), "");
}

TEST(EngineConfigValidate, NoCounterGroupThrows)
{
    EngineConfig cfg = smallConfig(4);
    cfg.numGroups = 0;
    EXPECT_NE(cfg.validate().find("numGroups"), std::string::npos);
    EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument);
}

TEST(EngineConfigValidate, RadixOutsideEvenTwoToSixtyFourThrows)
{
    for (unsigned radix : {0u, 1u, 3u, 66u}) {
        EngineConfig cfg = smallConfig(radix);
        EXPECT_NE(cfg.validate().find("radix"), std::string::npos)
            << radix;
        EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument) << radix;
    }
}

TEST(EngineConfigValidate, CapacityBitsOutsideOneToSixtyFourThrows)
{
    for (unsigned bits : {0u, 65u}) {
        EngineConfig cfg = smallConfig(4);
        cfg.capacityBits = bits;
        EXPECT_NE(cfg.validate().find("capacityBits"), std::string::npos);
        EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument) << bits;
    }
}

TEST(EngineConfigValidate, NoCountersThrows)
{
    EngineConfig cfg = smallConfig(4);
    cfg.numCounters = 0;
    EXPECT_NE(cfg.validate().find("numCounters"), std::string::npos);
    EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument);
}

TEST(EngineConfigValidate, FrChecksOutsideOneToThreeThrowsUnderEcc)
{
    for (unsigned fr : {0u, 4u}) {
        EngineConfig cfg = smallConfig(4);
        cfg.frChecks = fr;
        EXPECT_EQ(cfg.validate(), "") << "unprotected ignores frChecks";
        cfg.protection = Protection::Ecc;
        EXPECT_NE(cfg.validate().find("frChecks"), std::string::npos);
        EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument) << fr;
    }
}

TEST(EngineConfigValidate, UnsupportedProtectionThrows)
{
    EngineConfig cfg = smallConfig(4);
    cfg.backend = core::BackendKind::NvmMagic;
    cfg.protection = Protection::Tmr;
    EXPECT_THROW(C2MEngine{cfg}, std::invalid_argument);
}

TEST(EngineMaskErrors, MaskWiderThanTheCountersThrows)
{
    C2MEngine eng(smallConfig(4));
    EXPECT_THROW(eng.addMask(std::vector<uint8_t>(17, 1)),
                 std::invalid_argument);
    EXPECT_EQ(eng.numMasks(), 0u);
    // A short mask is zero-padded; a wide one leaves the row as it was.
    const unsigned h = eng.addMask(std::vector<uint8_t>(3, 1));
    EXPECT_THROW(eng.setMask(h, std::vector<uint8_t>(17, 0)),
                 std::invalid_argument);
    eng.accumulate(2, h);
    const auto got = eng.readCounters();
    for (size_t c = 0; c < got.size(); ++c)
        EXPECT_EQ(got[c], c < 3 ? 2 : 0) << "col " << c;
}

TEST(EngineMaskErrors, UnknownHandleOrGroupThrowsBeforeAnyChange)
{
    auto cfg = smallConfig(4);
    cfg.numGroups = 2;
    C2MEngine eng(cfg);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    // Zero inputs are checked too, and a bad group is caught before
    // a decrement could put it in signed mode.
    EXPECT_THROW(eng.accumulate(0, h + 1), std::invalid_argument);
    EXPECT_THROW(eng.accumulate(3, h + 1), std::invalid_argument);
    EXPECT_THROW(eng.accumulate(3, h, 2), std::invalid_argument);
    EXPECT_THROW(eng.accumulateSigned(-1, h + 1), std::invalid_argument);
    EXPECT_THROW(eng.accumulateSigned(-1, h, 2), std::invalid_argument);
    EXPECT_THROW(eng.setMask(h + 1, std::vector<uint8_t>(16, 0)),
                 std::invalid_argument);
    EXPECT_THROW(eng.setMask(h + 1, BitVector(16)),
                 std::invalid_argument);
    EXPECT_FALSE(eng.signedMode(0));
    EXPECT_EQ(eng.stats().inputsAccumulated, 0u);
    eng.accumulate(2, h);
    EXPECT_EQ(eng.readCounters(), std::vector<int64_t>(16, 2));
}

TEST(EngineMaskErrors, AddMaskPastMaxMaskRowsThrows)
{
    C2MEngine eng(smallConfig(4));
    for (unsigned i = 0; i < eng.config().maxMaskRows; ++i)
        eng.addMask(std::vector<uint8_t>(16, 0));
    EXPECT_THROW(eng.addMask(std::vector<uint8_t>(16, 0)),
                 std::invalid_argument);
    EXPECT_EQ(eng.numMasks(), eng.config().maxMaskRows);
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

TEST(Engine, ReluOnABiasedGroupKeepsItsOffset)
{
    // Stored excess-B, -15 has no Osign; relu drops the bias first,
    // so Osign marks exactly the negative values, then restores it.
    for (Protection p : {Protection::None, Protection::Tmr}) {
        auto cfg = smallConfig(4);
        cfg.protection = p;
        C2MEngine eng(cfg);
        std::vector<uint8_t> neg_mask(16, 0);
        for (size_t j = 0; j < 8; ++j)
            neg_mask[j] = 1;
        const unsigned hn = eng.addMask(neg_mask);
        const unsigned ha = eng.addMask(std::vector<uint8_t>(16, 1));
        eng.accumulateSigned(10, ha);
        eng.accumulateSigned(-25, hn);
        const int64_t offset = eng.valueOffset(0);
        ASSERT_NE(offset, 0);
        eng.relu(0);
        EXPECT_EQ(eng.valueOffset(0), offset);
        eng.accumulateSigned(-3, ha); // counting goes on, biased
        for (unsigned r = 0; r < eng.numReplicas(); ++r) {
            const auto v = eng.backend().readCounters(
                eng.physicalGroup(0, r), offset);
            for (size_t j = 0; j < 16; ++j)
                EXPECT_EQ(v[j], j < 8 ? -3 : 7)
                    << "replica " << r << " col " << j;
        }
    }
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
// ripple reaches the top digit. Signed groups hold v + B, so a small
// value crossing zero stays in the low digits
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

    /** B = 1 in each of digits 0..7: (4^8 - 1) / 3. */
    static constexpr int64_t kBias = 0x5555;

    SignedResolve()
    {
        // A decrement that selects no counter enters signed mode (and
        // re-encodes every counter at v + B) without changing a value,
        // so the windows below see only the op under test.
        eng_.accumulateSigned(-1, none_);
        EXPECT_TRUE(eng_.signedMode(0));
        EXPECT_EQ(eng_.valueOffset(0), kBias);
    }

    /**
     * The stats window @p op spans. No row is written inside it, so
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
        EXPECT_EQ(d.fabric.rowReads, d.pendingPeeks);
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
    const unsigned none_ = eng_.addMask(std::vector<uint8_t>(16, 0));
    const cim::CommandCosts costs_ = core::dramCommandCosts(
        eng_.config().dramTimings, eng_.config().dramEnergy,
        eng_.config().numCounters);
};

TEST_F(SignedResolve, BorrowFromZeroStaysInDigitZero)
{
    ASSERT_EQ(eng_.layout().numDigits(), 9u);
    // B - 1 takes digit 0 from 1 to 0: no borrow, no fold. Stored in
    // radix complement, 0 - 1 would wrap all 8 digits below the top.
    const auto d = window([&] { eng_.accumulateSigned(-1, mask_); });
    EXPECT_EQ(d.ripples, 0u);
    EXPECT_EQ(d.pendingPeeks, 1u);
    EXPECT_EQ(d.fabric.rowReads, 1u);
    EXPECT_EQ(d.signFolds, 0u);
    expectResolved(-1);
}

TEST_F(SignedResolve, CarryBackAcrossZeroStaysInDigitZero)
{
    eng_.accumulateSigned(-1, mask_);
    // -1 + 3 takes digit 0 from 0 to 3: no carry, no fold.
    const auto d = window([&] { eng_.accumulate(3, mask_); });
    EXPECT_EQ(d.ripples, 0u);
    EXPECT_EQ(d.pendingPeeks, 1u);
    EXPECT_EQ(d.fabric.rowReads, 1u);
    EXPECT_EQ(d.signFolds, 0u);
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

TEST_F(SignedResolve, TwoBelowZeroRipplesIntoDigitOne)
{
    // B - 2: digit 0 borrows (1 - 2 -> 3) and digit 1 absorbs it
    // (1 -> 0), so the second pass reads digit 1's row and stops.
    const auto d = window([&] { eng_.accumulateSigned(-2, mask_); });
    EXPECT_EQ(d.ripples, 1u);
    EXPECT_EQ(d.pendingPeeks, 2u);
    EXPECT_EQ(d.signFolds, 0u);
    expectResolved(-2);
}

TEST_F(SignedResolve, BelowMinusBStillBorrowsToTheTop)
{
    // B - (B + 1) = -1 stored: digit 0 borrows and every digit above
    // wraps up to the top one, which folds into Osign. One pass
    // peeks the 8 stepped digits, then 7 passes peek one digit each.
    const auto d =
        window([&] { eng_.accumulateSigned(-(kBias + 1), mask_); });
    EXPECT_EQ(d.ripples, 8u);
    EXPECT_EQ(d.pendingPeeks, 15u);
    EXPECT_EQ(d.signFolds, 1u);
    expectResolved(-(kBias + 1));
    // And back: the carry chain cancels Osign.
    const auto up = window([&] { eng_.accumulate(kBias + 4, mask_); });
    EXPECT_EQ(up.ripples, 8u);
    EXPECT_EQ(up.signFolds, 1u);
    expectResolved(3);
}

// ---------------------------------------------------------------------
// Signed-mode entry: drain, then re-encode every replica at v + B
// through the reliable host path
// ---------------------------------------------------------------------

namespace {

struct EntryCase
{
    const char *name;
    core::BackendKind backend;
    Protection protection;
};

/** Print a case by name, so test names stay the same per build. */
void
PrintTo(const EntryCase &c, std::ostream *os)
{
    *os << c.name;
}

} // namespace

class SignedEntry : public ::testing::TestWithParam<EntryCase>
{
  protected:
    /** Radix 4 over 16 bits (D = 9, capacity 4^8 - 1), 64 columns. */
    static EngineConfig config()
    {
        EngineConfig cfg = smallConfig(4, 64);
        cfg.capacityBits = 16;
        cfg.backend = GetParam().backend;
        cfg.protection = GetParam().protection;
        return cfg;
    }

    /** Uncharged view of a raw row (white-box, either fabric). */
    const BitVector &peek(unsigned row)
    {
        if (GetParam().backend == core::BackendKind::Ambit)
            return eng_.subarray().peekRow(row);
        return dynamic_cast<core::NvmBackend &>(eng_.backend())
            .machine()
            .row(row);
    }

    bool anyOnext()
    {
        for (unsigned r = 0; r < eng_.numReplicas(); ++r) {
            const auto &l = eng_.backend().layout(eng_.physicalGroup(0, r));
            for (unsigned d = 0; d < l.numDigits(); ++d)
                if (peek(l.onextRow(d)).popcount() != 0)
                    return true;
        }
        return false;
    }

    C2MEngine eng_{config()};
};

namespace {

/**
 * Column 0 at capacity (4^8 - 1), columns 1..31 with IARM carries
 * still pending, the rest with a multi-digit value; returns the
 * values.
 */
std::vector<int64_t>
loadUnsigned(C2MEngine &eng)
{
    std::vector<uint8_t> cap(64, 0), low(64, 0), rest(64, 0);
    cap[0] = 1;
    for (size_t c = 1; c < 64; ++c)
        (c < 32 ? low : rest)[c] = 1;
    eng.accumulate(65535, eng.addMask(cap));
    const unsigned hlow = eng.addMask(low);
    for (int i = 0; i < 10; ++i)
        eng.accumulate(3, hlow);
    eng.accumulate(12345, eng.addMask(rest));
    std::vector<int64_t> want(64, 12345);
    want[0] = 65535;
    for (size_t c = 1; c < 32; ++c)
        want[c] = 30;
    return want;
}

} // namespace

TEST_P(SignedEntry, KeepsEveryValueAtOneReadPerRow)
{
    std::vector<int64_t> want = loadUnsigned(eng_);
    ASSERT_TRUE(anyOnext());
    const unsigned hnone = eng_.addMask(std::vector<uint8_t>(64, 0));

    // The entry's drain, measured on a twin: under ECC its ripples'
    // checks read rows too.
    C2MEngine twin(config());
    loadUnsigned(twin);
    const core::EngineStats t0 = twin.stats();
    twin.drain(0);
    const core::EngineStats drain = twin.stats().since(t0);

    // The same empty-mask decrement, first entering signed mode and
    // then on a signed group: the difference is the entry.
    const auto window = [&] {
        const core::EngineStats before = eng_.stats();
        eng_.accumulateSigned(-1, hnone);
        return eng_.stats().since(before);
    };
    const core::EngineStats entry = window();
    const core::EngineStats op = window();
    EXPECT_TRUE(eng_.signedMode(0));
    EXPECT_EQ(eng_.valueOffset(0), 0x5555);
    EXPECT_EQ(op.drainPeeks, 0u);
    EXPECT_EQ(op.fabric.rowWrites, 0u);
    EXPECT_EQ(entry.drainPeeks, drain.drainPeeks);
    EXPECT_GT(drain.ripples, 0u);

    // Beyond the drain: one charged read per state row per replica,
    // at most one write per row.
    const auto &l = eng_.layout();
    const uint64_t rows = uint64_t{l.numDigits()} *
                              (l.bitsPerDigit() + 1) + 1;
    const uint64_t per_group = rows * eng_.numReplicas();
    EXPECT_EQ(entry.fabric.rowReads - op.fabric.rowReads,
              drain.fabric.rowReads + per_group);
    EXPECT_GT(entry.fabric.rowWrites, 0u);
    EXPECT_LE(entry.fabric.rowWrites, per_group);
    EXPECT_FALSE(anyOnext());
    EXPECT_EQ(eng_.readCounters(), want);

    // Every replica holds the same canonical image of v + B.
    for (unsigned r = 1; r < eng_.numReplicas(); ++r) {
        const auto &lr = eng_.backend().layout(eng_.physicalGroup(0, r));
        for (unsigned d = 0; d < l.numDigits(); ++d)
            for (unsigned i = 0; i < l.bitsPerDigit(); ++i)
                EXPECT_EQ(peek(lr.bitRow(d, i)), peek(l.bitRow(d, i)))
                    << "replica " << r << " digit " << d;
        EXPECT_EQ(peek(lr.osignRow()), peek(l.osignRow()));
    }

    // Signed counting carries on from the biased image.
    const unsigned hall = eng_.addMask(std::vector<uint8_t>(64, 1));
    eng_.accumulateSigned(-40, hall);
    for (auto &w : want)
        w -= 40;
    EXPECT_EQ(eng_.readCounters(), want);
    EXPECT_FALSE(anyOnext());
}

TEST_P(SignedEntry, ClearDropsTheOffset)
{
    const unsigned h = eng_.addMask(std::vector<uint8_t>(64, 1));
    eng_.accumulateSigned(-9, h);
    ASSERT_NE(eng_.valueOffset(0), 0);
    eng_.clear();
    EXPECT_FALSE(eng_.signedMode(0));
    EXPECT_EQ(eng_.valueOffset(0), 0);
    eng_.accumulate(6, h);
    for (auto v : eng_.readCounters())
        EXPECT_EQ(v, 6);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, SignedEntry,
    ::testing::Values(
        EntryCase{"ambit", core::BackendKind::Ambit, Protection::None},
        EntryCase{"nvm", core::BackendKind::NvmPinatubo,
                  Protection::None},
        EntryCase{"tmr", core::BackendKind::Ambit, Protection::Tmr},
        EntryCase{"ecc", core::BackendKind::Ambit, Protection::Ecc}),
    [](const ::testing::TestParamInfo<EntryCase> &info) {
        return std::string(info.param.name);
    });

TEST(SignedOffset, ZeroWithoutPendingFlagsOrAtRadixTwo)
{
    // RCA resolves carries in place and radix 2 has c = R/2 - 1 = 0:
    // both keep signed counters unbiased.
    EngineConfig rca = smallConfig(4);
    rca.backend = core::BackendKind::Rca;
    for (const EngineConfig &cfg : {rca, smallConfig(2)}) {
        C2MEngine eng(cfg);
        const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
        eng.accumulateSigned(-5, h);
        EXPECT_TRUE(eng.signedMode(0));
        EXPECT_EQ(eng.valueOffset(0), 0);
        for (auto v : eng.readCounters())
            EXPECT_EQ(v, -5);
    }
}

TEST(SignedOffset, WideLayoutsStayExact)
{
    // At 64 bits R^(D-1) passes 2^64, so B is taken modulo 2^64 (at
    // radix 8 it reads negative as int64); readout is exact mod 2^64.
    for (unsigned radix : {4u, 8u, 10u}) {
        EngineConfig cfg = smallConfig(radix);
        cfg.capacityBits = 64;
        C2MEngine eng(cfg);
        std::vector<uint8_t> mask(16);
        Rng rng(radix);
        for (auto &b : mask)
            b = rng.nextBool(0.5);
        const unsigned h = eng.addMask(mask);
        std::vector<int64_t> want(16, 0);
        for (int step = 0; step < 40; ++step) {
            int64_t v = rng.nextRange(-40, 40);
            if (step % 8 == 3)
                v = rng.nextRange(-(int64_t{1} << 40), int64_t{1} << 40);
            eng.accumulateSigned(v, h);
            for (size_t j = 0; j < 16; ++j)
                if (mask[j])
                    want[j] += v;
        }
        EXPECT_NE(eng.valueOffset(0), 0) << radix;
        EXPECT_EQ(eng.readCounters(), want) << "radix " << radix;
    }
}

TEST(SignedOffset, IsCInEveryDigitBelowTheTop)
{
    // Radix 10 over 20 bits: D = 8 digits, so B = 4,444,444.
    C2MEngine eng(smallConfig(10));
    ASSERT_EQ(eng.backend().numDigits(), 8u);
    const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
    eng.accumulateSigned(-1, h);
    EXPECT_EQ(eng.valueOffset(0), 4444444);
    EXPECT_EQ(eng.readCounters(), std::vector<int64_t>(16, -1));
    // No pending carry: the rows hold B - 1 in canonical digits.
    for (unsigned d = 0; d < eng.backend().numDigits(); ++d)
        EXPECT_EQ(eng.backend().pendingRow(0, d).popcount(), 0u)
            << "digit " << d;
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
// Binary-weighted plan digits: a counter whose digit 3 rides planes 1
// and 2 takes two steps at one digit in one rail. Their k's add up to
// at most R - 1, so the digit wraps at most once, and each wrap is
// ORed into Onext, so the step that does not wrap keeps the flag.
// ---------------------------------------------------------------------

class DoubleStep : public ::testing::TestWithParam<EntryCase>
{
  protected:
    /** Radix 4 over 16 bits, one counter per starting digit 0..3. */
    static EngineConfig config()
    {
        EngineConfig cfg = smallConfig(4, 4);
        cfg.capacityBits = 16;
        cfg.backend = GetParam().backend;
        cfg.protection = GetParam().protection;
        return cfg;
    }

    unsigned column(size_t col)
    {
        std::vector<uint8_t> m(4, 0);
        m[col] = 1;
        return eng_.addMask(m);
    }

    /**
     * Steps k = 1 then k = 2 at digit 0 over every counter, on the
     * increment or the decrement rail; returns the plan's window.
     */
    core::EngineStats threeAsTwoSteps(bool decrement)
    {
        BitVector all(4);
        all.fill(true);
        const unsigned h = eng_.addMask(std::vector<uint8_t>(4, 0));
        const core::MaskedStep steps[] = {
            {0, 1, h, &all, true, decrement},
            {0, 2, h, &all, true, decrement}};
        const unsigned headroom[] = {3};
        const core::EngineStats before = eng_.stats();
        eng_.drain(0);
        eng_.planPrepare(steps, headroom, 0, 0);
        eng_.executePlan(steps, 0, 0, 2);
        return eng_.stats().since(before);
    }

    /** Ripples a pending-flag backend issues; RCA adds in place. */
    uint64_t ripples(uint64_t n) const
    {
        return GetParam().backend == core::BackendKind::Rca ? 0 : n;
    }

    C2MEngine eng_{config()};
};

TEST_P(DoubleStep, PlusThreeAsOneAndTwoCarriesOnce)
{
    // Column t holds digit t. From 3, +1 wraps and +2 must keep the
    // flag; from 1 and 2, +2 wraps; from 0, neither step does.
    for (unsigned t = 1; t < 4; ++t)
        eng_.accumulate(t, column(t));
    threeAsTwoSteps(false);
    const std::vector<int64_t> want = {3, 4, 5, 6};
    EXPECT_EQ(eng_.readCounters(), want); // Onext reads as R
    const core::EngineStats before = eng_.stats();
    eng_.drain(0);
    EXPECT_EQ(eng_.stats().since(before).ripples, ripples(1));
    EXPECT_EQ(eng_.readCounters(), want);
}

TEST_P(DoubleStep, MinusThreeAsOneAndTwoBorrowsOnce)
{
    // Signed mode stores v + B, and digit 0 of B is 1 at radix 4, so
    // column t holds digit t at value t - 1. From 0, -1 borrows and
    // -2 must keep the flag; from 1 and 2, -2 borrows; from 3,
    // neither step does. The one borrow ripple lands in digit 1,
    // which holds 1 and does not borrow again.
    eng_.accumulateSigned(-1, eng_.addMask(std::vector<uint8_t>(4, 0)));
    for (unsigned t = 0; t < 4; ++t)
        if (t != 1)
            eng_.accumulateSigned(static_cast<int64_t>(t) - 1,
                                  column(t));
    const core::EngineStats d = threeAsTwoSteps(true);
    EXPECT_EQ(eng_.readCounters(), (std::vector<int64_t>{-4, -3, -2, -1}));
    EXPECT_EQ(d.ripples, ripples(1));
    EXPECT_EQ(d.signFolds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Substrates, DoubleStep,
    ::testing::Values(
        EntryCase{"ambit", core::BackendKind::Ambit, Protection::None},
        EntryCase{"ambit_ecc", core::BackendKind::Ambit, Protection::Ecc},
        EntryCase{"ambit_tmr", core::BackendKind::Ambit, Protection::Tmr},
        EntryCase{"nvm_pinatubo", core::BackendKind::NvmPinatubo,
                  Protection::None},
        EntryCase{"nvm_magic", core::BackendKind::NvmMagic,
                  Protection::None},
        EntryCase{"rca", core::BackendKind::Rca, Protection::None}),
    [](const ::testing::TestParamInfo<EntryCase> &info) {
        return std::string(info.param.name);
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

// ---------------------------------------------------------------------
// Step paths: every tally of the per-input path (unsigned, signed and
// tensor ops) and of the plan path (an unsigned and a mixed-sign
// epoch over two shards), pinned per substrate and protection. No
// golden or bench cell covers signed inputs under ECC or TMR, the
// tensor ops, or signed two-rail plans under TMR.
// ---------------------------------------------------------------------

namespace {

/** Every integer field of @p s, the fabric tallies included. */
std::vector<uint64_t>
integerTallies(const EngineStats &s)
{
    const cim::OpStats &f = s.fabric;
    return {s.inputsAccumulated, s.increments,      s.ripples,
            s.checksRun,         s.faultsDetected,  s.retries,
            s.uncorrectedBlocks, s.invalidStates,   s.voteOps,
            s.programCacheHits,  s.programCacheMisses,
            s.plansExecuted,     s.planPrograms,    s.planLeadPrograms,
            s.plannedOps,        s.planFallbackOps, s.pendingPeeks,
            s.signFolds,         s.drainPeeks,      s.absorbPeeks,
            f.aap,               f.ap,              f.tra,
            f.faultsInjected,    f.rowReads,        f.rowWrites,
            f.gangedCommands};
}

/** FNV-1a over every counter value of every group, in order. */
uint64_t
counterDigest(const std::vector<std::vector<int64_t>> &groups)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &values : groups)
        for (const int64_t v : values)
            h = (h ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL;
    return h;
}

struct StepPathCase
{
    const char *name;
    BackendKind backend;
    Protection protection;
    double faultRate;
    /** integerTallies after the per-input script. */
    std::vector<uint64_t> inputs;
    /** Per-shard integerTallies after the plan script. */
    std::vector<uint64_t> plan0;
    std::vector<uint64_t> plan1;
    /**
     * counterDigest of the per-input and the plan script's counters:
     * the faulty case cannot match the host sums, so its counters are
     * pinned this way.
     */
    uint64_t inputDigest;
    uint64_t planDigest;
};

EngineConfig
stepPathConfig(const StepPathCase &c)
{
    EngineConfig cfg;
    cfg.radix = 4;
    cfg.numCounters = 64;
    cfg.numGroups = 3;
    cfg.maxMaskRows = 8;
    cfg.backend = c.backend;
    cfg.protection = c.protection;
    cfg.faultRate = c.faultRate;
    cfg.seed = 29;
    return cfg;
}

/**
 * 40 unsigned inputs into group 0 and 40 signed ones in [-300, 300]
 * into group 1 over four registered masks; on Ambit, unsigned inputs
 * into group 2, then addCounters(0, 2), shiftLeft(0, 2, 1), relu(1).
 * Returns the host sums per group.
 */
std::vector<std::vector<int64_t>>
runInputScript(C2MEngine &eng)
{
    const size_t n = eng.config().numCounters;
    Rng rng(31);
    std::vector<std::vector<uint8_t>> masks(4,
                                            std::vector<uint8_t>(n));
    std::vector<unsigned> handles;
    for (auto &m : masks) {
        for (auto &b : m)
            b = rng.nextBool(0.5);
        handles.push_back(eng.addMask(m));
    }
    std::vector<std::vector<int64_t>> sums(
        3, std::vector<int64_t>(n, 0));
    const auto add = [&](unsigned group, int64_t v) {
        const size_t m = rng.nextBounded(masks.size());
        eng.accumulateSigned(v, handles[m], group);
        for (size_t c = 0; c < n; ++c)
            sums[group][c] += masks[m][c] ? v : 0;
    };
    for (int i = 0; i < 40; ++i)
        add(0, static_cast<int64_t>(rng.nextBounded(1000)));
    for (int i = 0; i < 40; ++i)
        add(1, rng.nextRange(-300, 300));
    if (eng.backend().caps().tensorOps) {
        for (int i = 0; i < 20; ++i)
            add(2, static_cast<int64_t>(rng.nextBounded(1000)));
        eng.addCounters(0, 2);
        for (size_t c = 0; c < n; ++c)
            sums[0][c] += sums[2][c];
        eng.shiftLeft(0, 2, 1);
        for (size_t c = 0; c < n; ++c) {
            sums[2][c] = sums[0][c]; // the spare keeps the operand
            sums[0][c] *= 2;
            sums[1][c] = std::max<int64_t>(sums[1][c], 0);
        }
        eng.relu(1);
    }
    return sums;
}

/**
 * One unsigned Zipf(1.0) epoch into group 0, then one mixed-sign
 * epoch over groups 0 and 1. Returns the host sums per group.
 */
std::vector<std::vector<int64_t>>
runPlanScript(ShardedEngine &eng)
{
    const size_t n = eng.numCounters();
    std::vector<std::vector<int64_t>> sums(
        3, std::vector<int64_t>(n, 0));
    ZipfRng zipf(n, 1.0, 37);
    Rng rng(41);
    std::vector<BatchOp> ops;
    for (int i = 0; i < 400; ++i)
        ops.push_back({zipf.next(),
                       static_cast<int64_t>(1 + rng.nextBounded(30)),
                       0});
    for (const BatchOp &op : ops)
        sums[op.group][op.counter] += op.value;
    eng.accumulateBatch(ops);
    ops.clear();
    for (int i = 0; i < 400; ++i)
        ops.push_back({rng.nextBounded(n), rng.nextRange(-40, 40),
                       static_cast<uint32_t>(i % 2)});
    for (const BatchOp &op : ops)
        sums[op.group][op.counter] += op.value;
    eng.accumulateBatch(ops);
    return sums;
}

} // namespace

TEST(EngineStepPaths, CountsMatchTheParent)
{
    // The tallies fields, in integerTallies order: inputs, increments,
    // ripples, checks, faults detected, retries, uncorrected, invalid
    // states, vote ops, cache hits, misses, plans, plan programs, lead
    // programs, planned ops, fallback ops, pending peeks, sign folds,
    // drain peeks, absorb peeks; then AAP, AP, TRA, faults injected,
    // row reads, row writes, ganged commands.
    const std::vector<StepPathCase> cases = {
        {"ambit", BackendKind::Ambit, Protection::None, 0.0,
         {100, 482, 378, 0, 0, 0, 0, 0, 0, 648, 212, 0, 0, 0,
          0, 0, 321, 0, 33, 0, 21785, 2726, 7205, 0, 510, 75, 0},
         {561, 39, 25, 0, 0, 0, 0, 0, 0, 16, 48, 3, 39, 39,
          561, 0, 41, 0, 0, 0, 1699, 198, 518, 0, 145, 79, 0},
         {239, 33, 18, 0, 0, 0, 0, 0, 0, 13, 38, 3, 33, 0,
          239, 0, 33, 0, 0, 0, 1389, 159, 414, 0, 137, 71, 906},
         712920018148354016ULL, 9820645000774082639ULL},
        {"ambit_ecc", BackendKind::Ambit, Protection::Ecc, 1e-3,
         {100, 482, 450, 4417, 689, 689, 0, 0, 0, 713, 219, 0, 0, 0,
          0, 0, 391, 0, 33, 0, 68811, 1078, 17304, 1003, 13831, 80, 0},
         {561, 39, 25, 277, 21, 21, 0, 0, 0, 16, 48, 3, 39, 39,
          561, 0, 41, 0, 0, 0, 4477, 70, 1093, 28, 976, 80, 0},
         {239, 33, 20, 227, 15, 15, 0, 0, 0, 14, 39, 3, 33, 0,
          239, 0, 35, 0, 0, 0, 3707, 59, 899, 26, 820, 73, 2238},
         16845428621004355222ULL, 3997259512444682966ULL},
        {"ambit_tmr", BackendKind::Ambit, Protection::Tmr, 0.0,
         {100, 482, 378, 0, 0, 0, 0, 0, 10320, 1944, 636, 0, 0, 0,
          0, 0, 321, 0, 33, 0, 74331, 8178, 23939, 0, 822, 217, 0},
         {561, 39, 25, 0, 0, 0, 0, 0, 768, 48, 144, 3, 39, 39,
          561, 0, 41, 0, 0, 0, 5865, 594, 1746, 0, 353, 155, 0},
         {239, 33, 18, 0, 0, 0, 0, 0, 612, 39, 114, 3, 33, 0,
          239, 0, 33, 0, 0, 0, 4779, 477, 1395, 0, 345, 143, 3114},
         712920018148354016ULL, 9820645000774082639ULL},
        {"nvm_pinatubo", BackendKind::NvmPinatubo, Protection::None, 0.0,
         {80, 276, 308, 0, 0, 0, 0, 0, 0, 438, 146, 0, 0, 0,
          0, 0, 321, 0, 0, 0, 5840, 0, 5256, 0, 373, 20, 0},
         {561, 39, 25, 0, 0, 0, 0, 0, 0, 16, 48, 3, 39, 39,
          561, 0, 41, 0, 0, 0, 763, 0, 699, 0, 145, 79, 0},
         {239, 33, 18, 0, 0, 0, 0, 0, 0, 13, 38, 3, 33, 0,
          239, 0, 33, 0, 0, 0, 639, 0, 588, 0, 137, 71, 303},
         16257338858552327844ULL, 9820645000774082639ULL},
        {"nvm_magic", BackendKind::NvmMagic, Protection::None, 0.0,
         {80, 276, 308, 0, 0, 0, 0, 0, 0, 438, 146, 0, 0, 0,
          0, 0, 321, 0, 0, 0, 11463, 0, 11463, 0, 373, 20, 0},
         {561, 39, 25, 0, 0, 0, 0, 0, 0, 16, 48, 3, 39, 39,
          561, 0, 41, 0, 0, 0, 1503, 0, 1503, 0, 145, 79, 0},
         {239, 33, 18, 0, 0, 0, 0, 0, 0, 13, 38, 3, 33, 0,
          239, 0, 33, 0, 0, 0, 1257, 0, 1257, 0, 137, 71, 585},
         16257338858552327844ULL, 9820645000774082639ULL},
        {"rca_ecc", BackendKind::Rca, Protection::Ecc, 0.0,
         {80, 80, 0, 8400, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
          0, 0, 0, 0, 0, 0, 70191, 0, 16800, 0, 16800, 4, 0},
         {561, 39, 0, 4095, 0, 0, 0, 0, 0, 7, 32, 3, 39, 39,
          561, 0, 0, 0, 0, 0, 34275, 0, 8190, 0, 8190, 41, 0},
         {239, 33, 0, 3465, 0, 0, 0, 0, 0, 6, 27, 3, 33, 0,
          239, 0, 0, 0, 0, 0, 29019, 0, 6930, 0, 6930, 35, 28908},
         16257338858552327844ULL, 9820645000774082639ULL},
        {"rca_tmr", BackendKind::Rca, Protection::Tmr, 0.0,
         {80, 80, 0, 0, 0, 0, 0, 0, 11200, 0, 0, 0, 0, 0,
          0, 0, 0, 0, 0, 0, 104173, 0, 28000, 0, 0, 4, 0},
         {561, 39, 0, 0, 0, 0, 0, 0, 5460, 21, 96, 3, 39, 39,
          561, 0, 0, 0, 0, 0, 50955, 0, 13650, 0, 0, 41, 0},
         {239, 33, 0, 0, 0, 0, 0, 0, 4620, 18, 81, 3, 33, 0,
          239, 0, 0, 0, 0, 0, 43167, 0, 11550, 0, 0, 35, 42834},
         16257338858552327844ULL, 9820645000774082639ULL},
    };
    for (const StepPathCase &c : cases) {
        SCOPED_TRACE(c.name);
        const EngineConfig cfg = stepPathConfig(c);
        {
            C2MEngine eng(cfg);
            const auto sums = runInputScript(eng);
            EXPECT_EQ(integerTallies(eng.stats()), c.inputs);
            std::vector<std::vector<int64_t>> got;
            for (unsigned g = 0; g < cfg.numGroups; ++g)
                got.push_back(eng.readCounters(g));
            EXPECT_EQ(counterDigest(got), c.inputDigest);
            if (c.faultRate == 0.0) {
                EXPECT_EQ(got, sums);
            }
        }
        {
            ShardedEngine eng(cfg, 2);
            const auto sums = runPlanScript(eng);
            const auto shards = eng.shardStats();
            EXPECT_EQ(integerTallies(shards[0]), c.plan0);
            EXPECT_EQ(integerTallies(shards[1]), c.plan1);
            std::vector<std::vector<int64_t>> got;
            for (unsigned g = 0; g < cfg.numGroups; ++g)
                got.push_back(eng.readAllCounters(g));
            EXPECT_EQ(counterDigest(got), c.planDigest);
            if (c.faultRate == 0.0) {
                EXPECT_EQ(got, sums);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tensor-op caller errors: refused before anything changes
// ---------------------------------------------------------------------

namespace {

std::vector<std::vector<uint64_t>>
shardTallies(const C2MEngine &eng)
{
    return {integerTallies(eng.stats())};
}

std::vector<std::vector<uint64_t>>
shardTallies(const ShardedEngine &eng)
{
    std::vector<std::vector<uint64_t>> out;
    for (const EngineStats &s : eng.shardStats())
        out.push_back(integerTallies(s));
    return out;
}

std::vector<int64_t>
groupValues(C2MEngine &eng, unsigned group)
{
    return eng.readCounters(group);
}

std::vector<int64_t>
groupValues(ShardedEngine &eng, unsigned group)
{
    return eng.readAllCounters(group);
}

/**
 * @p bad must throw std::invalid_argument and leave every tally of
 * every shard and then every group's counters as they were (@p values;
 * read after the tallies, since reads are charged).
 */
template <typename Engine>
void
expectRefused(Engine &eng,
              const std::vector<std::vector<int64_t>> &values,
              const char *what, const std::function<void()> &bad)
{
    SCOPED_TRACE(what);
    const auto before = shardTallies(eng);
    EXPECT_THROW(bad(), std::invalid_argument);
    EXPECT_EQ(shardTallies(eng), before);
    for (unsigned g = 0; g < values.size(); ++g)
        EXPECT_EQ(groupValues(eng, g), values[g]) << "group " << g;
}

/** Every bad tensor-op, drain and read argument against @p eng. */
template <typename Engine>
void
expectBadArgumentsRefused(Engine &eng,
                          const std::vector<std::vector<int64_t>> &values)
{
    expectRefused(eng, values, "addCounters(0, 0)",
                  [&] { eng.addCounters(0, 0); });
    expectRefused(eng, values, "addCounters(0, 3)",
                  [&] { eng.addCounters(0, 3); });
    expectRefused(eng, values, "addCounters(3, 0)",
                  [&] { eng.addCounters(3, 0); });
    expectRefused(eng, values, "addCounters(0, signed 1)",
                  [&] { eng.addCounters(0, 1); });
    expectRefused(eng, values, "addCounters(signed 1, 2)",
                  [&] { eng.addCounters(1, 2); });
    expectRefused(eng, values, "relu(3)", [&] { eng.relu(3); });
    expectRefused(eng, values, "shiftLeft(0, 0, 1)",
                  [&] { eng.shiftLeft(0, 0, 1); });
    expectRefused(eng, values, "shiftLeft(0, 3, 1)",
                  [&] { eng.shiftLeft(0, 3, 1); });
    expectRefused(eng, values, "shiftLeft(3, 0, 1)",
                  [&] { eng.shiftLeft(3, 0, 1); });
    expectRefused(eng, values, "shiftLeft(signed 1, 2, 1)",
                  [&] { eng.shiftLeft(1, 2, 1); });
    expectRefused(eng, values, "drain(3)", [&] { eng.drain(3); });
    expectRefused(eng, values, "read group 3",
                  [&] { groupValues(eng, 3); });
}

/** Tensor ops on a backend without them (NVM Magic). */
template <typename Engine>
void
expectNoTensorOps(Engine &eng,
                  const std::vector<std::vector<int64_t>> &values)
{
    expectRefused(eng, values, "addCounters without tensor ops",
                  [&] { eng.addCounters(0, 2); });
    expectRefused(eng, values, "relu without tensor ops",
                  [&] { eng.relu(0); });
    expectRefused(eng, values, "shiftLeft without tensor ops",
                  [&] { eng.shiftLeft(0, 2, 1); });
}

} // namespace

TEST(EngineTensorErrors, BadArgumentsThrowBeforeAnyChange)
{
    auto cfg = smallConfig(4);
    cfg.numGroups = 3;
    // Group 0 holds 5, group 1 is signed at -2 (on the sharded engine
    // only in counter 12, so only shard 1 is signed), group 2 holds 3.
    for (BackendKind kind : {BackendKind::Ambit, BackendKind::NvmMagic}) {
        SCOPED_TRACE(core::backendName(kind));
        cfg.backend = kind;
        const bool tensor = kind == BackendKind::Ambit;
        {
            C2MEngine eng(cfg);
            const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
            eng.accumulate(5, h, 0);
            eng.accumulateSigned(-2, h, 1);
            eng.accumulate(3, h, 2);
            const std::vector<std::vector<int64_t>> values = {
                std::vector<int64_t>(16, 5),
                std::vector<int64_t>(16, -2),
                std::vector<int64_t>(16, 3)};
            if (tensor)
                expectBadArgumentsRefused(eng, values);
            else
                expectNoTensorOps(eng, values);
        }
        {
            ShardedEngine eng(cfg, 2);
            std::vector<BatchOp> ops;
            for (uint64_t c = 0; c < 16; ++c) {
                ops.push_back({c, 5, 0});
                ops.push_back({c, 3, 2});
            }
            ops.push_back({12, -2, 1});
            eng.accumulateBatch(ops);
            ASSERT_FALSE(eng.shard(0).signedMode(1));
            ASSERT_TRUE(eng.shard(1).signedMode(1));
            std::vector<std::vector<int64_t>> values = {
                std::vector<int64_t>(16, 5), std::vector<int64_t>(16, 0),
                std::vector<int64_t>(16, 3)};
            values[1][12] = -2;
            if (tensor)
                expectBadArgumentsRefused(eng, values);
            else
                expectNoTensorOps(eng, values);
        }
    }
}

TEST(EngineRewrite, SplicesColumnsAndReportsWhatTheyHeld)
{
    // Counters [5, 9) of an unsigned group and [0, 2) of a signed one
    // are rewritten through the host path on every replica: the other
    // counters keep their values, the old ones come back decoded, the
    // signed group keeps its offset, and the IARM bounds cover the
    // digits written. Bad arguments throw before any row changes.
    for (const Protection prot : {Protection::None, Protection::Tmr}) {
        SCOPED_TRACE(prot == Protection::Tmr ? "tmr" : "none");
        auto cfg = smallConfig(4);
        cfg.numGroups = 2;
        cfg.protection = prot;
        C2MEngine eng(cfg);
        const unsigned h = eng.addMask(std::vector<uint8_t>(16, 1));
        for (int i = 0; i < 9; ++i)
            eng.accumulate(3, h, 0);
        eng.accumulateSigned(-2, h, 1);
        const int64_t offset = eng.valueOffset(1);

        const std::vector<int64_t> values = {0, 1, 100, 70000};
        std::vector<int64_t> old(4);
        eng.rewriteCounters(0, 5, values, old);
        EXPECT_EQ(old, std::vector<int64_t>(4, 27));
        std::vector<int64_t> want(16, 27);
        std::copy(values.begin(), values.end(), want.begin() + 5);
        EXPECT_EQ(eng.readCounters(0), want);
        EXPECT_GE(eng.iarmBounds(0)[8], 1u); // 70000 = 4^8 + ...

        std::vector<int64_t> old1(2);
        eng.rewriteCounters(1, 0, std::vector<int64_t>{-7, 5}, old1);
        EXPECT_EQ(old1, std::vector<int64_t>(2, -2));
        std::vector<int64_t> want1(16, -2);
        want1[0] = -7;
        want1[1] = 5;
        EXPECT_EQ(eng.readCounters(1), want1);
        EXPECT_EQ(eng.valueOffset(1), offset);

        const auto rows0 = eng.stats().fabric;
        std::vector<int64_t> short_old(3);
        EXPECT_THROW(eng.rewriteCounters(2, 0, values, old),
                     std::invalid_argument);
        EXPECT_THROW(eng.rewriteCounters(0, 13, values, old),
                     std::invalid_argument);
        EXPECT_THROW(eng.rewriteCounters(0, 0, values, short_old),
                     std::invalid_argument);
        EXPECT_EQ(eng.stats().fabric.rowReads, rows0.rowReads);
        EXPECT_EQ(eng.stats().fabric.rowWrites, rows0.rowWrites);
        EXPECT_EQ(eng.readCounters(0), want);
    }
    auto cfg = smallConfig(4);
    cfg.backend = BackendKind::Rca;
    C2MEngine rca(cfg);
    std::vector<int64_t> old(1);
    EXPECT_THROW(rca.rewriteCounters(0, 0, std::vector<int64_t>{1}, old),
                 std::invalid_argument);
}
