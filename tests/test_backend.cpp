/**
 * @file
 * CountingBackend tests: the same engine drives Ambit, NVM
 * (Pinatubo/MAGIC) and RCA substrates with identical counter
 * readouts on unprotected configs, capability flags gate protection
 * and tensor support, and the per-backend program cache surfaces its
 * hit/miss counts in EngineStats. The word-parallel JC readout is
 * held to the per-bit reference decoder on random, faulted and wide
 * counter states.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "common/rng.hpp"
#include "core/backend_jc.hpp"
#include "core/backend_rca.hpp"
#include "core/costmodel.hpp"
#include "core/engine.hpp"
#include "core/kernels.hpp"
#include "core/sharded.hpp"
#include "dram/subarray.hpp"
#include "perbit_oracle.hpp"
#include "workloads/sparsity.hpp"

using namespace c2m;
using core::BackendKind;
using core::C2MEngine;
using core::EngineConfig;
using core::ShardedEngine;

namespace {

constexpr BackendKind kAllBackends[] = {
    BackendKind::Ambit, BackendKind::NvmPinatubo,
    BackendKind::NvmMagic, BackendKind::Rca};

EngineConfig
baseConfig(BackendKind kind, unsigned radix = 4)
{
    EngineConfig cfg;
    cfg.backend = kind;
    cfg.radix = radix;
    cfg.capacityBits = 16;
    cfg.numCounters = 8;
    cfg.maxMaskRows = 4;
    return cfg;
}

/** An op stream exercising k-ary steps, multi-digit carries, zeros. */
const uint64_t kValues[] = {1, 3, 0, 7, 2, 15, 64, 5, 1023, 2, 77};

std::vector<uint8_t>
altMask(size_t n, unsigned phase)
{
    std::vector<uint8_t> m(n, 0);
    for (size_t i = 0; i < n; ++i)
        m[i] = (i % 3) == phase;
    return m;
}

} // namespace

class BackendKindTest
    : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(BackendKindTest, UnsignedAccumulateMatchesHostReference)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    const auto m0 = altMask(cfg.numCounters, 0);
    const auto m1 = altMask(cfg.numCounters, 1);
    const unsigned h0 = eng.addMask(m0);
    const unsigned h1 = eng.addMask(m1);

    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (size_t i = 0; i < std::size(kValues); ++i) {
        const unsigned h = i % 2 ? h1 : h0;
        const auto &m = i % 2 ? m1 : m0;
        eng.accumulate(kValues[i], h);
        for (size_t c = 0; c < expect.size(); ++c)
            if (m[c])
                expect[c] += static_cast<int64_t>(kValues[i]);
    }
    EXPECT_EQ(eng.readCounters(), expect)
        << "backend " << core::backendName(GetParam());
}

TEST_P(BackendKindTest, SignedAccumulateMatchesHostReference)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    const auto m0 = altMask(cfg.numCounters, 0);
    const unsigned h0 = eng.addMask(m0);

    const int64_t stream[] = {5, -3, 40, -60, 7, -1, -200, 33};
    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (int64_t v : stream) {
        eng.accumulateSigned(v, h0);
        for (size_t c = 0; c < expect.size(); ++c)
            if (m0[c])
                expect[c] += v;
    }
    EXPECT_EQ(eng.readCounters(), expect)
        << "backend " << core::backendName(GetParam());
}

TEST_P(BackendKindTest, ReadDigitMatchesDecompositionAfterDrain)
{
    auto cfg = baseConfig(GetParam());
    C2MEngine eng(cfg);
    std::vector<uint8_t> all(cfg.numCounters, 1);
    const unsigned h = eng.addMask(all);

    uint64_t total = 0;
    for (uint64_t v : {9u, 27u, 100u}) {
        eng.accumulate(v, h);
        total += v;
    }
    eng.drain(0);

    // With every Onext row clear, the readout can reach the total only
    // through the canonical digits of its radix decomposition.
    EXPECT_EQ(eng.readCounters(),
              std::vector<int64_t>(cfg.numCounters,
                                   static_cast<int64_t>(total)))
        << "backend " << core::backendName(GetParam());
    auto &backend = eng.backend();
    if (!backend.caps().pendingFlags)
        return;
    for (unsigned d = 0; d < backend.numDigits(); ++d)
        EXPECT_EQ(backend.pendingRow(0, d).popcount(), 0u)
            << "digit " << d << " backend "
            << core::backendName(GetParam());
}

TEST_P(BackendKindTest, MakeBackendBuildsTheConfiguredKind)
{
    const auto cfg = baseConfig(GetParam());
    core::EngineStats stats;
    EXPECT_EQ(core::makeBackend(cfg, 1, stats)->kind(), cfg.backend);
}

TEST_P(BackendKindTest, GemvBinaryKernelRunsOnEveryBackend)
{
    auto cfg = baseConfig(GetParam());
    cfg.maxMaskRows = 8;
    C2MEngine eng(cfg);
    const auto Z = workloads::randomBinaryMatrix(
        6, cfg.numCounters, 0.5, 42);
    const std::vector<uint64_t> x = {3, 0, 9, 1, 14, 6};
    EXPECT_EQ(core::gemvIntBinary(eng, x, Z),
              core::refGemvBinary(x, Z));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendKindTest, ::testing::ValuesIn(kAllBackends),
    [](const ::testing::TestParamInfo<BackendKind> &info) {
        std::string name = core::backendName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(BackendEquivalence, AllBackendsAgreeBitForBit)
{
    std::vector<std::vector<int64_t>> reads;
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind);
        C2MEngine eng(cfg);
        const unsigned h0 = eng.addMask(altMask(cfg.numCounters, 0));
        const unsigned h1 = eng.addMask(altMask(cfg.numCounters, 1));
        for (size_t i = 0; i < std::size(kValues); ++i)
            eng.accumulate(kValues[i], i % 2 ? h1 : h0);
        eng.accumulateSigned(-123, h0);
        eng.accumulateSigned(-6, h1);
        reads.push_back(eng.readCounters());
    }
    for (size_t b = 1; b < reads.size(); ++b)
        EXPECT_EQ(reads[0], reads[b])
            << "backend " << core::backendName(kAllBackends[b])
            << " diverges from ambit";
}

TEST(BackendReadDigit, NegativeCountersAgreeAtNonPowerOfTwoRadix)
{
    // Radix 6: 2^W is not divisible by 6^D, so a negative counter is
    // stored differently on each substrate (two's complement on RCA,
    // excess-B on the JC backends) and must still read the same.
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind, /*radix=*/6);
        C2MEngine eng(cfg);
        std::vector<uint8_t> all(cfg.numCounters, 1);
        const unsigned h = eng.addMask(all);
        eng.accumulateSigned(5, h);
        eng.accumulateSigned(-12, h);
        EXPECT_EQ(eng.readCounters(),
                  std::vector<int64_t>(cfg.numCounters, -7))
            << core::backendName(kind);
    }
}

// ---------------------------------------------------------------------
// Word-parallel JC readout vs the per-bit reference decoder
// ---------------------------------------------------------------------

namespace {

/**
 * Rows of one counter group @p cols wide plus 37 garbage columns:
 * random digits, Onext and Osign bits, and for n >= 3 some random
 * (mostly invalid) JC patterns. Non-state rows hold noise too.
 */
std::vector<BitVector>
randomJcRows(const jc::CounterLayout &l, size_t cols, Rng &rng)
{
    std::vector<BitVector> rows(l.endRow(), BitVector(cols + 37));
    for (auto &row : rows)
        row.randomize(rng);
    const unsigned n = l.bitsPerDigit();
    for (size_t c = 0; c < cols; ++c) {
        for (unsigned d = 0; d < l.numDigits(); ++d) {
            uint64_t bits = jc::encode(
                n, static_cast<unsigned>(rng.nextBounded(l.radix())));
            if (n >= 3 && rng.nextBool(0.2))
                bits = rng.next() & ((uint64_t{1} << n) - 1);
            for (unsigned i = 0; i < n; ++i)
                rows[l.bitRow(d, i)].set(c, (bits >> i) & 1);
            rows[l.onextRow(d)].set(c, rng.nextBool(0.25));
        }
        rows[l.osignRow()].set(c, rng.nextBool(0.5));
    }
    return rows;
}

const size_t kReadoutCols[] = {1, 63, 64, 65, 130, 1000};

} // namespace

class JcReadout
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(JcReadout, MatchesPerBitOracle)
{
    const auto [radix, capacity] = GetParam();
    const jc::CounterLayout l(radix, capacity, 3);
    Rng rng(131 * radix + capacity);
    for (size_t cols : kReadoutCols) {
        const auto rows = randomJcRows(l, cols, rng);
        std::vector<unsigned> order, want_order;
        core::EngineStats stats;
        const auto got = core::decodeJcCounters(
            l, cols, stats, 0, [&](unsigned r) -> const BitVector & {
                order.push_back(r);
                return rows[r];
            });
        uint64_t want_invalid = 0;
        const auto want = oracle::decodeJcCounters(
            l, cols, want_invalid, [&](unsigned r) -> const BitVector & {
                want_order.push_back(r);
                return rows[r];
            });
        EXPECT_EQ(got, want) << "cols " << cols;
        EXPECT_EQ(stats.invalidStates, want_invalid) << "cols " << cols;
        EXPECT_EQ(order, want_order) << "row reads differ, cols " << cols;

        // A value offset comes off in the same pass, wrapping in
        // uint64 like the digit sum.
        const int64_t offset = 0x5555'5555'5555'5555;
        const auto shifted = core::decodeJcCounters(
            l, cols, stats, offset,
            [&](unsigned r) -> const BitVector & { return rows[r]; });
        for (size_t c = 0; c < cols; ++c)
            EXPECT_EQ(static_cast<uint64_t>(shifted[c]),
                      static_cast<uint64_t>(want[c]) -
                          static_cast<uint64_t>(offset))
                << "cols " << cols << " col " << c;
    }
}

TEST_P(JcReadout, AmbitAndNvmReadTheOracleValues)
{
    const auto [radix, capacity] = GetParam();
    for (BackendKind kind : {BackendKind::Ambit, BackendKind::NvmMagic}) {
        EngineConfig cfg = baseConfig(kind, radix);
        cfg.capacityBits = capacity;
        cfg.numCounters = 130;
        core::EngineStats stats;
        const auto backend = core::makeBackend(cfg, 1, stats);
        const jc::CounterLayout &l = backend->layout(0);
        Rng rng(7 * radix + capacity);
        auto rows = randomJcRows(l, cfg.numCounters, rng);
        for (unsigned r = 0; r < l.osignRow() + 1; ++r) {
            BitVector row(cfg.numCounters);
            for (size_t c = 0; c < cfg.numCounters; ++c)
                row.set(c, rows[r].get(c));
            backend->scrubWriteRow(r, row);
        }
        uint64_t want_invalid = 0;
        const auto want = oracle::decodeJcCounters(
            l, cfg.numCounters, want_invalid,
            [&](unsigned r) -> const BitVector & { return rows[r]; });
        const uint64_t reads0 = backend->opStats().rowReads;
        const double ns0 = backend->opStats().fabricNs;
        EXPECT_EQ(backend->readCounters(0, 0), want)
            << core::backendName(kind);
        EXPECT_EQ(stats.invalidStates, want_invalid)
            << core::backendName(kind);
        // One charged host read per state row, on every JC fabric.
        EXPECT_EQ(backend->opStats().rowReads - reads0,
                  l.osignRow() + 1)
            << core::backendName(kind);
        EXPECT_GT(backend->opStats().fabricNs, ns0)
            << core::backendName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RadixByCapacity, JcReadout,
    ::testing::Combine(::testing::Values(2u, 4u, 6u, 10u, 16u, 20u),
                       ::testing::Values(8u, 32u, 64u)));

TEST(BackendCaps, AdvertiseExpectedFeatures)
{
    for (BackendKind kind : kAllBackends) {
        C2MEngine eng(baseConfig(kind));
        const auto &caps = eng.backend().caps();
        switch (kind) {
        case BackendKind::Ambit:
            EXPECT_TRUE(caps.eccChecks && caps.tmrVoting &&
                        caps.tensorOps && caps.pendingFlags);
            break;
        case BackendKind::NvmPinatubo:
        case BackendKind::NvmMagic:
            EXPECT_FALSE(caps.eccChecks);
            EXPECT_FALSE(caps.tmrVoting);
            EXPECT_FALSE(caps.tensorOps);
            EXPECT_TRUE(caps.pendingFlags);
            break;
        case BackendKind::Rca:
            EXPECT_TRUE(caps.eccChecks);
            EXPECT_TRUE(caps.tmrVoting);
            EXPECT_FALSE(caps.tensorOps);
            EXPECT_FALSE(caps.pendingFlags);
            break;
        }
    }
}

TEST(BackendProtection, EccRunsOnAmbitAndRca)
{
    for (BackendKind kind :
         {BackendKind::Ambit, BackendKind::Rca}) {
        auto cfg = baseConfig(kind);
        cfg.protection = core::Protection::Ecc;
        C2MEngine eng(cfg);
        std::vector<uint8_t> all(cfg.numCounters, 1);
        const unsigned h = eng.addMask(all);
        eng.accumulate(21, h);
        eng.accumulate(9, h);
        EXPECT_EQ(eng.readCounters(),
                  std::vector<int64_t>(cfg.numCounters, 30));
        EXPECT_GT(eng.stats().checksRun, 0u);
    }
}

// ---------------------------------------------------------------------
// RCA: the one SIMDRAM baseline
// ---------------------------------------------------------------------

TEST(RcaBaseline, EveryInputCostsOneFullWidthAdd)
{
    // The SIMDRAM baseline pays one W-bit ripple-carry add per input,
    // whatever its value: zero, one digit, several digits, negative.
    for (const bool ecc : {false, true}) {
        auto cfg = baseConfig(BackendKind::Rca); // radix 4, 16 bits
        if (ecc)
            cfg.protection = core::Protection::Ecc;
        C2MEngine eng(cfg);
        const auto &rca =
            dynamic_cast<const core::RcaBackend &>(eng.backend());
        ASSERT_EQ(rca.width(), 19u);
        const uint64_t per_add =
            core::RcaCostModel(rca.width(), ecc).accumulateOps();
        if (!ecc) {
            EXPECT_EQ(per_add, 210u);
        }
        const unsigned h = eng.addMask(altMask(cfg.numCounters, 0));
        int64_t want = 0;
        for (const int64_t v : {0, 1, 75, -5}) {
            const auto c0 = eng.subarray().stats().commands();
            eng.accumulateSigned(v, h);
            EXPECT_EQ(eng.subarray().stats().commands() - c0, per_add)
                << "input " << v << " ecc " << ecc;
            want += v;
        }
        EXPECT_EQ(eng.stats().inputsAccumulated, 4u);
        const auto mask = altMask(cfg.numCounters, 0);
        const auto got = eng.readCounters();
        for (size_t c = 0; c < got.size(); ++c)
            EXPECT_EQ(got[c], mask[c] ? want : 0) << "col " << c;
    }
}

TEST(RcaBaseline, TmrVoteRestoresAFlippedReplicaRow)
{
    auto cfg = baseConfig(BackendKind::Rca);
    cfg.protection = core::Protection::Tmr;
    C2MEngine eng(cfg);
    const auto &rca =
        dynamic_cast<const core::RcaBackend &>(eng.backend());
    const unsigned W = rca.width();
    const unsigned h =
        eng.addMask(std::vector<uint8_t>(cfg.numCounters, 1));
    eng.accumulate(9, h);
    const uint64_t votes = eng.stats().voteOps;
    EXPECT_EQ(votes, 4u * W);

    // Flip bit 2 of every counter in replica 0, the one readout uses.
    uprog::RcaLayout l0;
    l0.width = W;
    l0.baseRow = 0;
    ASSERT_EQ(eng.physicalGroup(0, 0), 0u);
    auto &sub = eng.subarray();
    BitVector row(cfg.numCounters);
    row.copyFrom(sub.peekRow(l0.bitRow(2)));
    row.invert();
    sub.hostWriteRow(l0.bitRow(2), row);
    EXPECT_EQ(eng.readCounters(),
              std::vector<int64_t>(cfg.numCounters, 9 ^ 4));

    // The next add's vote outvotes the flipped replica on every bit.
    eng.accumulateSigned(-3, h);
    EXPECT_EQ(eng.readCounters(),
              std::vector<int64_t>(cfg.numCounters, 6));
    EXPECT_EQ(eng.stats().voteOps - votes, 4u * W);
}

TEST(RcaBaseline, PlanStepsHitTheProgramCache)
{
    // Point inputs are generated per call; drain-plan steps are
    // (digit, k) programs and replay from the cache.
    auto cfg = baseConfig(BackendKind::Rca);
    C2MEngine eng(cfg);
    const BitVector plane =
        dram::maskRow(altMask(cfg.numCounters, 1), cfg.numCounters);
    const unsigned h = eng.addMask(altMask(cfg.numCounters, 1));
    const core::MaskedStep steps[] = {{0, 3, h, &plane},
                                      {2, 1, h, &plane}};
    const unsigned headroom[] = {3, 0, 1};
    for (int round = 0; round < 3; ++round) {
        eng.drain(0);
        eng.planPrepare(steps, headroom, 0, 0);
        eng.executePlan(steps, 0, 0, 1);
    }
    EXPECT_EQ(eng.stats().programCacheMisses, 2u);
    EXPECT_EQ(eng.stats().programCacheHits, 4u);
    const auto mask = altMask(cfg.numCounters, 1);
    const auto got = eng.readCounters();
    for (size_t c = 0; c < got.size(); ++c)
        EXPECT_EQ(got[c], mask[c] ? 3 * (3 + 16) : 0) << "col " << c;
}

TEST(BackendSharded, NonAmbitShardsMatchHostHistogram)
{
    for (BackendKind kind : kAllBackends) {
        auto cfg = baseConfig(kind);
        cfg.numCounters = 32;
        cfg.maxMaskRows = 1;
        ShardedEngine eng(cfg, 4);
        std::vector<core::BatchOp> ops;
        std::vector<int64_t> expect(cfg.numCounters, 0);
        for (uint64_t i = 0; i < 64; ++i) {
            const uint64_t counter = (i * 7) % cfg.numCounters;
            const int64_t value = 1 + static_cast<int64_t>(i % 5);
            ops.push_back({counter, value, 0});
            expect[counter] += value;
        }
        eng.accumulateBatch(ops);
        EXPECT_EQ(eng.readAllCounters(), expect)
            << "backend " << core::backendName(kind);
    }
}

TEST(BackendSharded, ShiftLeftFansOutToAllShards)
{
    auto cfg = baseConfig(BackendKind::Ambit);
    cfg.numCounters = 16;
    cfg.numGroups = 2;
    cfg.maxMaskRows = 2;
    ShardedEngine eng(cfg, 4);
    std::vector<uint8_t> all(cfg.numCounters, 1);
    const unsigned h = eng.addMask(all);
    eng.accumulate(5, h, 0);

    eng.shiftLeft(0, 1, 2); // x4
    EXPECT_EQ(eng.readAllCounters(0),
              std::vector<int64_t>(cfg.numCounters, 20));
}
