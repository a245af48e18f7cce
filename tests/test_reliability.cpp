/**
 * @file
 * Reliability-subsystem tests: canonical-image encoding against the
 * live fabric and, bit for bit, against the per-bit reference
 * encoder, RowCodec round trips at random geometry, scrub-under-
 * concurrent-ingest exactness (the subsystem's acceptance property:
 * scrubbed runs end bit-identical to fault-free serial replay while
 * unscrubbed runs at the same fault rate do not), standalone sweeps
 * (a boundary sweeps only the shards that changed), mirror-store
 * decay, TMR replicas, NVM fabrics, and the health monitor's
 * fault-rate estimate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/backend_jc.hpp"
#include "core/engine.hpp"
#include "core/sharded.hpp"
#include "ecc/rowcodec.hpp"
#include "reliability/health.hpp"
#include "reliability/mirror.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "perbit_oracle.hpp"

using namespace c2m;
using namespace c2m::core;
using c2m::reliability::HealthMonitor;
using c2m::reliability::RowMirror;
using c2m::reliability::ScrubConfig;
using c2m::reliability::Scrubber;
using c2m::reliability::ScrubObservation;

namespace {

EngineConfig
faultyConfig(size_t counters, double fault_rate, uint64_t seed)
{
    EngineConfig cfg;
    cfg.numCounters = counters;
    cfg.capacityBits = 24;
    cfg.faultRate = fault_rate;
    cfg.seed = seed;
    return cfg;
}

std::vector<BatchOp>
randomOps(size_t count, size_t counters, uint64_t seed,
          bool with_negatives)
{
    Rng rng(seed);
    std::vector<BatchOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(40));
        if (with_negatives && rng.nextBool(0.3))
            v = -v;
        ops.push_back({rng.nextBounded(counters), v, 0});
    }
    return ops;
}

std::vector<int64_t>
faultFreeReference(const EngineConfig &cfg,
                   std::span<const BatchOp> ops)
{
    EngineConfig clean = cfg;
    clean.faultRate = 0.0;
    return replaySerial(clean, ops);
}

/** Unsigned Zipf(1.0) deltas in 1..7: epochs that leave carries pending. */
std::vector<BatchOp>
zipfOps(size_t count, size_t counters, uint64_t key_seed,
        uint64_t value_seed)
{
    ZipfRng keys(counters, 1.0, key_seed);
    Rng vals(value_seed);
    std::vector<BatchOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i)
        ops.push_back({keys.next(),
                       1 + static_cast<int64_t>(vals.nextBounded(7)), 0});
    return ops;
}

/** Apply @p ops to @p eng in batches of @p chunk, journaling each. */
void
applyInBatches(ShardedEngine &eng, Scrubber &scrub,
               std::span<const BatchOp> ops, size_t chunk)
{
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = ops.subspan(lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
    }
}

/** Set pending (Onext) bits of group 0 on every Ambit shard. */
size_t
pendingBits(ShardedEngine &eng)
{
    size_t bits = 0;
    for (unsigned s = 0; s < eng.numShards(); ++s) {
        C2MEngine &shard = eng.shard(s);
        const auto &lay = shard.layout(0);
        for (unsigned d = 0; d < lay.numDigits(); ++d)
            bits += shard.subarray().rawRow(lay.onextRow(d)).popcount();
    }
    return bits;
}

/**
 * First column of group 0 on Ambit shard @p shard with no pending
 * carry at any digit, or numCounters if every column has one.
 */
size_t
carryFreeColumn(C2MEngine &shard)
{
    const auto &lay = shard.layout(0);
    BitVector carried(shard.config().numCounters);
    for (unsigned d = 0; d < lay.numDigits(); ++d)
        carried.assignOr(carried,
                         shard.subarray().rawRow(lay.onextRow(d)));
    size_t col = 0;
    while (col < carried.size() && carried.get(col))
        ++col;
    return col;
}

struct SweepCase
{
    const char *name;
    BackendKind backend;
    Protection protection;
};

} // namespace

// ---------------------------------------------------------------------
// Canonical counter images (the mirror's correctness foundation)
// ---------------------------------------------------------------------

class CanonicalEncode
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(CanonicalEncode, MatchesDrainedFabricRows)
{
    const unsigned radix = std::get<0>(GetParam());
    const bool with_negatives = std::get<1>(GetParam());

    EngineConfig cfg;
    cfg.radix = radix;
    cfg.capacityBits = 20;
    cfg.numCounters = 48;
    cfg.maxMaskRows = 2;
    cfg.seed = 100 + radix;
    C2MEngine eng(cfg);

    Rng rng(7 * radix + with_negatives);
    std::vector<uint8_t> mask(cfg.numCounters);
    const unsigned h = eng.addMask(mask);
    std::vector<int64_t> expect(cfg.numCounters, 0);
    for (int it = 0; it < 120; ++it) {
        for (auto &b : mask)
            b = rng.nextBool(0.4);
        eng.setMask(h, mask);
        int64_t v = 1 + static_cast<int64_t>(rng.nextBounded(200));
        if (with_negatives && rng.nextBool(0.4))
            v = -v;
        eng.accumulateSigned(v, h);
        for (size_t c = 0; c < mask.size(); ++c)
            if (mask[c])
                expect[c] += v;
    }
    eng.drain(0);

    // A signed group's rows hold every value excess-B.
    EXPECT_EQ(eng.valueOffset(0) != 0, with_negatives);
    RowMirror mirror(eng.layout(0), cfg.numCounters);
    mirror.encodeValues(expect, eng.valueOffset(0));
    for (size_t r = 0; r < mirror.numRows(); ++r) {
        const unsigned row = mirror.fabricRow(eng.layout(0), r);
        EXPECT_EQ(eng.backend().scrubReadRow(row), mirror.dataBits(r))
            << "mirror row " << r;
    }
    // And the mirror decodes back to the exact values.
    EXPECT_EQ(mirror.decodeValues(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Radixes, CanonicalEncode,
    ::testing::Combine(::testing::Values(4u, 6u, 10u, 16u),
                       ::testing::Bool()));

class CanonicalImage
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CanonicalImage, MatchesPerBitOracle)
{
    const auto [radix, capacity] = GetParam();
    const jc::CounterLayout l(radix, capacity);
    // Largest magnitude the ring holds: R^D - 1, clipped to int64.
    unsigned __int128 reach = 1;
    for (unsigned d = 0; d < l.numDigits(); ++d)
        reach *= radix;
    const int64_t top = reach - 1 > INT64_MAX
                            ? INT64_MAX
                            : static_cast<int64_t>(reach - 1);
    Rng rng(17 * radix + capacity);
    for (size_t cols : {1, 63, 64, 65, 130, 1000}) {
        std::vector<int64_t> values(cols);
        for (auto &v : values) {
            switch (rng.nextBounded(4)) {
              case 0:
                v = static_cast<int64_t>(rng.nextBounded(64)) - 32;
                break;
              case 1:
                // Both ends of [-R^D, R^D), clipped to int64.
                v = rng.nextBool(0.5) ? top
                                      : -top - (top < INT64_MAX ? 1 : 0);
                break;
              default:
                v = static_cast<int64_t>(
                        rng.nextBounded(static_cast<uint64_t>(top))) *
                    (rng.nextBool(0.5) ? 1 : -1);
            }
        }
        if (top == INT64_MAX)
            values[0] = INT64_MIN; // R^D > 2^63 holds -2^63 too

        RowMirror mirror(l, cols);
        mirror.encodeValues(values);
        auto want = oracle::mirrorEncode(l, values);
        ASSERT_EQ(mirror.numRows(), want.size());
        for (size_t r = 0; r < want.size(); ++r)
            ASSERT_EQ(mirror.row(r), want[r])
                << "cols " << cols << " image row " << r;

        // Decay both stores identically: single and double flips per
        // row (parity lanes included), some in the Onext rows.
        for (size_t r = 0; r < want.size(); ++r) {
            const unsigned flips =
                static_cast<unsigned>(rng.nextBounded(3));
            for (unsigned f = 0; f < flips; ++f) {
                const size_t pos = rng.nextBounded(want[r].size());
                want[r].set(pos, !want[r].get(pos));
                mirror.row(r).set(pos, !mirror.row(r).get(pos));
            }
        }
        ecc::RowCodec::CorrectResult got_res, want_res;
        const auto got_values = mirror.decodeValues(&got_res);
        EXPECT_EQ(got_values, oracle::mirrorDecode(l, cols, want, want_res))
            << "cols " << cols;
        EXPECT_EQ(got_res.corrected, want_res.corrected);
        EXPECT_EQ(got_res.uncorrectable, want_res.uncorrectable);
        for (size_t r = 0; r < want.size(); ++r)
            EXPECT_EQ(mirror.row(r), want[r]) << "corrected row " << r;
    }
}

TEST(CanonicalImageRange, ValuesBeyondTheModulusPanic)
{
    // radix 4, 8-bit capacity: D = 5 digits, values [-4^5, 4^5).
    const jc::CounterLayout l(4, 8);
    RowMirror mirror(l, 3);
    const std::vector<int64_t> edge = {1023, -1024, 0};
    mirror.encodeValues(edge);
    EXPECT_EQ(mirror.decodeValues(), edge);
    EXPECT_DEATH(mirror.encodeValues(std::vector<int64_t>{0, 1024, 0}),
                 "exceeds JC modulus");
    EXPECT_DEATH(mirror.encodeValues(std::vector<int64_t>{-1025, 0, 0}),
                 "exceeds JC modulus");
}

TEST(CanonicalImageSplice, MatchesAWholeEncodeAndCorrectsOnlyItsWords)
{
    // Splicing values into columns [70, 75) of a 200-column image at a
    // signed offset gives the image a whole encode of the merged
    // values gives. Decay in a word the splice touches is corrected
    // first (not sealed under the new parity); decay in another word
    // is left for the next decode to correct.
    const jc::CounterLayout l(4, 16);
    const int64_t offset = 0x5555;
    std::vector<int64_t> values(200);
    for (size_t c = 0; c < values.size(); ++c)
        values[c] = static_cast<int64_t>(c * 37 % 1000) - 500;
    RowMirror mirror(l, values.size());
    mirror.encodeValues(values, offset);
    mirror.row(0).set(64, !mirror.row(0).get(64));   // word 1: spliced
    mirror.row(3).set(130, !mirror.row(3).get(130)); // word 2: not

    const std::vector<int64_t> spliced = {9, -9, 0, 4000, -4000};
    const auto res = mirror.spliceValues(70, spliced);
    EXPECT_EQ(res.corrected, 1u);
    EXPECT_EQ(res.uncorrectable, 0u);
    std::copy(spliced.begin(), spliced.end(), values.begin() + 70);
    ecc::RowCodec::CorrectResult store;
    EXPECT_EQ(mirror.decodeValues(&store), values);
    EXPECT_EQ(store.corrected, 1u);
    RowMirror whole(l, values.size());
    whole.encodeValues(values, offset);
    for (size_t r = 0; r < whole.numRows(); ++r)
        EXPECT_EQ(mirror.row(r), whole.row(r)) << "row " << r;
}

INSTANTIATE_TEST_SUITE_P(
    RadixByCapacity, CanonicalImage,
    ::testing::Combine(::testing::Values(2u, 4u, 6u, 10u, 16u, 20u),
                       ::testing::Values(8u, 32u, 64u)));

// ---------------------------------------------------------------------
// RowCodec batch + scrub path at random geometry
// ---------------------------------------------------------------------

TEST(RowCodecRoundTrip, RandomWidthsEncodeDecode)
{
    Rng rng(21);
    for (int trial = 0; trial < 40; ++trial) {
        const size_t width = 1 + rng.nextBounded(400);
        ecc::RowCodec codec(width);
        std::vector<BitVector> rows(
            3, BitVector(codec.totalBits()));
        for (auto &row : rows)
            for (size_t i = 0; i < width; ++i)
                row.set(i, rng.nextBool(0.5));
        codec.encodeRows(rows);
        for (const auto &row : rows)
            EXPECT_TRUE(codec.checkRow(row));

        // A single flip in one row is healed by the batch pass.
        const std::vector<BitVector> clean = rows;
        const size_t victim = rng.nextBounded(width);
        rows[1].set(victim, !rows[1].get(victim));
        const auto res = codec.correctRows(rows);
        EXPECT_EQ(res.corrected, 1u);
        EXPECT_EQ(res.uncorrectable, 0u);
        for (size_t r = 0; r < rows.size(); ++r) {
            EXPECT_TRUE(codec.checkRow(rows[r]));
            EXPECT_EQ(rows[r], clean[r]);
        }
    }
}

TEST(RowCodecScrub, CorrectsSingleFlipsRecoversDenseOnes)
{
    Rng rng(22);
    for (int trial = 0; trial < 30; ++trial) {
        const size_t width = 65 + rng.nextBounded(300);
        ecc::RowCodec codec(width);
        BitVector trusted(codec.totalBits());
        for (size_t i = 0; i < width; ++i)
            trusted.set(i, rng.nextBool(0.5));
        codec.encodeRow(trusted);

        // Fabric copy with one sparse flip and one dense word.
        BitVector fabric(width);
        for (size_t i = 0; i < width; ++i)
            fabric.set(i, trusted.get(i));
        const size_t sparse = rng.nextBounded(std::min<size_t>(64, width));
        fabric.set(sparse, !fabric.get(sparse));
        size_t dense_word = width > 64 ? 1 : 0;
        size_t flipped_dense = 0;
        for (size_t b = 0; b < 3; ++b) {
            const size_t pos = dense_word * 64 + b;
            if (pos < width && pos != sparse) {
                fabric.set(pos, !fabric.get(pos));
                ++flipped_dense;
            }
        }
        const auto res = codec.scrubRow(fabric, trusted);
        EXPECT_GE(res.corrected, 1u);
        if (flipped_dense >= 2) {
            EXPECT_GE(res.uncorrectable, 1u);
        }
        for (size_t i = 0; i < width; ++i)
            EXPECT_EQ(fabric.get(i), trusted.get(i)) << "bit " << i;
    }
}

// ---------------------------------------------------------------------
// Scrubbed ingest == fault-free replay (the acceptance property)
// ---------------------------------------------------------------------

TEST(ReliabilityIngest, ScrubbedRunMatchesFaultFreeReplay)
{
    const auto cfg = faultyConfig(96, 1e-3, 11);
    const auto ops = randomOps(3000, cfg.numCounters, 5, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    // The observer must outlive the service (stop() hands it a final
    // sweep), so the scrubber is constructed first.
    Scrubber scrub(eng, {});
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);

    // Producers run while the scrubber corrects injected faults at
    // every epoch boundary (the TSan job covers this interleaving).
    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.counters, ref);

    const auto st = scrub.stats();
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_GT(st.rowsScrubbed, 0u);
    EXPECT_GT(st.faultyBits, 0u);
    EXPECT_GT(st.bitsCorrected + st.wordsRecovered, 0u);
    EXPECT_EQ(st.mirrorWordsLost, 0u);

    // Scrub + fault activity surfaces in the merged service report.
    const auto report = svc.report();
    EXPECT_GT(report.at("reliability.sweeps"), 0u);
    EXPECT_GT(report.at("engine.fabric.faults_injected"), 0u);
    EXPECT_GT(report.at("engine.fabric.tra"), 0u);
    ASSERT_TRUE(report.count("health.fault_rate_ppt"));
}

TEST(ReliabilityIngest, ScrubbedPlannerDrainMatchesFaultFreeReplay)
{
    // Column-parallel drain plans under live CIM faults: the journal
    // records the planned (coalesced) deltas, so sweeps reconstruct
    // the exact expected image and the run ends bit-identical to a
    // fault-free serial replay — with far fewer fabric programs.
    const auto cfg = faultyConfig(96, 1e-3, 23);
    const auto ops = randomOps(3000, cfg.numCounters, 7, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    service::IngestConfig icfg;
    icfg.minDrainOps = 256; // real coalesced buckets per epoch
    icfg.queueCapacity = ops.size();
    service::IngestService svc(eng, icfg);
    svc.attachObserver(&scrub);

    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();
    EXPECT_EQ(snap.counters, ref);

    // The plans actually engaged (this is not fallback coverage),
    // and the scrubber journaled every planned delta.
    const auto est = svc.engineStats();
    EXPECT_GT(est.plansExecuted, 0u);
    EXPECT_GT(est.plannedOps, 0u);
    const auto st = scrub.stats();
    EXPECT_GT(st.sweeps, 0u);
    EXPECT_GT(st.opsJournaled, 0u);
    EXPECT_EQ(st.mirrorWordsLost, 0u);
}

TEST(ReliabilityIngest, PlannerOffScrubbedRunStaysExactToo)
{
    auto cfg = faultyConfig(64, 1e-3, 29);
    cfg.drainPlanner = false;
    const auto ops = randomOps(1500, cfg.numCounters, 13, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    service::submitConcurrent(svc, ops, 2);
    EXPECT_EQ(svc.snapshot().counters, ref);
    EXPECT_EQ(svc.engineStats().plansExecuted, 0u);
}

TEST(ReliabilityIngest, UnscrubbedRunShowsUncorrectedErrors)
{
    const auto cfg = faultyConfig(96, 1e-3, 11);
    const auto ops = randomOps(3000, cfg.numCounters, 5, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    service::IngestService svc(eng, {});
    service::submitConcurrent(svc, ops, 4);
    const auto snap = svc.snapshot();

    size_t wrong = 0;
    for (size_t i = 0; i < ref.size(); ++i)
        wrong += snap.counters[i] != ref[i];
    EXPECT_GT(wrong, 0u);
}

TEST(ReliabilityIngest, StragglersScrubbedOnStop)
{
    const auto cfg = faultyConfig(64, 2e-3, 17);
    const auto ops = randomOps(1200, cfg.numCounters, 9, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    svc.submit(ops);
    svc.stop(); // drains the queues in normal epochs, then onStop's
                // boundary sweeps what they left dirty

    EXPECT_EQ(eng.readAllCounters(0), ref);
    EXPECT_GT(scrub.stats().sweeps, 0u);
}

TEST(ReliabilityIngest, ObserverDetachesWhileIdle)
{
    const auto cfg = faultyConfig(32, 0.0, 91);
    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    service::IngestService svc(eng, {});
    svc.attachObserver(&scrub);
    svc.submit(randomOps(100, cfg.numCounters, 93, false));
    svc.flushAndWait();
    ASSERT_GT(svc.report().count("reliability.sweeps"), 0u);

    svc.attachObserver(nullptr); // documented idle detach
    svc.submit(randomOps(50, cfg.numCounters, 95, false));
    svc.flushAndWait();
    EXPECT_EQ(svc.report().count("reliability.sweeps"), 0u);
}

// ---------------------------------------------------------------------
// Standalone mode, budget, decay, TMR, NVM
// ---------------------------------------------------------------------

TEST(ScrubberStandalone, BatchesNotedAndSweptExactly)
{
    const auto cfg = faultyConfig(80, 1e-3, 23);
    const auto ops = randomOps(2500, cfg.numCounters, 31, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    const size_t chunk = 250;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    EXPECT_EQ(eng.readAllCounters(0), ref);
    EXPECT_GT(scrub.stats().sweeps, 0u);
}

TEST(ScrubberStandalone, IdleBoundarySweepsNothing)
{
    const auto cfg = faultyConfig(64, 1e-3, 19);
    const auto ops = randomOps(400, cfg.numCounters, 21, false);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    eng.accumulateBatch(ops);
    scrub.noteBatch(ops);
    scrub.boundary();
    const auto swept = scrub.stats();
    ASSERT_EQ(swept.sweeps, eng.numShards());
    const double scrubNs = eng.stats().fabric.attr(cim::FabricCat::Scrub);

    // No command and no journaled delta since the sweep: the next
    // boundary counts itself and touches no shard.
    scrub.boundary();
    const auto idle = scrub.stats();
    EXPECT_EQ(idle.boundaries, swept.boundaries + 1);
    EXPECT_EQ(idle.sweeps, swept.sweeps);
    EXPECT_EQ(idle.rowsScrubbed, swept.rowsScrubbed);
    EXPECT_EQ(eng.stats().fabric.attr(cim::FabricCat::Scrub), scrubNs);
    for (unsigned s = 0; s < eng.numShards(); ++s) {
        scrub.sweepNow(s); // clean: free
        EXPECT_EQ(scrub.shardStats(s).sweeps, 1u) << "shard " << s;
    }

    // scrubAll() is the forced full sweep.
    scrub.scrubAll();
    EXPECT_EQ(scrub.stats().sweeps, swept.sweeps + eng.numShards());
    EXPECT_EQ(eng.readAllCounters(0), faultFreeReference(cfg, ops));
}

TEST(ScrubberStandalone, BudgetRotatesAndScrubAllRecovers)
{
    const auto cfg = faultyConfig(80, 2e-3, 29);
    const auto ops = randomOps(2000, cfg.numCounters, 37, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    const size_t chunk = 200;
    size_t batches = 0;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        if (++batches % 4 == 0) // a boundary every fourth batch
            scrub.boundary();
    }
    // Deferred sweeps leave the last batches' faults and journal
    // behind; a full sweep restores exactness.
    scrub.scrubAll();
    EXPECT_EQ(eng.readAllCounters(0), ref);
    // The spacing really limited the work: sweeps < what a boundary
    // per batch would have run.
    EXPECT_LT(scrub.stats().sweeps,
              (ops.size() / chunk) * eng.numShards() + 4);
}

TEST(ScrubberStandalone, FaultyAbsorbingEpochsHealAtTheSweep)
{
    // Unsigned Zipf epochs between spaced-out sweeps: the drain
    // planner reads due Onext rows into its planes (absorbed carries)
    // on a fabric with live CIM faults, and a full sweep still
    // restores the fault-free values.
    for (const Protection prot : {Protection::Ecc, Protection::Tmr}) {
        SCOPED_TRACE(prot == Protection::Ecc ? "ecc" : "tmr");
        auto cfg = faultyConfig(128, 1e-3, 53);
        cfg.protection = prot;
        const auto ops = zipfOps(4096, cfg.numCounters, 59, 61);
        const auto ref = faultFreeReference(cfg, ops);

        ShardedEngine eng(cfg, 4);
        Scrubber scrub(eng, {});
        const size_t chunk = 256;
        size_t batches = 0;
        uint64_t quiet_windows = 0, quiet_absorbing = 0;
        for (size_t lo = 0; lo < ops.size(); lo += chunk) {
            const auto part = std::span<const BatchOp>(ops).subspan(
                lo, std::min(chunk, ops.size() - lo));
            const uint64_t sweeps = scrub.stats().sweeps;
            const EngineStats before = eng.stats();
            eng.accumulateBatch(part);
            scrub.noteBatch(part);
            if (++batches % 4 == 0)
                scrub.boundary();
            if (scrub.stats().sweeps != sweeps)
                continue;
            ++quiet_windows;
            quiet_absorbing +=
                eng.stats().since(before).absorbPeeks > 0;
        }
        EXPECT_GT(quiet_windows, 0u);
        EXPECT_GT(quiet_absorbing, 0u);
        EXPECT_GT(eng.stats().fabric.faultsInjected, 0u);
        scrub.scrubAll();
        EXPECT_EQ(eng.readAllCounters(0), ref);
    }
}

TEST(ScrubberStandalone, SweepOverPendingCarriesIssuesNoCommand)
{
    // Unsigned epochs leave carries pending in Onext rows. The sweep
    // settles them by rewriting the rows it read: no ripple, no
    // command, and none of it counted as a fault.
    const auto cfg = faultyConfig(128, 0.0, 97);
    const auto ops = zipfOps(2048, cfg.numCounters, 101, 102);
    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    applyInBatches(eng, scrub, ops, 256);
    ASSERT_GT(pendingBits(eng), 0u);

    const EngineStats before = eng.stats();
    scrub.boundary();
    const EngineStats sweep = eng.stats().since(before);
    EXPECT_EQ(sweep.fabric.commands(), 0u);
    EXPECT_EQ(sweep.ripples, 0u);
    EXPECT_EQ(pendingBits(eng), 0u);

    const auto st = scrub.stats();
    EXPECT_EQ(st.sweeps, eng.numShards());
    EXPECT_GT(st.carryRows, 0u);
    EXPECT_EQ(st.rowsRepaired, 0u);
    EXPECT_EQ(st.faultyBits, 0u);
    EXPECT_EQ(eng.readAllCounters(0), faultFreeReference(cfg, ops));
}

TEST(ScrubberStandalone, SweepLeavesTheRowsAndBoundsOfADrain)
{
    // Fault-free twins: one engine swept at every boundary, one
    // drained. Every counter row and IARM bound stays equal, so every
    // later plan is the drained engine's plan too.
    for (const SweepCase &c :
         {SweepCase{"ambit", BackendKind::Ambit, Protection::None},
          SweepCase{"nvm", BackendKind::NvmPinatubo, Protection::None},
          SweepCase{"tmr", BackendKind::Ambit, Protection::Tmr}}) {
        SCOPED_TRACE(c.name);
        auto cfg = faultyConfig(96, 0.0, 103);
        cfg.backend = c.backend;
        cfg.protection = c.protection;
        const auto ops = zipfOps(3072, cfg.numCounters, 107, 108);
        ShardedEngine swept(cfg, 2);
        ShardedEngine drained(cfg, 2);
        Scrubber scrub(swept, {});
        const size_t chunk = 256;
        for (size_t lo = 0; lo < ops.size(); lo += chunk) {
            const auto part = std::span<const BatchOp>(ops).subspan(
                lo, std::min(chunk, ops.size() - lo));
            swept.accumulateBatch(part);
            scrub.noteBatch(part);
            scrub.boundary();
            drained.accumulateBatch(part);
            for (unsigned s = 0; s < drained.numShards(); ++s) {
                C2MEngine &a = swept.shard(s);
                C2MEngine &b = drained.shard(s);
                for (unsigned g = 0; g < cfg.numGroups; ++g) {
                    b.drain(g);
                    ASSERT_EQ(a.iarmBounds(g), b.iarmBounds(g))
                        << "shard " << s << " group " << g;
                    for (unsigned rep = 0; rep < a.numReplicas(); ++rep)
                        forEachJcFieldRow(
                            a.backend().layout(a.physicalGroup(g, rep)),
                            [&](unsigned row) {
                                ASSERT_EQ(a.backend().scrubReadRow(row),
                                          b.backend().scrubReadRow(row))
                                    << "shard " << s << " row " << row;
                            });
                }
            }
        }
        EXPECT_GT(scrub.stats().carryRows, 0u);
        EXPECT_EQ(scrub.stats().faultyBits, 0u);
        EXPECT_EQ(swept.readAllCounters(0),
                  faultFreeReference(cfg, ops));
    }
}

TEST(ScrubberStandalone, FlipBesideCarriedColumnsIsTheOnlyFault)
{
    const auto cfg = faultyConfig(128, 0.0, 109);
    const auto ops = zipfOps(2048, cfg.numCounters, 113, 114);
    ShardedEngine eng(cfg, 1);
    Scrubber scrub(eng, {});
    applyInBatches(eng, scrub, ops, 256);

    // Plant a pending flag in a column with no carry anywhere, in an
    // Onext row that holds other columns' carries.
    C2MEngine &shard = eng.shard(0);
    const auto &lay = shard.layout(0);
    int digit = -1;
    for (unsigned d = 0; digit < 0 && d + 1 < lay.numDigits(); ++d)
        if (shard.subarray().rawRow(lay.onextRow(d)).popcount() > 0)
            digit = static_cast<int>(d);
    ASSERT_GE(digit, 0);
    const size_t col = carryFreeColumn(shard);
    ASSERT_LT(col, cfg.numCounters);
    shard.subarray()
        .rawRow(lay.onextRow(static_cast<unsigned>(digit)))
        .set(col, true);
    ASSERT_NE(eng.readAllCounters(0), faultFreeReference(cfg, ops));

    scrub.boundary();
    const auto st = scrub.stats();
    EXPECT_EQ(st.faultyBits, 1u);
    EXPECT_EQ(st.rowsRepaired, 1u);
    EXPECT_GT(st.carryRows, 0u);
    EXPECT_EQ(eng.readAllCounters(0), faultFreeReference(cfg, ops));
}

TEST(ScrubberStandalone, InvalidDigitDecodingToItsValueIsAFault)
{
    // At radix 8 a flip inside a zero JC digit (0000 -> 0010) leaves
    // no valid state, and the nearest one is 0 again: the column still
    // decodes to its expected value. Its invalid digit keeps it a
    // fault, not a carry.
    auto cfg = faultyConfig(64, 0.0, 137);
    cfg.radix = 8;
    const auto ops = zipfOps(1024, cfg.numCounters, 139, 140);
    const auto ref = faultFreeReference(cfg, ops);
    ShardedEngine eng(cfg, 1);
    Scrubber scrub(eng, {});
    applyInBatches(eng, scrub, ops, 256);

    C2MEngine &shard = eng.shard(0);
    const auto &lay = shard.layout(0);
    ASSERT_GT(pendingBits(eng), 0u);
    const size_t col = carryFreeColumn(shard);
    ASSERT_LT(col, cfg.numCounters);
    const unsigned guard = lay.numDigits() - 1; // 0 in every column
    shard.subarray().rawRow(lay.bitRow(guard, 1)).set(col, true);
    const uint64_t invalid = eng.stats().invalidStates;
    ASSERT_EQ(eng.readAllCounters(0), ref);
    ASSERT_GT(eng.stats().invalidStates, invalid);

    scrub.boundary();
    const auto st = scrub.stats();
    EXPECT_EQ(st.faultyBits, 1u);
    EXPECT_EQ(st.rowsRepaired, 1u);
    const uint64_t healed = eng.stats().invalidStates;
    EXPECT_EQ(eng.readAllCounters(0), ref);
    EXPECT_EQ(eng.stats().invalidStates, healed);
}

TEST(ScrubberStandalone, FaultyUnsignedEpochsSettleCarriesWithoutRipples)
{
    // A boundary after every unsigned Zipf epoch under live CIM
    // faults: the sweep issues no ripple (nor any command) and the
    // readout matches fault-free serial replay after every sweep.
    for (const SweepCase &c :
         {SweepCase{"ambit_ecc", BackendKind::Ambit, Protection::Ecc},
          SweepCase{"ambit_tmr", BackendKind::Ambit, Protection::Tmr},
          SweepCase{"nvm", BackendKind::NvmPinatubo, Protection::None}}) {
        SCOPED_TRACE(c.name);
        auto cfg = faultyConfig(128, 1e-3, 127);
        cfg.backend = c.backend;
        cfg.protection = c.protection;
        const auto ops = zipfOps(4096, cfg.numCounters, 131, 132);
        ShardedEngine eng(cfg, 4);
        Scrubber scrub(eng, {});
        const size_t chunk = 256;
        for (size_t lo = 0; lo < ops.size(); lo += chunk) {
            const size_t hi = std::min(lo + chunk, ops.size());
            const auto part =
                std::span<const BatchOp>(ops).subspan(lo, hi - lo);
            eng.accumulateBatch(part);
            scrub.noteBatch(part);
            const EngineStats before = eng.stats();
            scrub.boundary();
            const EngineStats sweep = eng.stats().since(before);
            EXPECT_EQ(sweep.ripples, 0u) << "epoch at op " << lo;
            EXPECT_EQ(sweep.fabric.commands(), 0u) << "epoch at op " << lo;
            ASSERT_EQ(eng.readAllCounters(0),
                      faultFreeReference(
                          cfg, std::span<const BatchOp>(ops).first(hi)))
                << "epoch at op " << lo;
        }
        const auto st = scrub.stats();
        EXPECT_GT(eng.stats().fabric.faultsInjected, 0u);
        // TMR's in-fabric votes outvote these faults before a sweep.
        if (c.protection != Protection::Tmr) {
            EXPECT_GT(st.faultyBits, 0u);
        }
        EXPECT_GT(st.carryRows, 0u);
    }
}

TEST(ScrubberStandalone, MirrorStoreDecayIsSelfHealed)
{
    const auto cfg = faultyConfig(72, 1e-3, 41);
    const auto ops = randomOps(1500, cfg.numCounters, 43, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 3);
    ScrubConfig scfg;
    scfg.storeFaultRate = 2e-4; // side store decays too
    Scrubber scrub(eng, scfg);
    const size_t chunk = 150;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    EXPECT_EQ(eng.readAllCounters(0), ref);
    EXPECT_GT(scrub.stats().mirrorBitsCorrected, 0u);
    EXPECT_EQ(scrub.stats().mirrorWordsLost, 0u);
}

TEST(ScrubberProtection, TmrReplicasAreSwept)
{
    auto cfg = faultyConfig(48, 1e-3, 47);
    cfg.protection = Protection::Tmr;
    const auto ops = randomOps(800, cfg.numCounters, 53, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    eng.accumulateBatch(ops);
    scrub.noteBatch(ops);
    scrub.boundary();
    EXPECT_EQ(eng.readAllCounters(0), ref);
    // Three replicas tripled the swept rows relative to one group.
    EXPECT_EQ(scrub.stats().rowsScrubbed % 3, 0u);
}

TEST(ScrubberProtection, NvmFabricIsScrubbable)
{
    auto cfg = faultyConfig(64, 1e-3, 59);
    cfg.backend = BackendKind::NvmPinatubo;
    const auto ops = randomOps(1200, cfg.numCounters, 61, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    ASSERT_TRUE(Scrubber::supports(eng));
    Scrubber scrub(eng, {});
    const size_t chunk = 200;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    EXPECT_EQ(eng.readAllCounters(0), ref);
}

// The one scrubber run at fault rate 5e-3: ECC with a sweep at every
// boundary still ends exact.
TEST(ScrubberProtection, EccAtHighFaultRateStaysExact)
{
    auto cfg = faultyConfig(64, 5e-3, 79);
    cfg.protection = Protection::Ecc;
    cfg.frChecks = 1;
    const auto ops = randomOps(1500, cfg.numCounters, 83, false);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    const size_t chunk = 150;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    scrub.scrubAll();
    EXPECT_EQ(eng.readAllCounters(0), ref);
}

TEST(ScrubberSigned, GroupTurningSignedBetweenSweepsHealsNothing)
{
    // The mirror decodes at the offset its image was encoded with
    // (0) and re-encodes at the group's new excess-B offset, so the
    // re-biased fabric rows are no deviation.
    const auto cfg = faultyConfig(64, 0.0, 71);
    const auto up = randomOps(300, cfg.numCounters, 73, false);
    const auto mixed = randomOps(300, cfg.numCounters, 79, true);
    std::vector<BatchOp> all = up;
    all.insert(all.end(), mixed.begin(), mixed.end());

    ShardedEngine eng(cfg, 2);
    Scrubber scrub(eng, {});
    eng.accumulateBatch(up);
    scrub.noteBatch(up);
    scrub.boundary();
    for (unsigned s = 0; s < eng.numShards(); ++s)
        ASSERT_EQ(eng.shard(s).valueOffset(0), 0);

    eng.accumulateBatch(mixed);
    scrub.noteBatch(mixed);
    for (unsigned s = 0; s < eng.numShards(); ++s)
        ASSERT_NE(eng.shard(s).valueOffset(0), 0) << "shard " << s;
    const auto before = scrub.stats();
    scrub.boundary();
    const auto after = scrub.stats();
    EXPECT_EQ(after.sweeps - before.sweeps, eng.numShards());
    EXPECT_GT(after.rowsScrubbed, before.rowsScrubbed);
    EXPECT_EQ(after.rowsRepaired, 0u);
    EXPECT_EQ(after.faultyBits, 0u);
    EXPECT_EQ(eng.readAllCounters(0), faultFreeReference(cfg, all));
}

TEST(ScrubberSigned, FlippedBitInABiasedGroupIsHealed)
{
    const auto cfg = faultyConfig(64, 0.0, 83);
    const auto ops = randomOps(400, cfg.numCounters, 89, true);
    const auto ref = faultFreeReference(cfg, ops);

    ShardedEngine eng(cfg, 1);
    Scrubber scrub(eng, {});
    eng.accumulateBatch(ops);
    scrub.noteBatch(ops);
    scrub.boundary();
    C2MEngine &shard = eng.shard(0);
    ASSERT_NE(shard.valueOffset(0), 0);
    ASSERT_EQ(eng.readAllCounters(0), ref);

    // Flip one bit of digit 3 (every radix-4 pattern is a valid
    // state, so the value moves), then sweep.
    const unsigned row = shard.layout(0).bitRow(3, 0);
    BitVector v(cfg.numCounters);
    v.copyFrom(shard.backend().scrubReadRow(row));
    v.set(5, !v.get(5));
    shard.backend().scrubWriteRow(row, v);
    ASSERT_NE(eng.readAllCounters(0), ref);

    const auto before = scrub.stats();
    scrub.scrubAll();
    const auto after = scrub.stats();
    EXPECT_EQ(after.rowsRepaired - before.rowsRepaired, 1u);
    EXPECT_EQ(after.faultyBits - before.faultyBits, 1u);
    EXPECT_EQ(eng.readAllCounters(0), ref);
}

TEST(ScrubberProtection, RcaFabricIsNotScrubbable)
{
    auto cfg = faultyConfig(64, 0.0, 67);
    cfg.backend = BackendKind::Rca;
    ShardedEngine eng(cfg, 2);
    EXPECT_FALSE(Scrubber::supports(eng));
}

TEST(ScrubConfigErrors, BackendWithoutRowScrubThrows)
{
    auto cfg = faultyConfig(64, 0.0, 67);
    cfg.backend = BackendKind::Rca;
    ShardedEngine eng(cfg, 2);
    EXPECT_THROW(Scrubber(eng, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Health monitor
// ---------------------------------------------------------------------

TEST(HealthMonitor, EstimatesLiveFaultRateFromScrubOutcomes)
{
    const double injected = 2e-3;
    const auto cfg = faultyConfig(96, injected, 71);
    const auto ops = randomOps(4000, cfg.numCounters, 73, false);

    ShardedEngine eng(cfg, 4);
    Scrubber scrub(eng, {});
    const size_t chunk = 400;
    for (size_t lo = 0; lo < ops.size(); lo += chunk) {
        const auto part = std::span<const BatchOp>(ops).subspan(
            lo, std::min(chunk, ops.size() - lo));
        eng.accumulateBatch(part);
        scrub.noteBatch(part);
        scrub.boundary();
    }
    const double est = scrub.health().estimatedFaultRate();
    // Blind estimate from persisted flips: same order of magnitude.
    EXPECT_GT(est, injected / 10);
    EXPECT_LT(est, injected * 10);
}

TEST(HealthMonitor, EstimateScalesWithObservedRate)
{
    HealthMonitor quiet, noisy;
    quiet.observe({/*faultyBits=*/1, /*traDelta=*/1'000'000,
                   /*rowBits=*/512, /*wordsSwept=*/100'000});
    noisy.observe({/*faultyBits=*/50'000, /*traDelta=*/1'000'000,
                   /*rowBits=*/512, /*wordsSwept=*/100'000});
    EXPECT_LT(quiet.estimatedFaultRate(), noisy.estimatedFaultRate());
}
