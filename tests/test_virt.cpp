/**
 * @file
 * Counter-virtualization tests: sketch-tier error bounds (count-min
 * collision bound, Morris 3-sigma, linear distinct counting),
 * directory collision handling, resident exactness across backends
 * (vs serial replay of the recorded physical ops), bit-exact
 * spill/restore under frame pressure writing only the rows that
 * change, restored digits the IARM bounds must learn, a scrub ledger
 * row holding only the sweeps' rows, promotion invariants, service
 * mode vs direct mode, concurrent producers, and scrubbed
 * virtualized ingest under CIM fault injection reading exact values
 * after every flush and ending bit-identical for every exact-tier key,
 * and bad deltas or sketch configs throwing before anything changes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/fabriccost.hpp"
#include "core/sharded.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/directory.hpp"
#include "virt/sketch.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;
using namespace c2m::core;
using c2m::virt::AddResult;
using c2m::virt::CountMinSketch;
using c2m::virt::KeyDirectory;
using c2m::virt::LinearCounter;
using c2m::virt::Route;
using c2m::virt::SketchCells;
using c2m::virt::SketchConfig;
using c2m::virt::VirtConfig;
using c2m::virt::VirtOp;
using c2m::virt::VirtualCounterSpace;

namespace {

EngineConfig
smallConfig(size_t counters, BackendKind backend = BackendKind::Ambit)
{
    EngineConfig cfg;
    cfg.numCounters = counters;
    cfg.capacityBits = 16;
    cfg.backend = backend;
    cfg.seed = 0xfeedULL;
    return cfg;
}

/**
 * Shadow reference for the exact tier: seed at promotion, then every
 * later delta. A key's fabric value must equal its shadow exactly.
 */
struct Shadow
{
    std::map<uint64_t, int64_t> expect;

    void apply(uint64_t key, int64_t value, const AddResult &r)
    {
        switch (r.route) {
        case Route::Promoted:
            expect[key] = static_cast<int64_t>(r.seed);
            break;
        case Route::Exact:
        case Route::Journaled:
            expect[key] += value;
            break;
        case Route::Sketch:
            break;
        }
    }
};

void
expectExactMatchesShadow(VirtualCounterSpace &space,
                         const Shadow &shadow)
{
    const auto entries = space.exactEntries();
    ASSERT_EQ(entries.size(), shadow.expect.size());
    for (const auto &e : entries) {
        const auto it = shadow.expect.find(e.key);
        ASSERT_NE(it, shadow.expect.end()) << "key " << e.key;
        EXPECT_EQ(e.value, it->second) << "key " << e.key;
    }
}

uint64_t
hashKey(uint64_t v)
{
    return splitMix64(v); // pure: v is a by-value copy of the state
}

} // namespace

// ---------------------------------------------------------------------
// Sketch tier
// ---------------------------------------------------------------------

TEST(VirtSketch, MorrisUnbiasedWithin3Sigma)
{
    // A one-key Morris sketch (one row, so the key owns its cell): the
    // estimate is the cell's, with no collision term.
    const uint64_t n = 1000;
    const size_t trials = 300;
    const double sigma = virt::morrisSigma(double(n));
    double sum = 0.0;
    size_t within = 0;
    for (size_t t = 0; t < trials; ++t) {
        SketchConfig cfg;
        cfg.width = 2;
        cfg.depth = 1;
        cfg.cells = SketchCells::Morris;
        cfg.seed = 0x5eedULL + t;
        CountMinSketch sketch(cfg);
        const double est = double(sketch.update(7, n));
        sum += est;
        if (std::abs(est - double(n)) <= 3.0 * sigma)
            ++within;
    }
    const double mean = sum / double(trials);
    // Unbiased: the mean of 300 trials is within 5 standard errors.
    EXPECT_NEAR(mean, double(n), 5.0 * sigma / std::sqrt(trials));
    // Near-Gaussian: virtually all trials inside the 3-sigma band.
    EXPECT_GE(double(within) / double(trials), 0.95);
}

TEST(VirtSketch, CountMinExactNeverUnderestimates)
{
    SketchConfig cfg;
    cfg.width = 1 << 10; // small width: force collisions
    cfg.depth = 4;
    CountMinSketch sketch(cfg);
    Rng rng(7);
    std::map<uint64_t, uint64_t> truth;
    for (size_t i = 0; i < 20000; ++i) {
        const uint64_t key = rng.nextBounded(3000);
        const uint64_t delta = 1 + rng.nextBounded(5);
        truth[key] += delta;
        sketch.update(key, delta);
    }
    size_t within = 0;
    for (const auto &[key, count] : truth) {
        const uint64_t est = sketch.estimate(key);
        ASSERT_GE(est, count) << "count-min underestimated";
        if (double(est - count) <= sketch.pointErrorBound(est))
            ++within;
    }
    // (e/w)*N holds per query with prob >= 1 - e^-depth ~ 0.98.
    EXPECT_GE(double(within) / double(truth.size()), 0.98);
}

TEST(VirtSketch, CountMinMorrisWithinAnalyticBound)
{
    SketchConfig cfg;
    cfg.width = 1 << 12;
    cfg.depth = 4;
    cfg.cells = SketchCells::Morris;
    CountMinSketch sketch(cfg);
    Rng rng(11);
    std::map<uint64_t, uint64_t> truth;
    for (size_t i = 0; i < 30000; ++i) {
        const uint64_t key = rng.nextBounded(2000);
        truth[key] += 1;
        sketch.update(key, 1);
    }
    size_t within = 0;
    for (const auto &[key, count] : truth) {
        const uint64_t est = sketch.estimate(key);
        const double err =
            std::abs(double(est) - double(count));
        if (err <= sketch.pointErrorBound(est))
            ++within;
    }
    // Collision bound + 3-sigma Morris noise covers >= 97%.
    EXPECT_GE(double(within) / double(truth.size()), 0.97);
}

TEST(VirtSketch, LinearCounterTracksDistinctKeys)
{
    LinearCounter lc(1 << 16, 42);
    Rng rng(13);
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < 20000; ++i)
        keys.push_back(hashKey(i));
    for (int rep = 0; rep < 3; ++rep) // duplicates must not count
        for (const uint64_t k : keys)
            lc.mark(k);
    const double est = double(lc.estimate());
    EXPECT_NEAR(est, double(keys.size()), 0.05 * double(keys.size()));
}

// ---------------------------------------------------------------------
// Key directory
// ---------------------------------------------------------------------

TEST(VirtDirectory, CollidingKeysKeepDistinctSlots)
{
    KeyDirectory dir(0x5eedULL, 1); // min capacity: dense collisions
    // Find keys sharing one home bucket at the initial capacity.
    const size_t home = dir.homeBucket(1);
    std::vector<uint64_t> colliders{1};
    for (uint64_t k = 2; colliders.size() < 5; ++k)
        if (dir.homeBucket(k) == home)
            colliders.push_back(k);
    for (uint32_t i = 0; i < colliders.size(); ++i)
        dir.insert(colliders[i], 100 + i);
    for (uint32_t i = 0; i < colliders.size(); ++i)
        EXPECT_EQ(dir.find(colliders[i]), 100 + i);
    EXPECT_GT(dir.probes(), 0u);
}

TEST(VirtDirectory, GrowsAndFindsEverything)
{
    KeyDirectory dir(99, 16);
    const size_t n = 5000;
    for (uint32_t i = 0; i < n; ++i)
        dir.insert(hashKey(i) | 1, i);
    EXPECT_GT(dir.capacity(), n); // grew past the initial 16
    EXPECT_EQ(dir.size(), n);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(dir.find(hashKey(i) | 1), i);
    EXPECT_EQ(dir.find(0xdead0000beefULL << 2),
              KeyDirectory::kNotFound);
}

// ---------------------------------------------------------------------
// Resident exact tier, all backends
// ---------------------------------------------------------------------

class VirtResident : public ::testing::TestWithParam<BackendKind>
{
};

TEST_P(VirtResident, ValuesMatchShadowAndSerialReplay)
{
    const EngineConfig cfg = smallConfig(128, GetParam());
    ShardedEngine engine(cfg, 2);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 1; // promote every key on first sight
    vcfg.recordPhysicalOps = true;
    VirtualCounterSpace space(engine, vcfg);

    Rng rng(21);
    Shadow shadow;
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < 40; ++i)
        keys.push_back(hashKey(i + 1));
    for (size_t i = 0; i < 4000; ++i) {
        const uint64_t key = keys[rng.nextBounded(keys.size())];
        const int64_t v = 1 + int64_t(rng.nextBounded(4));
        shadow.apply(key, v, space.add(key, v));
    }
    space.flush();

    ASSERT_EQ(space.stats().promotions, keys.size());
    EXPECT_EQ(space.stats().spills, 0u); // fits: 8 frames, 3 groups
    expectExactMatchesShadow(space, shadow);

    // With no spills, the recorded physical op stream fully
    // determines the fabric state: serial replay is bit-identical.
    const auto replayed = replaySerial(cfg, space.physicalLog());
    EXPECT_EQ(engine.readAllCounters(0), replayed);
}

INSTANTIATE_TEST_SUITE_P(Backends, VirtResident,
                         ::testing::Values(BackendKind::Ambit,
                                           BackendKind::NvmPinatubo,
                                           BackendKind::NvmMagic,
                                           BackendKind::Rca));

// ---------------------------------------------------------------------
// Spill / restore
// ---------------------------------------------------------------------

namespace {

/** 8 frames of 16 over two shards, maintained every 64 adds. */
VirtConfig
framePressureConfig()
{
    VirtConfig vcfg;
    vcfg.groupSize = 16; // 8 frames
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 4;
    vcfg.directBatchOps = 64; // frequent maintenance
    return vcfg;
}

/** 30000 adds over 400 keys (~25 groups over 8 frames), then flush. */
void
driveFramePressure(VirtualCounterSpace &space, Shadow &shadow)
{
    Rng rng(31);
    const size_t distinct = 400;
    for (size_t i = 0; i < 30000; ++i) {
        const uint64_t key = hashKey(rng.nextBounded(distinct));
        const int64_t v = 1 + int64_t(rng.nextBounded(3));
        shadow.apply(key, v, space.add(key, v));
    }
    space.flush();
}

/** Modeled ns of one host row access on a 64-counter shard. */
double
shardRowNs(const EngineConfig &cfg)
{
    return core::commandCosts(cfg.backend, 64).rowWriteNs;
}

} // namespace

TEST(VirtSpill, RoundTripsAreBitExactUnderFramePressure)
{
    ShardedEngine engine(smallConfig(128), 2);
    VirtualCounterSpace space(engine, framePressureConfig());
    Shadow shadow;
    driveFramePressure(space, shadow);

    const auto st = space.stats();
    EXPECT_GT(st.promotions, 8u * 16u); // more keys than the fabric
    EXPECT_GT(st.spills, 0u);
    EXPECT_GT(st.restores, 0u);
    EXPECT_GT(st.maintenanceFabricNs, 0.0);
    expectExactMatchesShadow(space, shadow);

    // A frame rewrite reads each of its state rows once and writes
    // back only the rows whose frame bits change. Small counts leave
    // the high digits' rows clear, so some rows must be skipped, by
    // the spills and by the restores alike.
    const EngineConfig cfg = smallConfig(128);
    const jc::CounterLayout lay(cfg.radix, cfg.capacityBits);
    const double rows = lay.numDigits() * (lay.bitsPerDigit() + 1) + 1;
    const double row_ns = shardRowNs(cfg);
    const auto fabric = engine.stats().fabric;
    for (const auto &[cat, moves] :
         {std::pair{cim::FabricCat::VirtSpill, st.spills},
          std::pair{cim::FabricCat::VirtRestore, st.restores}}) {
        const double reads = rows * static_cast<double>(moves);
        const double writes = fabric.attr(cat) / row_ns - reads;
        EXPECT_GT(writes, 0.5);
        EXPECT_LT(writes, reads - 0.5);
    }
}

namespace {

EngineConfig
restoreDigitConfig(bool planner)
{
    EngineConfig cfg = smallConfig(2);
    cfg.capacityBits = 32;
    cfg.drainPlanner = planner;
    return cfg;
}

/** One counter per group, every add applied and maintained at once. */
VirtConfig
restoreDigitVirtConfig()
{
    VirtConfig vcfg;
    vcfg.groupSize = 1;
    vcfg.promoteThreshold = 1;
    vcfg.restoreOpThreshold = 1;
    vcfg.directBatchOps = 1;
    return vcfg;
}

constexpr int64_t kDigit8 = int64_t{1} << 16; // 4^8

/**
 * Promote keys 1, 2 and 3 over two frames, so key 1 spills; add
 * 3 * 4^8 to it while spilled, so its restore writes digit 8 = 3
 * where no fabric op has reached; then add 4^8 five times, which
 * carries out of digit 8 once. @return key 1's exact value and the
 * IARM bound of digit 8 right after the restore.
 */
std::pair<int64_t, unsigned>
restoreAboveTheBounds(ShardedEngine &engine, VirtualCounterSpace &space)
{
    int64_t expect = 0;
    for (const uint64_t key : {1, 2, 3}) {
        const AddResult r = space.add(key, 1);
        EXPECT_EQ(r.route, Route::Promoted);
        if (key == 1)
            expect = static_cast<int64_t>(r.seed);
    }
    EXPECT_EQ(space.stats().spills, 1u);
    EXPECT_EQ(space.add(1, 3 * kDigit8).route, Route::Journaled);
    EXPECT_EQ(space.stats().restores, 1u);
    const unsigned bound = engine.shard(0).iarmBounds(0)[8];
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(space.add(1, kDigit8).route, Route::Exact);
    return {expect + 8 * kDigit8, bound};
}

} // namespace

TEST(VirtSpill, RestoredDigitsAboveTheBoundsStayExact)
{
    // The restore writes digit 8 = 3 over an IARM bound of 0. Unless
    // the bound learns it, IARM lets the fifth add wrap the digit
    // while its first wrap is still pending, and a carry is lost.
    for (const bool planner : {true, false}) {
        SCOPED_TRACE(planner ? "planner on" : "planner off");
        ShardedEngine engine(restoreDigitConfig(planner), 1);
        VirtualCounterSpace space(engine, restoreDigitVirtConfig());
        const auto [expect, bound] = restoreAboveTheBounds(engine, space);
        EXPECT_EQ(expect, 524289);
        EXPECT_GE(bound, 3u);
        EXPECT_EQ(space.read(1), expect);
    }
    // Scrubbed at CIM fault rate 0, the sweeps find nothing to heal.
    ShardedEngine engine(restoreDigitConfig(true), 1);
    reliability::Scrubber scrub(engine);
    VirtualCounterSpace space(engine, restoreDigitVirtConfig());
    space.attachScrubber(&scrub);
    const int64_t expect = restoreAboveTheBounds(engine, space).first;
    space.flush();
    EXPECT_EQ(space.read(1), expect);
    EXPECT_GT(scrub.stats().sweeps, 0u);
    EXPECT_EQ(scrub.stats().rowsRepaired, 0u);
    EXPECT_EQ(scrub.stats().faultyBits, 0u);
}

TEST(VirtConfigErrors, GroupSizeOutOfRangeThrows)
{
    ShardedEngine engine(smallConfig(64), 2);
    for (const unsigned size : {0u, (1u << 16) + 1}) {
        VirtConfig vcfg;
        vcfg.groupSize = size;
        EXPECT_THROW(VirtualCounterSpace(engine, vcfg),
                     std::invalid_argument)
            << size;
    }
}

TEST(VirtConfigErrors, GroupWiderThanEveryShardThrows)
{
    ShardedEngine engine(smallConfig(64), 2); // 32 columns per shard
    VirtConfig vcfg;
    vcfg.groupSize = 64;
    EXPECT_THROW(VirtualCounterSpace(engine, vcfg),
                 std::invalid_argument);
}

TEST(VirtInputErrors, NonPositiveDeltaThrowsAndChangesNothing)
{
    ShardedEngine engine(smallConfig(64), 2);
    VirtConfig vcfg;
    vcfg.groupSize = 8;
    vcfg.promoteThreshold = 2;
    VirtualCounterSpace space(engine, vcfg);
    space.add(hashKey(1), 5); // promoted: an exact key
    space.add(hashKey(2), 1); // stays in the sketch
    space.flush();
    const auto before = space.stats();
    for (const int64_t bad : {int64_t{0}, int64_t{-3}, INT64_MIN})
        for (const uint64_t key : {hashKey(1), hashKey(2), hashKey(3)})
            EXPECT_THROW(space.add(key, bad), std::invalid_argument)
                << bad << " for key " << key;
    space.flush();
    const auto after = space.stats();
    EXPECT_EQ(after.sketchUpdates, before.sketchUpdates);
    EXPECT_EQ(after.promotions, before.promotions);
    EXPECT_EQ(after.keysExact, before.keysExact);
    EXPECT_EQ(space.read(hashKey(1)), 5);
    EXPECT_EQ(space.approxEstimate(hashKey(2)), 1u);
    EXPECT_EQ(space.approxEstimate(hashKey(3)), 0u);
}

TEST(VirtInputErrors, BatchWithABadOpAppliesNone)
{
    ShardedEngine engine(smallConfig(64), 2);
    VirtConfig vcfg;
    vcfg.groupSize = 8;
    vcfg.promoteThreshold = 2;
    VirtualCounterSpace space(engine, vcfg);
    // The bad op comes last, after ops that would promote a key.
    const std::vector<VirtOp> ops = {
        {hashKey(1), 3}, {hashKey(2), 1}, {hashKey(1), 4},
        {hashKey(3), -1}};
    EXPECT_THROW(space.addBatch(ops), std::invalid_argument);
    space.flush();
    EXPECT_EQ(space.stats().sketchUpdates, 0u);
    EXPECT_EQ(space.stats().promotions, 0u);
    EXPECT_FALSE(space.isExact(hashKey(1)));
    EXPECT_EQ(space.approxEstimate(hashKey(1)), 0u);

    // The same ops without the bad one apply as usual.
    space.addBatch(std::span<const VirtOp>(ops).first(3));
    space.flush();
    EXPECT_TRUE(space.isExact(hashKey(1)));
    EXPECT_EQ(space.read(hashKey(1)), 7);
}

TEST(VirtInputErrors, BadSketchConfigThrows)
{
    ShardedEngine engine(smallConfig(64), 2);
    const auto bad = [](auto edit) {
        VirtConfig vcfg;
        vcfg.groupSize = 8;
        edit(vcfg.sketch);
        return vcfg;
    };
    const std::vector<VirtConfig> configs = {
        bad([](SketchConfig &s) { s.width = 1; }),
        bad([](SketchConfig &s) { s.width = 0; }),
        bad([](SketchConfig &s) { s.depth = 0; }),
        // width x depth wraps to 0 cells.
        bad([](SketchConfig &s) {
            s.width = size_t{1} << 62;
            s.depth = 4;
        }),
    };
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_THROW(VirtualCounterSpace(engine, configs[i]),
                     std::invalid_argument)
            << "config " << i;
        EXPECT_THROW(CountMinSketch(configs[i].sketch),
                     std::invalid_argument)
            << "config " << i;
    }
}

TEST(VirtInputErrors, ServiceModeThrowsBeforeAttaching)
{
    ShardedEngine engine(smallConfig(64), 2);
    service::IngestService svc(engine);
    VirtConfig bad;
    bad.groupSize = 8;
    bad.sketch.depth = 0;
    EXPECT_THROW(VirtualCounterSpace(svc, bad), std::invalid_argument);
    // No observer was left behind: the service reports none, and a
    // valid space can still attach and count.
    EXPECT_EQ(svc.report().count("virt.promotions"), 0u);
    VirtConfig vcfg;
    vcfg.groupSize = 8;
    vcfg.promoteThreshold = 2;
    VirtualCounterSpace space(svc, vcfg);
    space.add(hashKey(1), 5);
    EXPECT_THROW(space.add(hashKey(1), 0), std::invalid_argument);
    space.add(hashKey(1), 2);
    space.flush();
    EXPECT_EQ(space.read(hashKey(1)), 7);
    EXPECT_EQ(svc.report().at("virt.promotions"), 1u);
    svc.stop();
}

TEST(VirtSpill, NonScrubBackendStaysJournaledButExact)
{
    // RCA has no row-scrub seam: groups beyond the fabric can never
    // spill a victim, so they stay journaled host-side — still exact.
    ShardedEngine engine(smallConfig(64, BackendKind::Rca), 2);
    VirtConfig vcfg;
    vcfg.groupSize = 16; // 4 frames
    vcfg.promoteThreshold = 1;
    VirtualCounterSpace space(engine, vcfg);
    ASSERT_FALSE(VirtualCounterSpace::supportsSpill(engine));

    Rng rng(41);
    Shadow shadow;
    for (size_t i = 0; i < 5000; ++i) {
        const uint64_t key = hashKey(rng.nextBounded(150));
        shadow.apply(key, 1, space.add(key, 1));
    }
    space.flush();

    const auto st = space.stats();
    EXPECT_EQ(st.spills, 0u);
    EXPECT_EQ(st.residentGroups, 4u); // every frame in use
    EXPECT_GT(st.spilledGroups, 0u);  // the overflow stays host-side
    expectExactMatchesShadow(space, shadow);
}

// ---------------------------------------------------------------------
// Promotion invariants
// ---------------------------------------------------------------------

TEST(VirtPromotion, SeedEqualsEstimateAndValueTracksDeltas)
{
    ShardedEngine engine(smallConfig(64), 1);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 10;
    VirtualCounterSpace space(engine, vcfg);

    const uint64_t key = 0xabcdef0123ULL;
    for (int i = 0; i < 9; ++i) {
        const AddResult r = space.add(key, 1);
        EXPECT_EQ(r.route, Route::Sketch);
        EXPECT_FALSE(space.isExact(key));
    }
    // With one key there are no sketch collisions: the estimate at
    // promotion is the true count, carried verbatim as the seed.
    EXPECT_EQ(space.approxEstimate(key), 9u);
    const AddResult promo = space.add(key, 1);
    EXPECT_EQ(promo.route, Route::Promoted);
    EXPECT_EQ(promo.seed, 10u);
    EXPECT_TRUE(space.isExact(key));
    EXPECT_GE(space.errorBound(key), 0.0);

    for (int i = 0; i < 7; ++i)
        space.add(key, 3);
    space.flush();
    EXPECT_EQ(space.read(key), 10 + 7 * 3);

    const auto top = space.topK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].key, key);
    EXPECT_EQ(top[0].seed, 10u);
    EXPECT_EQ(top[0].value, 31);
}

// ---------------------------------------------------------------------
// Service mode
// ---------------------------------------------------------------------

TEST(VirtService, MatchesDirectModeOnTheSameStream)
{
    Rng rng(51);
    std::vector<VirtOp> ops;
    for (size_t i = 0; i < 20000; ++i)
        ops.push_back(VirtOp{hashKey(rng.nextBounded(300)),
                             1 + int64_t(rng.nextBounded(3))});

    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 4;
    vcfg.restoreOpThreshold = 8;

    ShardedEngine direct_engine(smallConfig(128), 2);
    VirtualCounterSpace direct(direct_engine, vcfg);
    direct.addBatch(ops);
    direct.flush();

    ShardedEngine svc_engine(smallConfig(128), 2);
    service::IngestService svc(svc_engine);
    VirtualCounterSpace viaService(svc, vcfg);
    viaService.addBatch(ops);
    viaService.flush();
    svc.stop();

    auto a = direct.exactEntries();
    auto b = viaService.exactEntries();
    const auto byKey = [](const auto &x, const auto &y) {
        return x.key < y.key;
    };
    std::sort(a.begin(), a.end(), byKey);
    std::sort(b.begin(), b.end(), byKey);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
}

TEST(VirtService, ColdStartFlushMaterializesJournaledGroups)
{
    // Before any group is resident every delta journals host-side,
    // so the service never sees an op and never cuts an epoch on its
    // own. flush() must force boundaries (IngestService::forceEpoch)
    // so maintenance can hand out frames anyway — without it the
    // space stays fully journaled until stop().
    ShardedEngine engine(smallConfig(128), 2);
    service::IngestService svc(engine);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    VirtualCounterSpace space(svc, vcfg);

    Shadow shadow;
    Rng rng(17);
    for (size_t i = 0; i < 2000; ++i) {
        const uint64_t key = hashKey(rng.nextBounded(64));
        shadow.apply(key, 1, space.add(key, 1));
    }
    space.flush();

    const auto st = space.stats();
    EXPECT_GT(st.keysExact, 0u);
    EXPECT_GT(st.residentGroups, 0u);
    EXPECT_EQ(st.pendingRestores, 0u);
    expectExactMatchesShadow(space, shadow);
    svc.stop();
}

TEST(VirtService, ConcurrentProducersStayShadowExact)
{
    ShardedEngine engine(smallConfig(256), 4);
    service::IngestService svc(engine);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 3;
    VirtualCounterSpace space(svc, vcfg);

    const unsigned producers = 4;
    std::vector<Shadow> shadows(producers);
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            Rng rng(100 + p);
            for (size_t i = 0; i < 5000; ++i) {
                // Disjoint key ranges: each producer owns its keys,
                // so per-producer shadows are exact references.
                const uint64_t key =
                    hashKey((uint64_t(p) << 32) |
                               rng.nextBounded(200));
                const int64_t v = 1 + int64_t(rng.nextBounded(2));
                shadows[p].apply(key, v, space.add(key, v));
            }
        });
    for (auto &t : threads)
        t.join();
    space.flush();
    svc.stop();

    Shadow merged;
    for (const auto &s : shadows)
        for (const auto &[k, v] : s.expect)
            merged.expect[k] = v;
    expectExactMatchesShadow(space, merged);
}

// ---------------------------------------------------------------------
// Scrubbed virtualized ingest under fault injection
// ---------------------------------------------------------------------

TEST(VirtScrubbed, FaultyIngestEndsBitIdenticalForExactKeys)
{
    EngineConfig cfg = smallConfig(128);
    cfg.protection = Protection::Ecc;
    cfg.faultRate = 1e-3;
    ShardedEngine engine(cfg, 2);
    service::IngestService svc(engine);
    reliability::Scrubber scrub(engine);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 8;
    VirtualCounterSpace space(svc, vcfg);
    space.attachScrubber(&scrub);

    Rng rng(61);
    Shadow shadow;
    for (size_t i = 0; i < 20000; ++i) {
        const uint64_t key = hashKey(rng.nextBounded(300));
        const int64_t v = 1 + int64_t(rng.nextBounded(3));
        shadow.apply(key, v, space.add(key, v));
    }
    space.flush();
    svc.stop(); // final sweep reconciles every shard

    const auto st = space.stats();
    EXPECT_GT(st.spills, 0u);
    EXPECT_GT(scrub.stats().sweeps, 0u);
    expectExactMatchesShadow(space, shadow);
}

TEST(VirtScrubbed, ScrubLedgerHoldsOnlyTheSweepsRows)
{
    // Frame rewrites hand the scrubber what they wrote (noteRewrite),
    // so nothing re-reads a shard after them: at CIM fault rate 0 the
    // scrub ledger row is the sweeps' row reads and rewrites alone.
    const EngineConfig cfg = smallConfig(128);
    ShardedEngine engine(cfg, 2);
    reliability::Scrubber scrub(engine);
    VirtualCounterSpace space(engine, framePressureConfig());
    space.attachScrubber(&scrub);
    Shadow shadow;
    driveFramePressure(space, shadow);

    EXPECT_GT(space.stats().spills, 0u);
    EXPECT_GT(space.stats().restores, 0u);
    expectExactMatchesShadow(space, shadow);
    const auto ss = scrub.stats();
    EXPECT_GT(ss.sweeps, 0u);
    EXPECT_EQ(ss.rowsRepaired, 0u);
    EXPECT_NEAR(engine.stats().fabric.attr(cim::FabricCat::Scrub) /
                    shardRowNs(cfg),
                static_cast<double>(ss.rowsScrubbed + ss.rowsRepaired +
                                    ss.carryRows),
                0.5);
}

namespace {

/** ECC at CIM fault rate 1e-3: the reads-after-flush engine. */
EngineConfig
faultyEccConfig()
{
    EngineConfig cfg = smallConfig(128);
    cfg.radix = 4;
    cfg.protection = Protection::Ecc;
    cfg.faultRate = 1e-3;
    cfg.seed = 61;
    return cfg;
}

VirtConfig
flushVirtConfig()
{
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    vcfg.restoreOpThreshold = 8;
    return vcfg;
}

/**
 * 20000 adds over 300 keys with a flush() every 200, checking every
 * exact key and one point read against @p shadow after each flush.
 * @return the number of flushes.
 */
size_t
checkReadsAfterEveryFlush(VirtualCounterSpace &space, Shadow &shadow)
{
    Rng rng(61);
    size_t flushes = 0;
    for (size_t i = 1; i <= 20000; ++i) {
        const uint64_t key = hashKey(rng.nextBounded(300));
        const int64_t v = 1 + int64_t(rng.nextBounded(3));
        shadow.apply(key, v, space.add(key, v));
        if (i % 200 != 0)
            continue;
        space.flush();
        SCOPED_TRACE("flush " + std::to_string(++flushes));
        expectExactMatchesShadow(space, shadow);
        if (shadow.expect.empty())
            continue;
        auto it = shadow.expect.begin();
        std::advance(it, static_cast<long>(flushes %
                                           shadow.expect.size()));
        EXPECT_EQ(space.read(it->first), it->second)
            << "key " << it->first;
    }
    return flushes;
}

} // namespace

TEST(VirtScrubbed, ReadsAfterEveryFlushMatchTheShadow)
{
    // Maintenance runs before the boundary sweep, so the CIM faults
    // a first materialization injects are healed before flush()
    // returns: no read between epochs sees a value the next sweep
    // would change.
    const EngineConfig cfg = faultyEccConfig();
    ShardedEngine engine(cfg, 2);
    service::IngestConfig icfg;
    icfg.minDrainOps = size_t{1} << 40; // epochs only at flush()
    service::IngestService svc(engine, icfg);
    reliability::Scrubber scrub(engine);
    VirtualCounterSpace space(svc, flushVirtConfig());
    space.attachScrubber(&scrub);

    Shadow shadow;
    checkReadsAfterEveryFlush(space, shadow);
    svc.stop();

    EXPECT_GT(space.stats().spills, 0u);
    EXPECT_GT(space.stats().materializations, 0u);
    EXPECT_GT(engine.stats().fabric.faultsInjected, 0u);
    expectExactMatchesShadow(space, shadow);
}

TEST(VirtScrubbed, DirectReadsAfterEveryFlushMatchTheShadow)
{
    // Direct mode on a bare engine: flush() applies the buffer, runs
    // maintenance and then the scrubber's boundary, so the faults the
    // applied ops and materializations inject are healed before it
    // returns.
    ShardedEngine engine(faultyEccConfig(), 2);
    reliability::Scrubber scrub(engine);
    VirtConfig vcfg = flushVirtConfig();
    vcfg.directBatchOps = 64;
    VirtualCounterSpace space(engine, vcfg);
    space.attachScrubber(&scrub);

    Shadow shadow;
    const size_t flushes = checkReadsAfterEveryFlush(space, shadow);

    EXPECT_EQ(flushes, 100u);
    EXPECT_GT(space.stats().spills, 0u);
    EXPECT_GT(space.stats().materializations, 0u);
    EXPECT_GT(engine.stats().fabric.faultsInjected, 0u);
    EXPECT_GE(scrub.stats().boundaries, flushes);
}

// ---------------------------------------------------------------------
// Report spine
// ---------------------------------------------------------------------

TEST(VirtStatsReport, CountersCarryTheVirtKeys)
{
    ShardedEngine engine(smallConfig(64), 1);
    VirtConfig vcfg;
    vcfg.groupSize = 16;
    vcfg.promoteThreshold = 2;
    VirtualCounterSpace space(engine, vcfg);
    Rng rng(71);
    for (size_t i = 0; i < 3000; ++i)
        space.add(hashKey(rng.nextBounded(500)), 1);
    space.flush();

    const CounterMap report = space.report();
    for (const char *key :
         {"virt.resident_groups", "virt.spills", "virt.restores",
          "virt.promotions", "virt.sketch_keys",
          "virt.est_error_bound", "virt.est_error_seed_max",
          "virt.keys_exact", "virt.journaled_ops",
          "virt.dir_probes", "virt.sketch_updates"})
        EXPECT_TRUE(report.count(key)) << key;
    EXPECT_GT(report.at("virt.promotions"), 0u);
    EXPECT_GT(report.at("virt.sketch_keys"), 0u);
    EXPECT_GT(report.at("virt.sketch_updates"), 0u);
}
