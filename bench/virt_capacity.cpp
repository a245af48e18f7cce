/**
 * @file
 * Virtualized counter capacity: millions of Zipf(1.1) keys over a
 * few-thousand-counter fabric through virt::VirtualCounterSpace.
 *
 * Each cell drives one key stream — an admission sweep touching
 * every distinct key once, then a Zipf(1.1)-skewed delta stream —
 * into a 4-shard fleet fronted by a VirtualCounterSpace. The sketch
 * tier admits every key immediately; heavy hitters cross
 * promoteThreshold and are promoted into exact in-fabric counter
 * groups; frame pressure forces cold groups to spill into
 * ECC-encoded RowMirror images and restore on demand. The headline
 * numbers:
 *
 *  - capacity: the 1e6-key cell serves 1e6 distinct keys over 1024
 *    physical counters (16 frames of 64), promoting the top ~2k keys
 *    while the rest ride the count-min front sketch.
 *  - exactness: every promoted key's final value must equal a serial
 *    replay of its deltas (sketch seed at promotion + every later
 *    delta). The no-spill cell additionally replays its recorded
 *    physical op stream through a blocking engine and demands
 *    bit-identical fabric state.
 *  - accuracy: for sampled never-promoted tail keys, the sketch
 *    estimate must sit within the analytic count-min point bound
 *    ((e/w)*N, plus 3-sigma Morris noise for Morris cells) for
 *    >= 99% of the sample.
 *  - cost: modeled fabric ns/nj (docs/perf.md) plus the spill/restore
 *    maintenance fabric time must be nonzero wherever spills happen.
 *
 * Gates (bench/harness): every cell is shadow-exact, promotes, and
 * has >= 99% of tail samples within the bound; the no-spill cell is
 * bit-identical to physical-op replay; the 1e6-key cell serves >= 1e6
 * keys and spills, restores and promotes (> 1000 promotions) with
 * nonzero maintenance fabric time. A cell's window is its engine's
 * lifetime up to the end of the stream (its host clock starts after
 * setup, at the admission sweep); the exactness, accuracy and replay
 * reads run after it closes. A fifth 1e7-key cell runs behind --big.
 *
 * Usage: virt_capacity [--big] [--trace FILE]
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness.hpp"
#include "virt/virtspace.hpp"

using namespace c2m;

namespace {

uint64_t
hashKey(uint64_t v)
{
    return splitMix64(v); // pure: v is a by-value copy of the state
}

struct CellSpec
{
    const char *name;
    size_t distinctKeys;
    size_t zipfOps;       ///< skewed deltas after the admission sweep
    size_t physCounters;  ///< fabric size (all shards)
    unsigned shards;
    unsigned capacityBits;
    /**
     * Count-min width. Must keep the collision noise floor (e/w)*N
     * below promoteThreshold, or the inflated estimates promote the
     * whole key space instead of the heavy hitters.
     */
    size_t sketchWidth;
    uint64_t promoteThreshold;
    bool morrisCells;
    bool checkReplay;     ///< physical-op replay (needs no spills)
    bool headline;        ///< the gated 1e6-key capacity cell
};

/**
 * Serial-replay reference for the exact tier: a promoted key's value
 * is its sketch seed at promotion plus every later delta, replayed
 * in stream order.
 */
struct Shadow
{
    std::map<uint64_t, int64_t> expect;

    void apply(uint64_t key, int64_t value,
               const virt::AddResult &r)
    {
        switch (r.route) {
        case virt::Route::Promoted:
            expect[key] = static_cast<int64_t>(r.seed);
            break;
        case virt::Route::Exact:
        case virt::Route::Journaled:
            expect[key] += value;
            break;
        case virt::Route::Sketch:
            break;
        }
    }
};

void
runCell(bench::Harness &h, const CellSpec &spec, TextTable &t)
{
    const bench::Window w = h.open();
    core::EngineConfig cfg;
    cfg.numCounters = spec.physCounters;
    cfg.capacityBits = spec.capacityBits;
    cfg.seed = 0xbe9cULL;
    core::ShardedEngine engine(cfg, spec.shards);

    virt::VirtConfig vcfg;
    vcfg.groupSize = 64;
    vcfg.promoteThreshold = spec.promoteThreshold;
    vcfg.restoreOpThreshold = 16;
    vcfg.sketch.width = spec.sketchWidth;
    vcfg.recordPhysicalOps = spec.checkReplay;
    if (spec.morrisCells)
        vcfg.sketch.cells = virt::SketchCells::Morris;
    virt::VirtualCounterSpace space(engine, vcfg);

    // Truth is tracked for a rank-uniform sample of the key space
    // (every sampleEvery-th Zipf rank), keeping memory flat while
    // covering the never-promoted tail the accuracy gate audits.
    const size_t sampleEvery =
        std::max<size_t>(1, spec.distinctKeys / 4096);
    std::unordered_map<uint64_t, uint64_t> truth;

    ZipfRng zipf(spec.distinctKeys, 1.1, 42);
    Shadow shadow;
    // The host clock starts once the space and key stream are built.
    const bench::Window timed = h.open();
    // Admission sweep: every distinct key enters the space once —
    // the sketch tier absorbs all of them immediately.
    for (size_t id = 0; id < spec.distinctKeys; ++id) {
        shadow.apply(hashKey(id), 1, space.add(hashKey(id), 1));
        if (id % sampleEvery == 0)
            ++truth[id];
    }
    // Skewed delta stream: heavy ranks cross promoteThreshold.
    for (size_t i = 0; i < spec.zipfOps; ++i) {
        const uint64_t id = zipf.next();
        shadow.apply(hashKey(id), 1, space.add(hashKey(id), 1));
        if (id % sampleEvery == 0)
            ++truth[id];
    }
    space.flush();
    const double seconds = timed.seconds();
    const size_t num_ops = spec.distinctKeys + spec.zipfOps;

    const auto st = space.stats();
    bench::Cell &c =
        h.cell(json::Value::object()
                   .set("cell", spec.name)
                   .set("distinct_keys", spec.distinctKeys)
                   .set("phys_counters", spec.physCounters)
                   .set("shards", spec.shards)
                   .set("morris", spec.morrisCells),
               engine, w, seconds, num_ops);
    mergeCounters(c.counters, space.report());

    // Exactness: every promoted key bit-identical to the serial
    // replay of its deltas.
    const auto entries = space.exactEntries();
    bool shadow_match = entries.size() == shadow.expect.size();
    for (const auto &e : entries) {
        const auto it = shadow.expect.find(e.key);
        shadow_match = shadow_match && it != shadow.expect.end() &&
                       it->second == e.value;
    }

    // Accuracy: sampled tail keys within the analytic point bound.
    size_t within = 0, sampled = 0;
    for (const auto &[id, count] : truth) {
        const uint64_t key = hashKey(id);
        if (space.isExact(key))
            continue;
        ++sampled;
        const double err =
            std::abs(double(space.approxEstimate(key)) -
                     double(count));
        if (err <= space.errorBound(key))
            ++within;
    }
    const double tail_frac =
        sampled ? double(within) / double(sampled) : 1.0;

    c.model.set("num_ops", num_ops)
        .set("keys_exact", st.keysExact)
        .set("resident_groups", st.residentGroups)
        .set("spilled_groups", st.spilledGroups)
        .set("sketch_keys", st.sketchKeys)
        .set("promotions", st.promotions)
        .set("spills", st.spills)
        .set("restores", st.restores)
        .set("materializations", st.materializations)
        .set("sketch_updates", st.sketchUpdates)
        .set("maintenance_fabric_ns", st.maintenanceFabricNs)
        .set("est_error_bound", st.estErrorBound)
        .set("tail_sampled", sampled)
        .set("tail_within_bound_frac", tail_frac);
    c.gate("shadow_exact", shadow_match);
    c.gate("promotions", static_cast<double>(st.promotions), ">", 0.0);
    c.gate("tail_within_bound_frac", tail_frac, ">=", 0.99);
    if (spec.checkReplay) {
        // With no spills the recorded physical op stream fully
        // determines the fabric: blocking serial replay must land on
        // bit-identical counter state.
        const auto replayed =
            core::replaySerial(cfg, space.physicalLog());
        c.gate("replay_match", st.spills == 0 &&
                                   engine.readAllCounters(0) ==
                                       replayed);
    }
    if (spec.headline) {
        c.gate("distinct_keys", static_cast<double>(spec.distinctKeys),
               ">=", 1e6);
        c.gate("spills", static_cast<double>(st.spills), ">", 0.0);
        c.gate("restores", static_cast<double>(st.restores), ">", 0.0);
        c.gate("headline_promotions",
               static_cast<double>(st.promotions), ">", 1000.0);
        c.gate("maintenance_fabric_ns", st.maintenanceFabricNs, ">",
               0.0);
    }

    t.addRow({spec.name, std::to_string(spec.distinctKeys),
              std::to_string(spec.physCounters),
              TextTable::fmt(static_cast<double>(num_ops) / seconds, 0),
              std::to_string(st.keysExact),
              std::to_string(st.promotions), std::to_string(st.spills),
              std::to_string(st.restores),
              TextTable::fmt(100.0 * tail_frac, 1),
              TextTable::fmt(
                  (c.window.total.fabric.fabricNs +
                   st.maintenanceFabricNs) /
                      1e3,
                  1),
              shadow_match ? "yes" : "NO"});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("virt_capacity", "BENCH_virt.json", argc, argv,
                     {"--big"});
    const bool big = h.has("--big");
    h.doc().id.set("big", big);

    std::printf("virtualized counter capacity: Zipf(1.1) key spaces "
                "over a 4-shard fleet\n");

    std::vector<CellSpec> specs = {
        // No-spill cell: 64 frames, ~500 promoted keys -> every
        // group stays resident and the physical op log replays.
        {"zipf1.1-1e5", 100000, 100000, 4096, 4, 16, 1 << 14, 32,
         false, true, false},
        // Headline: 1e6 distinct keys over 1024 physical counters
        // (16 frames of 64); ~2k promotions force frame pressure.
        {"zipf1.1-1e6", 1000000, 1000000, 1024, 4, 20, 1 << 18, 32,
         false, false, true},
        // Morris-cell sketch tier: same fabric, wider error bound.
        {"zipf1.1-1e5-morris", 100000, 100000, 1024, 4, 16, 1 << 14,
         32, true, false, false},
    };
    if (big)
        specs.push_back({"zipf1.1-1e7", 10000000, 2000000, 16384, 4,
                         20, 1 << 20, 64, false, false, false});

    TextTable t({"cell", "keys", "counters", "ops/s", "exact",
                 "promos", "spills", "restores", "tail_ok",
                 "fabric_us", "shadow"});
    for (const auto &s : specs) {
        std::printf("%s: %zu keys over %zu counters...\n", s.name,
                    s.distinctKeys, s.physCounters);
        runCell(h, s, t);
    }
    std::printf("%s", t.render().c_str());
    return h.finish();
}
