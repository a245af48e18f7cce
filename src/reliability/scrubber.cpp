#include "reliability/scrubber.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace reliability {

namespace {

/** Journal key packing: logical group in the high bits. */
constexpr uint64_t
journalKey(uint32_t group, uint64_t local_col)
{
    return (static_cast<uint64_t>(group) << 40) | local_col;
}

constexpr uint64_t kColMask = (uint64_t{1} << 40) - 1;

} // namespace

CounterMap
ScrubStats::toCounters() const
{
    return {
        {"reliability.boundaries", boundaries},
        {"reliability.sweeps", sweeps},
        {"reliability.rows_scrubbed", rowsScrubbed},
        {"reliability.rows_repaired", rowsRepaired},
        {"reliability.faulty_bits", faultyBits},
        {"reliability.bits_corrected", bitsCorrected},
        {"reliability.words_recovered", wordsRecovered},
        {"reliability.mirror_bits_corrected", mirrorBitsCorrected},
        {"reliability.mirror_words_lost", mirrorWordsLost},
        {"reliability.ops_journaled", opsJournaled},
    };
}

bool
Scrubber::supports(core::ShardedEngine &engine)
{
    return engine.shard(0).backend().caps().rowScrub;
}

Scrubber::Scrubber(core::ShardedEngine &engine,
                   const ScrubConfig &cfg)
    : engine_(engine), cfg_(cfg)
{
    if (cfg.interval < 1)
        C2M_FATAL("ScrubConfig::interval must be >= 1");
    if (!supports(engine))
        C2M_FATAL(core::backendName(engine.config().backend),
                  " backend does not support row scrubbing");

    const unsigned groups = engine.config().numGroups;
    shards_.resize(engine.numShards());
    for (unsigned s = 0; s < engine.numShards(); ++s) {
        auto &eng = engine.shard(s);
        auto &st = shards_[s];
        st.mirrors.reserve(groups);
        for (unsigned g = 0; g < groups; ++g)
            st.mirrors.emplace_back(
                eng.backend().layout(eng.physicalGroup(g, 0)),
                engine.shardWidth(s));
        st.lastTra = eng.backend().opStats().tra;
        st.decayRng = Rng(engine.config().seed ^
                          (0x9e3779b97f4a7c15ULL * (s + 1)));
    }
}

void
Scrubber::onShardOps(unsigned shard,
                     std::span<const core::BatchOp> ops)
{
    // These are the planned deltas: the drainer reports the exact
    // coalesced bucket the drain planner folds into digit planes, so
    // the journal's per-counter sums equal what the fabric received
    // whether the bucket executed column-parallel or per-op.
    auto &st = shards_[shard];
    const size_t start = engine_.shardStart(shard);
    for (const auto &op : ops)
        st.journal[journalKey(op.group, op.counter - start)] +=
            op.value;
    std::lock_guard<std::mutex> lk(m_);
    aggregate_.opsJournaled += ops.size();
}

void
Scrubber::noteBatch(std::span<const core::BatchOp> ops)
{
    for (const auto &op : ops) {
        const unsigned s = engine_.shardOf(op.counter);
        shards_[s].journal[journalKey(
            op.group, op.counter - engine_.shardStart(s))] +=
            op.value;
    }
    std::lock_guard<std::mutex> lk(m_);
    aggregate_.opsJournaled += ops.size();
}

void
Scrubber::onEpochApplied(uint64_t)
{
    boundary();
}

void
Scrubber::onStop(uint64_t)
{
    // Cadence no longer applies: whatever journal entries the
    // interval spacing deferred must reconcile now, so reads after the
    // service stops see exact counters.
    beginBoundary();
    scrubAll();
}

void
Scrubber::boundary()
{
    beginBoundary();
    sweepDue();
}

void
Scrubber::beginBoundary()
{
    ++boundary_;
    {
        std::lock_guard<std::mutex> lk(m_);
        ++aggregate_.boundaries;
    }
    if (cfg_.storeFaultRate > 0.0)
        injectStoreDecay();
}

void
Scrubber::injectStoreDecay()
{
    for (auto &st : shards_)
        for (auto &mirror : st.mirrors)
            for (size_t r = 0; r < mirror.numRows(); ++r)
                mirror.row(r).injectFaults(st.decayRng,
                                           cfg_.storeFaultRate);
}

void
Scrubber::sweepDue()
{
    std::vector<unsigned> due;
    for (unsigned s = 0; s < engine_.numShards(); ++s)
        if (boundary_ - shards_[s].lastSweepBoundary >= cfg_.interval)
            due.push_back(s);
    if (!due.empty())
        runSweeps(due);
}

void
Scrubber::runSweeps(const std::vector<unsigned> &due)
{
    const auto sweep = [this](unsigned s) {
        engine_.runShardTask(
            s, [this, s](core::C2MEngine &eng, size_t) {
                sweepShard(eng, shards_[s], boundary_);
            });
    };
    if (due.size() == 1) {
        sweep(due.front());
        return;
    }
    core::ThreadPool &pool = engine_.pool();
    for (unsigned s : due)
        pool.post(s, [&sweep, s] { sweep(s); });
    pool.drain();
}

void
Scrubber::sweepShard(core::C2MEngine &eng, ShardState &st,
                     uint64_t boundary)
{
    const unsigned groups = engine_.config().numGroups;
    ScrubStats d;
    d.sweeps = 1;
    cim::AttrScope attr(eng.backend().opStatsRef(),
                        cim::FabricCat::Scrub);
    const uint32_t track =
        static_cast<uint32_t>(&st - shards_.data());
    obs::TraceRecorder *tr = obs::tracer();
    if (tr)
        tr->spanBegin("scrub.sweep", track,
                      eng.backend().opStats().fabricNs);

    // Recover expected values: scrubbed mirror + journaled deltas;
    // then drain so fault-free state would be canonical.
    std::vector<std::vector<int64_t>> values(groups);
    for (unsigned g = 0; g < groups; ++g) {
        ecc::RowCodec::CorrectResult mres;
        values[g] = st.mirrors[g].decodeValues(&mres);
        d.mirrorBitsCorrected += mres.corrected;
        d.mirrorWordsLost += mres.uncorrectable;
        eng.drain(g);
    }
    for (const auto &[key, delta] : st.journal) {
        C2M_ASSERT((key >> 40) < groups,
                   "journaled op targets unknown group ", key >> 40);
        values[key >> 40][key & kColMask] += delta;
    }
    st.journal.clear();

    const uint64_t tra_now = eng.backend().opStats().tra;
    const uint64_t tra_delta = tra_now - st.lastTra;
    st.lastTra = tra_now;

    // Verify-and-correct every persistent counter row of every
    // replica against the canonical expected image.
    uint64_t words_swept = 0;
    for (unsigned g = 0; g < groups; ++g) {
        RowMirror &mirror = st.mirrors[g];
        mirror.encodeValues(values[g], eng.valueOffset(g));
        const size_t cols = mirror.cols();
        BitVector got(cols);
        BitVector diff(cols);
        BitVector expected(cols);
        for (unsigned rep = 0; rep < eng.numReplicas(); ++rep) {
            const auto &lay =
                eng.backend().layout(eng.physicalGroup(g, rep));
            for (size_t r = 0; r < mirror.numRows(); ++r) {
                const unsigned row = mirror.fabricRow(lay, r);
                got.copyFrom(eng.backend().scrubReadRow(row));
                mirror.dataBitsInto(r, expected);
                diff.assignXor(got, expected);
                ++d.rowsScrubbed;
                words_swept += mirror.codec().numWords();
                const size_t flips = diff.popcount();
                if (flips == 0)
                    continue;
                ++d.rowsRepaired;
                d.faultyBits += flips;
                const auto res =
                    mirror.codec().scrubRow(got, mirror.row(r));
                d.bitsCorrected += res.corrected;
                d.wordsRecovered += res.uncorrectable;
                eng.backend().scrubWriteRow(row, got);
                // arg = flipped bits found, arg2 = fabric row healed.
                if (tr)
                    tr->instant("scrub.heal", track, flips, row);
            }
        }
    }

    ScrubObservation obs;
    obs.faultyBits = d.faultyBits;
    obs.traDelta = tra_delta;
    obs.rowBits = st.mirrors.empty() ? 0 : st.mirrors[0].cols();
    obs.wordsSwept = words_swept;
    obs.boundaries =
        std::max<uint64_t>(1, boundary - st.lastSweepBoundary);
    st.lastSweepBoundary = boundary;
    if (tr)
        tr->spanEnd("scrub.sweep", track,
                    eng.backend().opStats().fabricNs);

    std::lock_guard<std::mutex> lk(m_);
    st.stats += d;
    health_.observe(obs);
}

void
Scrubber::scrubAll()
{
    std::vector<unsigned> all(engine_.numShards());
    for (unsigned s = 0; s < all.size(); ++s)
        all[s] = s;
    runSweeps(all);
}

void
Scrubber::sweepNow(unsigned s)
{
    C2M_ASSERT(s < shards_.size(), "shard index out of range: ", s);
    engine_.runShardTask(s, [this, s](core::C2MEngine &eng, size_t) {
        sweepShard(eng, shards_[s], boundary_);
    });
}

void
Scrubber::rebase()
{
    for (unsigned s = 0; s < engine_.numShards(); ++s)
        rebaseShard(s);
}

void
Scrubber::rebaseShard(unsigned s)
{
    C2M_ASSERT(s < shards_.size(), "shard index out of range: ", s);
    const unsigned groups = engine_.config().numGroups;
    engine_.runShardTask(
        s, [this, s, groups](core::C2MEngine &eng, size_t) {
            auto &st = shards_[s];
            cim::AttrScope attr(eng.backend().opStatsRef(),
                                cim::FabricCat::Scrub);
            st.journal.clear();
            for (unsigned g = 0; g < groups; ++g) {
                eng.drain(g);
                st.mirrors[g].encodeValues(eng.readCounters(g),
                                           eng.valueOffset(g));
            }
            st.lastTra = eng.backend().opStats().tra;
        });
}

ScrubStats
Scrubber::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    ScrubStats total = aggregate_;
    for (const auto &st : shards_)
        total += st.stats;
    return total;
}

ScrubStats
Scrubber::shardStats(unsigned s) const
{
    C2M_ASSERT(s < shards_.size(), "shard index out of range: ", s);
    std::lock_guard<std::mutex> lk(m_);
    return shards_[s].stats;
}

HealthMonitor
Scrubber::health() const
{
    std::lock_guard<std::mutex> lk(m_);
    return health_;
}

CounterMap
Scrubber::counters() const
{
    CounterMap merged = stats().toCounters();
    HealthMonitor h = health();
    if (h.samples() > 0)
        mergeCounters(merged, h.toCounters());
    return merged;
}

} // namespace reliability
} // namespace c2m
