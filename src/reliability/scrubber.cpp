#include "reliability/scrubber.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace reliability {

CounterMap
ScrubStats::toCounters() const
{
    return {
        {"reliability.boundaries", boundaries},
        {"reliability.sweeps", sweeps},
        {"reliability.rows_scrubbed", rowsScrubbed},
        {"reliability.rows_repaired", rowsRepaired},
        {"reliability.carry_rows", carryRows},
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
    if (!supports(engine))
        C2M_FATAL(core::backendName(engine.config().backend),
                  " backend does not support row scrubbing");

    const unsigned groups = engine.config().numGroups;
    shards_.resize(engine.numShards());
    for (unsigned s = 0; s < engine.numShards(); ++s) {
        auto &eng = engine.shard(s);
        auto &st = shards_[s];
        const size_t cols = engine.shardWidth(s);
        st.mirrors.reserve(groups);
        for (unsigned g = 0; g < groups; ++g)
            st.mirrors.emplace_back(
                eng.backend().layout(eng.physicalGroup(g, 0)), cols);
        // Every group shares the engine's layout geometry.
        st.expected.assign(groups, std::vector<int64_t>(cols));
        st.got.assign(st.mirrors[0].numRows(), BitVector(cols));
        st.decoded.resize(cols);
        for (BitVector *row : {&st.image, &st.diff, &st.carry, &st.clean,
                               &st.invalid})
            *row = BitVector(cols);
        st.sweptCommands = eng.backend().opStats().commands();
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
    // the sweep's per-counter sums equal what the fabric received
    // whether the bucket executed column-parallel or per-op.
    auto &journal = shards_[shard].journal;
    journal.insert(journal.end(), ops.begin(), ops.end());
    std::lock_guard<std::mutex> lk(m_);
    aggregate_.opsJournaled += ops.size();
}

void
Scrubber::noteBatch(std::span<const core::BatchOp> ops)
{
    for (const auto &op : ops)
        shards_[engine_.shardOf(op.counter)].journal.push_back(op);
    std::lock_guard<std::mutex> lk(m_);
    aggregate_.opsJournaled += ops.size();
}

void
Scrubber::onEpochApplied(uint64_t)
{
    boundary();
}

void
Scrubber::boundary()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        ++aggregate_.boundaries;
    }
    if (cfg_.storeFaultRate > 0.0)
        injectStoreDecay();
    std::vector<unsigned> due;
    for (unsigned s = 0; s < shards_.size(); ++s)
        if (dirty(s))
            due.push_back(s);
    if (!due.empty())
        runSweeps(due);
}

bool
Scrubber::dirty(unsigned s) const
{
    const ShardState &st = shards_[s];
    return !st.journal.empty() || st.decayed ||
           engine_.shard(s).backend().opStats().commands() !=
               st.sweptCommands;
}

void
Scrubber::injectStoreDecay()
{
    for (auto &st : shards_) {
        for (auto &mirror : st.mirrors)
            for (size_t r = 0; r < mirror.numRows(); ++r)
                mirror.row(r).injectFaults(st.decayRng,
                                           cfg_.storeFaultRate);
        st.decayed = true;
    }
}

void
Scrubber::runSweeps(const std::vector<unsigned> &due)
{
    const auto sweep = [this](unsigned s) {
        engine_.runShardTask(
            s, [this, s](core::C2MEngine &eng, size_t) {
                sweepShard(eng, s);
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

namespace {

/**
 * @p clean <- the columns whose rows decoded to their expected value
 * (@p got[c] == @p want[c]) with every digit a valid JC state.
 */
void
markClean(BitVector &clean, std::span<const int64_t> got,
          std::span<const int64_t> want, const BitVector &invalid)
{
    for (size_t w = 0; w < clean.numWords(); ++w) {
        const size_t c0 = w * 64;
        const size_t n = std::min<size_t>(64, want.size() - c0);
        uint64_t bits = 0;
        for (size_t c = 0; c < n; ++c)
            bits |= uint64_t{got[c0 + c] == want[c0 + c]} << c;
        clean.word(w) = bits & ~invalid.word(w);
    }
}

} // namespace

void
Scrubber::sweepShard(core::C2MEngine &eng, unsigned s)
{
    ShardState &st = shards_[s];
    const unsigned groups = engine_.config().numGroups;
    ScrubStats d;
    d.sweeps = 1;
    cim::AttrScope attr(eng.backend().opStatsRef(),
                        cim::FabricCat::Scrub);
    obs::TraceRecorder *tr = obs::tracer();
    if (tr)
        tr->spanBegin("scrub.sweep", s,
                      eng.backend().opStats().fabricNs);

    // Expected values: scrubbed mirror + journaled deltas.
    for (unsigned g = 0; g < groups; ++g) {
        ecc::RowCodec::CorrectResult mres;
        st.mirrors[g].decodeValues(st.expected[g], &mres);
        d.mirrorBitsCorrected += mres.corrected;
        d.mirrorWordsLost += mres.uncorrectable;
    }
    const size_t start = engine_.shardStart(s);
    for (const core::BatchOp &op : st.journal) {
        C2M_ASSERT(op.group < groups,
                   "journaled op targets unknown group ", op.group);
        st.expected[op.group][op.counter - start] += op.value;
    }
    st.journal.clear();
    st.decayed = false;

    const uint64_t tra_now = eng.backend().opStats().tra;
    const uint64_t tra_delta = tra_now - st.lastTra;
    st.lastTra = tra_now;

    // Verify-and-correct every persistent counter row of every
    // replica against the canonical expected image, pending carries
    // and all: a column whose rows decode to its expected value is
    // exact, so where it deviates from the image it holds pending
    // carries, which the image's rewrite settles with no ripple.
    // Deviations in any other column are faults.
    uint64_t words_swept = 0;
    for (unsigned g = 0; g < groups; ++g) {
        RowMirror &mirror = st.mirrors[g];
        const std::vector<int64_t> &want = st.expected[g];
        const int64_t offset = eng.valueOffset(g);
        mirror.encodeValues(want, offset);
        for (unsigned rep = 0; rep < eng.numReplicas(); ++rep) {
            const auto &lay =
                eng.backend().layout(eng.physicalGroup(g, rep));
            for (size_t r = 0; r < mirror.numRows(); ++r)
                st.got[r].copyFrom(eng.backend().scrubReadRow(
                    mirror.fabricRow(lay, r)));
            d.rowsScrubbed += mirror.numRows();
            words_swept += mirror.numRows() * mirror.codec().numWords();
            mirror.decodeRows(st.got, st.decoded, offset, &st.invalid);
            markClean(st.clean, st.decoded, want, st.invalid);
            for (size_t r = 0; r < mirror.numRows(); ++r) {
                BitVector &got = st.got[r];
                mirror.dataBitsInto(r, st.image);
                st.diff.assignXor(got, st.image);
                const size_t deviating = st.diff.popcount();
                if (deviating == 0)
                    continue;
                st.carry.assignAnd(st.diff, st.clean);
                const size_t flips = deviating - st.carry.popcount();
                const unsigned row = mirror.fabricRow(lay, r);
                if (flips == 0) {
                    ++d.carryRows;
                    eng.backend().scrubWriteRow(row, st.image);
                    continue;
                }
                ++d.rowsRepaired;
                d.faultyBits += flips;
                // Settle the carries first, so SEC-DED classifies
                // the faults alone.
                got.assignXor(got, st.carry);
                const auto res =
                    mirror.codec().scrubRow(got, mirror.row(r));
                d.bitsCorrected += res.corrected;
                d.wordsRecovered += res.uncorrectable;
                eng.backend().scrubWriteRow(row, st.image);
                // arg = flipped bits found, arg2 = fabric row healed.
                if (tr)
                    tr->instant("scrub.heal", s, flips, row);
            }
        }
        eng.noteCanonical(g);
    }

    ScrubObservation obs;
    obs.faultyBits = d.faultyBits;
    obs.traDelta = tra_delta;
    obs.rowBits = st.mirrors.empty() ? 0 : st.mirrors[0].cols();
    obs.wordsSwept = words_swept;
    st.sweptCommands = eng.backend().opStats().commands();
    if (tr)
        tr->spanEnd("scrub.sweep", s,
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
    if (dirty(s))
        runSweeps({s});
}

void
Scrubber::noteRewrite(unsigned s, unsigned group, size_t first,
                      std::span<const int64_t> values)
{
    C2M_ASSERT(s < shards_.size() && group < shards_[s].mirrors.size(),
               "rewrite of group ", group, " outside shard ", s);
    ShardState &st = shards_[s];
    const auto res = st.mirrors[group].spliceValues(first, values);
    std::lock_guard<std::mutex> lk(m_);
    st.stats.mirrorBitsCorrected += res.corrected;
    st.stats.mirrorWordsLost += res.uncorrectable;
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
