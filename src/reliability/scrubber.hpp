#ifndef C2M_RELIABILITY_SCRUBBER_HPP
#define C2M_RELIABILITY_SCRUBBER_HPP

/**
 * @file
 * Online counter-state scrubbing over the sharded engine.
 *
 * The Scrubber keeps, per shard and logical counter group, an
 * ECC-encoded RowMirror (the trusted side store) plus a journal of
 * the point-update deltas applied since the shard's last sweep. At
 * an epoch boundary — hooked through service::EpochObserver, or
 * driven explicitly in standalone mode — every dirty shard is swept.
 * A shard is dirty when its journal holds an op or when its backend
 * issued a fabric command (AAP/AP) since its last sweep. CIM faults
 * enter only through fabric commands, so a clean shard has nothing a
 * sweep could find; scrubAll() is the forced full sweep for changes
 * no command made and no noteRewrite reported (a row written through
 * the host path).
 *
 * A sweep issues no fabric command (no AAP or AP):
 *
 *   1. the mirror itself is SEC-DED decode-corrected (it models
 *      spare DRAM rows) and its counter values are recovered;
 *   2. journaled deltas are added, giving the expected values;
 *   3. the expected values are encoded into their canonical image (a
 *      pure function of the values and the group's
 *      core::C2MEngine::valueOffset, which the mirror remembers per
 *      image, so a group that turned signed since the last sweep is
 *      re-encoded at its new offset): Onext clear, every digit below
 *      R;
 *   4. every persistent counter row (digit bits, Onext, Osign) of
 *      each replica is read once through the reliable host path and
 *      its columns are decoded with their Onext rows, as
 *      readCounters decodes them. A column that decodes to its
 *      expected value, every digit a valid JC state, is exact: its
 *      deviations from the image are pending carries (counted in
 *      carryRows). Deviations in any other column are faults: the
 *      row is ECC-decoded against the image's parity lanes, so
 *      single-flip words are corrected by the code, denser
 *      corruption is recovered from the image, and every event is
 *      accounted. Each deviating row is written once, from the
 *      image. The group's IARM bounds then advance as a drain would
 *      (core::C2MEngine::noteCanonical), with no ripple;
 *   5. the mirror adopts the expected image and the journal resets.
 *
 * Because step 4 forces the fabric onto the canonical encoding of
 * the true sums, a swept run ends bit-identical to a fault-free
 * serial replay whatever the injected CIM fault rate — the property
 * pinned by test_reliability.cpp — and its rows and IARM bounds are
 * those a drain followed by the same repair would leave. Sweep
 * outcomes feed the HealthMonitor's live fault-rate estimate (the
 * health.* counters); the backends' FR-check count stays as
 * configured for the engine's lifetime.
 *
 * Coverage contract: the scrubber sees point updates through the
 * journal (epoch buckets or noteBatch) and frame rewrites through
 * noteRewrite (core::C2MEngine::rewriteCounters, a virt spill or
 * restore). Broadcast accumulates and tensor ops on a scrubbed engine
 * are outside it: the next sweep would "correct" their state away.
 *
 * Drain-planner interplay: when the engine executes a bucket as
 * column-parallel digit planes (EngineConfig::drainPlanner), the
 * journal still records exactly the planned deltas — onShardOps
 * receives the same coalesced ops the planner folds, and the sweep
 * adds them into per-counter *sums*, which plans preserve by
 * construction (digit decomposition of the summed delta). Plans also
 * keep the IARM scheduler sound: an unsigned plan takes the carries
 * IARM would ripple into its own delta (read from Onext, then
 * cleared) and lowers those digits' bounds as a ripple would, so the
 * canonical expected image is unchanged and a scrubbed planner run
 * stays bit-identical to fault-free serial replay (pinned by
 * test_reliability.cpp).
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/sharded.hpp"
#include "reliability/health.hpp"
#include "reliability/mirror.hpp"
#include "service/ingest.hpp"

namespace c2m {
namespace reliability {

struct ScrubStats
{
    uint64_t boundaries = 0;      ///< epoch boundaries observed
    uint64_t sweeps = 0;          ///< shard sweeps executed
    uint64_t rowsScrubbed = 0;    ///< fabric rows read and checked
    uint64_t rowsRepaired = 0;    ///< rows with a faulty bit
    uint64_t carryRows = 0;       ///< rows rewritten for carries only
    uint64_t faultyBits = 0;      ///< faulty bits found (detected)
    uint64_t bitsCorrected = 0;   ///< flips fixed by SEC-DED alone
    uint64_t wordsRecovered = 0;  ///< words recovered from the mirror
    uint64_t mirrorBitsCorrected = 0; ///< side-store flips corrected
    uint64_t mirrorWordsLost = 0; ///< side-store words past SEC-DED
    uint64_t opsJournaled = 0;    ///< deltas recorded since attach

    ScrubStats &operator+=(const ScrubStats &o)
    {
        boundaries += o.boundaries;
        sweeps += o.sweeps;
        rowsScrubbed += o.rowsScrubbed;
        rowsRepaired += o.rowsRepaired;
        carryRows += o.carryRows;
        faultyBits += o.faultyBits;
        bitsCorrected += o.bitsCorrected;
        wordsRecovered += o.wordsRecovered;
        mirrorBitsCorrected += o.mirrorBitsCorrected;
        mirrorWordsLost += o.mirrorWordsLost;
        opsJournaled += o.opsJournaled;
        return *this;
    }

    /** Named "reliability.*" counters for merged reports. */
    CounterMap toCounters() const;
};

class Scrubber final : public service::EpochObserver
{
  public:
    /**
     * Attach to @p engine (which must outlive the scrubber). The
     * engine's counters must be in their cleared state — the initial
     * mirrors assume zero.
     * @throws std::invalid_argument on a backend without
     *         caps().rowScrub.
     */
    explicit Scrubber(core::ShardedEngine &engine);

    /** True iff @p engine's substrate supports row scrubbing. */
    static bool supports(core::ShardedEngine &engine);

    // ---- service::EpochObserver (drainer thread) ----
    void onShardOps(unsigned shard,
                    std::span<const core::BatchOp> ops) override;
    void onEpochApplied(uint64_t epoch) override;
    CounterMap counters() const override;

    // ---- Standalone mode (bare ShardedEngine, single driver) ----

    /** Journal a batch applied via accumulateBatch/runEpoch. */
    void noteBatch(std::span<const core::BatchOp> ops);

    /**
     * Advance one boundary: sweep every dirty shard, in parallel on
     * the engine's lane pool when there are several.
     */
    void boundary();

    /** Sweep every shard now, dirty or not. */
    void scrubAll();

    /**
     * Sweep shard @p s now if it is dirty; a clean shard costs
     * nothing, so repeated calls are free. This is the
     * virtualization layer's pre-spill hook: it heals the shard and
     * applies the pending journal before a frame's values are read
     * out, so the spilled image cannot adopt faulty state.
     * @throws std::invalid_argument on a shard past numShards.
     */
    void sweepNow(unsigned s);

    /**
     * Counters [first, first + values.size()) of @p group on shard
     * @p s were rewritten to @p values (core::C2MEngine::
     * rewriteCounters: a virt spill or restore), and the journal holds
     * no op for them: splice the values into the mirror
     * (RowMirror::spliceValues). No whole-mirror work; the shard's
     * dirty state stays as it was.
     * @throws std::invalid_argument on a shard past numShards, a
     *         group past numGroups or columns past the shard's width,
     *         before the mirror changes.
     */
    void noteRewrite(unsigned s, unsigned group, size_t first,
                     std::span<const int64_t> values);

    ScrubStats stats() const;
    ScrubStats shardStats(unsigned s) const;
    HealthMonitor health() const;

  private:
    struct ShardState
    {
        std::vector<RowMirror> mirrors; ///< per logical group
        /** Ops applied since the last sweep, in order. */
        std::vector<core::BatchOp> journal;
        /** Fabric AAP+AP count at the last sweep. */
        uint64_t sweptCommands = 0;
        uint64_t lastTra = 0; ///< fabric TRA count at last sweep
        ScrubStats stats;

        // Sweep scratch, sized at attach.
        std::vector<std::vector<int64_t>> expected; ///< per group
        std::vector<BitVector> got; ///< one replica's rows, mirror order
        std::vector<int64_t> decoded; ///< values the rows hold
        BitVector image;   ///< canonical data bits of one row
        BitVector diff;    ///< got ^ image
        BitVector carry;   ///< deviations in exact columns
        BitVector clean;   ///< exact columns
        BitVector invalid; ///< columns with an invalid JC digit
    };

    /** Throw std::invalid_argument unless @p s is a shard index. */
    void checkShard(unsigned s) const;
    /** True iff shard @p s has changed since its last sweep. */
    bool dirty(unsigned s) const;
    /** Sweep @p due shards, on the lane pool when there are several. */
    void runSweeps(const std::vector<unsigned> &due);
    /** Sweep shard @p s (single-writer guard held by runShardTask). */
    void sweepShard(core::C2MEngine &eng, unsigned s);

    core::ShardedEngine &engine_;
    std::vector<ShardState> shards_;

    /**
     * Guards aggregate_, health_ and every ShardState::stats block:
     * sweeps (pool lanes) append their deltas under it, readers
     * (counters()/stats() from reporting threads) sum under it.
     * Mirrors and journals need no lock — they are touched only with
     * the owning shard quiescent.
     */
    mutable std::mutex m_;
    ScrubStats aggregate_; ///< boundary/journal counters
    HealthMonitor health_;
};

} // namespace reliability
} // namespace c2m

#endif // C2M_RELIABILITY_SCRUBBER_HPP
