#ifndef C2M_CORE_SHARDED_HPP
#define C2M_CORE_SHARDED_HPP

/**
 * @file
 * Sharded batch counting engine.
 *
 * A ShardedEngine owns N independent C2MEngine shards. The logical
 * counter space [0, numCounters) is split into N contiguous column
 * ranges; each shard simulates only its own (narrower) Ambit
 * subarray, with its own RNG stream derived from EngineConfig::seed
 * and its own EngineStats. Shards share no mutable state, so a batch
 * executes with no locks on the hot path: ops are bucketed per shard
 * on the host, and each shard's bucket runs FIFO on a fixed
 * ThreadPool lane.
 *
 * Two ingest paths:
 *  - accumulateBatch(): histogram-style point updates, each routed to
 *    the single shard owning the target counter. Because that shard's
 *    subarray holds only 1/N of the columns, every row operation the
 *    update expands into touches 1/N of the bits — the batch gets
 *    faster per op as shards are added even on one core, and shards
 *    run concurrently on top of that.
 *  - accumulate()/accumulateSigned() with a mask handle: the classic
 *    broadcast path. Masks registered through addMask() are sliced
 *    column-wise across shards, and the increment fans out to all
 *    shards in parallel.
 *
 * Digit-plane drain planner (EngineConfig::drainPlanner, default on):
 * a shard bucket of point updates is not replayed one op at a time —
 * the planner sums each counter's delta, splits the sums by sign into
 * two rails, decomposes each magnitude into radix-R digits, and for
 * every populated (rail, digit position d, digit value k) builds ONE
 * shared plane mask covering all counters whose delta magnitude has
 * digit k at position d. A dense digit — one whose populated k's
 * need more planes than their binary weights 1, 2, 4, ... — is then
 * folded into binary-weighted planes when that is cheaper: each
 * composite-k plane is ORed into the planes of its bits, so a digit
 * of 3 rides planes 1 and 2 and the digit costs bit_width(R-1)
 * programs instead of up to R-1. Each plane costs a single masked
 * karyIncrement (increment rail) or karyDecrement (decrement rail),
 * so a bucket of N ops executes in at most 2*D*bit_width(R-1)
 * column-parallel fabric programs per group at radix <= 16 (where a
 * slot with more planes than its basis always folds; 2*D*(R-1) at
 * any radix; Fig. 15) instead of N whole-row program sequences.
 * Every plane is written into the shard's one reserved plane row
 * before its program runs; the program cache keys on (op, group,
 * digit, k, row), so each plane's cached program replays across
 * epochs.
 * A negative sum puts its group in signed mode (Sec. 4.4), whose
 * plans resolve each rail's carries/borrows in place. Sums whose
 * magnitude reaches the guard digit and buckets whose modeled fabric
 * cost (C2mCostModel command counts priced by DramTimings) does not
 * beat per-op replay fall back to the serial path; either path
 * yields bit-identical counter values.
 *
 * Hierarchical (global-then-sliced) planning — runEpoch(), the one
 * entry point of the drain path: planning each shard's bucket on its
 * own would replicate every plane program N times, which makes plan
 * fabric time exactly linear in shard count. runEpoch instead runs
 * the classic radix-count stage split over ALL buckets of an epoch:
 *
 *   1. combine — per shard (parallel, host-only): partition the
 *      bucket by group and sum each counter's delta through the
 *      shard's write-combining table (core/coalesce.hpp);
 *   2. count — per shard (same pass): split the sums by sign,
 *      decompose them into one per-(rail, digit, k) plane histogram
 *      and fold its dense digits into binary-weighted planes. An
 *      unsigned part first absorbs the carries IARM would ripple
 *      before it: wherever a digit's bound plus the sums' largest
 *      digit there would pass 2R-1, the planner reads that digit's
 *      Onext row (one charged host read, FabricCat::Plan) and adds
 *      R^(d+1) to the delta of every set column, touched by the
 *      epoch or not. The plan then clears those rows instead of
 *      rippling them, so planned epochs issue no IARM ripple;
 *   3. scan/offset — host-serial: merge the per-shard histograms
 *      into ONE global plan per group, price plan-vs-fallback on the
 *      merged plan, and slice it back: for every (rail, digit, k)
 *      plane the lowest shard holding it becomes the gang LEADER that
 *      issues the plane program (FabricCat::Plan); the other shards
 *      execute the identical command stream in the leader's issue
 *      slots as FOLLOWERS (FabricCat::PlanFanout, commands counted
 *      as ganged). Per-shard IARM preparation runs here, host-side,
 *      with the same per-shard headroom profiles and absorbed digits
 *      independent plans would use, so scheduler state is
 *      bit-identical either way;
 *   4. execute — per shard (parallel): each shard clears its
 *      absorbed Onext rows and writes its own plane-mask slices
 *      (never ganged), then executes its slice of the merged plan.
 *      In a signed-mode group the carries/borrows each rail leaves
 *      pending depend on the shard's own values, so every shard
 *      issues its own resolve ripples (FabricCat::Plan, never
 *      ganged).
 *
 * Ganged follower commands ride the leader's rank-window slots, so
 * statsWindow() excludes them from the tFAW/tRRD rank floor: plan
 * fabric attribution becomes sublinear in shard count while the
 * ledger stays bit-exact (the fan-out cost is visible in its own
 * row).
 *
 * Results are bit-identical to a single C2MEngine over the full
 * counter space on the same op stream (columns are independent in the
 * Ambit simulation), and independent of the thread count: per-shard
 * op order is fixed by the batch order, not by scheduling.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/stats.hpp"
#include "core/coalesce.hpp"
#include "core/engine.hpp"
#include "core/threadpool.hpp"

namespace c2m {
namespace core {

class ShardedEngine
{
  public:
    /**
     * @param cfg logical configuration; cfg.numCounters is the total
     *        counter count across all shards, cfg.seed the root seed
     *        from which per-shard streams are split.
     * @param num_shards shard count (>= 1, <= cfg.numCounters).
     * @param num_threads pool size; 0 means one thread per shard.
     * @throws std::invalid_argument, before the lane pool starts, on
     *         an EngineConfig::validate error or a shard count out of
     *         range; later, from a shard, on a protection its backend
     *         does not support.
     */
    ShardedEngine(const EngineConfig &cfg, unsigned num_shards,
                  unsigned num_threads = 0);

    const EngineConfig &config() const { return cfg_; }
    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    size_t numCounters() const { return cfg_.numCounters; }

    C2MEngine &shard(unsigned s) { return *shards_[s]; }
    /** Shard owning logical counter @p counter. */
    unsigned shardOf(uint64_t counter) const;
    /** First logical counter of shard @p s. */
    size_t shardStart(unsigned s) const { return starts_[s]; }
    /** Column count of shard @p s. */
    size_t shardWidth(unsigned s) const
    {
        return starts_[s + 1] - starts_[s];
    }

    /**
     * Register a mask over the full logical counter space; each shard
     * receives its column slice. Returns a handle valid for the
     * broadcast accumulate()/accumulateSigned() calls. A mask shorter
     * than numCounters is zero-padded.
     * @throws std::invalid_argument if @p mask is longer than
     *         numCounters or all EngineConfig::maxMaskRows rows are
     *         taken; nothing is registered then.
     */
    unsigned addMask(const std::vector<uint8_t> &mask);
    unsigned numMasks() const { return numMasks_; }
    /**
     * Overwrite a registered mask on every shard, zero-padding a
     * short @p mask.
     * @throws std::invalid_argument on an unknown @p handle or a
     *         @p mask longer than numCounters; no shard is written.
     */
    void setMask(unsigned handle, const std::vector<uint8_t> &mask);

    /**
     * Execute a batch of point updates; returns when all are done.
     * @throws std::invalid_argument as checkOps does, before any op
     *         runs.
     */
    void accumulateBatch(std::span<const BatchOp> ops);

    /**
     * Throw std::invalid_argument naming the first op whose counter
     * is outside numCounters or whose group is outside numGroups.
     */
    void checkOps(std::span<const BatchOp> ops) const;

    /**
     * One shard's coalesced ops for an epoch drain: at most one
     * bucket per shard, ops all owned by that shard. The spans must
     * stay valid for the duration of the runEpoch call.
     */
    struct EpochBucket
    {
        unsigned shard;
        std::span<const BatchOp> ops;
    };

    /**
     * Drain one epoch's buckets through the hierarchical radix-count
     * pipeline (see the file comment): parallel combine/count per
     * bucket, one merged scan/offset plan per group priced globally
     * and sliced back with gang-issue roles, then parallel sliced
     * execution. Both parallel stages run as a claim loop: any lane
     * may run any bucket's stage task, but shards are strictly
     * single-writer — two stage tasks inside one shard panic.
     * Execute-stage tasks run off their home lane (steals) are added
     * to @p steals_out when non-null. Counter results are
     * bit-identical to replaySerial on the concatenated op stream,
     * whatever the lane count. This is the drain path's one entry:
     * accumulateBatch, the ingest drainer and virt materializations
     * all run through it.
     */
    void runEpoch(std::span<const EpochBucket> buckets,
                  uint64_t *steals_out = nullptr);

    /**
     * Run an arbitrary task against shard @p s on the calling thread
     * under the same single-writer guard as runEpoch. This is the
     * scrub entry point: a reliability sweep may run on any lane (or
     * the drainer thread) while other shards keep executing, but two
     * writers inside one shard panic. @p fn receives the shard engine
     * and the shard's first logical counter index.
     */
    void runShardTask(
        unsigned s,
        const std::function<void(C2MEngine &, size_t)> &fn);

    /** The lane pool shard work is scheduled on (lane s = shard s). */
    ThreadPool &pool() { return pool_; }

    /**
     * Broadcast @p value to masked counters on every shard.
     * @throws std::invalid_argument on an unknown @p mask_handle or
     *         @p group, before any shard runs.
     */
    void accumulate(uint64_t value, unsigned mask_handle,
                    unsigned group = 0);
    void accumulateSigned(int64_t value, unsigned mask_handle,
                          unsigned group = 0);

    /**
     * Counter values over the full logical space, in logical order.
     * @throws std::invalid_argument on a @p group past numGroups.
     */
    std::vector<int64_t> readAllCounters(unsigned group = 0);

    // ---- Tensor-style fan-out (each runs on all shards) ----
    // Each throws std::invalid_argument as its C2MEngine op does, on
    // the caller's thread before any shard runs; a group is in
    // signed mode if it is on any shard.
    void addCounters(unsigned dst_group, unsigned src_group);
    void relu(unsigned group);
    /**
     * counters <<= amount on every shard; @p spare_group is clobbered
     * as scratch (matches C2MEngine::shiftLeft).
     */
    void shiftLeft(unsigned group, unsigned spare_group,
                   unsigned amount);
    void drain(unsigned group);
    void clear();

    /** Per-shard stats merged with EngineStats::operator+=. */
    EngineStats stats() const;

    /** One stats snapshot per shard, in shard order. */
    std::vector<EngineStats> shardStats() const;

  private:
    /** Internal mask handle reserved per shard for point updates. */
    static constexpr unsigned kPointMask = 0;
    /** Internal mask handle every digit plane is written into. */
    static constexpr unsigned kPlaneMask = 1;
    /**
     * Shard-internal handles reserved below the public ones, on top
     * of EngineConfig::maxMaskRows.
     */
    static constexpr unsigned kReservedMasks = 2;

    /**
     * One group's slice of a shard bucket, carried through the epoch
     * pipeline: stage 1/2 fill ops/sums-derived planes and absorb
     * due carries, stage 3 decides `planned` and fills steps with
     * gang roles, stage 4 executes. Reused across epochs so the
     * steady-state drain path performs no per-op allocation (each
     * plane mask is allocated, shard-width, the first time a sum
     * populates it).
     */
    struct PlanPart
    {
        uint32_t group = 0;
        /**
         * Ops of this part: a view into the caller's bucket on the
         * single-group fast path, into `own` when a bucket had to be
         * partitioned by group.
         */
        std::span<const BatchOp> ops;
        std::vector<BatchOp> own; ///< backing store (multi-group)
        /**
         * Plane masks, indexed rail * D(R-1) + digit * (R-1) + (k-1)
         * (rail 0 increments, rail 1 decrements).
         */
        std::vector<BitVector> planes;
        /** Columns per plane during stage 2 (0: plane not listed). */
        std::vector<uint32_t> planeCount;
        std::vector<uint32_t> touched;  ///< plane indices this plan
        /**
         * Largest digit per position among the part's summed
         * magnitudes: the IARM headroom the plan needs. Carried with
         * the plan because a folded digit's steps cannot give it.
         */
        std::vector<unsigned> headroom;
        std::vector<MaskedStep> steps;  ///< stage-3 sliced program
        /**
         * Digits whose Onext row stage 2 read into the sums (bit d),
         * and the subset whose row had a set bit, which the plan
         * clears before its steps.
         */
        uint64_t absorbed = 0;
        uint64_t carried = 0;
        /** Modeled ns of replaying this part's RAW ops per-op. */
        double fallbackNs = 0.0;
        /** Plan candidate after stage 2; final verdict after 3. */
        bool planned = false;
    };

    /**
     * Per-shard planner workspace. Reused across buckets so the
     * steady-state drain path performs no per-op allocation: the
     * point mask is updated two bits at a time, and the
     * write-combining table, its sums and the part list keep their
     * capacity between epochs. Guarded by the shard's single-writer
     * discipline like the engine itself — except stage 3, which runs
     * host-serial across all shards of an epoch with no stage-1/4
     * task in flight.
     */
    struct PlannerScratch
    {
        BitVector pointMask; ///< reusable single-bit point mask
        size_t pointCol;     ///< column currently set in pointMask
        CoalesceScratch table; ///< write-combining table of the part
        /**
         * Per-counter delta sums of the current part (wrapping,
         * zero sums elided), first-occurrence order.
         */
        CoalesceResult sums;
        /** Columns of the part's sums while it absorbs carries. */
        BitVector cols;
        /** Group partition of this shard's bucket, parts[0..used). */
        std::vector<PlanPart> parts;
        size_t partsUsed = 0;
        /**
         * Populated k's of the current part per (rail, digit) slot,
         * bit k for plane k.
         */
        std::vector<uint64_t> slotKs;
        /** Modeled ns to rewrite one of this shard's mask rows. */
        double maskWriteNs = 0.0;
    };

    /**
     * Pipeline stages 1+2 for one shard (host-only, no fabric work):
     * partition @p ops by group, then per part sum each counter's
     * delta, build the per-(digit, k) plane histogram and price the
     * per-op replay alternative. Caller holds the shard's
     * single-writer guard.
     */
    void prepareShardParts(unsigned s, std::span<const BatchOp> ops);
    /**
     * Stage 2 for one part: delta sums, planes of both sign rails,
     * absorbed carries, headroom profile, binary-weighted folds,
     * fallback price.
     */
    void analyzePart(unsigned s, PlanPart &part);
    /**
     * Plane @p idx of @p part, emptied and listed in `touched` when
     * its column count is zero (the caller then counts its column).
     */
    BitVector &openPlane(unsigned s, PlanPart &part, size_t idx);
    /**
     * Carry-absorbing plan, for an unsigned part whose planes are
     * built: walk the digits below the guard from low to high, and
     * wherever IARM would ripple before this plan (bound + largest
     * summed digit > 2R-1) read the digit's Onext row
     * (C2MEngine::absorbPeek) and add R^(d+1) to the delta of every
     * set column: columns the epoch did not touch join plane
     * (d+1, 1) a word at a time, summed columns move between the
     * planes of the digits the carry changes. Records the digits in
     * part.absorbed / part.carried. Returns false if a carry reaches
     * the guard digit (the part then replays per op).
     */
    bool absorbCarries(unsigned s, PlanPart &part);
    /**
     * Fold each (rail, digit) slot of @p part (k-sets in the shard's
     * slotKs) whose binary basis {2^j : some populated k has bit j}
     * needs fewer planes than its populated k's and is cheaper at
     * planStepNs_ plus one mask write per plane: OR every
     * composite-k plane into the planes of its bits and drop it from
     * `touched`.
     */
    void foldBinaryPlanes(unsigned s, PlanPart &part);
    /**
     * Stage 3 (host-serial): for every distinct group across
     * @p shard_ids, price ONE merged plan (union of planes, leader
     * issue slots) against the summed per-part replay price, commit
     * or demote all candidate parts together, slice the plan back
     * per shard with gang-issue roles, and run each committed
     * shard's IARM preparation.
     */
    void planParts(std::span<const unsigned> shard_ids);
    /**
     * Stage 4 for one shard: execute each part's plan slice, or
     * replay it per-op, inside the shard.drain trace span. Caller
     * holds the shard's single-writer guard.
     */
    void execShardParts(unsigned s);
    /** Per-op replay of @p ops through the shard's point mask. */
    void runShardSerial(unsigned s, std::span<const BatchOp> ops);
    /**
     * Run @p fn once per bucket through a work-stealing claim loop on
     * the pool, and drain.
     */
    void forEachBucket(
        std::span<const EpochBucket> buckets, uint64_t *steals_out,
        const std::function<void(const EpochBucket &)> &fn);
    /** Run @p fn(shard) on every shard in parallel, then drain. */
    template <typename Fn> void forEachShard(Fn &&fn);

    EngineConfig cfg_;
    std::vector<size_t> starts_; ///< numShards+1 range boundaries
    std::vector<std::unique_ptr<C2MEngine>> shards_;
    std::vector<PlannerScratch> scratch_; ///< one per shard
    /** Single-writer guard per shard for the stealing path. */
    std::unique_ptr<std::atomic<bool>[]> shardBusy_;
    unsigned numMasks_ = 0;
    /** Plane indices per sign rail, D*(R-1). */
    unsigned railPlanes_ = 0;
    /** planeLead_ entry of a plane no candidate of the group holds. */
    static constexpr unsigned kNoLead = ~0u;
    /**
     * Gang leader per plane index of the group planParts is slicing
     * (2*railPlanes_ entries, kNoLead outside its union planes; reset
     * through them after each group). Stage 3 is host-serial, so one
     * table serves every epoch.
     */
    std::vector<unsigned> planeLead_;
    /**
     * Modeled ns of one masked k-ary program, indexed [rail][k]
     * (rail 0 increment, rail 1 decrement; k = 0 unused):
     * C2mCostModel command counts (RcaCostModel for the RCA backend)
     * priced at the substrate's per-command ns. Drives the merged
     * plan-vs-fallback decision in planParts; on RCA, [rail][1] is
     * also the price of one per-op whole-value add.
     */
    std::array<std::vector<double>, 2> planStepNs_;
    ThreadPool pool_;
};

/**
 * A measurement window over a ShardedEngine: additive counters
 * differenced per shard, plus what follows from them.
 */
struct StatsWindow
{
    EngineStats total;           ///< window counters, summed over shards
    std::vector<double> shardNs; ///< per-shard window fabric ns
    /**
     * Bank-parallel critical path: the largest per-shard fabric ns
     * (shards run as banks of one rank). On DRAM backends it is
     * floored by the rank window — unganged commands x
     * DramTimings::issueIntervalNs(shards) — since tRRD/tFAW bound
     * the rank's command issue rate however many banks run
     * (Sec. 7.2.1). Ganged follower commands execute in their
     * leader's issue slots and stay out of the floor. NVM crossbars
     * are independent arrays with no rank window.
     */
    double criticalNs = 0.0;
    unsigned criticalShard = 0;     ///< shard with the largest ns
    double skew = 0.0;              ///< largest / mean shard ns
    double parallelEfficiency = 0.0; ///< mean shard ns / criticalNs
    double cacheHitRate = 0.0;      ///< program-cache hits / lookups
};

/**
 * The window from per-shard @p before snapshots (shardStats()) to the
 * engine's current stats. An empty @p before opens the window at
 * construction.
 */
StatsWindow statsWindow(const ShardedEngine &engine,
                        std::span<const EngineStats> before = {});

/**
 * Read group @p group of @p engine into a Histogram over [lo, hi]:
 * counter i contributes its value as the count of sample i. Counters
 * outside [lo, hi] land in the under/overflow buckets; zero counters
 * are skipped.
 */
Histogram countersToHistogram(ShardedEngine &engine, int64_t lo,
                              int64_t hi, unsigned group = 0);

/** Same conversion from an already-read counter vector. */
Histogram countersToHistogram(std::span<const int64_t> counters,
                              int64_t lo, int64_t hi);

/**
 * Canonical blocking baseline: replay @p ops in order on one
 * C2MEngine over the full counter space, switching a single point
 * mask per target change. Sharded batches and the async ingest
 * service must produce counters bit-identical to this. Requires
 * cfg.maxMaskRows >= 1 (one mask row is used).
 */
std::vector<int64_t> replaySerial(const EngineConfig &cfg,
                                  std::span<const BatchOp> ops,
                                  unsigned group = 0);

template <typename Fn>
void
ShardedEngine::forEachShard(Fn &&fn)
{
    for (unsigned s = 0; s < numShards(); ++s)
        pool_.post(s, [this, s, &fn] { fn(*shards_[s], s); });
    pool_.drain();
}

} // namespace core
} // namespace c2m

#endif // C2M_CORE_SHARDED_HPP
