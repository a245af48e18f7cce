#ifndef C2M_CORE_ENGINE_HPP
#define C2M_CORE_ENGINE_HPP

/**
 * @file
 * The Count2Multiply execution engine (Sec. 5).
 *
 * One engine instance owns a counting backend (EngineConfig::backend:
 * Ambit DRAM, Pinatubo/MAGIC NVM, or the SIMDRAM-style RCA baseline)
 * holding one or more groups of column-parallel counters plus the
 * mask rows of the stationary operand Z. On the substrates with
 * pending flags (Ambit, NVM) the host-side routine converts each
 * streamed input value into k-ary increment muPrograms (digit
 * unpacking, Sec. 5.1) and schedules deferred carry rippling with
 * IARM (Sec. 4.5.2); the RCA baseline adds every input whole, one
 * W-bit add per input (Sec. 3). Both rely on the backend's checked
 * execution (check-and-retry, in-fabric voting) when protection is
 * enabled (Sec. 6). Which protection and tensor features a substrate
 * offers is advertised through BackendCaps and checked at
 * construction.
 *
 * Counter groups:
 *  - kernels needing signed results use two groups dual-rail
 *    (accumulate positive contributions in group 0, negative in
 *    group 1, subtract at readout);
 *  - a group that sees a decrement enters signed mode (Sec. 4.4):
 *    its pendings are resolved after every op, and on the
 *    pending-flag substrates (Ambit, NVM) every counter is stored
 *    excess-B, as v + valueOffset(group), so a counter crossing zero
 *    changes one or two digits instead of borrowing through all of
 *    them;
 *  - TMR replicates every group three times and votes after each
 *    digit update (on RCA, all W bit rows after each add);
 *  - tensor ops (vector add, shift-left) operate across groups.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/ambit.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "jc/iarm.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace core {

/**
 * One column-parallel masked k-ary step: add @p k to (or, on the
 * decrement rail, subtract it from) digit @p digit of every counter
 * whose bit in mask row @p maskHandle is set. Drain plans and inputs
 * both run as lists of steps (C2MEngine::runSteps). A step with a
 * @p mask writes it into its maskHandle row right before its
 * program, so every plane of a plan may share one row: the program
 * cache keys on (op, group, digit, k, row), which stays stable across
 * epochs. The mask is borrowed for one plan (planPrepare, then
 * executePlan). A null mask means the row already holds it: an
 * input's steps run over its registered mask row. A counter may sit
 * in several steps of one digit (binary-weighted planes: a digit of 3
 * rides k = 1 and k = 2), as long as their k's add up to at most R-1.
 * The deltas a plan's steps encode may carry pending carries the
 * planner absorbed from Onext rows (planPrepare), so a step can cover
 * a counter no point update of the epoch touched.
 */
struct MaskedStep
{
    unsigned digit;
    unsigned k; ///< 1..radix-1
    unsigned maskHandle;
    const BitVector *mask;
    /**
     * Gang-issue role in a merged cross-shard plan: the lead shard of
     * a (digit, k) plane issues the plane program and is charged
     * FabricCat::Plan; follower shards execute the identical command
     * stream in the leader's issue slots (same row indices — shard
     * layouts only differ in column width) and are charged
     * FabricCat::PlanFanout with their commands counted as ganged.
     * Single-shard plans are all-lead.
     */
    bool lead = true;
    /** Decrement rail: a masked karyDecrement instead of an increment. */
    bool decrement = false;
};

/**
 * Throw std::invalid_argument if a mask of @p width entries is wider
 * than the @p num_counters counters it would be written over.
 */
void checkMaskWidth(size_t width, size_t num_counters);

/** Throw std::invalid_argument unless @p group < @p num_groups. */
void checkGroup(unsigned group, unsigned num_groups);

/**
 * Throw std::invalid_argument unless mask @p handle is one of the
 * @p num_masks registered and @p group < @p num_groups.
 */
void checkHandle(unsigned handle, unsigned num_masks,
                 unsigned group = 0, unsigned num_groups = 1);

class C2MEngine
{
  public:
    /**
     * @throws std::invalid_argument on an EngineConfig::validate
     *         error (before anything is built) or a protection the
     *         backend does not support.
     */
    explicit C2MEngine(const EngineConfig &cfg);
    ~C2MEngine();

    const EngineConfig &config() const { return cfg_; }

    /**
     * Engine-level protection/cache counters with the backend's
     * fabric tallies (commands, injected faults, host row accesses)
     * merged in. Returned by value: the fabric part is sampled from
     * the simulator at call time.
     */
    EngineStats stats() const
    {
        EngineStats s = stats_;
        s.fabric = backend_->opStats();
        return s;
    }

    /** The counting substrate this engine drives. */
    CountingBackend &backend() { return *backend_; }
    const CountingBackend &backend() const { return *backend_; }

    /**
     * The underlying Ambit subarray (DRAM-fabric backends only:
     * Ambit and RCA; panics otherwise).
     */
    cim::AmbitSubarray &subarray();

    /** JC row layout (JC backends only: Ambit and NVM). */
    const jc::CounterLayout &layout(unsigned group = 0) const;

    /** Physical replica count per logical group (3 for TMR). */
    unsigned numReplicas() const { return replicas(); }

    /** Physical group index of (logical group, replica). */
    unsigned physicalGroup(unsigned group, unsigned replica) const
    {
        return physIndex(group, replica);
    }

    /**
     * Store a binary mask (the next row of Z); returns its handle. A
     * mask shorter than numCounters is zero-padded.
     * @throws std::invalid_argument if @p mask is longer than
     *         numCounters or all EngineConfig::maxMaskRows rows are
     *         taken; nothing is registered then.
     */
    unsigned addMask(const std::vector<uint8_t> &mask);
    unsigned numMasks() const { return numMasks_; }
    /**
     * Overwrite an existing mask row, zero-padding a short @p mask.
     * @throws std::invalid_argument on an unknown @p handle or a
     *         @p mask longer than numCounters; the row is left as is.
     */
    void setMask(unsigned handle, const std::vector<uint8_t> &mask);
    /**
     * In-place overwrite from a prebuilt packed row: no byte-vector
     * conversion, no allocation. The batch hot paths (point masks,
     * plane masks) route through this overload.
     */
    void setMask(unsigned handle, const BitVector &mask);

    /**
     * Accumulate @p value into every counter of @p group whose bit in
     * mask @p mask_handle is set (value >= 0). The JC backends issue
     * one k-ary increment per nonzero digit, defer carries with IARM
     * and skip zero inputs; a backend without pending flags (RCA)
     * issues one masked W-bit add per replica for every input, zero
     * included.
     * @throws std::invalid_argument on an unknown @p mask_handle or
     *         @p group (zero inputs included), changing nothing.
     */
    void accumulate(uint64_t value, unsigned mask_handle,
                    unsigned group = 0);

    /**
     * Signed accumulation: negative values decrement (Sec. 4.4). The
     * first one puts the group in signed mode (see valueOffset). On
     * RCA a negative value is one add of its two's complement.
     * @throws std::invalid_argument as accumulate does.
     */
    void accumulateSigned(int64_t value, unsigned mask_handle,
                          unsigned group = 0);

    /**
     * Column-parallel masked accumulate (Fig. 15), in two halves: a
     * drain plan is a batch of digit-plane steps, each one masked
     * k-ary increment (or, on the decrement rail, decrement) covering
     * every counter whose epoch delta has digit k at that position —
     * or, on a binary-weighted digit, whose digit there has bit k set.
     * This is the multi-counter entry point the drain planner
     * schedules through — it skips the per-value digit loop entirely.
     * Two shapes:
     *
     *  - unsigned: an unsigned-mode group and increment steps only.
     *    IARM headroom is prepared ONCE for the whole plan from
     *    @p headroom (planPrepare), then each step issues a single
     *    karyIncrement (executePlan).
     *  - signed: a signed-mode group, or any decrement step (which
     *    puts the group in signed mode first, through the same entry
     *    as the first decrement of accumulateSigned). The increment
     *    steps run, then resolveAllPendings(carries) from the digits
     *    they touched; the decrement steps run, then
     *    resolveAllPendings(borrows) from theirs.
     *
     * Requirements: increment steps before decrement steps; every
     * counter on one rail. @p headroom[d] bounds the sum of the k's
     * any one counter receives at digit d (the largest digit at
     * position d among the summed magnitudes the plan encodes), so it
     * is at most R-1: a digit then wraps at most once per rail, and
     * both code generators OR each wrap into Onext, so a later step
     * that does not wrap keeps the flag an earlier one set.
     *
     * planPrepare is the host-side bookkeeping half, split out so a
     * hierarchical planner can prepare every shard's slice of a
     * merged plan before any fabric work runs. It validates @p steps
     * against @p headroom (every step's k within its digit's bound).
     * For an unsigned plan it lowers the IARM bound of every digit in
     * @p absorbed (bit d: the caller read Onext(d) through
     * absorbPeek and folded R^(d+1) into the delta of every set
     * column; IarmScheduler::absorb), then advances the scheduler by
     * @p headroom (applyAdd). The caller absorbs exactly the digits
     * where bound + headroom would exceed 2R-1 (none after drain()),
     * so the plan owes no ripple; planPrepare asserts that. The
     * profile is the caller's because the steps cannot give it: with
     * several steps per digit their largest k is too small, and their
     * sum can exceed R-1 (at radix 10, 1 + 2 + 4 + 8), which would ask
     * for needless absorption. A signed plan absorbs nothing: it
     * resolves its pendings in place during executePlan. Touches no
     * fabric state.
     */
    void planPrepare(std::span<const MaskedStep> steps,
                     std::span<const unsigned> headroom,
                     unsigned group, uint64_t absorbed);

    /**
     * Fabric half of a prepared plan: clear the Onext row of every
     * digit in @p clears (the absorbed digits whose row had a set
     * bit, on every replica), then issue the steps through runSteps:
     * each step's plane mask is written into its own
     * MaskedStep::maskHandle row before its masked increment. A
     * signed plan enters signed mode if needed and resolves each
     * rail's pendings after its steps.
     * Lead steps charge FabricCat::Plan (mask writes MaskWrite as
     * usual); follower ones charge PlanFanout and count their AAP/AP
     * commands as ganged — executed in lockstep under the lead
     * shard's issue slots. The row clears, the signed-mode entry
     * (drain and host re-encode) and the resolve's Onext reads,
     * ripples and Osign folds depend on this shard's counter values,
     * so they are never ganged: they charge Plan on every shard.
     * @p folded_ops is the number of point updates the plan folds in;
     * it feeds inputsAccumulated/plannedOps so batch accounting
     * matches the per-op path.
     */
    void executePlan(std::span<const MaskedStep> steps, uint64_t clears,
                     unsigned group, uint64_t folded_ops);

    /**
     * The columns of @p group with a pending carry at @p digit, for a
     * carry-absorbing drain plan: one charged host read of the Onext
     * row, or under TMR of all three replicas' rows and their bitwise
     * majority (so a fault in one replica stays out of the plan that
     * all three execute). Charged to FabricCat::Plan on this shard,
     * never ganged, and counted in EngineStats::absorbPeeks. The
     * reference stays valid until the row is written or the next
     * call.
     */
    const BitVector &absorbPeek(unsigned group, unsigned digit);

    /** The IARM virtual bound per digit of an unsigned group. */
    const std::vector<unsigned> &iarmBounds(unsigned group) const
    {
        return schedulers_[group].bounds();
    }

    /**
     * True once the group has seen a decrement (a negative op, or a
     * negative planned sum): pending flags are kept fully resolved
     * after every op or plan rail, so no carry is ever deferred.
     */
    bool signedMode(unsigned group) const
    {
        return groupHasDecrements_[group];
    }

    /**
     * What the group's rows hold above its counter values: they
     * encode v + valueOffset(group). 0 until the group enters signed
     * mode; then, on a pending-flag backend, the excess-B bias
     *
     *   B = c (R^(D-1) - 1) / (R - 1),  c = R/2 - 1,
     *
     * which puts c in every digit below the top one (radix 4 at 32
     * bits: B = 0x5555'5555), so a carry or borrow of a small |v|
     * stops at the first digit above the ones v uses. Values below
     * -B still borrow to the top and fold into Osign. Always 0 on
     * RCA (no pending flags) and at radix 2 (c = 0); taken modulo
     * 2^64 in layouts wider than 64 bits. clear() resets it.
     */
    int64_t valueOffset(unsigned group) const
    {
        return offsets_[group];
    }

    /** Planner bookkeeping: @p n ops bypassed plans (per-op path). */
    void notePlanFallback(uint64_t n)
    {
        stats_.planFallbackOps += n;
    }

    /**
     * Rewrite counters [first, first + values.size()) of @p group to
     * @p values through the reliable host path (a virt frame's spill,
     * writing zeros, or restore): one charged read per state row, a
     * charged write per row that changes. @p old gets what replica 0
     * held, decoded as readCounters decodes (invalid digits counted).
     * Each digit's IARM bound rises to the largest digit written
     * there (IarmScheduler::cover). No fabric command is issued.
     * @throws std::invalid_argument on a backend without
     *         caps().rowScrub, a bad @p group or column range, or an
     *         @p old of another length, before any row changes.
     */
    void rewriteCounters(unsigned group, size_t first,
                         std::span<const int64_t> values,
                         std::span<int64_t> old);

    /**
     * Current counter values (Onext/Osign accounted, no draining),
     * valueOffset removed in the same decode pass.
     * @throws std::invalid_argument on a @p group past numGroups.
     */
    std::vector<int64_t> readCounters(unsigned group = 0);

    /** Reset counters of all groups to zero, unsigned, offset 0. */
    void clear();

    // ---- Tensor-style operations (Sec. 5.2.4) ----
    // Require a backend with caps().tensorOps (Ambit). Each throws
    // std::invalid_argument before it changes anything on a backend
    // without them or a group past numGroups (checkTensorOp,
    // checkTensorPair).

    /**
     * dst += src element-wise (JC vector addition, Alg. 2).
     * @throws std::invalid_argument also if @p dst_group is
     *         @p src_group or either is in signed mode.
     */
    void addCounters(unsigned dst_group, unsigned src_group);

    /**
     * Zero all counters of @p group that are negative (Osign). A
     * biased group has its valueOffset removed first (so Osign marks
     * exactly the negative values) and restored after, each through
     * the same host re-encode as signed-mode entry.
     */
    void relu(unsigned group);

    /**
     * counters <<= amount via repeated doubling; @p spare_group is
     * clobbered as scratch.
     * @throws std::invalid_argument also if @p spare_group is
     *         @p group or either is in signed mode.
     */
    void shiftLeft(unsigned group, unsigned spare_group,
                   unsigned amount);

    /**
     * Resolve every pending overflow of a group (Sec. 4.4). Walks the
     * digits IarmScheduler::drain() returns, in its order; each one's
     * Onext row is read first (pendingRow on replica 0: one charged
     * host row read, counted in EngineStats::drainPeeks) and the
     * ripple is issued only if some column is pending. The scheduler's
     * bounds advance as if every flagged digit rippled; a ripple over
     * an empty Onext row would change no row. Signed-mode entry and
     * the tensor ops drain through here.
     * @throws std::invalid_argument on a @p group past numGroups.
     */
    void drain(unsigned group);

    /**
     * Every state row of @p group was just rewritten to its canonical
     * image (a scrub sweep settled the pending carries through the
     * host row path): advance the IARM bounds exactly as drain()
     * would, issuing no command. The bounds then equal drain()'s, so
     * every later IARM ripple and plan absorption is drain()'s too.
     * @throws std::invalid_argument on a @p group past numGroups.
     */
    void noteCanonical(unsigned group);

  private:
    /** Physical replica count per logical group (3 for TMR). */
    unsigned replicas() const
    {
        return cfg_.protection == Protection::Tmr ? 3 : 1;
    }
    unsigned physIndex(unsigned group, unsigned replica) const;

    /** Majority-vote the rows of digit @p digit across replicas. */
    void voteDigit(unsigned group, unsigned digit);

    /**
     * An input on a backend without pending flags (RCA): one masked
     * W-bit add of @p addend per replica, then a TMR vote, whatever
     * the value — the SIMDRAM baseline's cost, zero included.
     * @p magnitude (|value|) is checked against the capacity.
     */
    void addWhole(unsigned group, uint64_t magnitude, uint64_t addend,
                  unsigned mask_handle);

    /**
     * accumulate and accumulateSigned: add @p magnitude to (with
     * @p decrement, subtract it from) the masked counters of @p group
     * as a one-input plan, one step per nonzero digit over the mask's
     * own row; an unsigned group gets its IARM room first.
     */
    void addInput(uint64_t magnitude, bool decrement,
                  unsigned mask_handle, unsigned group);

    /**
     * IARM room for an add of at most @p digits[d] at each digit d of
     * an unsigned group: the ripples prepareAdd owes, then applyAdd.
     */
    void makeIarmRoom(unsigned group,
                      const std::vector<unsigned> &digits);

    /**
     * Issue @p steps, increment rail first, decrement rail after: the
     * one loop over a step list. A decrement rail puts the group in
     * signed mode first. A step with a mask writes it into its row
     * (under MaskWrite) before its program. Lead steps issue in their
     * own slots; followers issue under PlanFanout with their commands
     * counted as ganged. In signed mode each rail's pendings are
     * resolved from the digits its steps touched.
     */
    void runSteps(unsigned group, std::span<const MaskedStep> steps);

    /**
     * One masked k-ary increment (with @p decrement, decrement) of
     * @p digit over raw mask row @p row on every replica of @p group,
     * then the TMR vote of the digit; counted in increments.
     */
    void step(unsigned group, unsigned digit, unsigned k, unsigned row,
              bool decrement);

    /**
     * Carry (with @p borrow, borrow) ripple out of @p digit on every
     * replica of @p group, then the TMR vote of digit + 1; counted in
     * ripples.
     */
    void ripple(unsigned group, unsigned digit, bool borrow);

    /**
     * First decrement on @p group (accumulateSigned, or a plan with a
     * decrement rail): drain outstanding overflows (Sec. 4.4), enter
     * signed mode and re-encode the group at the excess-B offset.
     * No-op once the group is signed.
     */
    void enterSignedMode(unsigned group);

    /**
     * Re-encode every replica of @p group from its current
     * valueOffset to @p offset through the reliable host path, each
     * replica from its own values: one charged read per state row
     * and one charged write per row whose image changes.
     */
    void setValueOffset(unsigned group, int64_t offset);

    /**
     * Clear every pending flag by repeated highest-first passes over
     * a host-tracked frontier (bit d: digit d may be pending). The
     * caller passes the digits its steps touched; each pass reads
     * the Onext row of every frontier digit (pendingRow, charged),
     * ripples the pending ones, and makes the digits they land in
     * the next frontier. A pass whose ripples reach the top digit
     * folds it into Osign. Used in signed mode, where Onext must be
     * unambiguous before the direction can change.
     */
    void resolveAllPendings(unsigned group, bool borrows,
                            uint64_t frontier);

    unsigned maskRowIndex(unsigned handle) const;

    EngineConfig cfg_;
    unsigned bitsPerDigit_;
    EngineStats stats_; ///< must precede backend_ (holds a reference)
    std::unique_ptr<CountingBackend> backend_;
    std::vector<jc::IarmScheduler> schedulers_; ///< per logical group
    std::vector<bool> groupHasDecrements_;
    std::vector<int64_t> offsets_; ///< valueOffset per logical group
    int64_t signedOffset_ = 0;     ///< B, the signed-mode offset
    unsigned numMasks_ = 0;
    BitVector peekMajority_; ///< absorbPeek's TMR vote of three rows
    std::vector<BitVector> rowImage_; ///< host row rewrite scratch
};

/**
 * Throw std::invalid_argument unless @p eng's backend has tensor ops
 * and @p group < numGroups: relu's checks.
 */
void checkTensorOp(const C2MEngine &eng, unsigned group);

/**
 * checkTensorOp for @p group and @p other, which must differ and
 * neither be in signed mode: the checks of addCounters and shiftLeft.
 */
void checkTensorPair(const C2MEngine &eng, unsigned group,
                     unsigned other);

} // namespace core
} // namespace c2m

#endif // C2M_CORE_ENGINE_HPP
