#ifndef C2M_CORE_BACKEND_HPP
#define C2M_CORE_BACKEND_HPP

/**
 * @file
 * Backend-agnostic counting fabric interface (Sec. 4.6, Sec. 7).
 *
 * Count2Multiply is technology-agnostic: any bulk-bitwise substrate
 * can host the column-parallel counters. A CountingBackend owns the
 * fabric simulator, the per-physical-group code generators and a
 * program cache, and exposes the masked counting primitives the
 * engine schedules:
 *
 *  - AmbitBackend: DRAM triple-row-activation fabric; Johnson
 *    counters, ECC (FR check-and-retry) and TMR voting, plus the
 *    row-level logic the tensor ops (vector add, ReLU, shift)
 *    build on.
 *  - NvmBackend: Pinatubo (non-stateful AND/OR/NOT) or MAGIC
 *    (stateful NOR-only) machines; Johnson counters, unprotected.
 *  - RcaBackend: the SIMDRAM-style bit-serial ripple-carry baseline;
 *    vertical W-bit binary accumulators where every input is one
 *    full-width masked add (maskedAdd) and a k-ary plane step is an
 *    add of k*radix^digit (two's complement for decrements), with
 *    duplicate-compute ECC and TMR voting over all W bit rows.
 *
 * AmbitBackend and NvmBackend are both JcBackend instantiations
 * (core/backend_jc.hpp), which holds the Johnson-counter plumbing
 * once: each adds only how its digit programs run and what its
 * substrate alone does.
 *
 * Capability flags tell the engine which features a substrate
 * supports; the engine checks them before use, so an unsupported
 * protection throws std::invalid_argument at construction rather
 * than silently miscounting. Digit-step programs are replayed from a
 * per-backend ProgramCache keyed by (op, physical group, digit, k,
 * mask row); hit/miss counts surface in EngineStats. Whole-value
 * adds (maskedAdd) are generated per call.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hpp"
#include "core/config.hpp"
#include "jc/layout.hpp"

namespace c2m {

namespace cim {
class AmbitSubarray;
} // namespace cim
namespace uprog {
struct CheckedProgram;
} // namespace uprog

namespace core {

/**
 * Execute a CheckedProgram on a DRAM fabric: run each block, evaluate
 * its FR checks (XorOfRows or EqualRows), and re-execute on mismatch
 * up to @p max_retries times. Check/fault/retry counts accumulate
 * into @p stats — the one retry policy shared by every DRAM-fabric
 * backend so EngineStats means the same thing across them.
 */
void runCheckedOnSubarray(cim::AmbitSubarray &sub,
                          const uprog::CheckedProgram &prog,
                          size_t num_cols, unsigned max_retries,
                          EngineStats &stats);

/**
 * Majority-vote three replica rows of a DRAM fabric in place: copy
 * each into a designated row, then one triple activation writes the
 * majority back to all three. Adds its commands to
 * EngineStats::voteOps — the vote shared by every DRAM-fabric backend.
 */
void voteRowsOnSubarray(cim::AmbitSubarray &sub,
                        const std::array<unsigned, 3> &rows,
                        EngineStats &stats);

/** What a counting substrate can do; asserted by the engine. */
struct BackendCaps
{
    bool eccChecks = false;      ///< FR-checked programs with retry
    bool tmrVoting = false;      ///< in-fabric replica majority vote
    bool tensorOps = false;      ///< row logic + layouts for vector ops
    /**
     * Deferred carries via per-digit pending (Onext) flags. False for
     * binary accumulators (RCA), where every update resolves its
     * carries in-place, ripple calls are no-ops, and the engine adds
     * each input whole through maskedAdd.
     */
    bool pendingFlags = false;
    /**
     * Reliable host-level access to individual fabric rows
     * (scrubReadRow / scrubWriteRow), the seam the online scrubber
     * sweeps counter state through. True for the JC row-layout
     * fabrics (Ambit, NVM).
     */
    bool rowScrub = false;
};

class CountingBackend
{
  public:
    explicit CountingBackend(EngineStats &stats) : stats_(stats) {}
    virtual ~CountingBackend() = default;

    CountingBackend(const CountingBackend &) = delete;
    CountingBackend &operator=(const CountingBackend &) = delete;

    virtual BackendKind kind() const = 0;
    const BackendCaps &caps() const { return caps_; }

    /** Digits available to the host-side value decomposition. */
    virtual unsigned numDigits() const = 0;

    // ---- Mask rows ----

    /** Raw backend row index of mask @p handle (usable as mask_row). */
    virtual unsigned maskRow(unsigned handle) const = 0;
    virtual void writeMask(unsigned handle, const BitVector &row) = 0;

    // ---- Counting primitives (runChecked-style execution) ----

    /**
     * Masked k-ary increment of @p digit on physical group @p phys;
     * counters whose bit in @p mask_row is 0 are unchanged. Protected
     * backends run the checked program with retry internally.
     */
    virtual void karyIncrement(unsigned phys, unsigned digit,
                               unsigned k, unsigned mask_row) = 0;

    /** Masked k-ary decrement. */
    virtual void karyDecrement(unsigned phys, unsigned digit,
                               unsigned k, unsigned mask_row) = 0;

    /**
     * Masked full-width add of @p addend (mod 2^W; a negative value
     * as its two's complement) into every counter of @p phys whose
     * bit in @p mask_row is set, for binary accumulators
     * (caps().pendingFlags == false). The program is generated per
     * call: cached under its addend, the cache would grow with the
     * number of distinct input values.
     */
    virtual void maskedAdd(unsigned phys, uint64_t addend,
                           unsigned mask_row);

    /** Deferred carry ripple at digit boundary @p digit. */
    virtual void carryRipple(unsigned phys, unsigned digit) = 0;

    /** Borrow ripple at digit boundary @p digit. */
    virtual void borrowRipple(unsigned phys, unsigned digit) = 0;

    /**
     * The Onext row of @p digit: bit c set iff counter c has a
     * pending carry/borrow there (caps().pendingFlags). One charged
     * host read of the row (counts a rowRead); the reference stays
     * valid until the row is next written.
     */
    virtual const BitVector &pendingRow(unsigned phys, unsigned digit);

    /**
     * Onext(@p digit) <- 0 in every column (caps().pendingFlags): the
     * carries were taken into a drain plan's delta instead of being
     * rippled. One unchecked row clear, as a ripple ends with.
     */
    virtual void clearPending(unsigned phys, unsigned digit);

    /** Osign ^= Onext(top); Onext(top) <- 0 (signed-mode fold). */
    virtual void foldTopBorrowIntoSign(unsigned phys) = 0;

    /**
     * Majority-vote digit @p digit across three physical replicas
     * (caps().tmrVoting); adds to EngineStats::voteOps. A binary
     * accumulator votes all W bit rows, whatever the digit.
     */
    virtual void voteDigit(const std::array<unsigned, 3> &phys,
                           unsigned digit);

    // ---- Readout ----

    /**
     * Per-column counter values of one physical group, pending
     * carries (Onext) and sign included, less the group's value
     * offset @p offset (C2MEngine::valueOffset). Unreadable JC
     * patterns count into EngineStats::invalidStates and decode to
     * the nearest valid state.
     */
    virtual std::vector<int64_t> readCounters(unsigned phys,
                                              int64_t offset) = 0;

    /** Zero every counter of every physical group. */
    virtual void clearCounters() = 0;

    // ---- Fabric introspection and online-reliability hooks ----

    /**
     * Command/fault/cost tallies of the underlying fabric simulator
     * (AAP/AP, triple activations, injected fault bits, host row
     * accesses, and the modeled fabricNs/fabricNj charged at each
     * command issue point). Mandatory: every substrate must account
     * for its work honestly — a backend that executed a nonzero op
     * stream must report nonzero cost.
     */
    virtual cim::OpStats opStats() const = 0;

    /**
     * Mutable reference to the live substrate tally, for scoping
     * fabric-time attribution (cim::AttrScope) at engine-layer
     * boundaries. Same single-writer discipline as every other
     * mutating entry point: only the thread running the owning
     * shard's task may hold a scope on it.
     */
    virtual cim::OpStats &opStatsRef() = 0;

    /**
     * Reliable (memory-controller) read of raw fabric row @p row,
     * counted as a host row read (caps().rowScrub).
     */
    virtual const BitVector &scrubReadRow(unsigned row);

    /** Reliable overwrite of raw fabric row @p row (caps().rowScrub). */
    virtual void scrubWriteRow(unsigned row, const BitVector &v);

    // ---- Row-level logic for tensor ops (caps().tensorOps) ----

    /** JC row layout of a physical group (JC backends only). */
    virtual const jc::CounterLayout &layout(unsigned phys) const;

    virtual void rowCopy(unsigned src, unsigned dst);
    virtual void rowOr(unsigned a, unsigned b, unsigned dst);
    /** dst = a AND NOT b. */
    virtual void rowAndNot(unsigned a, unsigned b, unsigned dst);

    /** Zero all counters of @p phys that are negative (Osign). */
    virtual void relu(unsigned phys);

    /** Copy all counter state of group @p from onto group @p to. */
    virtual void copyCounters(unsigned from_phys, unsigned to_phys);

  protected:
    EngineStats &stats_;
    BackendCaps caps_;
};

/**
 * Build the backend selected by @p cfg.backend with
 * @p physical_groups counter groups (numGroups x replicas). @p stats
 * must outlive the backend: check, retry, vote and cache counters are
 * written into it as programs execute.
 */
std::unique_ptr<CountingBackend>
makeBackend(const EngineConfig &cfg, unsigned physical_groups,
            EngineStats &stats);

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_HPP
