#ifndef C2M_CORE_CONFIG_HPP
#define C2M_CORE_CONFIG_HPP

/**
 * @file
 * Engine-level configuration and statistics shared by C2MEngine, the
 * counting backends and the sharded engine.
 *
 * The counting substrate is selected by EngineConfig::backend: the
 * same host-side engine (digit unpacking, IARM scheduling, dual-rail
 * groups) drives an Ambit DRAM subarray, a Pinatubo/MAGIC NVM
 * machine, or the SIMDRAM-style ripple-carry baseline through one
 * core::CountingBackend interface (Sec. 4.6, Sec. 7).
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "cim/cost.hpp"
#include "cim/fault.hpp"
#include "common/stats.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"

namespace c2m {
namespace core {

enum class Protection : uint8_t
{
    None, ///< raw CIM
    Ecc,  ///< XOR-embedded FR checks with retry (Sec. 6)
    Tmr,  ///< triple modular redundancy with majority vote
};

/** Counting substrate driven through core::CountingBackend. */
enum class BackendKind : uint8_t
{
    Ambit,       ///< DRAM triple-row-activation fabric (Sec. 4)
    NvmPinatubo, ///< non-stateful NVM bulk-bitwise logic (Fig. 10a)
    NvmMagic,    ///< stateful NOR-only memristor logic (Fig. 10b)
    Rca,         ///< SIMDRAM-style W-bit ripple-carry adder (Sec. 3)
};

/** Human-readable backend name ("ambit", "nvm-pinatubo", ...). */
const char *backendName(BackendKind kind);

struct EngineConfig
{
    unsigned radix = 4;
    unsigned capacityBits = 32;
    size_t numCounters = 256;
    unsigned numGroups = 1;
    unsigned maxMaskRows = 64;
    Protection protection = Protection::None;
    unsigned frChecks = 1;   ///< FR computations per masking step
    unsigned maxRetries = 4; ///< re-executions before giving up
    double faultRate = 0.0;  ///< per-bit MAJ3 fault probability
    uint64_t seed = 1;
    BackendKind backend = BackendKind::Ambit;
    /**
     * Cache generated muPrograms per (op, digit, k, mask row) and
     * replay them, removing the fixed codegen cost from the batch hot
     * path. Replayed programs are bit-identical to regeneration.
     */
    bool programCache = true;
    /**
     * Column-parallel drain planning for batched point updates
     * (ShardedEngine/IngestService): decompose each counter's epoch
     * delta into radix digits and issue ONE masked k-ary increment
     * (positive sums) or decrement (negative sums) per populated
     * (rail, digit, k) plane, a dense digit folded into its
     * binary-weighted planes (k = 1, 2, 4, ...) where that is
     * cheaper, bounding fabric programs per bucket at
     * O(D*log2(R)) per group instead of O(ops). Final counter values
     * are bit-identical to per-op replay; sums reaching the guard
     * digit and buckets the plan cannot beat fall back to the per-op
     * path automatically.
     */
    bool drainPlanner = true;
    /**
     * Fabric cost parameter sets (timing + energy). The DRAM-fabric
     * backends (Ambit, Rca) charge per-command costs derived from
     * dramTimings/dramEnergy (core/fabriccost.hpp); the NVM backends
     * charge nvmCost. Every backend reports the result through
     * opStats().fabricNs/fabricNj and EngineStats::fabric.
     */
    dram::DramTimings dramTimings = dram::DramTimings{};
    dram::EnergyModel dramEnergy = dram::EnergyModel{};
    cim::NvmCostParams nvmCost = cim::NvmCostParams{};

    /**
     * The first field that makes this configuration unusable, as a
     * message naming it, or an empty string: numGroups >= 1, an even
     * radix in 2..2 jc::kMaxBits, capacityBits in 1..64,
     * numCounters >= 1, and frChecks in 1..3 under ECC. C2MEngine
     * and ShardedEngine throw it as std::invalid_argument before
     * they build anything.
     */
    std::string validate() const;
};

struct EngineStats
{
    uint64_t inputsAccumulated = 0;
    uint64_t increments = 0;
    /**
     * Carry/borrow ripples issued: IARM on the per-op path, drain and
     * signed resolve alike. An unsigned drain plan issues none: it
     * absorbs the carries IARM would ripple (absorbPeeks).
     */
    uint64_t ripples = 0;
    uint64_t checksRun = 0;
    uint64_t faultsDetected = 0;
    uint64_t retries = 0;
    uint64_t uncorrectedBlocks = 0;
    uint64_t invalidStates = 0; ///< unreadable JC patterns at readout
    uint64_t voteOps = 0;
    uint64_t programCacheHits = 0;   ///< programs replayed from cache
    uint64_t programCacheMisses = 0; ///< programs generated fresh
    uint64_t plansExecuted = 0;   ///< column-parallel plans applied
    uint64_t planPrograms = 0;    ///< masked plane increments issued
    /**
     * Plane increments this engine issued as a gang leader (or
     * stand-alone). planPrograms - planLeadPrograms is the follower
     * count: planes executed in lockstep under another shard's issue
     * slot in a merged cross-shard plan.
     */
    uint64_t planLeadPrograms = 0;
    uint64_t plannedOps = 0;      ///< point updates folded into plans
    uint64_t planFallbackOps = 0; ///< ops that took the per-op path
    /**
     * Signed-mode resolve: Onext rows read to decide whether a digit
     * ripples (one charged host row read each), and folds of the top
     * digit's pendings into Osign.
     */
    uint64_t pendingPeeks = 0;
    uint64_t signFolds = 0;
    /**
     * C2MEngine::drain: Onext rows read to decide whether a digit the
     * IARM scheduler flagged ripples (one charged host row read each).
     */
    uint64_t drainPeeks = 0;
    /**
     * Carry-absorbing drain plans: digits whose Onext row the planner
     * read into a plan's delta instead of rippling it (one charged
     * host row read per replica; C2MEngine::absorbPeek).
     */
    uint64_t absorbPeeks = 0;

    /**
     * Fabric-level command and fault tallies (AAP/AP commands, triple
     * activations, injected fault bits, host row accesses), copied
     * from the backend's simulator by C2MEngine::stats() so merged
     * service reports expose fault activity next to the engine-level
     * protection counters.
     */
    cim::OpStats fabric;

    /**
     * Field-wise sum, used to merge per-shard stats into one view.
     * Every field is an additive counter. When adding a field above,
     * extend this and since() too — the EngineStatsMerge tests pin
     * sizeof(EngineStats) so a new field cannot be silently dropped.
     */
    EngineStats &operator+=(const EngineStats &o)
    {
        inputsAccumulated += o.inputsAccumulated;
        increments += o.increments;
        ripples += o.ripples;
        checksRun += o.checksRun;
        faultsDetected += o.faultsDetected;
        retries += o.retries;
        uncorrectedBlocks += o.uncorrectedBlocks;
        invalidStates += o.invalidStates;
        voteOps += o.voteOps;
        programCacheHits += o.programCacheHits;
        programCacheMisses += o.programCacheMisses;
        plansExecuted += o.plansExecuted;
        planPrograms += o.planPrograms;
        planLeadPrograms += o.planLeadPrograms;
        plannedOps += o.plannedOps;
        planFallbackOps += o.planFallbackOps;
        pendingPeeks += o.pendingPeeks;
        signFolds += o.signFolds;
        drainPeeks += o.drainPeeks;
        absorbPeeks += o.absorbPeeks;
        fabric += o.fabric;
        return *this;
    }

    /**
     * The window from @p before to this snapshot: field-wise
     * difference, with fabric.fabricNs re-summed from the differenced
     * ledger rows in canonical order so the window's ledger is exact.
     */
    EngineStats since(const EngineStats &before) const;

    /**
     * Named "engine.*" counters, for merging with other subsystems'
     * statistics (mergeCounters / renderCounters). One entry per
     * field; the ToCountersCoversEveryField test pins the entry count
     * against sizeof(EngineStats).
     */
    CounterMap toCounters() const;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_CONFIG_HPP
