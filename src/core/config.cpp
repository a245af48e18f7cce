#include "core/config.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "jc/johnson.hpp"

namespace c2m {
namespace core {

std::string
EngineConfig::validate() const
{
    using detail::concat;
    if (numGroups < 1)
        return "numGroups must be >= 1, got 0";
    if (radix < 2 || radix % 2 != 0 || radix > 2 * jc::kMaxBits)
        return concat("radix must be even and in 2..",
                      2 * jc::kMaxBits, ", got ", radix);
    if (capacityBits < 1 || capacityBits > 64)
        return concat("capacityBits must be in 1..64, got ",
                      capacityBits);
    if (numCounters < 1)
        return "numCounters must be >= 1, got 0";
    if (protection == Protection::Ecc && (frChecks < 1 || frChecks > 3))
        return concat("frChecks must be in 1..3 under ECC, got ",
                      frChecks);
    return {};
}

EngineStats
EngineStats::since(const EngineStats &b) const
{
    EngineStats d;
    d.inputsAccumulated = inputsAccumulated - b.inputsAccumulated;
    d.increments = increments - b.increments;
    d.ripples = ripples - b.ripples;
    d.checksRun = checksRun - b.checksRun;
    d.faultsDetected = faultsDetected - b.faultsDetected;
    d.retries = retries - b.retries;
    d.uncorrectedBlocks = uncorrectedBlocks - b.uncorrectedBlocks;
    d.invalidStates = invalidStates - b.invalidStates;
    d.voteOps = voteOps - b.voteOps;
    d.programCacheHits = programCacheHits - b.programCacheHits;
    d.programCacheMisses = programCacheMisses - b.programCacheMisses;
    d.plansExecuted = plansExecuted - b.plansExecuted;
    d.planPrograms = planPrograms - b.planPrograms;
    d.planLeadPrograms = planLeadPrograms - b.planLeadPrograms;
    d.plannedOps = plannedOps - b.plannedOps;
    d.planFallbackOps = planFallbackOps - b.planFallbackOps;
    d.pendingPeeks = pendingPeeks - b.pendingPeeks;
    d.signFolds = signFolds - b.signFolds;
    d.drainPeeks = drainPeeks - b.drainPeeks;
    d.absorbPeeks = absorbPeeks - b.absorbPeeks;
    d.fabric = fabric;
    d.fabric -= b.fabric;
    return d;
}

CounterMap
EngineStats::toCounters() const
{
    // Cost tallies are doubles internally; the counter exchange
    // format is integral, so they round to whole ns/nJ here.
    const auto ns = [](double v) {
        return static_cast<uint64_t>(std::llround(v));
    };
    return {
        {"engine.inputs_accumulated", inputsAccumulated},
        {"engine.increments", increments},
        {"engine.ripples", ripples},
        {"engine.checks_run", checksRun},
        {"engine.faults_detected", faultsDetected},
        {"engine.retries", retries},
        {"engine.uncorrected_blocks", uncorrectedBlocks},
        {"engine.invalid_states", invalidStates},
        {"engine.vote_ops", voteOps},
        {"engine.program_cache_hits", programCacheHits},
        {"engine.program_cache_misses", programCacheMisses},
        {"engine.plans_executed", plansExecuted},
        {"engine.plan_programs", planPrograms},
        {"engine.plan_lead_programs", planLeadPrograms},
        {"engine.planned_ops", plannedOps},
        {"engine.plan_fallback_ops", planFallbackOps},
        {"engine.pending_peeks", pendingPeeks},
        {"engine.sign_folds", signFolds},
        {"engine.drain_peeks", drainPeeks},
        {"engine.absorb_peeks", absorbPeeks},
        {"engine.fabric.aap", fabric.aap},
        {"engine.fabric.ap", fabric.ap},
        {"engine.fabric.tra", fabric.tra},
        {"engine.fabric.faults_injected", fabric.faultsInjected},
        {"engine.fabric.row_reads", fabric.rowReads},
        {"engine.fabric.row_writes", fabric.rowWrites},
        {"engine.fabric.ganged", fabric.gangedCommands},
        {"engine.fabric.ns", ns(fabric.fabricNs)},
        {"engine.fabric.nj", ns(fabric.fabricNj)},
        {"engine.fabric.attr.plan",
         ns(fabric.attr(cim::FabricCat::Plan))},
        {"engine.fabric.attr.fallback",
         ns(fabric.attr(cim::FabricCat::Fallback))},
        {"engine.fabric.attr.mask_write",
         ns(fabric.attr(cim::FabricCat::MaskWrite))},
        {"engine.fabric.attr.scrub",
         ns(fabric.attr(cim::FabricCat::Scrub))},
        {"engine.fabric.attr.virt_spill",
         ns(fabric.attr(cim::FabricCat::VirtSpill))},
        {"engine.fabric.attr.virt_restore",
         ns(fabric.attr(cim::FabricCat::VirtRestore))},
        {"engine.fabric.attr.virt_materialize",
         ns(fabric.attr(cim::FabricCat::VirtMaterialize))},
        {"engine.fabric.attr.plan_fanout",
         ns(fabric.attr(cim::FabricCat::PlanFanout))},
        {"engine.fabric.attr.other",
         ns(fabric.attr(cim::FabricCat::Other))},
    };
}

} // namespace core
} // namespace c2m
