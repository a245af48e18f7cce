#ifndef C2M_CIM_FAULT_HPP
#define C2M_CIM_FAULT_HPP

/**
 * @file
 * Fault model for CIM operations (Sec. 2.3).
 *
 * Multi-row activation has a much higher bit-error rate than normal
 * access (experimentally 1e-1 .. 1e-6). We model a per-bit, per-
 * operation independent flip probability applied to the sensed result
 * of each triple-row activation. Row copies through (negated) single-
 * row activation behave like ordinary accesses and default to
 * fault-free (the paper conservatively bounds reads at 1e-20).
 */

#include <cstdint>

namespace c2m {
namespace cim {

struct FaultModel
{
    /** Per-bit flip probability of a MAJ3 (triple activation) result. */
    double pMaj = 0.0;

    /** Per-bit flip probability of a row copy / NOT (like a read). */
    double pCopy = 0.0;

    static FaultModel reliable() { return {0.0, 0.0}; }

    static FaultModel cimRate(double p_maj)
    {
        return {p_maj, 0.0};
    }
};

/**
 * Attribution category for modeled fabric time: every charged
 * nanosecond lands in exactly one ledger row, set by the AttrScope in
 * effect when the substrate issues the command. The enumeration is
 * exhaustive — anything not inside a more specific scope falls into
 * Other (broadcast accumulate, counter reads, digit drains, ...).
 */
enum class FabricCat : uint8_t
{
    Plan = 0,        ///< planner digit-plane program execution
    Fallback,        ///< per-op serial replay (planner bail-out)
    MaskWrite,       ///< host mask-row programming
    Scrub,           ///< reliability scrub sweeps
    VirtSpill,       ///< virt frame spill to backing store
    VirtRestore,     ///< virt frame restore from backing store
    VirtMaterialize, ///< virt region first-touch materialization
    PlanFanout,      ///< follower-shard lockstep plan execution
    Other,           ///< everything else (default scope)
};

inline constexpr unsigned kFabricCatCount = 9;

inline const char *
fabricCatName(FabricCat c)
{
    switch (c) {
    case FabricCat::Plan: return "plan";
    case FabricCat::Fallback: return "fallback";
    case FabricCat::MaskWrite: return "mask_write";
    case FabricCat::Scrub: return "scrub";
    case FabricCat::VirtSpill: return "virt_spill";
    case FabricCat::VirtRestore: return "virt_restore";
    case FabricCat::VirtMaterialize: return "virt_materialize";
    case FabricCat::PlanFanout: return "plan_fanout";
    case FabricCat::Other: return "other";
    }
    return "?";
}

/**
 * Running tally of executed operations and injected faults, plus the
 * modeled fabric cost charged at each command issue point. fabricNs
 * is single-device serial time (the bank executing every command
 * back to back); bank-level parallelism across shards is applied by
 * the engines when they report a critical path. TRAs charge no extra
 * time or energy — the triple activation is part of the AAP/AP that
 * issued it.
 *
 * Ledger invariant: fabricNs is never accumulated directly; charge()
 * adds to the active attrNs row and recomputes fabricNs as the fixed
 * left-to-right sum of all rows (as do operator+= and operator-=
 * after an element-wise row merge). Because every path to fabricNs
 * goes through that one summation order, sum(attrNs) == fabricNs
 * holds bit-exactly — not merely within floating-point tolerance — at
 * any aggregation depth.
 */
struct OpStats
{
    uint64_t aap = 0;            ///< AAP commands executed
    uint64_t ap = 0;             ///< AP commands executed
    uint64_t tra = 0;            ///< triple activations (MAJ3)
    uint64_t faultsInjected = 0; ///< total bits flipped by the model
    uint64_t rowReads = 0;       ///< host-level row reads
    uint64_t rowWrites = 0;      ///< host-level row writes
    /**
     * AAP/AP commands executed as lockstep followers of a merged
     * drain plan (FabricCat::PlanFanout): the leader shard issues
     * the plane program once and follower banks execute the same
     * command stream in its issue slots, so these commands do not
     * consume rank-window (tRRD/tFAW) issue bandwidth of their own.
     * Always <= commands(); core::statsWindow subtracts them from
     * the rank-floor term of the critical path.
     */
    uint64_t gangedCommands = 0;
    double fabricNs = 0.0;       ///< modeled serial fabric time
    double fabricNj = 0.0;       ///< modeled fabric energy

    /** Per-category attribution rows; sum equals fabricNs bit-exactly. */
    double attrNs[kFabricCatCount] = {};

    /** Category charges land in; scoped by cim::AttrScope, not merged. */
    FabricCat attrCat = FabricCat::Other;

    uint64_t commands() const { return aap + ap; }

    double
    attr(FabricCat c) const
    {
        return attrNs[static_cast<unsigned>(c)];
    }

    /** Charge modeled cost to the active attribution category. */
    void
    charge(double ns, double nj)
    {
        attrNs[static_cast<unsigned>(attrCat)] += ns;
        fabricNj += nj;
        syncFabricTotal();
    }

    /** Recompute fabricNs from the ledger rows in canonical order. */
    void
    syncFabricTotal()
    {
        double total = 0.0;
        for (double row : attrNs)
            total += row;
        fabricNs = total;
    }

    void
    reset()
    {
        const FabricCat cat = attrCat;
        *this = OpStats{};
        attrCat = cat;
    }

    OpStats &
    operator+=(const OpStats &o)
    {
        aap += o.aap;
        ap += o.ap;
        tra += o.tra;
        faultsInjected += o.faultsInjected;
        rowReads += o.rowReads;
        rowWrites += o.rowWrites;
        gangedCommands += o.gangedCommands;
        fabricNj += o.fabricNj;
        for (unsigned i = 0; i < kFabricCatCount; ++i)
            attrNs[i] += o.attrNs[i];
        syncFabricTotal();
        return *this;
    }

    /** Difference against an earlier snapshot @p o; ledger re-summed. */
    OpStats &
    operator-=(const OpStats &o)
    {
        aap -= o.aap;
        ap -= o.ap;
        tra -= o.tra;
        faultsInjected -= o.faultsInjected;
        rowReads -= o.rowReads;
        rowWrites -= o.rowWrites;
        gangedCommands -= o.gangedCommands;
        fabricNj -= o.fabricNj;
        for (unsigned i = 0; i < kFabricCatCount; ++i)
            attrNs[i] -= o.attrNs[i];
        syncFabricTotal();
        return *this;
    }
};

/**
 * True for categories naming a maintenance subsystem (scrub, virt)
 * rather than a phase of normal batch execution. A subsystem scope
 * owns all fabric work nested under it: engine-level scopes
 * (Plan/Fallback/MaskWrite) opened inside it do not re-attribute.
 */
inline bool
fabricCatIsSubsystem(FabricCat c)
{
    return c == FabricCat::Scrub || c == FabricCat::VirtSpill ||
           c == FabricCat::VirtRestore ||
           c == FabricCat::VirtMaterialize;
}

/**
 * RAII attribution context: routes every fabric charge issued through
 * the given OpStats into `cat` for the scope's lifetime, restoring
 * the previous category on exit. Engine-level scopes nest (MaskWrite
 * inside Plan: innermost wins), but never override an active
 * subsystem scope — virt materialization driving the normal batch
 * path stays VirtMaterialize all the way down. Safe under the
 * per-shard single-writer discipline — each shard's backend stats are
 * only ever charged from the thread running that shard's task.
 */
class AttrScope
{
  public:
    AttrScope(OpStats &stats, FabricCat cat)
        : stats_(stats), prev_(stats.attrCat)
    {
        if (fabricCatIsSubsystem(cat) || !fabricCatIsSubsystem(prev_))
            stats_.attrCat = cat;
    }

    ~AttrScope() { stats_.attrCat = prev_; }

    AttrScope(const AttrScope &) = delete;
    AttrScope &operator=(const AttrScope &) = delete;

  private:
    OpStats &stats_;
    FabricCat prev_;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_FAULT_HPP
