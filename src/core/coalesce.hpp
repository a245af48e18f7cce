#ifndef C2M_CORE_COALESCE_HPP
#define C2M_CORE_COALESCE_HPP

/**
 * @file
 * Point updates and the one write-combining table that sums them:
 * duplicate deltas per (counter, group) are summed so N hits on a
 * hot counter cost one fabric update.
 *
 * The fabric charges a fixed row-op sequence per accumulate call, so
 * merging M same-counter ops into one divides that fixed cost by M —
 * the write-combining lever the batch-oriented substrate rewards.
 * Counter values are unchanged: integer addition commutes, and the
 * engine reads back the per-counter sum either way. Counters whose
 * deltas cancel to zero are elided entirely (the engine skips
 * zero-value accumulates, but eliding also saves the point-mask
 * switch).
 *
 * What is NOT preserved: the op count seen by the fabric
 * (inputsAccumulated, increments, ripples shrink — that is the
 * point) and the exact increment/decrement interleaving (a +5,-3
 * pair becomes +2, which never takes the signed path). Deltas are
 * summed in wrapping 64-bit arithmetic; callers feed counter deltas,
 * which are far below the 2^63 boundary.
 *
 * Two callers share the table: the ingest service coalesces each
 * shard's cut before the epoch drains it (IngestConfig::coalesce),
 * and ShardedEngine's drain planner sums every plan part through it
 * before decomposing the sums into shared (digit, k) plane masks,
 * dense digits folded into binary-weighted planes — about
 * D*bit_width(R-1) column-parallel fabric programs per group and
 * rail.
 *
 * One entry point: a software write-combining buffer (dense
 * open-addressing table with epoch stamps) the caller keeps across
 * calls, so the epoch hot path allocates nothing in steady state.
 */

#include <cstdint>
#include <span>
#include <vector>

namespace c2m {
namespace core {

/** One histogram-style update, routed to the shard owning @p counter. */
struct BatchOp
{
    uint64_t counter;   ///< logical counter index in [0, numCounters)
    int64_t value;      ///< negative values take the signed path
    uint32_t group = 0; ///< counter group, as in C2MEngine
};

struct CoalesceResult
{
    /** One op per surviving (counter, group), first-occurrence order. */
    std::vector<BatchOp> ops;
    /** Input ops eliminated by merging or zero-sum elision. */
    uint64_t merged = 0;
};

/**
 * Reusable write-combining table: open addressing over (counter,
 * group) keys with per-slot epoch stamps, so clearing between calls
 * is a single counter bump instead of a table wipe. Sized to the
 * next power of two >= 2x the input, grown only when a bigger input
 * arrives; one scratch per drain lane (IngestService and the drain
 * planner each keep one per shard) keeps the epoch hot path
 * allocation-free.
 */
struct CoalesceScratch
{
    std::vector<uint64_t> counters; ///< key: logical counter index
    std::vector<uint32_t> groups;   ///< key: counter group
    std::vector<uint32_t> slots;    ///< value: index into result ops
    std::vector<uint32_t> stamps;   ///< slot live iff == epoch
    uint32_t epoch = 0;
    size_t mask = 0; ///< table size - 1 (power of two)
};

/**
 * Write-combining coalesce of @p ops into @p out (cleared first),
 * reusing @p scratch across calls: surviving ops keep
 * first-occurrence order, zero-sum counters are elided, out.merged
 * counts eliminated input ops.
 */
void coalesceOps(std::span<const BatchOp> ops, CoalesceScratch &scratch,
                 CoalesceResult &out);

} // namespace core
} // namespace c2m

#endif // C2M_CORE_COALESCE_HPP
