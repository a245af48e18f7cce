#ifndef C2M_SERVICE_COALESCE_HPP
#define C2M_SERVICE_COALESCE_HPP

/**
 * @file
 * Epoch-side op coalescing: sum duplicate deltas per (counter,
 * group) so N hits on a hot counter cost one fabric update.
 *
 * The fabric charges a fixed row-op sequence per accumulate call, so
 * merging M same-counter ops into one divides that fixed cost by M —
 * the write-combining lever the batch-oriented substrate rewards.
 * Counter values are unchanged: integer addition commutes, and the
 * engine reads back the per-counter sum either way. Groups whose
 * deltas cancel to zero are elided entirely (the engine skips
 * zero-value accumulates, but eliding also saves the point-mask
 * switch).
 *
 * What is NOT preserved: the op count seen by the fabric
 * (inputsAccumulated, increments, ripples shrink — that is the
 * point) and the exact increment/decrement interleaving (a +5,-3
 * pair becomes +2, which never takes the signed path). Deltas are
 * summed in int64 without overflow checks; callers feed counter
 * deltas, which are far below the 2^63 boundary.
 *
 * Coalescing is the planner's feeder: the coalesced bucket is what
 * ShardedEngine's drain pipeline decomposes into shared (digit, k)
 * plane masks, dense digits folded into binary-weighted planes,
 * turning the per-epoch op list into about D*bit_width(R-1)
 * column-parallel fabric programs per group and rail.
 *
 * One entry point: a software write-combining buffer (dense
 * open-addressing table with epoch stamps) the caller keeps across
 * calls, so the epoch hot path allocates nothing in steady state.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "core/sharded.hpp"

namespace c2m {
namespace service {

struct CoalesceResult
{
    /** One op per surviving (counter, group), first-occurrence order. */
    std::vector<core::BatchOp> ops;
    /** Input ops eliminated by merging or zero-sum elision. */
    uint64_t merged = 0;
};

/**
 * Reusable write-combining table: open addressing over (counter,
 * group) keys with per-slot epoch stamps, so clearing between epochs
 * is a single counter bump instead of a table wipe. Sized to the
 * next power of two >= 2x the bucket, grown only when a bigger
 * bucket arrives; one scratch per drain lane (IngestService keeps
 * one per shard) keeps the epoch hot path allocation-free.
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
void coalesceOps(std::span<const core::BatchOp> ops,
                 CoalesceScratch &scratch, CoalesceResult &out);

} // namespace service
} // namespace c2m

#endif // C2M_SERVICE_COALESCE_HPP
