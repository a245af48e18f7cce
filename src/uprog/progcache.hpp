#ifndef C2M_UPROG_PROGCACHE_HPP
#define C2M_UPROG_PROGCACHE_HPP

/**
 * @file
 * Per-backend muProgram cache.
 *
 * Counting programs are pure functions of (operation, physical group,
 * digit, step k, mask row index) for a fixed layout and protection
 * configuration, so each backend generates a program once and replays
 * it on every later update with the same key. Programs reference rows
 * by index only — mask row *contents* may change freely between
 * replays (the point-update path rewrites its mask row constantly).
 *
 * The cache is bounded by construction: the key space is
 * |ops| x groups x digits x radix x mask rows. Nothing is ever
 * evicted: a backend's code generators (layout, protection, FR-check
 * count) are fixed at construction, so a key fixes its program for
 * the backend's lifetime.
 *
 * The drain planner leans on the mask-row indirection: every digit
 * plane of every epoch writes its (constantly changing) mask into
 * ONE dedicated reserved row per shard, so all plane increments of a
 * physical group share the D x (R-1) keys of that single row index.
 * After the first epoch warms those entries, planned drains replay
 * entirely from the cache — the ~99% batch-path hit rate survives
 * column-parallel execution instead of being diluted by per-plane
 * mask rows.
 *
 * The hierarchical drain's gang issue preserves this: a merged plan
 * slices each union (digit, k) plane across shards, but every slice
 * targets the same row indices in its own shard (shards differ only
 * in column count), so leader and follower executions alike replay
 * the shard-local cached program — merging plans across shards never
 * introduces new keys.
 */

#include <cstdint>
#include <unordered_map>
#include <utility>

namespace c2m {
namespace uprog {

struct ProgramKey
{
    enum class Op : uint8_t
    {
        Increment,
        Decrement,
        CarryRipple,
        BorrowRipple,
    };

    Op op = Op::Increment;
    uint32_t phys = 0;    ///< physical counter group
    uint16_t digit = 0;
    uint16_t k = 0;       ///< step (0 for ripples)
    uint32_t maskRow = 0; ///< raw row index (0 for ripples)

    bool operator==(const ProgramKey &o) const
    {
        return op == o.op && phys == o.phys && digit == o.digit &&
               k == o.k && maskRow == o.maskRow;
    }
};

struct ProgramKeyHash
{
    size_t operator()(const ProgramKey &key) const
    {
        // splitmix64 finalizer over the packed key fields.
        uint64_t x = (static_cast<uint64_t>(key.op) << 56) ^
                     (static_cast<uint64_t>(key.phys) << 36) ^
                     (static_cast<uint64_t>(key.digit) << 24) ^
                     (static_cast<uint64_t>(key.k) << 32) ^
                     static_cast<uint64_t>(key.maskRow);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<size_t>(x);
    }
};

/**
 * Cache of generated programs keyed by ProgramKey. @p hits/@p misses
 * reference the owning engine's EngineStats counters so shard merges
 * see cache effectiveness without extra plumbing. When disabled the
 * builder runs on every lookup (the pre-cache behavior), which the
 * equivalence tests use to pin replay == regeneration.
 */
template <typename Program> class ProgramCache
{
  public:
    ProgramCache(bool enabled, uint64_t &hits, uint64_t &misses)
        : enabled_(enabled), hits_(hits), misses_(misses)
    {
    }

    template <typename Build>
    const Program &get(const ProgramKey &key, Build &&build)
    {
        if (!enabled_) {
            scratch_ = build();
            return scratch_;
        }
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++hits_;
            return it->second;
        }
        ++misses_;
        return map_.emplace(key, build()).first->second;
    }

    bool enabled() const { return enabled_; }
    size_t size() const { return map_.size(); }

  private:
    bool enabled_;
    uint64_t &hits_;
    uint64_t &misses_;
    Program scratch_; ///< holds the rebuilt program when disabled
    std::unordered_map<ProgramKey, Program, ProgramKeyHash> map_;
};

} // namespace uprog
} // namespace c2m

#endif // C2M_UPROG_PROGCACHE_HPP
