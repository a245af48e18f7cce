#include "core/sharded.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/backend_rca.hpp"
#include "core/costmodel.hpp"
#include "jc/digits.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace core {

namespace {

/**
 * @p cfg, or std::invalid_argument naming its first bad field or a
 * shard count outside 1..numCounters — before the lane pool starts.
 */
const EngineConfig &
validated(const EngineConfig &cfg, unsigned num_shards)
{
    if (const std::string err = cfg.validate(); !err.empty())
        C2M_FATAL(err);
    if (num_shards < 1 || num_shards > cfg.numCounters)
        C2M_FATAL("shards must be in 1..numCounters (",
                  cfg.numCounters, "), got ", num_shards);
    return cfg;
}

/** Empty @p plane at @p width bits, allocating it on first use. */
void
resetPlane(BitVector &plane, size_t width)
{
    if (plane.size() == 0)
        plane = BitVector(width);
    else
        plane.fill(false);
}

/** Contiguous range boundaries: remainder spread over the first shards. */
std::vector<size_t>
splitRanges(size_t total, unsigned shards)
{
    std::vector<size_t> starts(shards + 1, 0);
    const size_t base = total / shards;
    const size_t extra = total % shards;
    for (unsigned s = 0; s < shards; ++s)
        starts[s + 1] = starts[s] + base + (s < extra ? 1 : 0);
    return starts;
}

/**
 * Modeled ns of one masked k-ary increment ([0][k]) and decrement
 * ([1][k]) on this config's substrate: analytic command counts
 * (C2mCostModel for the JC backends, RcaCostModel for the
 * ripple-carry baseline — whose cost is k- and sign-independent)
 * priced at the per-command latency of the fabric (DRAM bank period,
 * or the NVM op latency).
 */
std::array<std::vector<double>, 2>
planStepNs(const EngineConfig &cfg)
{
    const unsigned digits =
        jc::digitsForCapacityBits(cfg.radix, cfg.capacityBits) + 1;
    const bool nvm = cfg.backend == BackendKind::NvmPinatubo ||
                     cfg.backend == BackendKind::NvmMagic;
    const double cmd_ns =
        nvm ? cfg.nvmCost.opNs : cfg.dramTimings.bankPeriodNs();
    std::array<std::vector<double>, 2> ns;
    ns.fill(std::vector<double>(cfg.radix, 0.0));
    if (cfg.backend == BackendKind::Rca) {
        const RcaCostModel model(
            RcaBackend::widthFor(cfg.radix, digits),
            cfg.protection == Protection::Ecc);
        for (auto &rail : ns)
            for (unsigned k = 1; k < cfg.radix; ++k)
                rail[k] =
                    static_cast<double>(model.accumulateOps()) * cmd_ns;
        return ns;
    }
    const C2mCostModel model(cfg.radix, cfg.capacityBits,
                             cfg.protection == Protection::Ecc,
                             cfg.frChecks);
    for (unsigned k = 1; k < cfg.radix; ++k) {
        ns[0][k] = static_cast<double>(model.incrementOps(k)) * cmd_ns;
        ns[1][k] = static_cast<double>(model.decrementOps(k)) * cmd_ns;
    }
    return ns;
}

} // namespace

ShardedEngine::ShardedEngine(const EngineConfig &cfg,
                             unsigned num_shards,
                             unsigned num_threads)
    : cfg_(validated(cfg, num_shards)),
      starts_(splitRanges(cfg.numCounters, num_shards)),
      pool_(num_threads ? num_threads : num_shards)
{
    if (cfg.drainPlanner) {
        const unsigned digits =
            jc::digitsForCapacityBits(cfg.radix, cfg.capacityBits) +
            1;
        railPlanes_ = digits * (cfg.radix - 1);
        planStepNs_ = planStepNs(cfg);
        planeLead_.assign(2 * railPlanes_, kNoLead);
    }
    const bool nvm = cfg.backend == BackendKind::NvmPinatubo ||
                     cfg.backend == BackendKind::NvmMagic;

    // Independent per-shard seeds split from the root seed.
    uint64_t seed_state = cfg.seed;
    scratch_.resize(num_shards);
    for (unsigned s = 0; s < num_shards; ++s) {
        EngineConfig scfg = cfg;
        scfg.numCounters = shardWidth(s);
        scfg.seed = splitMix64(seed_state);
        // Handles [0, kReservedMasks) are internal — the routed
        // point mask and the plane row — and ADDITIVE on top of the
        // public budget: a workload config with maxMaskRows as low
        // as 1 (dna, sparsity) still gets its full public row count.
        scfg.maxMaskRows = cfg.maxMaskRows + kReservedMasks;
        shards_.push_back(std::make_unique<C2MEngine>(scfg));
        for (unsigned h = 0; h < kReservedMasks; ++h)
            shards_.back()->addMask(
                std::vector<uint8_t>(shardWidth(s), 0));
        scratch_[s].pointMask = BitVector(shardWidth(s));
        scratch_[s].cols = BitVector(shardWidth(s));
        scratch_[s].pointCol = std::numeric_limits<size_t>::max();
        scratch_[s].maskWriteNs =
            nvm ? cfg.nvmCost.rowAccessNs
                : cfg.dramTimings.rowAccessNs(static_cast<unsigned>(
                      (shardWidth(s) + 7) / 8));
    }
    shardBusy_ = std::make_unique<std::atomic<bool>[]>(num_shards);
}

unsigned
ShardedEngine::shardOf(uint64_t counter) const
{
    C2M_ASSERT(counter < cfg_.numCounters,
               "counter index out of range: ", counter);
    // Ranges differ by at most one column; start from the uniform
    // guess and walk at most one step each way.
    const size_t n = numShards();
    size_t s = static_cast<size_t>(counter) * n / cfg_.numCounters;
    while (counter < starts_[s])
        --s;
    while (counter >= starts_[s + 1])
        ++s;
    return static_cast<unsigned>(s);
}

unsigned
ShardedEngine::addMask(const std::vector<uint8_t> &mask)
{
    if (numMasks_ >= cfg_.maxMaskRows)
        C2M_FATAL("mask rows exhausted (maxMaskRows ",
                  cfg_.maxMaskRows, "); raise maxMaskRows");
    checkMaskWidth(mask.size(), cfg_.numCounters);
    const unsigned handle = numMasks_++;
    setMask(handle, mask);
    return handle;
}

void
ShardedEngine::setMask(unsigned handle,
                       const std::vector<uint8_t> &mask)
{
    // Checked here, on the caller's thread: a shard only ever sees
    // its own slice.
    checkHandle(handle, numMasks_);
    checkMaskWidth(mask.size(), cfg_.numCounters);
    forEachShard([&](C2MEngine &eng, unsigned s) {
        std::vector<uint8_t> slice(shardWidth(s), 0);
        const size_t lo = starts_[s];
        for (size_t c = 0; c < slice.size() && lo + c < mask.size();
             ++c)
            slice[c] = mask[lo + c];
        // Shard handles 0..kReservedMasks-1 are internal (point and
        // plane masks), so logical handle h lives at shard handle
        // h + kReservedMasks.
        if (handle + kReservedMasks < eng.numMasks())
            eng.setMask(handle + kReservedMasks, slice);
        else
            eng.addMask(slice);
    });
}

void
ShardedEngine::runShardTask(
    unsigned s, const std::function<void(C2MEngine &, size_t)> &fn)
{
    C2M_ASSERT(s < numShards(), "shard index out of range: ", s);
    C2M_ASSERT(!shardBusy_[s].exchange(true,
                                       std::memory_order_acquire),
               "concurrent writers on shard ", s);
    fn(*shards_[s], starts_[s]);
    shardBusy_[s].store(false, std::memory_order_release);
}

void
ShardedEngine::prepareShardParts(unsigned s,
                                 std::span<const BatchOp> ops)
{
    auto &sc = scratch_[s];
    sc.partsUsed = 0;
    if (ops.empty())
        return;
    for (const auto &op : ops)
        C2M_ASSERT(op.counter >= starts_[s] &&
                       op.counter < starts_[s + 1],
                   "counter ", op.counter, " not owned by shard ", s);
    const auto newPart = [&sc]() -> PlanPart & {
        if (sc.partsUsed == sc.parts.size())
            sc.parts.emplace_back();
        PlanPart &p = sc.parts[sc.partsUsed++];
        p.own.clear();
        p.touched.clear();
        p.headroom.clear();
        p.steps.clear();
        p.absorbed = 0;
        p.carried = 0;
        p.fallbackNs = 0.0;
        p.planned = false;
        return p;
    };
    // Planner off: the bucket stays one serial part in its original
    // op order.
    if (!cfg_.drainPlanner) {
        PlanPart &p = newPart();
        p.group = ops.front().group;
        p.ops = ops;
        return;
    }
    // Common case first: the whole bucket targets one group.
    bool single_group = true;
    for (const auto &op : ops)
        if (op.group != ops.front().group) {
            single_group = false;
            break;
        }
    if (single_group) {
        PlanPart &p = newPart();
        p.group = ops.front().group;
        p.ops = ops;
    } else {
        // Partition by group (first-appearance order, per-group op
        // order preserved); groups hold independent counter state,
        // so draining them one after another cannot change any
        // value.
        for (const auto &op : ops) {
            size_t i = 0;
            while (i < sc.partsUsed && sc.parts[i].group != op.group)
                ++i;
            if (i == sc.partsUsed) {
                PlanPart &p = newPart();
                p.group = op.group;
            }
            sc.parts[i].own.push_back(op);
        }
        for (size_t i = 0; i < sc.partsUsed; ++i)
            sc.parts[i].ops = sc.parts[i].own;
    }
    for (size_t i = 0; i < sc.partsUsed; ++i)
        analyzePart(s, sc.parts[i]);
}

void
ShardedEngine::analyzePart(unsigned s, PlanPart &part)
{
    auto &sc = scratch_[s];
    // Sum each counter's delta through the shard's write-combining
    // table (wrapping, zero sums elided: they join no plane); the
    // sign of the sum picks its rail.
    coalesceOps(part.ops, sc.table, sc.sums);
    const size_t lo = starts_[s];

    // Build the digit planes: counter col joins plane (rail, d, k)
    // iff the magnitude of its summed delta has digit k at position
    // d — increment rail for a positive sum, decrement rail for a
    // negative one. The top digit is the guard per-value updates
    // never touch (only ripples reach it), so a summed magnitude
    // reaching it cannot be planned — replay the raw ops instead,
    // which stay per-value in range.
    const unsigned R = cfg_.radix;
    C2MEngine &eng = *shards_[s];
    const unsigned D = eng.backend().numDigits();
    if (part.planes.empty()) {
        // Empty until first populated: a part pays only for the
        // planes its sums reach, so unsigned streams never allocate
        // a decrement-rail mask.
        part.planes.resize(2 * railPlanes_);
        part.planeCount.assign(2 * railPlanes_, 0);
    }
    bool over_capacity = false;
    bool negative_sum = false;
    for (const BatchOp &op : sc.sums.ops) {
        const size_t col = static_cast<size_t>(op.counter) - lo;
        const auto sum = static_cast<uint64_t>(op.value);
        const bool negative = op.value < 0;
        negative_sum = negative_sum || negative;
        uint64_t v = negative ? 0 - sum : sum;
        const size_t rail = negative ? railPlanes_ : 0;
        unsigned pos = 0;
        while (v != 0) {
            const unsigned k = static_cast<unsigned>(v % R);
            v /= R;
            if (k != 0) {
                if (pos + 1 >= D) {
                    over_capacity = true;
                    break;
                }
                const size_t idx =
                    rail + static_cast<size_t>(pos) * (R - 1) + (k - 1);
                openPlane(s, part, idx).set(col, true);
                ++part.planeCount[idx];
            }
            ++pos;
        }
        if (over_capacity)
            break;
    }
    // An unsigned part takes in the carries IARM would ripple before
    // it (a signed one resolves in place and has no deferred carry).
    if (!over_capacity && !negative_sum &&
        eng.backend().caps().pendingFlags && !eng.signedMode(part.group))
        over_capacity = !absorbCarries(s, part);
    for (const uint32_t idx : part.touched)
        part.planeCount[idx] = 0;
    if (over_capacity) {
        // Replayed per op: nothing absorbed, Onext left as it was.
        part.touched.clear();
        part.absorbed = 0;
        part.carried = 0;
        return;
    }

    // The populated k's of each (rail, digit) slot; slot rail*D + d
    // holds planes slot*(R-1) + k-1. The largest k per digit, over
    // both rails, is the plan's IARM headroom: it bounds what any
    // one counter receives at that digit, folded or not.
    sc.slotKs.assign(2 * static_cast<size_t>(D), 0);
    for (const uint32_t idx : part.touched)
        sc.slotKs[idx / (R - 1)] |= uint64_t{1} << (idx % (R - 1) + 1);
    for (size_t slot = 0; slot < sc.slotKs.size(); ++slot) {
        if (sc.slotKs[slot] == 0)
            continue;
        const size_t d = slot % D;
        if (d >= part.headroom.size())
            part.headroom.resize(d + 1, 0);
        part.headroom[d] = std::max(
            part.headroom[d],
            static_cast<unsigned>(std::bit_width(sc.slotKs[slot])) - 1);
    }
    foldBinaryPlanes(s, part);

    // Price the per-op replay alternative over the RAW ops — one
    // increment or decrement program per nonzero digit of each
    // original value's magnitude (on RCA, one whole-value add per
    // op, as C2MEngine::accumulate issues it) plus a point-mask
    // rewrite per counter switch — so a hot key hit N times costs ~N
    // program chains per-op but shares one plane set once summed.
    // The merged stage-3 decision compares the sum of these against
    // ONE global plan.
    const bool whole_adds = cfg_.backend == BackendKind::Rca;
    size_t prev_col = std::numeric_limits<size_t>::max();
    for (const auto &op : part.ops) {
        const size_t col = static_cast<size_t>(op.counter) - lo;
        if (col != prev_col) {
            part.fallbackNs += sc.maskWriteNs;
            prev_col = col;
        }
        const bool negative = op.value < 0;
        const auto value = static_cast<uint64_t>(op.value);
        const auto &step_ns = planStepNs_[negative];
        if (whole_adds) {
            part.fallbackNs += step_ns[1];
            continue;
        }
        for (uint64_t v = negative ? 0 - value : value; v != 0; v /= R)
            if (const unsigned k = static_cast<unsigned>(v % R))
                part.fallbackNs += step_ns[k];
    }
    part.planned = true;
}

BitVector &
ShardedEngine::openPlane(unsigned s, PlanPart &part, size_t idx)
{
    if (part.planeCount[idx] == 0) {
        resetPlane(part.planes[idx], shardWidth(s));
        part.touched.push_back(static_cast<uint32_t>(idx));
    }
    return part.planes[idx];
}

bool
ShardedEngine::absorbCarries(unsigned s, PlanPart &part)
{
    auto &sc = scratch_[s];
    C2MEngine &eng = *shards_[s];
    const unsigned R = cfg_.radix;
    const unsigned D = eng.backend().numDigits();
    const size_t lo = starts_[s];
    const std::vector<unsigned> &bound = eng.iarmBounds(part.group);
    const auto plane = [R](unsigned pos, unsigned k) {
        return static_cast<size_t>(pos) * (R - 1) + (k - 1);
    };
    // Highest digit any delta reaches: nothing above it can wrap.
    unsigned top = 0;
    for (const uint32_t idx : part.touched)
        top = std::max(top, idx / (R - 1));
    bool marked = false;  // sc.cols holds the part's columns
    bool emptied = false; // a plane lost its last column
    bool fits = true;
    uint64_t weight = 1; // R^(d+1)
    for (unsigned d = 0; fits && d <= top && d + 1 < D; ++d) {
        weight *= R;
        // The merged sums' largest digit here is final: absorbing
        // digit d only changes digits above it.
        unsigned h = R - 1;
        while (h > 0 && part.planeCount[plane(d, h)] == 0)
            --h;
        if (h == 0 || bound[d] + h <= 2 * R - 1)
            continue; // IARM would not ripple d before this plan
        const BitVector &row = eng.absorbPeek(part.group, d);
        part.absorbed |= uint64_t{1} << d;
        uint64_t any = 0;
        for (size_t w = 0; any == 0 && w < row.numWords(); ++w)
            any = row.word(w);
        if (any == 0)
            continue;
        if (d + 2 == D) {
            fits = false; // a carry into the guard digit
            break;
        }
        if (!marked) {
            for (const BatchOp &op : sc.sums.ops)
                sc.cols.set(static_cast<size_t>(op.counter) - lo, true);
            marked = true;
        }
        part.carried |= uint64_t{1} << d;
        top = std::max(top, d + 1);
        // A column the epoch did not touch gets exactly R^(d+1):
        // digit 1 at d + 1 (each digit it absorbs sets another).
        const size_t first = plane(d + 1, 1);
        for (size_t w = 0; w < row.numWords(); ++w)
            if (const uint64_t fresh = row.word(w) & ~sc.cols.word(w)) {
                openPlane(s, part, first).word(w) |= fresh;
                part.planeCount[first] +=
                    static_cast<uint32_t>(std::popcount(fresh));
            }
        // A summed column moves between the planes of every digit
        // the carry changes.
        for (BatchOp &op : sc.sums.ops) {
            const size_t col = static_cast<size_t>(op.counter) - lo;
            if (!row.get(col))
                continue;
            const auto sum = static_cast<uint64_t>(op.value);
            uint64_t o = sum / weight;
            uint64_t n = o + 1;
            for (unsigned pos = d + 1; o != n; ++pos, o /= R, n /= R) {
                const auto ko = static_cast<unsigned>(o % R);
                const auto kn = static_cast<unsigned>(n % R);
                if (ko != 0) {
                    part.planes[plane(pos, ko)].set(col, false);
                    emptied |= --part.planeCount[plane(pos, ko)] == 0;
                }
                if (kn != 0) {
                    if (pos + 1 >= D) {
                        fits = false;
                        break;
                    }
                    openPlane(s, part, plane(pos, kn)).set(col, true);
                    ++part.planeCount[plane(pos, kn)];
                    top = std::max(top, pos);
                }
            }
            if (!fits)
                break;
            op.value = static_cast<int64_t>(sum + weight);
        }
    }
    if (marked)
        for (const BatchOp &op : sc.sums.ops)
            sc.cols.set(static_cast<size_t>(op.counter) - lo, false);
    if (emptied) {
        // A plane emptied and reopened is listed twice.
        std::sort(part.touched.begin(), part.touched.end());
        part.touched.erase(
            std::unique(part.touched.begin(), part.touched.end()),
            part.touched.end());
        std::erase_if(part.touched, [&](uint32_t idx) {
            return part.planeCount[idx] == 0;
        });
    }
    return fits;
}

void
ShardedEngine::foldBinaryPlanes(unsigned s, PlanPart &part)
{
    auto &sc = scratch_[s];
    const unsigned R = cfg_.radix;
    const size_t D = sc.slotKs.size() / 2;
    const auto price = [&](size_t rail, uint64_t ks) {
        double ns = 0.0;
        for (; ks != 0; ks &= ks - 1)
            ns += planStepNs_[rail][std::countr_zero(ks)] +
                  sc.maskWriteNs;
        return ns;
    };
    bool folded = false;
    for (size_t slot = 0; slot < 2 * D; ++slot) {
        const uint64_t ks = sc.slotKs[slot];
        uint64_t bits = 0; // OR of the populated k's
        for (uint64_t m = ks; m != 0; m &= m - 1)
            bits |= static_cast<uint64_t>(std::countr_zero(m));
        uint64_t basis = 0; // the k-set {2^j : bit j of bits}
        for (uint64_t m = bits; m != 0; m &= m - 1)
            basis |= uint64_t{1} << (uint64_t{1} << std::countr_zero(m));
        if (std::popcount(basis) >= std::popcount(ks) ||
            price(slot / D, basis) >= price(slot / D, ks))
            continue;
        const auto plane = [&](uint64_t k) -> BitVector & {
            return part.planes[slot * (R - 1) + k - 1];
        };
        for (uint64_t m = basis & ~ks; m != 0; m &= m - 1)
            resetPlane(plane(std::countr_zero(m)), shardWidth(s));
        // Composite k's are exactly the populated ones outside the
        // basis: every populated power of two is in it.
        for (uint64_t m = ks & ~basis; m != 0; m &= m - 1) {
            const auto k = static_cast<uint64_t>(std::countr_zero(m));
            for (uint64_t w = k; w != 0; w &= w - 1) {
                BitVector &dst = plane(w & (0 - w));
                dst.assignOr(dst, plane(k));
            }
        }
        sc.slotKs[slot] = basis;
        folded = true;
    }
    if (!folded)
        return;
    part.touched.clear();
    for (size_t slot = 0; slot < 2 * D; ++slot)
        for (uint64_t m = sc.slotKs[slot]; m != 0; m &= m - 1)
            part.touched.push_back(static_cast<uint32_t>(
                slot * (R - 1) + std::countr_zero(m) - 1));
}

void
ShardedEngine::runShardSerial(unsigned s,
                              std::span<const BatchOp> ops)
{
    C2MEngine &eng = *shards_[s];
    auto &sc = scratch_[s];
    const size_t lo = starts_[s];
    // The whole per-op replay path attributes to Fallback — both the
    // planner's bail-outs and the entire batch when the planner is
    // off. Point-mask rewrites inside it still land in MaskWrite via
    // the nested scope in C2MEngine::setMask (innermost wins).
    cim::AttrScope attr(eng.backend().opStatsRef(),
                        cim::FabricCat::Fallback);
    for (const auto &op : ops) {
        const size_t col = static_cast<size_t>(op.counter) - lo;
        if (sc.pointCol != col) {
            // Two-bit in-place update of the reusable point mask: no
            // byte-vector rebuild, no allocation on a column change.
            if (sc.pointCol != std::numeric_limits<size_t>::max())
                sc.pointMask.set(sc.pointCol, false);
            sc.pointMask.set(col, true);
            eng.setMask(kPointMask, sc.pointMask);
            sc.pointCol = col;
        }
        if (op.value >= 0)
            eng.accumulate(static_cast<uint64_t>(op.value),
                           kPointMask, op.group);
        else
            eng.accumulateSigned(op.value, kPointMask, op.group);
    }
}

void
ShardedEngine::planParts(std::span<const unsigned> shard_ids)
{
    const unsigned R = cfg_.radix;
    // Distinct groups, shard-major first-appearance order.
    std::vector<uint32_t> groups;
    for (const unsigned s : shard_ids) {
        const auto &sc = scratch_[s];
        for (size_t i = 0; i < sc.partsUsed; ++i) {
            const uint32_t g = sc.parts[i].group;
            if (std::find(groups.begin(), groups.end(), g) ==
                groups.end())
                groups.push_back(g);
        }
    }
    std::vector<std::pair<unsigned, PlanPart *>> cand;
    std::vector<uint32_t> union_planes;
    for (const uint32_t g : groups) {
        // Gather this group's plan candidates across all shards.
        // Every plane in the union is issued ONCE, by the first shard
        // in @p shard_ids holding it (the gang leader); each
        // candidate shard still pays its own mask-row slice writes.
        cand.clear();
        union_planes.clear();
        double fallback_ns = 0.0;
        double plan_ns = 0.0;
        for (const unsigned s : shard_ids) {
            auto &sc = scratch_[s];
            for (size_t i = 0; i < sc.partsUsed; ++i) {
                PlanPart &p = sc.parts[i];
                if (p.group != g || !p.planned)
                    continue;
                cand.emplace_back(s, &p);
                fallback_ns += p.fallbackNs;
                plan_ns += static_cast<double>(p.touched.size()) *
                           sc.maskWriteNs;
                for (const uint32_t idx : p.touched) {
                    if (planeLead_[idx] == kNoLead)
                        planeLead_[idx] = s;
                    union_planes.push_back(idx);
                }
            }
        }
        if (cand.empty())
            continue;
        std::sort(union_planes.begin(), union_planes.end());
        union_planes.erase(std::unique(union_planes.begin(),
                                       union_planes.end()),
                           union_planes.end());
        for (const uint32_t idx : union_planes)
            plan_ns += planStepNs_[idx / railPlanes_]
                                  [idx % railPlanes_ % (R - 1) + 1];
        // All-or-nothing commit on the merged prices. At one shard
        // this is exactly the classic per-shard comparison. The
        // priced ns that justified the decision ride along on the
        // lead shard's track: arg = plan price, arg2 = replay price.
        const bool commit = plan_ns < fallback_ns;
        if (auto *t = obs::tracer())
            t->instant(commit ? "plan.commit" : "plan.fallback",
                       cand.front().first,
                       static_cast<uint64_t>(std::llround(plan_ns)),
                       static_cast<uint64_t>(std::llround(fallback_ns)));
        // Slice the merged plan back: deterministic plane order per
        // shard (increment rail, then decrement rail, each in
        // ascending digit, k); every plane is written into the
        // shard's one plane row, whose (op, digit, k, row) program
        // keys stay stable across epochs. IARM preparation uses each
        // shard's OWN headroom profile and absorbed digits, so
        // scheduler state is bit-identical to independent per-shard
        // plans.
        for (auto &[s, p] : cand) {
            p->planned = commit;
            if (!commit)
                continue;
            std::sort(p->touched.begin(), p->touched.end());
            for (const uint32_t idx : p->touched) {
                const unsigned plane = idx % railPlanes_;
                p->steps.push_back({plane / (R - 1),
                                    plane % (R - 1) + 1,
                                    kPlaneMask,
                                    &p->planes[idx],
                                    planeLead_[idx] == s,
                                    idx >= railPlanes_});
            }
            shards_[s]->planPrepare(p->steps, p->headroom, g,
                                    p->absorbed);
        }
        for (const uint32_t idx : union_planes)
            planeLead_[idx] = kNoLead;
    }
}

void
ShardedEngine::execShardParts(unsigned s)
{
    auto &sc = scratch_[s];
    C2MEngine &eng = *shards_[s];
    // The drain span carries the shard's cumulative modeled fabric
    // clock on both edges, so the fabric-clock track shows how much
    // fabric time this bucket consumed.
    obs::TraceRecorder *tr = obs::tracer();
    if (tr)
        tr->spanBegin("shard.drain", s, eng.stats().fabric.fabricNs);
    for (size_t i = 0; i < sc.partsUsed; ++i) {
        PlanPart &p = sc.parts[i];
        if (p.planned) {
            eng.executePlan(p.steps, p.carried, p.group, p.ops.size());
        } else {
            // Demoted or ineligible parts replay per-op; with the
            // planner on they count as fallback so plannedOps +
            // planFallbackOps == batched ops holds.
            if (cfg_.drainPlanner)
                eng.notePlanFallback(p.ops.size());
            runShardSerial(s, p.ops);
        }
    }
    if (tr)
        tr->spanEnd("shard.drain", s, eng.stats().fabric.fabricNs);
}

void
ShardedEngine::forEachBucket(
    std::span<const EpochBucket> buckets, uint64_t *steals_out,
    const std::function<void(const EpochBucket &)> &fn)
{
    // Work stealing: a claim loop on every lane pops whole buckets
    // off a shared index, so an idle lane picks up a busy lane's
    // next shard instead of waiting behind it. Per-shard order stays
    // fixed (one bucket per shard per call), only placement moves.
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> steals{0};
    const unsigned lanes = static_cast<unsigned>(
        std::min<size_t>(pool_.size(), buckets.size()));
    for (unsigned l = 0; l < lanes; ++l)
        pool_.post(l, [&] {
            const unsigned lane = pool_.currentLane();
            for (;;) {
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= buckets.size())
                    return;
                const EpochBucket &b = buckets[i];
                if (b.shard % pool_.size() != lane)
                    steals.fetch_add(1, std::memory_order_relaxed);
                fn(b);
            }
        });
    pool_.drain();
    if (steals_out)
        *steals_out += steals.load(std::memory_order_relaxed);
}

void
ShardedEngine::runEpoch(std::span<const EpochBucket> buckets,
                        uint64_t *steals_out)
{
    if (buckets.empty())
        return;
    // Stage 1+2 — combine + count (host-only, parallel): partition
    // each bucket by group, sum deltas, build plane histograms.
    forEachBucket(buckets, nullptr, [this](const EpochBucket &b) {
        C2M_ASSERT(!shardBusy_[b.shard].exchange(
                       true, std::memory_order_acquire),
                   "concurrent writers on shard ", b.shard);
        prepareShardParts(b.shard, b.ops);
        shardBusy_[b.shard].store(false, std::memory_order_release);
    });
    // Stage 3 — merged scan/offset + gang leadership (host-serial;
    // no stage-1/4 task in flight, so scratch access is exclusive).
    std::vector<unsigned> ids;
    ids.reserve(buckets.size());
    for (const EpochBucket &b : buckets)
        ids.push_back(b.shard);
    planParts(ids);
    // Stage 4 — execute the plane slices (parallel). Only this stage
    // counts steals: it is the one doing fabric work.
    forEachBucket(buckets, steals_out, [this](const EpochBucket &b) {
        C2M_ASSERT(!shardBusy_[b.shard].exchange(
                       true, std::memory_order_acquire),
                   "concurrent writers on shard ", b.shard);
        execShardParts(b.shard);
        shardBusy_[b.shard].store(false, std::memory_order_release);
    });
}

void
ShardedEngine::checkOps(std::span<const BatchOp> ops) const
{
    for (const BatchOp &op : ops) {
        if (op.counter >= cfg_.numCounters)
            C2M_FATAL("batch op counter ", op.counter,
                      " outside numCounters ", cfg_.numCounters);
        if (op.group >= cfg_.numGroups)
            C2M_FATAL("batch op group ", op.group, " outside numGroups ",
                      cfg_.numGroups);
    }
}

void
ShardedEngine::accumulateBatch(std::span<const BatchOp> ops)
{
    checkOps(ops);
    std::vector<std::vector<BatchOp>> buckets(numShards());
    for (const auto &op : ops)
        buckets[shardOf(op.counter)].push_back(op);
    // One epoch through the hierarchical pipeline: cross-shard plane
    // programs gang-issue instead of replicating per shard.
    std::vector<EpochBucket> eb;
    eb.reserve(buckets.size());
    for (unsigned s = 0; s < numShards(); ++s)
        if (!buckets[s].empty())
            eb.push_back({s, buckets[s]});
    runEpoch(eb);
}

void
ShardedEngine::accumulate(uint64_t value, unsigned mask_handle,
                          unsigned group)
{
    // Checked here, on the caller's thread, before any shard runs.
    checkHandle(mask_handle, numMasks_, group, cfg_.numGroups);
    forEachShard([&](C2MEngine &eng, unsigned) {
        eng.accumulate(value, mask_handle + kReservedMasks, group);
    });
}

void
ShardedEngine::accumulateSigned(int64_t value, unsigned mask_handle,
                                unsigned group)
{
    checkHandle(mask_handle, numMasks_, group, cfg_.numGroups);
    forEachShard([&](C2MEngine &eng, unsigned) {
        eng.accumulateSigned(value, mask_handle + kReservedMasks,
                             group);
    });
}

std::vector<int64_t>
ShardedEngine::readAllCounters(unsigned group)
{
    checkGroup(group, cfg_.numGroups);
    std::vector<int64_t> out(cfg_.numCounters);
    forEachShard([&](C2MEngine &eng, unsigned s) {
        const auto part = eng.readCounters(group);
        std::copy(part.begin(), part.end(),
                  out.begin() + static_cast<ptrdiff_t>(starts_[s]));
    });
    return out;
}

void
ShardedEngine::addCounters(unsigned dst_group, unsigned src_group)
{
    // Checked here, on the caller's thread, before any shard runs;
    // a group is signed if any shard saw a decrement.
    for (const auto &eng : shards_)
        checkTensorPair(*eng, dst_group, src_group);
    forEachShard([&](C2MEngine &eng, unsigned) {
        eng.addCounters(dst_group, src_group);
    });
}

void
ShardedEngine::relu(unsigned group)
{
    checkTensorOp(*shards_.front(), group);
    forEachShard(
        [&](C2MEngine &eng, unsigned) { eng.relu(group); });
}

void
ShardedEngine::shiftLeft(unsigned group, unsigned spare_group,
                         unsigned amount)
{
    for (const auto &eng : shards_)
        checkTensorPair(*eng, group, spare_group);
    forEachShard([&](C2MEngine &eng, unsigned) {
        eng.shiftLeft(group, spare_group, amount);
    });
}

void
ShardedEngine::drain(unsigned group)
{
    checkGroup(group, cfg_.numGroups);
    forEachShard(
        [&](C2MEngine &eng, unsigned) { eng.drain(group); });
}

void
ShardedEngine::clear()
{
    forEachShard([&](C2MEngine &eng, unsigned) { eng.clear(); });
}

EngineStats
ShardedEngine::stats() const
{
    EngineStats merged;
    for (const auto &s : shards_)
        merged += s->stats();
    return merged;
}

std::vector<EngineStats>
ShardedEngine::shardStats() const
{
    std::vector<EngineStats> out;
    out.reserve(shards_.size());
    for (const auto &s : shards_)
        out.push_back(s->stats());
    return out;
}

StatsWindow
statsWindow(const ShardedEngine &engine,
            std::span<const EngineStats> before)
{
    C2M_ASSERT(before.empty() || before.size() == engine.numShards(),
               "one before snapshot per shard");
    StatsWindow w;
    const auto after = engine.shardStats();
    for (size_t s = 0; s < after.size(); ++s) {
        const EngineStats d =
            after[s].since(before.empty() ? EngineStats{} : before[s]);
        w.shardNs.push_back(d.fabric.fabricNs);
        if (d.fabric.fabricNs > w.criticalNs) {
            w.criticalNs = d.fabric.fabricNs;
            w.criticalShard = static_cast<unsigned>(s);
        }
        w.total += d;
    }
    const EngineConfig &cfg = engine.config();
    if (cfg.backend == BackendKind::Ambit ||
        cfg.backend == BackendKind::Rca) {
        const double rank_floor =
            static_cast<double>(w.total.fabric.commands() -
                                w.total.fabric.gangedCommands) *
            cfg.dramTimings.issueIntervalNs(engine.numShards());
        w.criticalNs = std::max(w.criticalNs, rank_floor);
    }
    const double mean =
        w.total.fabric.fabricNs / static_cast<double>(after.size());
    if (mean > 0.0) {
        w.skew = w.shardNs[w.criticalShard] / mean;
        w.parallelEfficiency = mean / w.criticalNs;
    }
    const uint64_t lookups =
        w.total.programCacheHits + w.total.programCacheMisses;
    if (lookups)
        w.cacheHitRate = static_cast<double>(w.total.programCacheHits) /
                         static_cast<double>(lookups);
    return w;
}

Histogram
countersToHistogram(ShardedEngine &engine, int64_t lo, int64_t hi,
                    unsigned group)
{
    const auto counts = engine.readAllCounters(group);
    return countersToHistogram(counts, lo, hi);
}

std::vector<int64_t>
replaySerial(const EngineConfig &cfg, std::span<const BatchOp> ops,
             unsigned group)
{
    C2MEngine eng(cfg);
    const unsigned h =
        eng.addMask(std::vector<uint8_t>(cfg.numCounters, 0));
    size_t current = std::numeric_limits<size_t>::max();
    for (const auto &op : ops) {
        if (op.counter != current) {
            std::vector<uint8_t> mask(cfg.numCounters, 0);
            mask[op.counter] = 1;
            eng.setMask(h, mask);
            current = op.counter;
        }
        if (op.value >= 0)
            eng.accumulate(static_cast<uint64_t>(op.value), h,
                           op.group);
        else
            eng.accumulateSigned(op.value, h, op.group);
    }
    return eng.readCounters(group);
}

Histogram
countersToHistogram(std::span<const int64_t> counters, int64_t lo,
                    int64_t hi)
{
    Histogram h(lo, hi);
    for (size_t i = 0; i < counters.size(); ++i)
        if (counters[i] > 0)
            h.add(static_cast<int64_t>(i),
                  static_cast<uint64_t>(counters[i]));
    return h;
}

} // namespace core
} // namespace c2m
