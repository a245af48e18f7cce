#include "virt/virtspace.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace c2m {
namespace virt {

CounterMap
VirtStats::toCounters() const
{
    return {
        {"virt.keys_exact", keysExact},
        {"virt.resident_groups", residentGroups},
        {"virt.spilled_groups", spilledGroups},
        {"virt.pending_restores", pendingRestores},
        {"virt.sketch_keys", sketchKeys},
        {"virt.dir_probes", dirProbes},
        {"virt.est_error_bound",
         static_cast<uint64_t>(std::llround(estErrorBound))},
        {"virt.est_error_seed_max", estErrorSeedMax},
        {"virt.spills", spills},
        {"virt.restores", restores},
        {"virt.materializations", materializations},
        {"virt.promotions", promotions},
        {"virt.sketch_updates", sketchUpdates},
        {"virt.journaled_ops", journaledOps},
        {"virt.maintenance_fabric_ns",
         static_cast<uint64_t>(std::llround(maintenanceFabricNs))},
    };
}

bool
VirtualCounterSpace::supportsSpill(core::ShardedEngine &engine)
{
    return engine.shard(0).backend().caps().rowScrub;
}

VirtualCounterSpace::VirtualCounterSpace(core::ShardedEngine &engine,
                                         const VirtConfig &cfg)
    : VirtualCounterSpace(engine, nullptr, cfg)
{
}

VirtualCounterSpace::VirtualCounterSpace(service::IngestService &svc,
                                         const VirtConfig &cfg)
    : VirtualCounterSpace(svc.engine(), &svc, cfg)
{
    svc.attachObserver(this);
}

VirtualCounterSpace::VirtualCounterSpace(core::ShardedEngine &engine,
                                         service::IngestService *svc,
                                         const VirtConfig &cfg)
    : engine_(engine),
      svc_(svc),
      cfg_(cfg),
      canSpill_(supportsSpill(engine)),
      dir_(cfg.seed),
      sketch_(cfg.sketch),
      distinct_(1 << 20, cfg.seed ^ 0xd157ULL)
{
    if (cfg.groupSize < 1 || cfg.groupSize > (1u << 16))
        C2M_FATAL("VirtConfig::groupSize must be in 1..65536 (the "
                  "journal's 16-bit slot ids), got ",
                  cfg.groupSize);
    for (unsigned s = 0; s < engine.numShards(); ++s) {
        const size_t nf = engine.shardWidth(s) / cfg.groupSize;
        for (size_t i = 0; i < nf; ++i)
            frames_.push_back(
                Frame{s, i * cfg.groupSize,
                      engine.shardStart(s) + i * cfg.groupSize});
    }
    if (frames_.empty())
        C2M_FATAL("VirtConfig::groupSize ", cfg.groupSize,
                  " is wider than every shard: no virtual group frame");
    frameOwner_.assign(frames_.size(), -1);
    freeFrames_.reserve(frames_.size());
    for (size_t f = frames_.size(); f-- > 0;)
        freeFrames_.push_back(static_cast<uint32_t>(f));
}

VirtualCounterSpace::~VirtualCounterSpace()
{
    if (svc_)
        svc_->stop();
}

void
VirtualCounterSpace::attachScrubber(reliability::Scrubber *scrub)
{
    std::lock_guard<std::mutex> lk(m_);
    scrub_ = scrub;
}

uint64_t
VirtualCounterSpace::physOf(uint32_t slot) const
{
    const Group &g = groups_[slot / cfg_.groupSize];
    const Frame &fr = frames_[static_cast<size_t>(g.frame)];
    return fr.startGlobal + slot % cfg_.groupSize;
}

namespace {

/** Throw unless @p value is a delta the tiers can count (> 0). */
void
checkDelta(uint64_t key, int64_t value)
{
    if (value <= 0)
        C2M_FATAL("virtual counter deltas must be > 0, got ", value,
                  " for key ", key);
}

} // namespace

AddResult
VirtualCounterSpace::add(uint64_t key, int64_t value)
{
    checkDelta(key, value);
    std::unique_lock<std::mutex> lk(m_);
    const uint32_t slot = dir_.find(key);
    if (slot != KeyDirectory::kNotFound) {
        const bool resident =
            groups_[slot / cfg_.groupSize].frame >= 0;
        routeExactDelta(lk, slot, value);
        directTick();
        return {resident ? Route::Exact : Route::Journaled, 0};
    }

    // Approximate tier: every key is admitted immediately.
    distinct_.mark(key);
    ++counts_.sketchUpdates;
    const uint64_t est =
        sketch_.update(key, static_cast<uint64_t>(value));
    if (est < cfg_.promoteThreshold) {
        directTick();
        return {Route::Sketch, 0};
    }

    // Promote: the estimate becomes the exact slot's seed value and
    // the sketch bound at promotion its permanent accuracy record.
    const uint32_t new_slot = allocSlot(key);
    const uint32_t gi = new_slot / cfg_.groupSize;
    const uint16_t local =
        static_cast<uint16_t>(new_slot % cfg_.groupSize);
    const double bound = sketch_.pointErrorBound(est);
    Group &g = groups_[gi];
    g.slotKeys[local] = key;
    g.slotSeeds[local] = est;
    g.slotSeedBounds[local] = bound;
    ++counts_.promotions;
    // arg = seeding estimate, arg2 = its analytic error bound.
    if (auto *tr = obs::tracer())
        tr->instant("virt.promote", obs::kServiceTrack, est,
                    static_cast<uint64_t>(std::llround(bound)));
    counts_.estErrorSeedMax = std::max(
        counts_.estErrorSeedMax,
        static_cast<uint64_t>(std::llround(bound)));
    routeExactDelta(lk, new_slot, static_cast<int64_t>(est));
    directTick();
    return {Route::Promoted, est};
}

void
VirtualCounterSpace::addBatch(std::span<const VirtOp> ops)
{
    // Every op is checked before any applies.
    for (const auto &op : ops)
        checkDelta(op.key, op.value);
    for (const auto &op : ops)
        add(op.key, op.value);
}

void
VirtualCounterSpace::routeExactDelta(
    std::unique_lock<std::mutex> &lk, uint32_t slot, int64_t value)
{
    const uint32_t gi = slot / cfg_.groupSize;
    Group &g = groups_[gi];
    g.lastTouch = ++tick_;
    if (g.frame < 0) {
        g.journal[static_cast<uint16_t>(slot % cfg_.groupSize)] +=
            value;
        ++g.journaledOps;
        ++counts_.journaledOps;
        if (g.journaledOps >= cfg_.restoreOpThreshold)
            scheduleRestore(gi);
        return;
    }
    const core::BatchOp op{physOf(slot), value, virtGroup_};
    if (cfg_.recordPhysicalOps)
        physLog_.push_back(op);
    if (!svc_) {
        directBuf_.push_back(op);
        return;
    }
    // Two-phase submit: pendingSubmits pins the group's frame while
    // the op is in flight, and the boundary recorded after the
    // submit makes the two-boundary spill-eligibility rule sound
    // (see docs/virt.md). The lock is dropped around submit() so the
    // drainer (which takes m_ in onEpochApplied) can never deadlock
    // against a producer stalled on queue backpressure.
    ++g.pendingSubmits;
    lk.unlock();
    svc_->submit(op);
    lk.lock();
    Group &g2 = groups_[gi]; // groups_ may have grown meanwhile
    --g2.pendingSubmits;
    g2.lastSubmitBoundary = boundary_;
}

uint32_t
VirtualCounterSpace::allocSlot(uint64_t key)
{
    if (openGroup_ < 0 ||
        groups_[static_cast<size_t>(openGroup_)].used >=
            cfg_.groupSize) {
        Group g;
        g.slotKeys.assign(cfg_.groupSize, 0);
        g.slotSeeds.assign(cfg_.groupSize, 0);
        g.slotSeedBounds.assign(cfg_.groupSize, 0.0);
        groups_.push_back(std::move(g));
        openGroup_ = static_cast<int32_t>(groups_.size()) - 1;
    }
    Group &g = groups_[static_cast<size_t>(openGroup_)];
    const uint32_t slot =
        static_cast<uint32_t>(openGroup_) * cfg_.groupSize + g.used;
    ++g.used;
    dir_.insert(key, slot);
    if (g.used == cfg_.groupSize)
        scheduleRestore(static_cast<uint32_t>(openGroup_));
    return slot;
}

void
VirtualCounterSpace::scheduleRestore(uint32_t group)
{
    Group &g = groups_[group];
    if (g.restoreQueued || g.frame >= 0)
        return;
    g.restoreQueued = true;
    pendingRestore_.push_back(group);
}

void
VirtualCounterSpace::directTick()
{
    if (svc_)
        return;
    if (++directOps_ < cfg_.directBatchOps)
        return;
    directOps_ = 0;
    applyDirectBuf();
    maintain();
}

void
VirtualCounterSpace::applyDirectBuf()
{
    if (directBuf_.empty())
        return;
    engine_.accumulateBatch(directBuf_);
    if (scrub_)
        scrub_->noteBatch(directBuf_);
    directBuf_.clear();
}

void
VirtualCounterSpace::maintain()
{
    if (pendingRestore_.empty())
        return;
    const uint64_t round_tick = tick_;
    bool moved = false;

    std::vector<uint32_t> mats;     // journal-only materializations
    std::vector<uint32_t> deferred; // no frame available this round
    std::vector<uint32_t> todo;
    todo.swap(pendingRestore_);

    // Phase 1: assign frames (spilling victims as needed) and write
    // every image restore through the reliable row path; each rewrite
    // patches the scrubber's mirror itself.
    for (const uint32_t gi : todo) {
        Group &g = groups_[gi];
        g.restoreQueued = false;
        if (g.frame >= 0)
            continue;
        const int32_t f = acquireFrame(round_tick);
        if (f < 0) {
            g.restoreQueued = true;
            deferred.push_back(gi);
            continue;
        }
        moved = true;
        g.frame = f;
        frameOwner_[static_cast<size_t>(f)] =
            static_cast<int32_t>(gi);
        g.lastTouch = ++tick_; // > round_tick: pinned this round
        if (!g.image) {
            mats.push_back(gi);
            continue;
        }
        const std::vector<int64_t> values = spilledValues(g);
        g.journal.clear();
        g.journaledOps = 0;
        rewriteFrame(g, frames_[static_cast<size_t>(f)], values,
                     cim::FabricCat::VirtRestore, "virt.restore");
        ++counts_.restores;
    }
    pendingRestore_ = std::move(deferred);

    // Phase 2: first materializations go through the normal fabric
    // op path and the scrub journal, after every frame move, so their
    // commands leave the shards dirty for the boundary sweep that
    // follows maintenance (which heals the faults they inject before
    // the epoch is published) rather than for this round's spills.
    for (const uint32_t gi : mats) {
        Group &g = groups_[gi];
        const Frame &fr = frames_[static_cast<size_t>(g.frame)];
        matOps_.clear();
        for (const auto &[slot, delta] : g.journal)
            if (delta != 0)
                matOps_.push_back(core::BatchOp{
                    fr.startGlobal + slot, delta, virtGroup_});
        g.journal.clear();
        g.journaledOps = 0;
        if (!matOps_.empty()) {
            if (cfg_.recordPhysicalOps)
                physLog_.insert(physLog_.end(), matOps_.begin(),
                                matOps_.end());
            {
                // A one-bucket epoch; the scope lives on the shard's
                // own stats, so it pins every materialization op's
                // fabric charge — including the nested plan/fallback
                // path on whichever lane runs it — to the virt
                // ledger row.
                cim::AttrScope attr(
                    engine_.shard(fr.shard).backend().opStatsRef(),
                    cim::FabricCat::VirtMaterialize);
                const core::ShardedEngine::EpochBucket bucket{fr.shard,
                                                              matOps_};
                engine_.runEpoch({&bucket, 1});
            }
            if (scrub_)
                scrub_->noteBatch(matOps_);
        }
        ++counts_.materializations;
        // arg = directory group materialized from journal deltas.
        if (auto *tr = obs::tracer())
            tr->instant("virt.materialize", fr.shard, gi);
    }
    if (moved)
        ++maintRounds_;
}

int32_t
VirtualCounterSpace::acquireFrame(uint64_t round_tick)
{
    if (!freeFrames_.empty()) {
        const int32_t f = static_cast<int32_t>(freeFrames_.back());
        freeFrames_.pop_back();
        return f;
    }
    if (!canSpill_)
        return -1;
    // Cost-normalized LRU: evict the resident group maximizing idle
    // time per modeled spill nanosecond, so cheap-to-move groups
    // absorb the churn. Unmeasured groups price at the fleet mean.
    const uint64_t moves = counts_.spills + counts_.restores;
    const double mean_ns =
        moves > 0 ? counts_.maintenanceFabricNs /
                        static_cast<double>(moves)
                  : 1.0;
    int32_t best = -1;
    double best_score = -1.0;
    for (size_t f = 0; f < frames_.size(); ++f) {
        const int32_t owner = frameOwner_[f];
        if (owner < 0)
            continue;
        const Group &g = groups_[static_cast<size_t>(owner)];
        if (g.lastTouch > round_tick)
            continue; // restored/touched this round: pinned
        if (g.pendingSubmits > 0)
            continue; // a delta is mid-submit
        if (svc_ && !stopped_ &&
            g.lastSubmitBoundary + 2 > boundary_)
            continue; // submitted deltas may not be applied yet
        const double cost =
            g.lastMaintNs > 0.0 ? g.lastMaintNs : mean_ns;
        const double idle =
            static_cast<double>(round_tick - g.lastTouch) + 1.0;
        const double score = idle / std::max(cost, 1.0);
        if (score > best_score) {
            best_score = score;
            best = static_cast<int32_t>(f);
        }
    }
    if (best < 0)
        return -1;
    // Spill: heal the shard and apply its pending journal before the
    // values are read out, so the image cannot adopt faulty state.
    Group &victim = groups_[static_cast<size_t>(frameOwner_[best])];
    const Frame &fr = frames_[static_cast<size_t>(best)];
    if (scrub_)
        scrub_->sweepNow(fr.shard);
    if (!victim.image)
        victim.image = std::make_unique<reliability::RowMirror>(
            engine_.shard(fr.shard).layout(virtGroup_), cfg_.groupSize);
    // Decoded with their Onext and Osign rows, as readCounters
    // decodes them, the values are exact without draining.
    victim.image->encodeValues(
        rewriteFrame(victim, fr, std::vector<int64_t>(cfg_.groupSize, 0),
                     cim::FabricCat::VirtSpill, "virt.spill"));
    victim.frame = -1;
    frameOwner_[static_cast<size_t>(best)] = -1;
    ++counts_.spills;
    return best;
}

std::vector<int64_t>
VirtualCounterSpace::rewriteFrame(Group &g, const Frame &fr,
                                  std::span<const int64_t> values,
                                  cim::FabricCat cat, const char *span)
{
    std::vector<int64_t> old(values.size());
    const double ns0 = engine_.stats().fabric.fabricNs;
    obs::TraceRecorder *traceRec = obs::tracer();
    if (traceRec)
        traceRec->spanBegin(span, fr.shard, ns0);
    engine_.runShardTask(
        fr.shard, [&](core::C2MEngine &eng, size_t) {
            cim::AttrScope attr(eng.backend().opStatsRef(), cat);
            eng.rewriteCounters(virtGroup_, fr.startLocal, values, old);
        });
    if (scrub_)
        scrub_->noteRewrite(fr.shard, virtGroup_, fr.startLocal, values);
    const double cost = engine_.stats().fabric.fabricNs - ns0;
    if (traceRec)
        traceRec->spanEnd(span, fr.shard, ns0 + cost);
    g.lastMaintNs =
        g.lastMaintNs > 0.0 ? 0.5 * (g.lastMaintNs + cost) : cost;
    counts_.maintenanceFabricNs += cost;
    return old;
}

std::vector<int64_t>
VirtualCounterSpace::readFabricConsistent(
    std::unique_lock<std::mutex> &lk)
{
    if (!svc_)
        return engine_.readAllCounters(virtGroup_);
    for (;;) {
        const uint64_t r0 = maintRounds_;
        lk.unlock();
        std::vector<int64_t> v = svc_->readCounters(virtGroup_);
        lk.lock();
        if (maintRounds_ == r0)
            return v; // no group moved while the lock was dropped
    }
}

std::vector<int64_t>
VirtualCounterSpace::spilledValues(Group &g)
{
    std::vector<int64_t> v =
        g.image ? g.image->decodeValues()
                : std::vector<int64_t>(cfg_.groupSize, 0);
    for (const auto &[slot, delta] : g.journal)
        v[slot] += delta;
    return v;
}

int64_t
VirtualCounterSpace::read(uint64_t key)
{
    std::unique_lock<std::mutex> lk(m_);
    const uint32_t slot = dir_.find(key);
    if (slot == KeyDirectory::kNotFound)
        return static_cast<int64_t>(sketch_.estimate(key));
    if (!svc_)
        applyDirectBuf();
    for (;;) {
        Group &g = groups_[slot / cfg_.groupSize];
        if (g.frame < 0)
            return spilledValues(g)[slot % cfg_.groupSize];
        const std::vector<int64_t> counters =
            readFabricConsistent(lk);
        const Group &g2 = groups_[slot / cfg_.groupSize];
        if (g2.frame < 0)
            continue; // spilled while the lock was dropped
        return counters[physOf(slot)];
    }
}

bool
VirtualCounterSpace::isExact(uint64_t key) const
{
    std::lock_guard<std::mutex> lk(m_);
    return dir_.find(key) != KeyDirectory::kNotFound;
}

uint64_t
VirtualCounterSpace::approxEstimate(uint64_t key) const
{
    std::lock_guard<std::mutex> lk(m_);
    return sketch_.estimate(key);
}

double
VirtualCounterSpace::errorBound(uint64_t key) const
{
    std::lock_guard<std::mutex> lk(m_);
    const uint32_t slot = dir_.find(key);
    if (slot == KeyDirectory::kNotFound)
        return sketch_.pointErrorBound(sketch_.estimate(key));
    return groups_[slot / cfg_.groupSize]
        .slotSeedBounds[slot % cfg_.groupSize];
}

std::vector<VirtualCounterSpace::ExactEntry>
VirtualCounterSpace::exactEntries()
{
    std::unique_lock<std::mutex> lk(m_);
    if (!svc_)
        applyDirectBuf();
    const std::vector<int64_t> counters = readFabricConsistent(lk);
    std::vector<ExactEntry> out;
    out.reserve(dir_.size());
    std::vector<int64_t> spilled;
    for (size_t gi = 0; gi < groups_.size(); ++gi) {
        Group &g = groups_[gi];
        if (g.frame < 0)
            spilled = spilledValues(g); // one image decode per group
        for (uint32_t i = 0; i < g.used; ++i) {
            const uint32_t slot = static_cast<uint32_t>(
                gi * cfg_.groupSize + i);
            ExactEntry e;
            e.key = g.slotKeys[i];
            e.seed = g.slotSeeds[i];
            e.seedBound = g.slotSeedBounds[i];
            e.resident = g.frame >= 0;
            e.value = e.resident ? counters[physOf(slot)] : spilled[i];
            out.push_back(e);
        }
    }
    return out;
}

std::vector<VirtualCounterSpace::ExactEntry>
VirtualCounterSpace::topK(size_t k)
{
    std::vector<ExactEntry> all = exactEntries();
    std::sort(all.begin(), all.end(),
              [](const ExactEntry &a, const ExactEntry &b) {
                  return a.value != b.value ? a.value > b.value
                                            : a.key < b.key;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

void
VirtualCounterSpace::flush()
{
    if (!svc_) {
        std::unique_lock<std::mutex> lk(m_);
        applyDirectBuf();
        maintain();
        // This round's restores pin their frames; a second pass
        // lets restores deferred for lack of a victim proceed.
        if (!pendingRestore_.empty())
            maintain();
        // Sweep after maintenance, as each service-mode epoch does.
        if (scrub_)
            scrub_->boundary();
        return;
    }
    // Drain everything submitted so far, then force further epoch
    // boundaries (flush() alone short-circuits on an idle service,
    // and a space whose deltas are all journaled submits nothing)
    // until in-flight deltas age past the two-boundary rule and
    // every pending restore finds a frame.
    svc_->flushAndWait();
    for (int i = 0; i < 8; ++i) {
        {
            std::lock_guard<std::mutex> lk(m_);
            if (pendingRestore_.empty())
                return;
        }
        svc_->wait(svc_->forceEpoch());
    }
}

VirtStats
VirtualCounterSpace::stats() const
{
    std::lock_guard<std::mutex> lk(m_);
    VirtStats s = counts_;
    s.keysExact = dir_.size();
    uint64_t resident = 0;
    for (const auto &g : groups_)
        if (g.frame >= 0)
            ++resident;
    s.residentGroups = resident;
    s.spilledGroups = groups_.size() - resident;
    s.pendingRestores = pendingRestore_.size();
    s.sketchKeys = distinct_.estimate();
    s.dirProbes = dir_.probes();
    s.estErrorBound = sketch_.pointErrorBound(0);
    return s;
}

CounterMap
VirtualCounterSpace::report() const
{
    return counters();
}

void
VirtualCounterSpace::onShardOps(unsigned shard,
                                std::span<const core::BatchOp> ops)
{
    if (scrub_)
        scrub_->onShardOps(shard, ops);
}

void
VirtualCounterSpace::onEpochApplied(uint64_t epoch)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        ++boundary_;
        maintain();
    }
    // Sweep after maintenance, so the faults its materializations
    // inject are healed before the service publishes the epoch.
    if (scrub_)
        scrub_->onEpochApplied(epoch);
}

void
VirtualCounterSpace::onStop(uint64_t epoch)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stopped_ = true; // every submitted delta is applied at stop
        ++boundary_;
        maintain();
        if (!pendingRestore_.empty())
            maintain();
    }
    // The scrubber's stop sweep runs last so it reconciles the
    // materialization deltas noteBatch()ed above.
    if (scrub_)
        scrub_->onStop(epoch);
}

CounterMap
VirtualCounterSpace::counters() const
{
    CounterMap merged = stats().toCounters();
    if (scrub_)
        mergeCounters(merged, scrub_->counters());
    return merged;
}

} // namespace virt
} // namespace c2m
