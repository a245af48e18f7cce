#ifndef C2M_VIRT_VIRTSPACE_HPP
#define C2M_VIRT_VIRTSPACE_HPP

/**
 * @file
 * Counter virtualization: arbitrary 64-bit key spaces over a finite
 * counter fabric.
 *
 * A VirtualCounterSpace fronts a core::ShardedEngine (optionally
 * through a service::IngestService) and serves uint64_t keys far in
 * excess of the fabric's physical counter count. Keys live in one of
 * three tiers:
 *
 *  - exact + resident: the key owns a slot in a virtual counter
 *    group that is materialized in a physical frame (a contiguous
 *    groupSize-column range of one shard). Deltas go to the fabric
 *    as ordinary BatchOps; values are bit-exact.
 *  - exact + spilled: the group's counter values were swapped out of
 *    the fabric into an ECC-encoded reliability::RowMirror image —
 *    the same canonical row serialization the scrubber trusts — and
 *    the frame was reassigned. Deltas accumulate in a host-side
 *    journal; restore decodes the image, folds the journal in, and
 *    writes the canonical values back through the reliable host path
 *    (core::C2MEngine::rewriteCounters, as spill clears the frame),
 *    so a spill/restore round trip is bit-exact (pinned by
 *    test_virt.cpp).
 *  - approximate: keys the directory has never promoted are absorbed
 *    by a count-min front sketch (optionally with Morris-counter
 *    cells) with the analytic error bounds documented in
 *    virt/sketch.hpp. Every key is admitted immediately; when a
 *    key's estimate crosses VirtConfig::promoteThreshold it is
 *    promoted into the exact tier, carrying the estimate as its seed
 *    value and its sketch error bound as a per-key accuracy record.
 *
 * Eviction is cost-normalized LRU: when a restore needs a frame and
 * none is free, the resident group maximizing idle-time divided by
 * its measured spill cost (modeled fabric ns from
 * EngineStats::fabric) is spilled. Backends without caps().rowScrub
 * cannot spill; groups beyond the fabric capacity then simply stay
 * journaled host-side (still exact, never resident).
 *
 * Drive modes:
 *  - direct: construct from a ShardedEngine. Single-driver like the
 *    engine itself; deltas are buffered and applied in batches
 *    (drain-planner friendly), maintenance (spill/restore) runs at
 *    batch boundaries and flush().
 *  - service: construct from an IngestService. add() is thread-safe;
 *    exact resident deltas are submitted to the service, and the
 *    space installs itself as the service's EpochObserver so
 *    maintenance runs at epoch boundaries with the engine quiescent.
 *    A group is only spilled once every delta submitted to it is
 *    known to have been applied (two-boundary rule, see docs/virt.md).
 *
 * Scrub integration: attachScrubber() chains a reliability::Scrubber
 * behind the space. A spill first sweeps its shard if it is dirty
 * (healing it before the values are read out), and every frame
 * rewrite hands the scrubber the values it wrote (noteRewrite, which
 * splices them into its mirror); materialization deltas go through
 * noteBatch. Each epoch boundary (service mode) and each flush()
 * (direct mode) runs maintenance first and the scrubber's boundary
 * sweep second, so the faults a materialization injects are healed
 * before the epoch is published or flush() returns, and reads after
 * a flush() are exact. A scrubbed virtualized run
 * under CIM fault injection stays bit-exact for exact-tier keys at
 * every flush (pinned by test_virt.cpp).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/sharded.hpp"
#include "reliability/mirror.hpp"
#include "reliability/scrubber.hpp"
#include "service/ingest.hpp"
#include "virt/directory.hpp"
#include "virt/sketch.hpp"

namespace c2m {
namespace virt {

/** One keyed update. Deltas must be positive (counting workloads). */
struct VirtOp
{
    uint64_t key;
    int64_t value;
};

/** Which tier absorbed an add(). */
enum class Route : uint8_t
{
    Exact,     ///< resident exact slot; delta sent to the fabric
    Journaled, ///< exact but spilled; delta journaled host-side
    Sketch,    ///< approximate tier
    Promoted,  ///< this add pushed the key into the exact tier
};

struct AddResult
{
    Route route;
    /**
     * Sketch estimate carried into the exact tier as the seed value
     * (Promoted only). The caller's serial-replay reference for this
     * key is seed + every later delta.
     */
    uint64_t seed = 0;
};

struct VirtConfig
{
    /** Slots per virtual group = columns per physical frame. Must
     *  fit inside every shard (groupSize <= min shard width). */
    unsigned groupSize = 64;
    /** Sketch estimate at which a key is promoted to exact. */
    uint64_t promoteThreshold = 64;
    /** Journaled ops after which a spilled group is re-restored. */
    uint64_t restoreOpThreshold = 32;
    /** Direct mode: buffered ops per accumulateBatch application. */
    size_t directBatchOps = 4096;
    /** Record every BatchOp issued to the fabric (tests/benches). */
    bool recordPhysicalOps = false;
    SketchConfig sketch;
    uint64_t seed = 0x5eed5eedULL;
};

struct VirtStats
{
    // Gauges (recomputed by stats()).
    uint64_t keysExact = 0;       ///< keys in the exact directory
    uint64_t residentGroups = 0;  ///< groups holding a frame
    uint64_t spilledGroups = 0;   ///< groups swapped out / unborn
    uint64_t pendingRestores = 0; ///< groups queued for a frame
    uint64_t sketchKeys = 0;      ///< distinct-key estimate
    uint64_t dirProbes = 0;       ///< directory collision probes
    double estErrorBound = 0.0;   ///< current sketch 3-sigma bound
    // Monotonic counters.
    uint64_t spills = 0;           ///< groups swapped out to images
    uint64_t restores = 0;         ///< images swapped back in
    uint64_t materializations = 0; ///< first journal-only turn-ins
    uint64_t promotions = 0;       ///< keys promoted to exact
    uint64_t sketchUpdates = 0;    ///< deltas absorbed approximately
    uint64_t journaledOps = 0;     ///< deltas journaled host-side
    uint64_t estErrorSeedMax = 0;  ///< max bound carried by a seed
    double maintenanceFabricNs = 0.0; ///< modeled spill/restore ns

    /** Named "virt.*" counters for merged reports. */
    CounterMap toCounters() const;
};

class VirtualCounterSpace final : public service::EpochObserver
{
  public:
    /**
     * Direct mode: single-driver over a quiescent engine.
     * @throws std::invalid_argument (both modes) on a groupSize
     *         outside 1..65536 or wider than every shard, or a bad
     *         sketch (CountMinSketch), before anything is attached.
     */
    explicit VirtualCounterSpace(core::ShardedEngine &engine,
                                 const VirtConfig &cfg = {});
    /**
     * Service mode: thread-safe adds through @p svc. Installs itself
     * as the service's epoch observer (call before any traffic); the
     * service must outlive the space. A config the direct-mode
     * constructor rejects throws here before the space attaches.
     */
    explicit VirtualCounterSpace(service::IngestService &svc,
                                 const VirtConfig &cfg = {});

    /** Service mode: stops the service (idempotent) so no observer
     *  hook can fire after the space is gone. */
    ~VirtualCounterSpace() override;

    VirtualCounterSpace(const VirtualCounterSpace &) = delete;
    VirtualCounterSpace &operator=(const VirtualCounterSpace &) =
        delete;

    /** True iff @p engine's substrate can spill (caps().rowScrub). */
    static bool supportsSpill(core::ShardedEngine &engine);

    const VirtConfig &config() const { return cfg_; }

    /**
     * Chain a scrubber behind the space. In service mode the space
     * forwards the epoch-boundary hooks after its own maintenance
     * (attach the scrubber here, not to the service); in both modes
     * a spill sweeps its shard first (sweepNow) and every frame
     * rewrite patches the scrubber's mirror (noteRewrite).
     * Call before traffic; the scrubber must outlive the space.
     */
    void attachScrubber(reliability::Scrubber *scrub);

    /**
     * Absorb one delta (value > 0) for @p key.
     * @throws std::invalid_argument on value <= 0, on the caller's
     *         thread and before anything changes.
     */
    AddResult add(uint64_t key, int64_t value);
    /**
     * add() each op in order.
     * @throws std::invalid_argument if any op's value is <= 0; no op
     *         of the span is applied then.
     */
    void addBatch(std::span<const VirtOp> ops);

    /**
     * Point read: the exact value for exact-tier keys (resident or
     * spilled), the sketch estimate otherwise. Resident reads cost a
     * full fabric read — batch them through exactEntries()/topK().
     */
    int64_t read(uint64_t key);

    bool isExact(uint64_t key) const;
    /** Sketch point estimate (whatever the key's tier). */
    uint64_t approxEstimate(uint64_t key) const;
    /**
     * Accuracy record for @p key: the seed error bound carried at
     * promotion for exact keys, the current sketch 3-sigma bound for
     * approximate ones. Exact keys accumulate no further error.
     */
    double errorBound(uint64_t key) const;

    struct ExactEntry
    {
        uint64_t key;
        int64_t value;
        uint64_t seed;    ///< sketch estimate carried at promotion
        double seedBound; ///< error bound recorded at promotion
        bool resident;
    };

    /** Every exact key with its current value (one fabric read). */
    std::vector<ExactEntry> exactEntries();
    /** Top @p k exact keys by value, descending. */
    std::vector<ExactEntry> topK(size_t k);

    /**
     * Direct mode: apply buffered deltas, run maintenance, then give
     * the attached scrubber its boundary.
     * Service mode: flush the service and drive epoch boundaries
     * until every pending restore has a frame (or nothing more can
     * move).
     */
    void flush();

    VirtStats stats() const;
    /** virt.* counters (plus the chained scrubber's, if any). */
    CounterMap report() const;
    /** Fabric ops issued, when cfg.recordPhysicalOps. */
    const std::vector<core::BatchOp> &physicalLog() const
    {
        return physLog_;
    }

    // ---- service::EpochObserver (drainer thread) ----
    void onShardOps(unsigned shard,
                    std::span<const core::BatchOp> ops) override;
    void onEpochApplied(uint64_t epoch) override;
    void onStop(uint64_t epoch) override;
    CounterMap counters() const override;

  private:
    struct Frame
    {
        unsigned shard;
        size_t startLocal;    ///< first column within the shard
        uint64_t startGlobal; ///< first logical counter index
    };

    struct Group
    {
        int32_t frame = -1; ///< physical frame; -1 = spilled/unborn
        uint32_t used = 0;  ///< allocated slots
        uint64_t lastTouch = 0;
        bool restoreQueued = false;
        /**
         * Spilled counter values as an ECC-encoded canonical row
         * image (null = group has never been materialized: all
         * values zero apart from the journal).
         */
        std::unique_ptr<reliability::RowMirror> image;
        /** slot -> pending delta while not resident (ordered so
         *  materialization op order is deterministic). */
        std::map<uint16_t, int64_t> journal;
        uint64_t journaledOps = 0; ///< since last restore
        /** Service mode: boundary of the newest routed delta and
         *  deltas mid-submit (two-boundary spill safety rule). */
        uint64_t lastSubmitBoundary = 0;
        uint32_t pendingSubmits = 0;
        double lastMaintNs = 0.0; ///< measured spill cost (eviction)
        std::vector<uint64_t> slotKeys;
        std::vector<uint64_t> slotSeeds;
        std::vector<double> slotSeedBounds;
    };

    VirtualCounterSpace(core::ShardedEngine &engine,
                        service::IngestService *svc,
                        const VirtConfig &cfg);

    uint64_t physOf(uint32_t slot) const;
    /** Route a delta for an existing exact slot (lock held; may
     *  release it around a service submit). */
    void routeExactDelta(std::unique_lock<std::mutex> &lk,
                         uint32_t slot, int64_t value);
    uint32_t allocSlot(uint64_t key);
    void scheduleRestore(uint32_t group);
    void applyDirectBuf();
    /** Direct-mode cadence: every directBatchOps adds, apply the
     *  buffered fabric ops and run a maintenance round. */
    void directTick();

    /** Spill/restore pass; engine must be quiescent (lock held). */
    void maintain();
    /** A free frame, or one a victim is spilled from; -1 if none. */
    int32_t acquireFrame(uint64_t round_tick);
    /**
     * Rewrite frame @p fr to @p values (C2MEngine::rewriteCounters,
     * charged to @p cat and traced as @p span), tell the scrubber and
     * price the move into @p g. @return the values the frame held.
     */
    std::vector<int64_t> rewriteFrame(Group &g, const Frame &fr,
                                      std::span<const int64_t> values,
                                      cim::FabricCat cat,
                                      const char *span);

    /** Full logical counter read, consistent with the directory
     *  (retries if maintenance moved groups mid-read). */
    std::vector<int64_t>
    readFabricConsistent(std::unique_lock<std::mutex> &lk);
    /** A non-resident group's values: image plus journal. */
    std::vector<int64_t> spilledValues(Group &g);

    core::ShardedEngine &engine_;
    service::IngestService *svc_;
    reliability::Scrubber *scrub_ = nullptr;
    VirtConfig cfg_;
    unsigned virtGroup_ = 0; ///< engine logical group the space owns
    bool canSpill_;
    std::vector<Frame> frames_;
    std::vector<int32_t> frameOwner_; ///< group id or -1
    std::vector<uint32_t> freeFrames_;
    std::vector<Group> groups_;
    int32_t openGroup_ = -1; ///< group receiving new promotions
    KeyDirectory dir_;
    CountMinSketch sketch_;
    LinearCounter distinct_;
    std::vector<uint32_t> pendingRestore_; ///< FIFO
    std::vector<core::BatchOp> directBuf_;
    std::vector<core::BatchOp> physLog_;
    std::vector<core::BatchOp> matOps_; ///< maintenance scratch
    uint64_t tick_ = 0;
    size_t directOps_ = 0; ///< adds since the last direct maintain
    uint64_t boundary_ = 0;    ///< service epochs observed
    uint64_t maintRounds_ = 0; ///< maintenance passes that moved state
    bool stopped_ = false;
    VirtStats counts_; ///< monotonic fields only
    mutable std::mutex m_;
};

} // namespace virt
} // namespace c2m

#endif // C2M_VIRT_VIRTSPACE_HPP
