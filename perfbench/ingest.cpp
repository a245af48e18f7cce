/**
 * @file
 * The two service workloads: one client thread drives an
 * IngestService over a 4-shard engine on a 2-lane pool (plus the
 * drainer thread), submitting one request, flushing, and waiting for
 * the epoch before generating the next. minDrainOps sits far above
 * any request, so only the client's flushes cut epochs and every
 * epoch is exactly one request: the epoch sequence, and with it every
 * modeled number, is a pure function of the seed.
 *
 *  - ingest_zipf: Zipf(1.0) point updates with positive values. The
 *    planner folds each epoch into one merged, gang-issued plan.
 *  - ingest_signed_reads: uniform keys, half the deltas negative, so
 *    groups are in signed mode and every op replays per op; frequent
 *    epoch-consistent snapshots make JC readback a large share.
 */

#include <vector>

#include "common/rng.hpp"
#include "core/gpu_model.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace c2m;

constexpr unsigned kShards = 4;
constexpr unsigned kLanes = 2;

struct IngestParams
{
    size_t counters;      ///< power of two
    size_t opsPerRequest;
    unsigned snapshotEvery;
    bool zipf;            ///< Zipf(1.0) keys, else uniform
    bool signedHalf;      ///< negate every other delta
};

class IngestWorkload final : public Workload
{
  public:
    IngestWorkload(const IngestParams &p, uint64_t seed)
        : p_(p), engine_(engineConfig(p), kShards, kLanes),
          svc_(engine_, serviceConfig(p)), expect_(p.counters, 0),
          rng_(seed ^ 0x1a2b3c4dULL),
          zipf_(p.counters, 1.0, seed),
          mul_((rng_.next() & (p.counters / kShards - 1)) | 1),
          off_(rng_.nextBounded(p.counters / kShards))
    {
        ops_.reserve(p.opsPerRequest);
    }

    void warmUp() override
    {
        warmUntilSteady(*this, std::max(p_.snapshotEvery, 16u), 4, 64);
    }

    RequestTiming request(LayerTimers &t) override
    {
        ops_.clear();
        for (size_t i = 0; i < p_.opsPerRequest; ++i) {
            const uint64_t key = p_.zipf ? zipfKey(zipf_.next())
                                         : rng_.nextBounded(p_.counters);
            int64_t v = 1 + static_cast<int64_t>(rng_.nextBounded(15));
            if (p_.signedHalf && (i & 1))
                v = -v;
            ops_.push_back({key, v, 0});
            expect_[key] += v;
        }
        tally_.attempted += ops_.size();

        RequestTiming r;
        r.ops = ops_.size();
        const Stamp t0 = Stamp::now();
        const size_t accepted = svc_.submit(ops_);
        const auto t1 = Clock::now();
        svc_.flushAndWait();
        const Stamp t2 = Stamp::now();
        r.latencyNs = wallNs(t0, t2);
        r.cpuNs = cpuNs(t0, t2);
        tally_.failed += ops_.size() - accepted;
        if (t.on) {
            t.submitNs += nsBetween(t0.wall, t1);
            t.submitOps += ops_.size();
            t.serviceWaitNs += r.latencyNs;
        }

        if (++requests_ % p_.snapshotEvery == 0) {
            const Stamp s0 = Stamp::now();
            const auto snap = svc_.snapshot();
            const Stamp s1 = Stamp::now();
            r.readNs = wallNs(s0, s1);
            r.readCpuNs = cpuNs(s0, s1);
            t.countersRead += snap.counters.size();
            check(snap.counters);
        }
        return r;
    }

    void verifyFinal() override { check(svc_.snapshot().counters); }

    Counters counters() override
    {
        Counters c;
        for (unsigned s = 0; s < kShards; ++s)
            c.shards.push_back(engine_.shard(s).stats());
        c.service = svc_.serviceStats();
        return c;
    }

    double gpuNs(uint64_t ops) const override
    {
        return core::GpuModel::rtx3090ti()
            .countingRun(ops, p_.counters)
            .ns;
    }

  private:
    static core::EngineConfig engineConfig(const IngestParams &p)
    {
        core::EngineConfig cfg;
        cfg.radix = 4;
        cfg.capacityBits = 32;
        cfg.numCounters = p.counters;
        cfg.maxMaskRows = 1;
        return cfg;
    }

    static service::IngestConfig serviceConfig(const IngestParams &p)
    {
        service::IngestConfig icfg;
        icfg.coalesce = true;
        icfg.minDrainOps = size_t{1} << 40; // only flushes cut epochs
        icfg.queueCapacity = std::max<size_t>(4096, 2 * p.opsPerRequest);
        return icfg;
    }

    /**
     * Counter of Zipf rank @p rank. Ranks are dealt round-robin over
     * the equal-width shards, so every seed loads the shards alike;
     * within a shard an odd-multiplier bijection scatters them
     * differently per seed.
     */
    uint64_t zipfKey(uint64_t rank) const
    {
        const uint64_t width = p_.counters / kShards;
        return (rank % kShards) * width +
               (((rank / kShards) * mul_ + off_) & (width - 1));
    }

    /** Host exact per-counter sums against an epoch-consistent read. */
    void check(const std::vector<int64_t> &got)
    {
        for (size_t i = 0; i < expect_.size(); ++i)
            tally_.failed += got[i] != expect_[i];
    }

    IngestParams p_;
    core::ShardedEngine engine_;
    service::IngestService svc_;
    std::vector<int64_t> expect_;
    std::vector<core::BatchOp> ops_;
    Rng rng_;
    ZipfRng zipf_;
    uint64_t mul_;
    uint64_t off_;
    uint64_t requests_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeIngestZipf(uint64_t seed)
{
    auto w = std::make_unique<IngestWorkload>(
        IngestParams{65536, 1024, 100, true, false}, seed);
    w->warmUp();
    return w;
}

std::unique_ptr<Workload>
makeIngestSignedReads(uint64_t seed)
{
    auto w = std::make_unique<IngestWorkload>(
        IngestParams{16384, 48, 4, false, true}, seed);
    w->warmUp();
    return w;
}

} // namespace perfbench
