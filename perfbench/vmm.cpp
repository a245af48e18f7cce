/**
 * @file
 * vmm_ternary: the paper's kernel. A ternary Z (256 rows x 8192
 * columns) is stored as 512 +1/-1 mask rows on a dual-rail (2-group)
 * ShardedEngine with 4 shards on a 2-lane pool. One request is one
 * int8 activation vector: 256 broadcast accumulate pairs, a read of
 * both rails, and clear(). It bypasses the service, coalescing and the
 * drain planner entirely, so it is the control workload when those
 * layers are optimised, and the one GpuModel::run(1, N, K) compares
 * against.
 */

#include <vector>

#include "common/rng.hpp"
#include "core/gpu_model.hpp"
#include "core/kernels.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace c2m;

constexpr unsigned kShards = 4;
constexpr unsigned kLanes = 2;
constexpr size_t kRows = 256;  ///< K: input length
constexpr size_t kCols = 8192; ///< N: outputs

class VmmWorkload final : public Workload
{
  public:
    explicit VmmWorkload(uint64_t seed)
        : engine_(engineConfig(), kShards, kLanes), rng_(seed)
    {
        Z_.assign(kRows, std::vector<int8_t>(kCols));
        for (auto &row : Z_)
            for (auto &z : row)
                z = static_cast<int8_t>(rng_.nextRange(-1, 1));
        for (const auto &row : Z_) {
            std::vector<uint8_t> p(kCols), m(kCols);
            for (size_t j = 0; j < kCols; ++j) {
                p[j] = row[j] > 0;
                m[j] = row[j] < 0;
            }
            plus_.push_back(engine_.addMask(p));
            minus_.push_back(engine_.addMask(m));
        }
        x_.resize(kRows);
    }

    void warmUp() override
    {
        // Touch every (rail, digit, k, mask row) increment program an
        // int8 input can need, then run GEMVs until misses stop
        // falling (only carry-ripple programs are left to fill).
        const uint64_t digits = 4; // |x| <= 128 < 4^4
        for (size_t i = 0; i < kRows; ++i)
            for (unsigned rail = 0; rail < 2; ++rail)
                for (uint64_t d = 0, w = 1; d < digits; ++d, w *= 4)
                    for (uint64_t k = 1; k < 4; ++k) {
                        engine_.accumulate(k * w, plus_[i], rail);
                        engine_.accumulate(k * w, minus_[i], rail);
                    }
        engine_.clear();
        warmUntilSteady(*this, 2, 2, 64);
    }

    RequestTiming request(LayerTimers &t) override
    {
        for (auto &x : x_)
            x = rng_.nextRange(-128, 127);
        tally_.attempted += 1;

        RequestTiming r;
        r.ops = 1;
        const Stamp t0 = Stamp::now();
        for (size_t i = 0; i < kRows; ++i) {
            if (x_[i] == 0)
                continue;
            const uint64_t mag =
                static_cast<uint64_t>(x_[i] < 0 ? -x_[i] : x_[i]);
            // x * (+1) goes to the positive rail unless x is negative.
            const unsigned pos_rail = x_[i] > 0 ? 0 : 1;
            engine_.accumulate(mag, plus_[i], pos_rail);
            engine_.accumulate(mag, minus_[i], 1 - pos_rail);
            t.broadcastCalls += 2;
        }
        const Stamp t1 = Stamp::now();
        const auto pos = engine_.readAllCounters(0);
        const auto neg = engine_.readAllCounters(1);
        const Stamp t2 = Stamp::now();
        engine_.clear();
        const Stamp t3 = Stamp::now();
        r.latencyNs = wallNs(t0, t3);
        r.cpuNs = cpuNs(t0, t3);
        r.readNs = wallNs(t1, t2);
        r.readCpuNs = cpuNs(t1, t2);
        t.countersRead += pos.size() + neg.size();
        if (t.on)
            t.broadcastNs += wallNs(t0, t1);

        // One failed op per GEMV with any output off the reference.
        const auto ref = core::refGemvTernary(x_, Z_);
        for (size_t j = 0; j < kCols; ++j)
            if (pos[j] - neg[j] != ref[j]) {
                ++tally_.failed;
                break;
            }
        return r;
    }

    void verifyFinal() override
    {
        // Every GEMV is checked as it completes; clear() must have
        // left both rails at zero.
        for (unsigned rail = 0; rail < 2; ++rail)
            for (int64_t v : engine_.readAllCounters(rail))
                tally_.failed += v != 0;
    }

    Counters counters() override
    {
        Counters c;
        for (unsigned s = 0; s < kShards; ++s)
            c.shards.push_back(engine_.shard(s).stats());
        return c;
    }

    double gpuNs(uint64_t ops) const override
    {
        return core::GpuModel::rtx3090ti().run(1, kCols, kRows).kernelMs *
               1e6 * static_cast<double>(ops);
    }

  private:
    static core::EngineConfig engineConfig()
    {
        core::EngineConfig cfg;
        cfg.radix = 4;
        cfg.capacityBits = 32;
        cfg.numCounters = kCols;
        cfg.numGroups = 2;
        cfg.maxMaskRows = 2 * kRows;
        return cfg;
    }

    core::ShardedEngine engine_;
    Rng rng_;
    std::vector<std::vector<int8_t>> Z_;
    std::vector<unsigned> plus_, minus_;
    std::vector<int64_t> x_;
};

} // namespace

std::unique_ptr<Workload>
makeVmmTernary(uint64_t seed)
{
    auto w = std::make_unique<VmmWorkload>(seed);
    w->warmUp();
    return w;
}

} // namespace perfbench
