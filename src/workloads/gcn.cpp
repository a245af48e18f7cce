#include "workloads/gcn.hpp"

namespace c2m {
namespace workloads {

std::vector<core::TensorWorkload>
gcnWorkloads(const GcnConfig &cfg)
{
    const double agg_sparsity =
        1.0 - cfg.avgDegree / static_cast<double>(cfg.nodes);

    auto mk = [](size_t M, size_t N, size_t K, double sparsity) {
        core::TensorWorkload w;
        w.M = M;
        w.N = N;
        w.K = K;
        w.xBits = 8;
        w.sparsity = sparsity;
        w.ternary = true;
        return w;
    };

    return {
        // Layer 1: feature transform H W1, then aggregation A (HW1).
        mk(cfg.nodes, cfg.hidden, cfg.features, 0.0),
        mk(cfg.nodes, cfg.hidden, cfg.nodes, agg_sparsity),
        // Layer 2: H W2, then aggregation.
        mk(cfg.nodes, cfg.classes, cfg.hidden, 0.0),
        mk(cfg.nodes, cfg.classes, cfg.nodes, agg_sparsity),
    };
}

} // namespace workloads
} // namespace c2m
