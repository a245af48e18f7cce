#ifndef C2M_WORKLOADS_GCN_HPP
#define C2M_WORKLOADS_GCN_HPP

/**
 * @file
 * Graph convolutional network workload (Sec. 7.1): node
 * classification on a PubMed-statistics graph (19717 nodes, average
 * degree ~4.5, 500 features, 16 hidden units, 3 classes). The layer
 * H' = A (H W) decomposes into a feature GEMM and a highly sparse
 * aggregation SpMM whose adjacency rows are exactly Count2Multiply's
 * binary masks.
 */

#include <cstdint>
#include <vector>

#include "core/perf.hpp"

namespace c2m {
namespace workloads {

struct GcnConfig
{
    size_t nodes = 19717;
    double avgDegree = 4.5;
    size_t features = 500;
    size_t hidden = 16;
    size_t classes = 3;
};

/**
 * The four GEMM/SpMM stages of a 2-layer GCN as tensor workloads.
 * Aggregation stages carry the graph's sparsity (1 - degree/nodes).
 */
std::vector<core::TensorWorkload> gcnWorkloads(
    const GcnConfig &cfg = GcnConfig{});

} // namespace workloads
} // namespace c2m

#endif // C2M_WORKLOADS_GCN_HPP
