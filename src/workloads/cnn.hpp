#ifndef C2M_WORKLOADS_CNN_HPP
#define C2M_WORKLOADS_CNN_HPP

/**
 * @file
 * Ternary-weight CNN layer shapes (Sec. 7.1): LeNet-5, VGG-13 and
 * VGG-16 convolutions lowered to GEMM via im2col (M = output
 * positions, K = Cin * kh * kw, N = Cout) plus the fully connected
 * layers. These drive the Fig. 18 op-count model.
 */

#include <string>
#include <vector>

#include "core/perf.hpp"

namespace c2m {
namespace workloads {

struct CnnLayer
{
    std::string name;
    size_t M; ///< output spatial positions (1 for FC)
    size_t N; ///< output channels / units
    size_t K; ///< input channels * kernel area
};

std::vector<CnnLayer> lenetLayers();
std::vector<CnnLayer> vgg13Layers();
std::vector<CnnLayer> vgg16Layers();

/** Convert a layer into a ternary tensor workload (8-bit inputs). */
core::TensorWorkload layerWorkload(const CnnLayer &layer,
                                   double sparsity = 0.0);

} // namespace workloads
} // namespace c2m

#endif // C2M_WORKLOADS_CNN_HPP
