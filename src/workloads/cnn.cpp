#include "workloads/cnn.hpp"

namespace c2m {
namespace workloads {

namespace {

CnnLayer
conv(const std::string &name, size_t spatial, size_t cin, size_t cout,
     size_t kernel)
{
    return {name, spatial * spatial, cout, cin * kernel * kernel};
}

CnnLayer
fc(const std::string &name, size_t in, size_t out)
{
    return {name, 1, out, in};
}

} // namespace

std::vector<CnnLayer>
lenetLayers()
{
    return {
        conv("C1", 28, 1, 6, 5),
        conv("C3", 10, 6, 16, 5),
        conv("C5", 1, 16, 120, 5),
        fc("F6", 120, 84),
        fc("OUT", 84, 10),
    };
}

std::vector<CnnLayer>
vgg13Layers()
{
    return {
        conv("conv1_1", 224, 3, 64, 3),
        conv("conv1_2", 224, 64, 64, 3),
        conv("conv2_1", 112, 64, 128, 3),
        conv("conv2_2", 112, 128, 128, 3),
        conv("conv3_1", 56, 128, 256, 3),
        conv("conv3_2", 56, 256, 256, 3),
        conv("conv4_1", 28, 256, 512, 3),
        conv("conv4_2", 28, 512, 512, 3),
        conv("conv5_1", 14, 512, 512, 3),
        conv("conv5_2", 14, 512, 512, 3),
        fc("fc6", 25088, 4096),
        fc("fc7", 4096, 4096),
        fc("fc8", 4096, 1000),
    };
}

std::vector<CnnLayer>
vgg16Layers()
{
    return {
        conv("conv1_1", 224, 3, 64, 3),
        conv("conv1_2", 224, 64, 64, 3),
        conv("conv2_1", 112, 64, 128, 3),
        conv("conv2_2", 112, 128, 128, 3),
        conv("conv3_1", 56, 128, 256, 3),
        conv("conv3_2", 56, 256, 256, 3),
        conv("conv3_3", 56, 256, 256, 3),
        conv("conv4_1", 28, 256, 512, 3),
        conv("conv4_2", 28, 512, 512, 3),
        conv("conv4_3", 28, 512, 512, 3),
        conv("conv5_1", 14, 512, 512, 3),
        conv("conv5_2", 14, 512, 512, 3),
        conv("conv5_3", 14, 512, 512, 3),
        fc("fc6", 25088, 4096),
        fc("fc7", 4096, 4096),
        fc("fc8", 4096, 1000),
    };
}

core::TensorWorkload
layerWorkload(const CnnLayer &layer, double sparsity)
{
    core::TensorWorkload w;
    w.M = layer.M;
    w.N = layer.N;
    w.K = layer.K;
    w.xBits = 8;
    w.sparsity = sparsity;
    w.ternary = true;
    return w;
}

} // namespace workloads
} // namespace c2m
