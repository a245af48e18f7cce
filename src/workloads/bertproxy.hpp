#ifndef C2M_WORKLOADS_BERTPROXY_HPP
#define C2M_WORKLOADS_BERTPROXY_HPP

/**
 * @file
 * BERT proxy workload (Sec. 7.1, Fig. 3b, Fig. 17b, Fig. 18/19).
 *
 * Substitution (README.md, "Substitutions"): a multi-layer
 * ternary-weight classifier on synthetic int8 embeddings stands in
 * for BERT/MNLI. It preserves what Fig. 17b actually measures --
 * depth-amplified degradation of classification accuracy when the
 * MAC substrate is faulty -- with a clean accuracy calibrated to ~84%
 * on a 3-class (MNLI-like) task.
 * Fig. 3b's embedding distribution and Fig. 18's attention GEMM
 * shapes are also provided here.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "core/perf.hpp"

namespace c2m {
namespace workloads {

struct BertProxyConfig
{
    unsigned features = 48;
    unsigned layers = 4;     ///< stacked ternary GEMV layers
    unsigned classes = 3;    ///< MNLI-like
    size_t samples = 96;
    double cleanAccuracy = 0.84;
    double weightDensity = 0.5; ///< fraction of nonzero ternary weights
    uint64_t seed = 77;
};

class BertProxy
{
  public:
    explicit BertProxy(const BertProxyConfig &cfg);

    const BertProxyConfig &config() const { return cfg_; }

    /** Ternary weights of layer l (rows = inputs, cols = outputs). */
    const std::vector<std::vector<int8_t>> &weights(unsigned l) const
    {
        return weights_[l];
    }
    unsigned numLayers() const
    {
        return static_cast<unsigned>(weights_.size());
    }

    const std::vector<std::vector<int64_t>> &embeddings() const
    {
        return inputs_;
    }

    /** Fig. 3b: distribution of the 8-bit input embeddings. */
    Histogram embeddingHistogram() const;

    /**
     * A GEMV executor: given the layer input x and ternary weights W
     * (K rows of N), return y = x.W -- possibly computed by a faulty
     * CIM engine.
     */
    using GemvFn = std::function<std::vector<int64_t>(
        const std::vector<int64_t> &,
        const std::vector<std::vector<int8_t>> &)>;

    /**
     * Classification accuracy when every layer's GEMV runs through
     * @p gemv. Layers apply ReLU and an int8 requantization between
     * GEMVs; the last layer's argmax is the prediction.
     */
    double accuracy(const GemvFn &gemv) const;

    /** Accuracy with exact arithmetic (the SW line of Fig. 17b). */
    double cleanAccuracy() const;

    /** Forward one sample exactly (testing helper). */
    std::vector<int64_t> forwardClean(size_t sample) const;

    /** Fig. 18: the GEMM shapes of one BERT-base attention layer. */
    static std::vector<core::TensorWorkload> attentionWorkloads();

    /** Fig. 19: accumulation capacity needed by BERT layers. */
    static uint64_t projectionCapacity() { return 64; }
    static uint64_t attentionCapacity() { return 792; }

  private:
    std::vector<int64_t> forward(size_t sample,
                                 const GemvFn &gemv) const;

    BertProxyConfig cfg_;
    std::vector<std::vector<std::vector<int8_t>>> weights_;
    std::vector<std::vector<int64_t>> inputs_;
    std::vector<unsigned> labels_;
};

} // namespace workloads
} // namespace c2m

#endif // C2M_WORKLOADS_BERTPROXY_HPP
