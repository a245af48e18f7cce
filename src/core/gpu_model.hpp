#ifndef C2M_CORE_GPU_MODEL_HPP
#define C2M_CORE_GPU_MODEL_HPP

/**
 * @file
 * Analytical RTX 3090 Ti baseline (Sec. 7.1).
 *
 * Substitution for the paper's measured GPU numbers (README.md,
 * "Substitutions"): a two-regime roofline. GEMV is memory-bandwidth
 * bound (the K x N weight matrix is streamed once), GEMM is
 * tensor-core bound; host-device transfer over PCIe 4.0 is modeled
 * separately and included where the paper includes it (Fig. 16).
 * Dense GPU kernels gain nothing from input sparsity, which is the
 * behaviour the sparsity sweep compares against.
 */

#include <cstddef>

namespace c2m {
namespace core {

struct GpuModel
{
    double memBwGBs = 1008.0;     ///< GDDR6X bandwidth
    double pcieGBs = 25.0;        ///< PCIe 4.0 x16 effective
    double tensorTops = 330.0;    ///< effective INT8 tensor throughput
    double tensorEfficiency = 0.72; ///< achieved fraction on GEMM
    double gemvPowerW = 280.0;
    double gemmPowerW = 420.0;
    double areaMm2 = 628.0;       ///< GA102 die

    struct Result
    {
        double kernelMs = 0.0;
        double transferMs = 0.0;
        double totalMs = 0.0;
        double gops = 0.0;          ///< kernel-only throughput
        double gopsWithTransfer = 0.0;
        double gopsPerWatt = 0.0;
        double gopsPerMm2 = 0.0;
    };

    /**
     * y = x . Z with an M x K input and K x N weights (1 B/element).
     * Dense execution: sparsity does not help the GPU.
     */
    Result run(size_t M, size_t N, size_t K) const;

    /** A counting run on the GPU, on the fabric-cost axis. */
    struct CountingCost
    {
        double ns = 0.0; ///< modeled kernel time
        double nj = 0.0; ///< modeled kernel energy
    };

    /**
     * Histogram-style counting of @p num_ops point updates into
     * @p num_counters bins (Fig. 14 comparison axis). Atomic
     * scatter-adds are memory-bandwidth bound: each op streams its
     * (index, value) pair and read-modify-writes one counter word,
     * so the model charges 16 B of DRAM traffic per op at GEMV
     * power (1 W = 1 nJ/ns). Comparable with EngineStats
     * fabric_ns/fabric_nj, see docs/perf.md.
     */
    CountingCost countingRun(size_t num_ops,
                             size_t num_counters) const;

    static GpuModel rtx3090ti() { return GpuModel{}; }
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_GPU_MODEL_HPP
