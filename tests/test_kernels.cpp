/**
 * @file
 * Kernel tests (Sec. 5.2): integer-binary and integer-ternary
 * GEMV/GEMM and the SIMDRAM baseline kernels on the RCA backend --
 * all verified against plain references.
 */

#include <gtest/gtest.h>

#include "core/kernels.hpp"
#include "workloads/sparsity.hpp"

using namespace c2m;
using namespace c2m::core;

namespace {

EngineConfig
kernelConfig(size_t n, unsigned mask_rows, unsigned groups = 1)
{
    EngineConfig cfg;
    cfg.radix = 4;
    cfg.capacityBits = 24;
    cfg.numCounters = n;
    cfg.maxMaskRows = mask_rows;
    cfg.numGroups = groups;
    return cfg;
}

/** The SIMDRAM baseline: one W-bit RCA accumulator per counter. */
EngineConfig
simdramConfig(size_t n, unsigned mask_rows, unsigned acc_bits)
{
    EngineConfig cfg;
    cfg.backend = BackendKind::Rca;
    cfg.radix = 2;
    cfg.capacityBits = acc_bits - 2; // W = capacityBits + 2
    cfg.numCounters = n;
    cfg.maxMaskRows = mask_rows;
    return cfg;
}

} // namespace

TEST(Kernels, GemvIntBinaryMatchesReference)
{
    const size_t K = 12, N = 24;
    const auto Z = workloads::randomBinaryMatrix(K, N, 0.4, 3);
    const auto x = workloads::sparseUnsignedVector(K, 8, 0.1, 4);

    C2MEngine eng(kernelConfig(N, K));
    EXPECT_EQ(gemvIntBinary(eng, x, Z), refGemvBinary(x, Z));
}

TEST(Kernels, GemvIntBinaryAllOnesMask)
{
    const size_t K = 5, N = 8;
    std::vector<std::vector<uint8_t>> Z(K,
                                        std::vector<uint8_t>(N, 1));
    const std::vector<uint64_t> x = {1, 2, 3, 4, 5};
    C2MEngine eng(kernelConfig(N, K));
    const auto y = gemvIntBinary(eng, x, Z);
    for (auto v : y)
        EXPECT_EQ(v, 15);
}

TEST(Kernels, GemvIntTernaryMatchesReference)
{
    const size_t K = 10, N = 20;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.6, 5);
    const auto x = workloads::sparseSignedVector(K, 6, 0.2, 6);

    C2MEngine eng(kernelConfig(N, 2 * K, 2));
    EXPECT_EQ(gemvIntTernary(eng, x, Z), refGemvTernary(x, Z));
}

TEST(Kernels, GemvTernaryNegativeInputsSwapRails)
{
    const std::vector<std::vector<int8_t>> Z = {{1, -1, 0}};
    const std::vector<int64_t> x = {-7};
    C2MEngine eng(kernelConfig(3, 2, 2));
    const auto y = gemvIntTernary(eng, x, Z);
    EXPECT_EQ(y, (std::vector<int64_t>{-7, 7, 0}));
}

TEST(Kernels, GemmIntTernaryMatchesReference)
{
    const size_t M = 4, K = 8, N = 12;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.5, 7);
    std::vector<std::vector<int64_t>> X;
    for (size_t r = 0; r < M; ++r)
        X.push_back(workloads::sparseSignedVector(K, 5, 0.2, 80 + r));

    C2MEngine eng(kernelConfig(N, 2 * K, 2));
    EXPECT_EQ(gemmIntTernary(eng, X, Z), refGemmTernary(X, Z));
}

TEST(Kernels, GemmReusesMasksAcrossRows)
{
    const size_t M = 3, K = 4, N = 6;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.7, 9);
    std::vector<std::vector<int64_t>> X(
        M, std::vector<int64_t>(K, 1));
    C2MEngine eng(kernelConfig(N, 2 * K, 2));
    const auto Y = gemmIntTernary(eng, X, Z);
    // All rows of X identical => identical output rows.
    EXPECT_EQ(Y[0], Y[1]);
    EXPECT_EQ(Y[1], Y[2]);
    // Mask rows were added once (2K), not per output row.
    EXPECT_EQ(eng.numMasks(), 2 * K);
}

TEST(SimdramKernels, GemvTernaryMatchesReference)
{
    const size_t K = 8, N = 16;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.6, 13);
    const auto x = workloads::sparseSignedVector(K, 6, 0.1, 14);

    C2MEngine eng(simdramConfig(N, 2 * K, 24));
    EXPECT_EQ(simdramGemvTernary(eng, x, Z), refGemvTernary(x, Z));
}

TEST(SimdramKernels, CannotSkipZeros)
{
    const size_t K = 6, N = 4;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.5, 15);
    const std::vector<int64_t> zeros(K, 0);

    C2MEngine eng(simdramConfig(N, 2 * K, 16));
    const auto before = eng.subarray().stats().commands();
    const auto y = simdramGemvTernary(eng, zeros, Z);
    // All-zero input still costs the full 2K ripples.
    EXPECT_GT(eng.subarray().stats().commands() - before,
              2 * K * 16 * 10);
    for (auto v : y)
        EXPECT_EQ(v, 0);
}

TEST(SimdramEngineTest, SignedAccumulateTwoComplement)
{
    C2MEngine eng(simdramConfig(8, 2, 16));
    const unsigned h = eng.addMask(std::vector<uint8_t>(8, 1));
    eng.accumulateSigned(5, h);
    eng.accumulateSigned(-12, h);
    for (auto v : eng.readCounters())
        EXPECT_EQ(v, -7);
}

TEST(Kernels, C2mCheaperThanSimdramOnSameWork)
{
    // The headline claim at kernel granularity: accumulating small
    // values into wide counters costs C2M far fewer commands.
    const size_t K = 8, N = 16;
    const auto Z = workloads::randomTernaryMatrix(K, N, 0.6, 17);
    const auto x = workloads::sparseSignedVector(K, 4, 0.0, 18);

    EngineConfig ccfg = kernelConfig(N, 2 * K, 2);
    ccfg.capacityBits = 32;
    C2MEngine c2m_eng(ccfg);
    gemvIntTernary(c2m_eng, x, Z);
    const auto c2m_cmds = c2m_eng.subarray().stats().commands();

    C2MEngine sd_eng(simdramConfig(N, 2 * K, 32));
    simdramGemvTernary(sd_eng, x, Z);
    const auto sd_cmds = sd_eng.subarray().stats().commands();

    EXPECT_LT(c2m_cmds, sd_cmds);
}
