/**
 * @file
 * Workload tests: Tab.-3 shapes, DNA filtering pipeline (fault-free
 * F1 near 1, Fig. 3a distribution), BERT proxy calibration, CNN/GCN
 * shape tables, and sparsity generators.
 */

#include <gtest/gtest.h>

#include "core/kernels.hpp"
#include "workloads/bertproxy.hpp"
#include "workloads/cnn.hpp"
#include "workloads/dna.hpp"
#include "workloads/gcn.hpp"
#include "workloads/llama.hpp"
#include "workloads/sparsity.hpp"

using namespace c2m;
using namespace c2m::workloads;

TEST(Llama, Table3Shapes)
{
    const auto v = llamaGemvShapes();
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[0].id, "V0");
    EXPECT_EQ(v[0].N, 22016u);
    EXPECT_EQ(v[0].K, 8192u);
    EXPECT_EQ(v[0].M, 1u);
    const auto m = llamaGemmShapes();
    EXPECT_EQ(m[3].id, "M3");
    EXPECT_EQ(m[3].N, 28672u);
    EXPECT_EQ(m[3].M, 8192u);
    EXPECT_EQ(llamaAllShapes().size(), 10u);
}

TEST(Dna, DeterministicConstruction)
{
    DnaConfig cfg;
    cfg.genomeLen = 8192;
    cfg.binSize = 256;
    cfg.numReads = 8;
    DnaWorkload a(cfg), b(cfg);
    EXPECT_EQ(a.reads()[0].seq, b.reads()[0].seq);
    EXPECT_EQ(a.numBins(), 32u);
    EXPECT_EQ(a.numTokens(), 4096u); // 4^6 six-mers
}

TEST(Dna, FaultFreeFilterHasHighF1)
{
    DnaConfig cfg;
    cfg.genomeLen = 16384;
    cfg.binSize = 512;
    cfg.numReads = 32;
    DnaWorkload dna(cfg);

    std::vector<std::vector<int64_t>> scores;
    for (const auto &read : dna.reads())
        scores.push_back(dna.refScores(read));
    const auto bs = dna.evaluate(scores);
    EXPECT_GT(bs.f1(), 0.9);
    EXPECT_GT(bs.recall(), 0.95);
}

TEST(Dna, TokenCountsMatchReadLength)
{
    DnaConfig cfg;
    cfg.genomeLen = 4096;
    cfg.binSize = 256;
    cfg.numReads = 4;
    DnaWorkload dna(cfg);
    for (const auto &read : dna.reads()) {
        uint64_t total = 0;
        for (const auto &[tok, cnt] : dna.readTokens(read))
            total += cnt;
        EXPECT_EQ(total, read.seq.size() - cfg.kmer + 1);
    }
}

TEST(Dna, RepetitionHistogramIsSmallValued)
{
    // Fig. 3a: token repetitions concentrate at small values.
    DnaConfig cfg;
    cfg.genomeLen = 16384;
    cfg.binSize = 512;
    cfg.numReads = 32;
    DnaWorkload dna(cfg);
    const auto h = dna.repetitionHistogram();
    EXPECT_GT(h.total(), 0u);
    EXPECT_LT(h.valueMean(), 4.0);
    EXPECT_GT(h.binCount(1), h.binCount(5));
}

TEST(Dna, CimFilterMatchesReferenceFaultFree)
{
    DnaConfig cfg;
    cfg.genomeLen = 8192;
    cfg.binSize = 256; // 32 bins
    cfg.numReads = 4;
    DnaWorkload dna(cfg);

    core::EngineConfig ecfg;
    ecfg.radix = 10;
    ecfg.capacityBits = 8;
    ecfg.numCounters = dna.numBins();
    ecfg.maxMaskRows = static_cast<unsigned>(dna.numTokens());
    core::C2MEngine eng(ecfg);

    std::vector<unsigned> handles;
    for (unsigned t = 0; t < dna.numTokens(); ++t)
        handles.push_back(eng.addMask(dna.tokenMask(t)));

    for (const auto &read : dna.reads()) {
        eng.clear();
        for (const auto &[tok, cnt] : dna.readTokens(read))
            eng.accumulate(cnt, handles[tok]);
        EXPECT_EQ(eng.readCounters(), dna.refScores(read));
    }
}

TEST(BertProxy, CleanAccuracyNearTarget)
{
    BertProxyConfig cfg;
    BertProxy proxy(cfg);
    const double acc = proxy.cleanAccuracy();
    EXPECT_NEAR(acc, cfg.cleanAccuracy, 0.08);
}

TEST(BertProxy, EmbeddingsAreEightBitBellShaped)
{
    BertProxy proxy({});
    const auto h = proxy.embeddingHistogram();
    // Fig. 3b: centered near zero, bounded by int8.
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_NEAR(h.valueMean(), 0.0, 6.0);
    EXPECT_GT(h.binCount(0) + h.binCount(1) + h.binCount(-1),
              h.binCount(100) + h.binCount(-100));
}

TEST(BertProxy, RandomGemvDestroysAccuracy)
{
    BertProxyConfig cfg;
    cfg.samples = 48;
    BertProxy proxy(cfg);
    Rng rng(5);
    const double broken = proxy.accuracy(
        [&](const std::vector<int64_t> &x,
            const std::vector<std::vector<int8_t>> &W) {
            std::vector<int64_t> y(W[0].size());
            for (auto &v : y)
                v = rng.nextRange(-1000, 1000);
            (void)x;
            return y;
        });
    EXPECT_LT(broken, 0.6);
    EXPECT_GT(proxy.cleanAccuracy(), broken);
}

TEST(BertProxy, AttentionShapesAndCapacities)
{
    const auto shapes = BertProxy::attentionWorkloads();
    EXPECT_EQ(shapes.size(), 6u);
    EXPECT_EQ(shapes[0].K, 768u);
    EXPECT_EQ(BertProxy::projectionCapacity(), 64u);
    EXPECT_EQ(BertProxy::attentionCapacity(), 792u);
}

TEST(Cnn, LayerTables)
{
    EXPECT_EQ(lenetLayers().size(), 5u);
    EXPECT_EQ(vgg13Layers().size(), 13u);
    EXPECT_EQ(vgg16Layers().size(), 16u);
    // VGG-16 is ~15.5 GFLOP per image (conv+fc, multiply-accumulate
    // counted as 2 ops => ~30.9 G ops).
    double ops = 0.0;
    for (const CnnLayer &l : vgg16Layers())
        ops += 2.0 * static_cast<double>(l.M) *
               static_cast<double>(l.N) * static_cast<double>(l.K);
    EXPECT_NEAR(ops / 1e9, 30.9, 1.5);
}

TEST(Cnn, LayerWorkloadConversion)
{
    const auto layers = lenetLayers();
    const auto w = layerWorkload(layers[0], 0.25);
    EXPECT_EQ(w.M, 784u);
    EXPECT_EQ(w.N, 6u);
    EXPECT_EQ(w.K, 25u);
    EXPECT_DOUBLE_EQ(w.sparsity, 0.25);
    EXPECT_TRUE(w.ternary);
}

TEST(Gcn, PubMedWorkloads)
{
    const auto ws = gcnWorkloads();
    ASSERT_EQ(ws.size(), 4u);
    EXPECT_EQ(ws[0].M, 19717u);
    EXPECT_EQ(ws[0].K, 500u);
    // Aggregation stages carry the graph's extreme sparsity.
    EXPECT_GT(ws[1].sparsity, 0.999);
}

TEST(Sparsity, VectorsHonorSparsity)
{
    const auto v = sparseSignedVector(10000, 8, 0.75, 5);
    size_t zeros = 0;
    for (auto x : v) {
        if (x == 0)
            ++zeros;
        EXPECT_GE(x, -128);
        EXPECT_LE(x, 127);
    }
    EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.75, 0.03);
}

TEST(Sparsity, TernaryMatrixDensity)
{
    const auto m = randomTernaryMatrix(100, 100, 0.3, 6);
    size_t nonzero = 0;
    for (const auto &row : m)
        for (auto v : row)
            if (v != 0)
                ++nonzero;
    EXPECT_NEAR(static_cast<double>(nonzero) / 10000.0, 0.3, 0.03);
}

TEST(Sparsity, UnsignedVectorNonzeroRange)
{
    const auto v = sparseUnsignedVector(1000, 4, 0.0, 7);
    for (auto x : v) {
        EXPECT_GE(x, 1u);
        EXPECT_LT(x, 16u);
    }
}
