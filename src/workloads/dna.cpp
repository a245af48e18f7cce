#include "workloads/dna.hpp"

#include <map>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/sharded.hpp"
#include "service/ingest.hpp"

namespace c2m {
namespace workloads {

namespace {

const char kBases[4] = {'A', 'C', 'G', 'T'};

unsigned
baseIndex(char c)
{
    switch (c) {
      case 'A':
        return 0;
      case 'C':
        return 1;
      case 'G':
        return 2;
      default:
        return 3;
    }
}

} // namespace

DnaWorkload::DnaWorkload(const DnaConfig &cfg) : cfg_(cfg)
{
    C2M_ASSERT(cfg.kmer >= 2 && cfg.kmer <= 8, "k-mer length 2..8");
    C2M_ASSERT(cfg.genomeLen % cfg.binSize == 0,
               "genome length must be a multiple of the bin size");
    Rng rng(cfg.seed);

    genome_.resize(cfg.genomeLen);
    for (auto &c : genome_)
        c = kBases[rng.nextBounded(4)];

    const size_t bins = cfg.genomeLen / cfg.binSize;
    const unsigned tokens = 1u << (2 * cfg.kmer);
    masks_.assign(tokens, std::vector<uint8_t>(bins, 0));
    for (size_t b = 0; b < bins; ++b) {
        const size_t start = b * cfg.binSize;
        for (size_t p = start;
             p + cfg.kmer <= start + cfg.binSize && p + cfg.kmer <=
                 genome_.size();
             ++p)
            masks_[tokenAt(genome_, p)][b] = 1;
    }

    reads_.reserve(cfg.numReads);
    for (size_t r = 0; r < cfg.numReads; ++r) {
        const size_t origin =
            rng.nextBounded(cfg.genomeLen - cfg.readLen);
        std::string seq = genome_.substr(origin, cfg.readLen);
        for (auto &c : seq)
            if (rng.nextBool(cfg.mutationRate))
                c = kBases[rng.nextBounded(4)];
        reads_.push_back(Read{std::move(seq), origin});
    }
}

unsigned
DnaWorkload::tokenAt(const std::string &s, size_t pos) const
{
    unsigned t = 0;
    for (unsigned i = 0; i < cfg_.kmer; ++i)
        t = (t << 2) | baseIndex(s[pos + i]);
    return t;
}

std::vector<std::pair<unsigned, unsigned>>
DnaWorkload::readTokens(const Read &read) const
{
    std::map<unsigned, unsigned> counts;
    for (size_t p = 0; p + cfg_.kmer <= read.seq.size(); ++p)
        ++counts[tokenAt(read.seq, p)];
    return {counts.begin(), counts.end()};
}

Histogram
DnaWorkload::repetitionHistogram() const
{
    Histogram h(0, 18);
    for (const auto &read : reads_)
        for (const auto &[token, count] : readTokens(read))
            h.add(count);
    return h;
}

Histogram
DnaWorkload::repetitionHistogram(core::ShardedEngine &engine) const
{
    const size_t n = engine.numCounters();
    std::vector<core::BatchOp> ops;
    for (const auto &read : reads_) {
        for (const auto &[token, count] : readTokens(read)) {
            (void)token;
            C2M_ASSERT(count < n, "repetition count ", count,
                       " needs more engine counters than ", n);
            ops.push_back({count, 1, 0});
        }
    }
    engine.accumulateBatch(ops);
    return core::countersToHistogram(engine, 0, 18);
}

Histogram
DnaWorkload::repetitionHistogram(service::IngestService &service,
                                 unsigned num_producers) const
{
    const size_t n = service.engine().numCounters();
    std::vector<core::BatchOp> ops;
    for (const auto &read : reads_) {
        for (const auto &[token, count] : readTokens(read)) {
            (void)token;
            C2M_ASSERT(count < n, "repetition count ", count,
                       " needs more engine counters than ", n);
            ops.push_back({count, 1, 0});
        }
    }
    service::submitConcurrent(service, ops, num_producers);
    const auto counters = service.readCounters();
    return core::countersToHistogram(counters, 0, 18);
}

Histogram
DnaWorkload::repetitionHistogram(core::BackendKind backend,
                                 unsigned num_shards) const
{
    core::EngineConfig cfg;
    cfg.backend = backend;
    cfg.radix = 4;
    cfg.capacityBits = 24;
    // Counters index repetition counts, bounded by the read length.
    cfg.numCounters = cfg_.readLen + 1;
    // Public mask rows only: ShardedEngine reserves its point and
    // plane rows ADDITIVELY on top of this, so 1 never starves
    // planned drains.
    cfg.maxMaskRows = 1;
    core::ShardedEngine engine(cfg, num_shards);
    return repetitionHistogram(engine);
}

std::vector<int64_t>
DnaWorkload::refScores(const Read &read) const
{
    std::vector<int64_t> scores(numBins(), 0);
    for (const auto &[token, count] : readTokens(read))
        for (size_t b = 0; b < scores.size(); ++b)
            if (masks_[token][b])
                scores[b] += count;
    return scores;
}

bool
DnaWorkload::truth(const Read &read, size_t bin) const
{
    // The bin holding the majority of the read (its midpoint); a
    // boundary-straddling read maps to the bin with most of its
    // k-mers, mirroring GRIM-Filter's per-bin ground truth.
    return (read.origin + cfg_.readLen / 2) / cfg_.binSize == bin;
}

int64_t
DnaWorkload::threshold(const Read &read) const
{
    const double tokens =
        static_cast<double>(read.seq.size() - cfg_.kmer + 1);
    return static_cast<int64_t>(cfg_.thresholdFrac * tokens);
}

BinaryScore
DnaWorkload::evaluate(
    const std::vector<std::vector<int64_t>> &scores) const
{
    C2M_ASSERT(scores.size() == reads_.size(),
               "need one score vector per read");
    BinaryScore bs;
    for (size_t r = 0; r < reads_.size(); ++r) {
        const int64_t thr = threshold(reads_[r]);
        C2M_ASSERT(scores[r].size() == numBins(),
                   "score vector width mismatch");
        for (size_t b = 0; b < scores[r].size(); ++b)
            bs.add(scores[r][b] >= thr, truth(reads_[r], b));
    }
    return bs;
}

} // namespace workloads
} // namespace c2m
