#ifndef C2M_WORKLOADS_DNA_HPP
#define C2M_WORKLOADS_DNA_HPP

/**
 * @file
 * DNA pre-alignment filtering workload (Sec. 7.1, GRIM-Filter
 * style).
 *
 * A reference genome is split into bins; each bin stores a bitvector
 * of the k-mers it contains. Filtering a read counts, per bin, the
 * read's k-mer tokens present in the bin (token repetitions counted
 * as integers -- the Fig. 3a distribution); bins whose count clears a
 * threshold are candidate mapping locations. Ground truth is the
 * read's true origin, giving the F1 scores of Fig. 4b / Fig. 17a.
 *
 * Substitution (README.md, "Substitutions"): synthetic uniform ACGT
 * genome and reads with substitution errors in place of a human
 * genome; preserves the token-repetition statistics and fault
 * sensitivity being studied.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace c2m {
namespace workloads {

struct DnaConfig
{
    size_t genomeLen = 65536;
    size_t binSize = 512;     ///< genome bins (counter columns)
    unsigned kmer = 6;        ///< token length (4^k tokens)
    size_t readLen = 100;
    size_t numReads = 64;
    double mutationRate = 0.03;
    double thresholdFrac = 0.40; ///< accept if count >= frac * tokens
    uint64_t seed = 1234;
};

class DnaWorkload
{
  public:
    explicit DnaWorkload(const DnaConfig &cfg);

    const DnaConfig &config() const { return cfg_; }
    size_t numBins() const { return masks_.size() ? masks_[0].size() : 0; }
    size_t numTokens() const { return masks_.size(); }

    struct Read
    {
        std::string seq;
        size_t origin; ///< true genome offset
    };

    const std::vector<Read> &reads() const { return reads_; }

    /** Presence mask of token @p t across bins (the Z rows). */
    const std::vector<uint8_t> &tokenMask(unsigned t) const
    {
        return masks_[t];
    }

    /** (token, repetition count) pairs of a read (the inputs X). */
    std::vector<std::pair<unsigned, unsigned>> readTokens(
        const Read &read) const;

    /** Fig. 3a: token repetition histogram over all reads. */
    Histogram repetitionHistogram() const;

    /** Exact (fault-free) per-bin scores of a read. */
    std::vector<int64_t> refScores(const Read &read) const;

    /** True iff the read's origin lies in bin @p bin. */
    bool truth(const Read &read, size_t bin) const;

    /** Accept threshold in absolute count for a read. */
    int64_t threshold(const Read &read) const;

    /**
     * Score the filter: per read, bins with score >= threshold are
     * predicted positives; ground truth marks the origin bin.
     */
    BinaryScore evaluate(
        const std::vector<std::vector<int64_t>> &scores) const;

  private:
    unsigned tokenAt(const std::string &s, size_t pos) const;

    DnaConfig cfg_;
    std::string genome_;
    std::vector<Read> reads_;
    std::vector<std::vector<uint8_t>> masks_; ///< [token][bin]
};

} // namespace workloads
} // namespace c2m

#endif // C2M_WORKLOADS_DNA_HPP
