#ifndef C2M_VIRT_SKETCH_HPP
#define C2M_VIRT_SKETCH_HPP

/**
 * @file
 * Approximate tier of the counter virtualization layer: a count-min
 * front sketch whose cells are either exact 64-bit integers or
 * Morris-style probabilistic counters, plus a linear probabilistic
 * counter for distinct-key estimation.
 *
 * Error bounds (the "paper-grade" contracts the tests pin, following
 * "Optimal Bounds for Approximate Counting" and "On the amortized
 * complexity of approximate counting", PAPERS.md):
 *
 *  - Count-min with exact cells, width w, depth d, non-negative
 *    updates totalling N: a point query never underestimates, and
 *    overestimates by more than (e/w)*N with probability at most
 *    e^-d. pointErrorBound() returns that (e/w)*N term.
 *
 *  - A Morris cell with growth base (1+a), a fixed at 1/16,
 *    increments its exponent c with probability (1+a)^-c and
 *    estimates n_hat = ((1+a)^c - 1)/a. The estimate is unbiased
 *    (E[n_hat] = n) with Var[n_hat] = a*n*(n-1)/2, so the 3-sigma
 *    deviation is 3*sqrt(a*n*(n-1)/2) — morrisSigma() gives the
 *    1-sigma value. Cells store one byte instead of eight.
 *
 *  - Count-min over Morris cells inherits both terms:
 *    pointErrorBound() adds the 3-sigma Morris noise of the
 *    (collision-inflated) cell value to the collision bound.
 *
 * The sketch admits every key immediately; VirtualCounterSpace
 * promotes keys whose estimate crosses the promotion threshold into
 * exact in-fabric counter groups, carrying the estimate as the seed.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace c2m {
namespace virt {

enum class SketchCells : uint8_t
{
    Exact,  ///< 64-bit cells: count-min bound only
    Morris, ///< 8-bit Morris exponents: + probabilistic noise
};

/** 1-sigma deviation of a Morris cell's estimate of true count @p n. */
double morrisSigma(double n);

struct SketchConfig
{
    size_t width = 1 << 14; ///< cells per row (power of two advised)
    unsigned depth = 4;     ///< independent rows (failure prob e^-d)
    SketchCells cells = SketchCells::Exact;
    uint64_t seed = 0x5eed5eedULL;
};

class CountMinSketch
{
  public:
    /**
     * @throws std::invalid_argument on a width below 2, a depth of 0,
     *         or a width x depth that overflows size_t.
     */
    explicit CountMinSketch(const SketchConfig &cfg = {});

    const SketchConfig &config() const { return cfg_; }

    /** Absorb @p delta (> 0) for @p key; returns the new estimate. */
    uint64_t update(uint64_t key, uint64_t delta);

    /** Point query: min over rows, never underestimates (Exact). */
    uint64_t estimate(uint64_t key) const;

    /** Total magnitude absorbed (the N of the (e/w)*N bound). */
    uint64_t totalAdded() const { return totalAdded_; }

    /**
     * Analytic 3-sigma point-query error bound at the current fill:
     * (e/width)*N, plus the 3-sigma Morris term at @p estimate for
     * Morris cells.
     */
    double pointErrorBound(uint64_t estimate) const;

    /** Collision term alone: (e/width)*totalAdded(). */
    double collisionBound() const;

  private:
    size_t cellIndex(unsigned row, uint64_t key) const;

    SketchConfig cfg_;
    std::vector<uint64_t> rowSeeds_;
    std::vector<uint64_t> exact_;   ///< depth*width (Exact cells)
    std::vector<uint8_t> morris_;   ///< depth*width (Morris cells)
    std::vector<uint64_t> morrisEst_; ///< estimate per exponent
    std::vector<double> morrisIncP_;  ///< (1+a)^-c per exponent
    Rng rng_;
    uint64_t totalAdded_ = 0;
};

/**
 * Linear probabilistic distinct-key counter (Whang et al.): an
 * m-bit map marks h(key) mod m; the estimate is -m*ln(V) with V the
 * empty fraction. Used for the virt.sketch_keys gauge — the sketch
 * itself keeps no per-key state, so "how many distinct keys has the
 * approximate tier absorbed" is itself an approximate counter.
 */
class LinearCounter
{
  public:
    explicit LinearCounter(size_t bits = 1 << 20,
                           uint64_t seed = 0x5eed5eedULL);

    void mark(uint64_t key);
    uint64_t estimate() const;
    size_t bits() const { return bits_; }

  private:
    uint64_t seed_;
    size_t bits_;
    size_t marked_ = 0; ///< set bits (tracked, not recounted)
    std::vector<uint64_t> words_;
};

} // namespace virt
} // namespace c2m

#endif // C2M_VIRT_SKETCH_HPP
