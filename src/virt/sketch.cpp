#include "virt/sketch.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace c2m {
namespace virt {

// ---------------------------------------------------------------- Morris

namespace {

/** Growth parameter a of every Morris cell. */
constexpr double kMorrisA = 1.0 / 16.0;

} // namespace

double
morrisSigma(double n)
{
    if (n <= 1.0)
        return 0.0;
    return std::sqrt(kMorrisA * n * (n - 1.0) / 2.0);
}

// ------------------------------------------------------------- count-min

CountMinSketch::CountMinSketch(const SketchConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    if (cfg.width < 2)
        C2M_FATAL("SketchConfig::width must be >= 2, got ", cfg.width);
    if (cfg.depth < 1)
        C2M_FATAL("SketchConfig::depth must be >= 1, got ", cfg.depth);
    if (cfg.width > SIZE_MAX / cfg.depth)
        C2M_FATAL("SketchConfig::width x depth overflows size_t: ",
                  cfg.width, " x ", cfg.depth);
    uint64_t sm = cfg.seed ^ 0xc0de57a7ULL;
    rowSeeds_.resize(cfg.depth);
    for (auto &s : rowSeeds_)
        s = splitMix64(sm);
    const size_t cells = cfg.width * cfg.depth;
    if (cfg.cells == SketchCells::Exact) {
        exact_.assign(cells, 0);
    } else {
        morris_.assign(cells, 0);
        // Precompute per-exponent estimate and increment probability
        // so the update loop never calls pow().
        morrisEst_.resize(size_t{UINT8_MAX} + 1);
        morrisIncP_.resize(size_t{UINT8_MAX} + 1);
        for (size_t c = 0; c <= UINT8_MAX; ++c) {
            const double p = std::pow(1.0 + kMorrisA, double(c));
            morrisEst_[c] = static_cast<uint64_t>(
                std::llround((p - 1.0) / kMorrisA));
            morrisIncP_[c] = 1.0 / p;
        }
    }
}

size_t
CountMinSketch::cellIndex(unsigned row, uint64_t key) const
{
    uint64_t h = key ^ rowSeeds_[row];
    return size_t{row} * cfg_.width +
           static_cast<size_t>(splitMix64(h) % cfg_.width);
}

uint64_t
CountMinSketch::update(uint64_t key, uint64_t delta)
{
    C2M_ASSERT(delta > 0, "sketch updates must be positive");
    totalAdded_ += delta;
    uint64_t est = UINT64_MAX;
    for (unsigned r = 0; r < cfg_.depth; ++r) {
        const size_t i = cellIndex(r, key);
        if (cfg_.cells == SketchCells::Exact) {
            exact_[i] += delta;
            est = std::min(est, exact_[i]);
        } else {
            uint8_t &c = morris_[i];
            for (uint64_t u = 0; u < delta && c < UINT8_MAX; ++u)
                if (rng_.nextDouble() < morrisIncP_[c])
                    ++c;
            est = std::min(est, morrisEst_[c]);
        }
    }
    return est;
}

uint64_t
CountMinSketch::estimate(uint64_t key) const
{
    uint64_t est = UINT64_MAX;
    for (unsigned r = 0; r < cfg_.depth; ++r) {
        const size_t i = cellIndex(r, key);
        est = std::min(est, cfg_.cells == SketchCells::Exact
                                ? exact_[i]
                                : morrisEst_[morris_[i]]);
    }
    return est;
}

double
CountMinSketch::collisionBound() const
{
    return M_E / static_cast<double>(cfg_.width) *
           static_cast<double>(totalAdded_);
}

double
CountMinSketch::pointErrorBound(uint64_t estimate) const
{
    double bound = collisionBound();
    if (cfg_.cells == SketchCells::Morris)
        bound += 3.0 * morrisSigma(static_cast<double>(estimate) + bound);
    return bound;
}

// ---------------------------------------------------------------- linear

LinearCounter::LinearCounter(size_t bits, uint64_t seed)
    : seed_(seed), bits_(bits), words_((bits + 63) / 64, 0)
{
    C2M_ASSERT(bits >= 64, "linear counter needs >= 64 bits");
}

void
LinearCounter::mark(uint64_t key)
{
    uint64_t h = key ^ seed_;
    const size_t bit = static_cast<size_t>(splitMix64(h) % bits_);
    uint64_t &w = words_[bit / 64];
    const uint64_t m = uint64_t{1} << (bit % 64);
    if (!(w & m)) {
        w |= m;
        ++marked_;
    }
}

uint64_t
LinearCounter::estimate() const
{
    if (marked_ == bits_) // saturated: report the map's ceiling
        return static_cast<uint64_t>(
            std::llround(double(bits_) * std::log(double(bits_))));
    const double v =
        double(bits_ - marked_) / static_cast<double>(bits_);
    return static_cast<uint64_t>(
        std::llround(-double(bits_) * std::log(v)));
}

} // namespace virt
} // namespace c2m
