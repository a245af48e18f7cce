#include "reliability/health.hpp"

#include <algorithm>

namespace c2m {
namespace reliability {

namespace {

/** EWMA weight of the latest sweep's sample. */
constexpr double kEwmaAlpha = 0.25;

} // namespace

void
HealthMonitor::observe(const ScrubObservation &o)
{
    const uint64_t trials = o.traDelta * o.rowBits;
    if (trials == 0 && o.faultyBits == 0)
        return; // idle sweep: no evidence either way
    const double p =
        trials ? static_cast<double>(o.faultyBits) /
                     static_cast<double>(trials)
               : 0.0;
    const double f =
        o.wordsSwept ? static_cast<double>(o.faultyBits) /
                           static_cast<double>(o.wordsSwept)
                     : 0.0;
    if (samples_ == 0) {
        pEwma_ = p;
        fEwma_ = f;
    } else {
        pEwma_ += kEwmaAlpha * (p - pEwma_);
        fEwma_ += kEwmaAlpha * (f - fEwma_);
    }
    ++samples_;
}

CounterMap
HealthMonitor::toCounters() const
{
    const auto ppt = [](double rate) {
        return static_cast<uint64_t>(
            std::min(rate, 1.0) * 1e12);
    };
    return {
        {"health.samples", samples_},
        {"health.fault_rate_ppt", ppt(pEwma_)},
        {"health.flips_per_word_ppt", ppt(fEwma_)},
    };
}

} // namespace reliability
} // namespace c2m
