#ifndef C2M_RELIABILITY_HEALTH_HPP
#define C2M_RELIABILITY_HEALTH_HPP

/**
 * @file
 * Live fault-rate estimation from scrub outcomes.
 *
 * The HealthMonitor turns scrub outcomes into an online estimate of
 * the per-bit multi-row-activation fault rate: every sweep reports
 * how many persisted flips it found and how many triple activations
 * (x row width = fault-injection trials) the fabric executed since
 * the previous sweep. The ratio, EWMA-smoothed, is a blind estimate
 * of the substrate's live error rate — no ground truth from the
 * simulator's FaultModel is consulted (the fault campaign compares
 * the two). Persisted flips undercount total flips by a structural
 * factor (faults landing in transient scratch rows are overwritten
 * before any sweep can see them), so the estimate is a lower bound
 * of the same order as the injected rate. The monitor also tracks
 * persisted flips per 64-column SEC-DED word per sweep (a sweep
 * covers exactly the work since that shard's previous sweep). It
 * only reports: the FR-check count is fixed by the engine
 * configuration.
 */

#include <cstdint>

#include "common/stats.hpp"

namespace c2m {
namespace reliability {

/** One scrub sweep's evidence, reported by the Scrubber. */
struct ScrubObservation
{
    uint64_t faultyBits = 0;  ///< persisted flips found (all causes)
    uint64_t traDelta = 0;    ///< triple activations since last sweep
    uint64_t rowBits = 0;     ///< fabric row width (fault trials/TRA)
    uint64_t wordsSwept = 0;  ///< 64-column ECC words examined
};

class HealthMonitor
{
  public:
    void observe(const ScrubObservation &o);

    uint64_t samples() const { return samples_; }

    /** EWMA per-bit per-TRA fault-rate estimate (0 until evidence). */
    double estimatedFaultRate() const { return pEwma_; }

    /** Named "health.*" gauges (rates scaled to parts-per-1e12). */
    CounterMap toCounters() const;

  private:
    uint64_t samples_ = 0;
    double pEwma_ = 0.0;
    double fEwma_ = 0.0; ///< persisted flips per ECC word per sweep
};

} // namespace reliability
} // namespace c2m

#endif // C2M_RELIABILITY_HEALTH_HPP
