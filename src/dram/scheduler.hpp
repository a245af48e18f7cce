#ifndef C2M_DRAM_SCHEDULER_HPP
#define C2M_DRAM_SCHEDULER_HPP

/**
 * @file
 * Scheduling model for AAP/AP command streams (Sec. 7.2.1).
 *
 * The memory controller broadcasts CIM command sequences to one or
 * more banks. Three constraints govern the achievable rate:
 *
 *  1. a bank is occupied for tAAP + tRRD per AAP (one AAP per
 *     tAAP + tRRD on a single bank);
 *  2. consecutive issues are separated by at least tRRD;
 *  3. any four consecutive issues span at least tFAW.
 *
 * With 4 banks the 5th issue is still bounded by tAAP + tRRD after the
 * 1st; with 16 banks the binding constraint becomes max(tRRD, tFAW/4),
 * exactly the behaviour the paper describes. An event-accurate
 * scheduler (issueOne) and a closed-form steady-state stream model
 * (streamTimeNs, on DramTimings::issueIntervalNs) are provided; tests
 * check they agree.
 */

#include <cstdint>
#include <vector>

#include "dram/timing.hpp"

namespace c2m {
namespace dram {

class AapScheduler
{
  public:
    AapScheduler(DramTimings timings, unsigned num_banks);

    /**
     * Issue one AAP to @p bank at the earliest legal time.
     * @return the issue time in ns.
     */
    double issueOne(unsigned bank);

    /** Issue @p count AAPs round-robin across all banks. */
    void issueRoundRobin(uint64_t count);

    /** Completion time of everything issued so far. */
    double finishNs() const;

    uint64_t issued() const { return issued_; }

    void reset();

    /**
     * Closed-form completion time of a uniform stream of @p count
     * AAPs round-robined over @p banks banks: one
     * DramTimings::issueIntervalNs(banks) per AAP after the first.
     */
    static double streamTimeNs(const DramTimings &t, uint64_t count,
                               unsigned banks);

  private:
    DramTimings timings_;
    std::vector<double> bankReady_;
    double lastIssue_;
    double faw_[4];       ///< issue times of the last four activations
    unsigned fawHead_ = 0;
    uint64_t issued_ = 0;
    double lastFinish_ = 0.0;
    unsigned rrNext_ = 0;
};

} // namespace dram
} // namespace c2m

#endif // C2M_DRAM_SCHEDULER_HPP
