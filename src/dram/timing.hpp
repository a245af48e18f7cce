#ifndef C2M_DRAM_TIMING_HPP
#define C2M_DRAM_TIMING_HPP

/**
 * @file
 * DRAM timing parameters (Sec. 2.1, Sec. 7.2.1).
 *
 * CIM command sequences are built from AAP (activate-activate-
 * precharge) and AP commands whose latency is governed by:
 *
 *  - tAAP = tRAS + tRP: a bank is busy for this long per AAP;
 *  - tRRD: minimum spacing between row activations to different banks;
 *  - tFAW: any four consecutive activations span at least this window.
 *
 * The paper's DDR5_4400 setup uses a conservative tFAW of 14.5 ns, so
 * a 16-bank configuration sustains one AAP roughly every
 * max(tRRD, tFAW/4) while one bank sustains one every tAAP + tRRD.
 */

#include <cstdint>
#include <string>

namespace c2m {
namespace dram {

struct DramTimings
{
    double tCkNs = 0.4545;   ///< DDR5-4400 clock (2200 MHz)
    double tRasNs = 32.0;
    double tRpNs = 14.5;
    double tRcdNs = 14.5;
    double tRrdNs = 3.636;   ///< tRRD_L = 8 tCK
    double tFawNs = 14.5;    ///< paper's conservative value
    double tBurstNs = 3.636; ///< BL16 burst (64 B rank transfer)

    /** Latency of one AAP occupying its bank. */
    double tAapNs() const { return tRasNs + tRpNs; }

    /** Single-bank AAP issue period (Sec. 7.2.1). */
    double bankPeriodNs() const { return tAapNs() + tRrdNs; }

    /**
     * Steady-state AAP issue interval with @p banks banks active:
     * round-robin hides the per-bank period until tRRD/tFAW become
     * the rank-level bottleneck. AapScheduler::streamTimeNs prices
     * its closed-form stream with it (tests check it against the
     * event-accurate scheduler), and the engines use it to turn a
     * shard's serial fabric time into the bank-parallel critical
     * path.
     */
    double issueIntervalNs(unsigned banks) const
    {
        const double rank =
            tRrdNs > tFawNs / 4.0 ? tRrdNs : tFawNs / 4.0;
        const double bank = bankPeriodNs() / (banks ? banks : 1);
        return bank > rank ? bank : rank;
    }

    /**
     * Time to stream a full rank row through the channel (RD or WR),
     * including activate and precharge.
     */
    double rowAccessNs(unsigned row_bytes) const
    {
        const double bursts = static_cast<double>(row_bytes) / 64.0;
        return tRcdNs + bursts * tBurstNs + tRpNs;
    }

    static DramTimings ddr5_4400();

    std::string describe() const;
};

} // namespace dram
} // namespace c2m

#endif // C2M_DRAM_TIMING_HPP
