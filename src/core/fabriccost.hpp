#ifndef C2M_CORE_FABRICCOST_HPP
#define C2M_CORE_FABRICCOST_HPP

/**
 * @file
 * Per-command fabric costs of the DRAM substrates.
 *
 * The substrates charge cim::OpStats at each command issue point
 * (cim/cost.hpp); dramCommandCosts derives what an Ambit or RCA
 * command costs from the DDR5 timing and energy parameter sets. The
 * roll-ups built on those charges are EngineStats::fabric (additive,
 * summed across shards) and core::StatsWindow, which derives the
 * bank-parallel critical path of a measured window.
 */

#include <cstdint>

#include "cim/cost.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"

namespace c2m {
namespace core {

/**
 * Per-command costs of a DRAM CIM substrate under the given timing
 * and energy parameter sets. AAP and AP both occupy their bank for
 * one bankPeriodNs (activation-dominated; the extra activate of the
 * AAP hides under tRAS); host row accesses stream @p num_cols bits
 * through the channel.
 */
inline cim::CommandCosts
dramCommandCosts(const dram::DramTimings &t,
                 const dram::EnergyModel &e, size_t num_cols)
{
    const unsigned row_bytes =
        static_cast<unsigned>((num_cols + 7) / 8);
    cim::CommandCosts c;
    c.aapNs = t.bankPeriodNs();
    c.apNs = t.bankPeriodNs();
    c.rowReadNs = t.rowAccessNs(row_bytes);
    c.rowWriteNs = t.rowAccessNs(row_bytes);
    c.aapNj = e.aapEnergyNj();
    c.apNj = e.apEnergyNj();
    c.rowReadNj = e.rowAccessEnergyNj(row_bytes);
    c.rowWriteNj = e.rowAccessEnergyNj(row_bytes);
    return c;
}

} // namespace core
} // namespace c2m

#endif // C2M_CORE_FABRICCOST_HPP
