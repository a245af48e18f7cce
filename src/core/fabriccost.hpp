#ifndef C2M_CORE_FABRICCOST_HPP
#define C2M_CORE_FABRICCOST_HPP

/**
 * @file
 * Per-command fabric costs of the counting substrates.
 *
 * The substrates charge cim::OpStats at each command issue point
 * (cim/cost.hpp); commandCosts says what one command costs on each.
 * Every backend installs what it returns, and the drain planner
 * prices a plane step's command (aapNs) and a mask write
 * (rowWriteNs) from the same values. The roll-ups built on those
 * charges are EngineStats::fabric (additive, summed across shards)
 * and core::StatsWindow, which derives the bank-parallel critical
 * path of a measured window.
 */

#include <cstddef>

#include "cim/cost.hpp"
#include "core/config.hpp"
#include "dram/energy.hpp"
#include "dram/timing.hpp"

namespace c2m {
namespace core {

/**
 * What one command costs on @p backend's fabric, @p num_cols columns
 * wide.
 *
 * DRAM substrates (Ambit, RCA) run at the paper's DDR5-4400 design
 * point: AAP and AP both occupy their bank for one bankPeriodNs
 * (activation-dominated; the extra activate of the AAP hides under
 * tRAS), and host row accesses stream @p num_cols bits through the
 * channel.
 *
 * NVM substrates (Pinatubo, MAGIC) take representative crossbar
 * costs: a logic or copy op is slower and costlier than a DRAM AAP,
 * and a full-row host access goes through the slow cell write path
 * whatever its width. Absolute values are not the reproduction
 * target; cross-backend ratios on the shared fabric_ns/fabric_nj
 * axis are.
 */
inline cim::CommandCosts
commandCosts(BackendKind backend, size_t num_cols)
{
    cim::CommandCosts c;
    if (backend == BackendKind::NvmPinatubo ||
        backend == BackendKind::NvmMagic) {
        c.aapNs = c.apNs = 60.0;
        c.aapNj = c.apNj = 0.45;
        c.rowReadNs = c.rowWriteNs = 120.0;
        c.rowReadNj = c.rowWriteNj = 2.0;
        return c;
    }
    const dram::DramTimings t = dram::DramTimings::ddr5_4400();
    const dram::EnergyModel e = dram::EnergyModel::ddr5();
    const unsigned row_bytes =
        static_cast<unsigned>((num_cols + 7) / 8);
    c.aapNs = c.apNs = t.bankPeriodNs();
    c.rowReadNs = c.rowWriteNs = t.rowAccessNs(row_bytes);
    c.aapNj = e.aapEnergyNj();
    c.apNj = e.apEnergyNj();
    c.rowReadNj = c.rowWriteNj = e.rowAccessEnergyNj(row_bytes);
    return c;
}

} // namespace core
} // namespace c2m

#endif // C2M_CORE_FABRICCOST_HPP
