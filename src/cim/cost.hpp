#ifndef C2M_CIM_COST_HPP
#define C2M_CIM_COST_HPP

/**
 * @file
 * Per-command fabric cost parameters for the CIM substrates.
 *
 * The substrates (AmbitSubarray, NvmMachine) count commands; this
 * struct tells them what each command costs in modeled nanoseconds
 * and nanojoules so the charge happens at the exact issue point and
 * the tally can never drift from the command counts. The cim layer
 * stays free of dram/ dependencies: the values are plain doubles,
 * set by core::commandCosts() (core/fabriccost.hpp) from the
 * DDR5-4400 timing and energy constants for the DRAM substrates and
 * from representative crossbar costs for the NVM machines.
 *
 * Defaults are zero so directly constructed substrates (unit tests,
 * codegen fixtures) keep pure command counting; the core backends
 * always install real costs.
 */

namespace c2m {
namespace cim {

/** What one fabric command costs on this substrate. */
struct CommandCosts
{
    double aapNs = 0.0;      ///< one AAP occupying its bank
    double apNs = 0.0;       ///< one AP occupying its bank
    double rowReadNs = 0.0;  ///< host-level full-row read
    double rowWriteNs = 0.0; ///< host-level full-row write
    double aapNj = 0.0;
    double apNj = 0.0;
    double rowReadNj = 0.0;
    double rowWriteNj = 0.0;
};

} // namespace cim
} // namespace c2m

#endif // C2M_CIM_COST_HPP
