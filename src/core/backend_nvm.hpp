#ifndef C2M_CORE_BACKEND_NVM_HPP
#define C2M_CORE_BACKEND_NVM_HPP

/**
 * @file
 * NVM bulk-bitwise implementation of the counting backend
 * (Sec. 4.6, Fig. 10).
 *
 * Hosts the same Johnson-counter rows as the Ambit backend (the
 * JcBackend plumbing) on a Pinatubo-style (non-stateful AND/OR/NOT
 * with free operand negation, ~3n+4 ops per increment) or MAGIC
 * (stateful NOR-only, ~6n+4 ops) machine, running each NvmCodegen
 * program as issued. Counting and signed counting are supported; the
 * FR/TMR protection schemes are DRAM-specific, so the capability
 * flags leave them off and the engine rejects protected
 * configurations.
 */

#include "cim/nvm.hpp"
#include "core/backend_jc.hpp"
#include "uprog/codegen_nvm.hpp"

namespace c2m {
namespace core {

class NvmBackend final
    : public JcBackend<cim::NvmMachine, uprog::NvmCodegen,
                       cim::NvmProgram>
{
  public:
    NvmBackend(const EngineConfig &cfg, unsigned physical_groups,
               EngineStats &stats);

    BackendKind kind() const override
    {
        return fabric_.tech() == cim::NvmTech::Pinatubo
                   ? BackendKind::NvmPinatubo
                   : BackendKind::NvmMagic;
    }

    void clearPending(unsigned phys, unsigned digit) override;
    void foldTopBorrowIntoSign(unsigned phys) override;

    /** The underlying machine (white-box tests, op stats). */
    cim::NvmMachine &machine() { return fabric_; }

  private:
    void runProgram(const cim::NvmProgram &prog) override
    {
        fabric_.run(prog);
    }
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_NVM_HPP
