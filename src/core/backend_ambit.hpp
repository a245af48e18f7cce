#ifndef C2M_CORE_BACKEND_AMBIT_HPP
#define C2M_CORE_BACKEND_AMBIT_HPP

/**
 * @file
 * Ambit DRAM implementation of the counting backend (Sec. 4-6).
 *
 * The reference substrate: Johnson counters over triple-row
 * activation (the JcBackend plumbing), the full protection stack
 * (XOR-embedded FR checks with retry, TMR with in-fabric MAJ3
 * voting) and the row-level logic the tensor ops build on. Digit
 * programs are AmbitCodegen CheckedPrograms, run on the bit-accurate
 * AmbitSubarray interpreter with retry (runCheckedOnSubarray).
 */

#include "cim/ambit.hpp"
#include "core/backend_jc.hpp"
#include "uprog/codegen_ambit.hpp"
#include "uprog/microop.hpp"

namespace c2m {
namespace core {

class AmbitBackend final
    : public JcBackend<cim::AmbitSubarray, uprog::AmbitCodegen,
                       uprog::CheckedProgram>
{
  public:
    AmbitBackend(const EngineConfig &cfg, unsigned physical_groups,
                 EngineStats &stats);

    BackendKind kind() const override { return BackendKind::Ambit; }

    void clearPending(unsigned phys, unsigned digit) override;
    void foldTopBorrowIntoSign(unsigned phys) override;
    void voteDigit(const std::array<unsigned, 3> &phys,
                   unsigned digit) override;

    void rowCopy(unsigned src, unsigned dst) override;
    void rowOr(unsigned a, unsigned b, unsigned dst) override;
    void rowAndNot(unsigned a, unsigned b, unsigned dst) override;
    void relu(unsigned phys) override;
    void copyCounters(unsigned from_phys, unsigned to_phys) override;

    /** The underlying fabric simulator (white-box tests, op stats). */
    cim::AmbitSubarray &subarray() { return fabric_; }

  private:
    void runProgram(const uprog::CheckedProgram &prog) override;
    /** One unchecked AAP from C0 zeroes @p row. */
    void rowClear(unsigned row);

    unsigned maxRetries_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_AMBIT_HPP
