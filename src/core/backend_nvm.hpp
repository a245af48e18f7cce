#ifndef C2M_CORE_BACKEND_NVM_HPP
#define C2M_CORE_BACKEND_NVM_HPP

/**
 * @file
 * NVM bulk-bitwise implementation of the counting backend
 * (Sec. 4.6, Fig. 10).
 *
 * Hosts the same Johnson-counter row layout as the Ambit backend on a
 * Pinatubo-style (non-stateful AND/OR/NOT with free operand negation,
 * ~3n+4 ops per increment) or MAGIC (stateful NOR-only, ~6n+4 ops)
 * machine. Counting and signed counting are supported; the FR/TMR
 * protection schemes are DRAM-specific, so the capability flags leave
 * them off and the engine rejects protected configurations.
 */

#include "cim/nvm.hpp"
#include "core/backend.hpp"
#include "uprog/codegen_nvm.hpp"
#include "uprog/progcache.hpp"

namespace c2m {
namespace core {

class NvmBackend final : public CountingBackend
{
  public:
    NvmBackend(const EngineConfig &cfg, unsigned physical_groups,
               EngineStats &stats);

    BackendKind kind() const override
    {
        return tech_ == cim::NvmTech::Pinatubo
                   ? BackendKind::NvmPinatubo
                   : BackendKind::NvmMagic;
    }
    unsigned numDigits() const override
    {
        return layouts_[0].numDigits();
    }

    unsigned maskRow(unsigned handle) const override;
    void writeMask(unsigned handle, const BitVector &row) override;

    void karyIncrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override;
    void karyDecrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override;
    void carryRipple(unsigned phys, unsigned digit) override;
    void borrowRipple(unsigned phys, unsigned digit) override;
    const BitVector &pendingRow(unsigned phys,
                                unsigned digit) override;
    void clearPending(unsigned phys, unsigned digit) override;
    void foldTopBorrowIntoSign(unsigned phys) override;

    std::vector<int64_t> readCounters(unsigned phys,
                                      int64_t offset) override;
    std::vector<unsigned> readDigit(unsigned phys,
                                    unsigned digit) override;
    void clearCounters() override;

    cim::OpStats opStats() const override { return mach_.stats(); }
    cim::OpStats &opStatsRef() override { return mach_.stats(); }
    const BitVector &scrubReadRow(unsigned row) override;
    void scrubWriteRow(unsigned row, const BitVector &v) override;

    const jc::CounterLayout &layout(unsigned phys) const override;

    /** The underlying machine (white-box tests, op stats). */
    cim::NvmMachine &machine() { return mach_; }

  private:
    size_t numCounters_;
    cim::NvmTech tech_;
    std::vector<jc::CounterLayout> layouts_;
    std::vector<uprog::NvmCodegen> codegen_;
    unsigned maskBase_;
    cim::NvmMachine mach_;
    uprog::ProgramCache<cim::NvmProgram> cache_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_NVM_HPP
