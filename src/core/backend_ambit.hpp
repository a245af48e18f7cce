#ifndef C2M_CORE_BACKEND_AMBIT_HPP
#define C2M_CORE_BACKEND_AMBIT_HPP

/**
 * @file
 * Ambit DRAM implementation of the counting backend (Sec. 4-6).
 *
 * The reference substrate: Johnson counters over triple-row
 * activation, the full protection stack (XOR-embedded FR checks with
 * retry, TMR with in-fabric MAJ3 voting) and the row-level logic the
 * tensor ops build on. Wraps the existing AmbitCodegen generators and
 * the bit-accurate AmbitSubarray interpreter behind the interface;
 * generated CheckedPrograms are replayed from the program cache.
 */

#include "cim/ambit.hpp"
#include "core/backend.hpp"
#include "uprog/codegen_ambit.hpp"
#include "uprog/microop.hpp"
#include "uprog/progcache.hpp"

namespace c2m {
namespace core {

class AmbitBackend final : public CountingBackend
{
  public:
    AmbitBackend(const EngineConfig &cfg, unsigned physical_groups,
                 EngineStats &stats);

    BackendKind kind() const override { return BackendKind::Ambit; }
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
    void voteDigit(const std::array<unsigned, 3> &phys,
                   unsigned digit) override;

    std::vector<int64_t> readCounters(unsigned phys,
                                      int64_t offset) override;
    std::vector<unsigned> readDigit(unsigned phys,
                                    unsigned digit) override;
    void clearCounters() override;

    cim::OpStats opStats() const override { return sub_.stats(); }
    cim::OpStats &opStatsRef() override { return sub_.stats(); }
    const BitVector &scrubReadRow(unsigned row) override;
    void scrubWriteRow(unsigned row, const BitVector &v) override;

    const jc::CounterLayout &layout(unsigned phys) const override;
    void rowCopy(unsigned src, unsigned dst) override;
    void rowOr(unsigned a, unsigned b, unsigned dst) override;
    void rowAndNot(unsigned a, unsigned b, unsigned dst) override;
    void rowClear(unsigned row) override;
    void relu(unsigned phys) override;
    void copyCounters(unsigned from_phys, unsigned to_phys) override;

    /** The underlying fabric simulator (white-box tests, op stats). */
    cim::AmbitSubarray &subarray() { return sub_; }

  private:
    void runChecked(const uprog::CheckedProgram &prog);

    size_t numCounters_;
    unsigned maxRetries_;
    std::vector<jc::CounterLayout> layouts_;
    std::vector<uprog::AmbitCodegen> codegen_;
    unsigned maskBase_;
    cim::AmbitSubarray sub_;
    uprog::ProgramCache<uprog::CheckedProgram> cache_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_AMBIT_HPP
