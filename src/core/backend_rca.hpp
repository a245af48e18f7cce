#ifndef C2M_CORE_BACKEND_RCA_HPP
#define C2M_CORE_BACKEND_RCA_HPP

/**
 * @file
 * SIMDRAM-style ripple-carry implementation of the counting backend
 * (Sec. 3, Sec. 7.1) — the repo's one executed SIMDRAM baseline.
 *
 * Counters are vertical W-bit two's-complement binary accumulators.
 * The engine adds every input whole: one masked W-bit add per input
 * (maskedAdd), zero included, its two's complement for a negative
 * value, rippling a MAJ3 full adder through all W bit positions
 * regardless of the addend's magnitude — the cost RcaCostModel
 * charges and the paper's high-radix counting removes. A drain-plan
 * step is one cached add of k * radix^d. Because every add resolves
 * its carries in place there are no pending flags: ripple requests
 * are no-ops and the engine skips IARM scheduling
 * (caps().pendingFlags == false). W is sized by widthFor so the
 * signed range covers the Johnson-counter modulus radix^D of an
 * equally-configured JC backend, making cross-backend readouts
 * bit-identical in range. Protection: duplicate-compute-and-compare
 * ECC per MAJ3 step (caps().eccChecks) and TMR, which votes all W
 * bit rows after every add (caps().tmrVoting).
 */

#include "cim/ambit.hpp"
#include "core/backend.hpp"
#include "uprog/codegen_rca.hpp"
#include "uprog/progcache.hpp"

namespace c2m {
namespace core {

class RcaBackend final : public CountingBackend
{
  public:
    RcaBackend(const EngineConfig &cfg, unsigned physical_groups,
               EngineStats &stats);

    /**
     * Accumulator width W for @p num_digits digits of @p radix: the
     * smallest whose signed range covers radix^num_digits (at radix
     * 2, num_digits + 1). Panics past 64 bits.
     */
    static unsigned widthFor(unsigned radix, unsigned num_digits);

    BackendKind kind() const override { return BackendKind::Rca; }
    unsigned numDigits() const override { return numDigits_; }
    /** Accumulator width W in bits. */
    unsigned width() const { return width_; }

    unsigned maskRow(unsigned handle) const override;
    void writeMask(unsigned handle, const BitVector &row) override;

    void karyIncrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override;
    void karyDecrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override;
    void maskedAdd(unsigned phys, uint64_t addend,
                   unsigned mask_row) override;
    void carryRipple(unsigned phys, unsigned digit) override;
    void borrowRipple(unsigned phys, unsigned digit) override;
    void foldTopBorrowIntoSign(unsigned phys) override;
    void voteDigit(const std::array<unsigned, 3> &phys,
                   unsigned digit) override;

    std::vector<int64_t> readCounters(unsigned phys,
                                      int64_t offset) override;
    void clearCounters() override;

    cim::OpStats opStats() const override { return sub_.stats(); }
    cim::OpStats &opStatsRef() override { return sub_.stats(); }

    /** The underlying fabric simulator (white-box tests, op stats). */
    cim::AmbitSubarray &subarray() { return sub_; }

  private:
    void runChecked(const uprog::CheckedProgram &prog);
    /** maskedAdd through the program cache under @p key. */
    void cachedAdd(unsigned phys, uint64_t addend, unsigned mask_row,
                   uprog::ProgramKey key);
    std::vector<uint64_t> readRaw(unsigned phys);

    size_t numCounters_;
    unsigned maxRetries_;
    unsigned radix_;
    unsigned numDigits_;
    unsigned width_;
    uint64_t widthMask_;
    std::vector<uint64_t> digitWeight_; ///< radix^d mod 2^W
    std::vector<uprog::RcaLayout> layouts_;
    std::vector<uprog::RcaCodegen> codegen_;
    unsigned maskBase_;
    cim::AmbitSubarray sub_;
    uprog::ProgramCache<uprog::CheckedProgram> cache_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_RCA_HPP
