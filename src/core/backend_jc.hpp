#ifndef C2M_CORE_BACKEND_JC_HPP
#define C2M_CORE_BACKEND_JC_HPP

/**
 * @file
 * The Johnson-counter backend shared by the row-organized fabrics
 * (Ambit DRAM, Pinatubo and MAGIC NVM; Sec. 4.6), and its readout.
 *
 * Every JC fabric stores the same rows: one jc::CounterLayout per
 * physical group chained from row 0, the mask rows after the last
 * layout. JcBackend<Fabric, Codegen, Program> holds that plumbing
 * once: the layouts and mask rows, the program-cache keying of the
 * four digit programs (k-ary increment/decrement, carry/borrow
 * ripple), Onext peeks, the reliable host row path, readout, clears
 * and stats. A substrate adds only what differs: how a digit program
 * runs (runProgram), the pending clear and the sign fold, plus any
 * protection or tensor logic of its own.
 *
 * Readout decodes through jc::ColumnCodec: per digit the n bit rows
 * plus Onext, each column's JC pattern decoded (nearest-state on
 * faulted patterns) and weighted by radix^digit, minus the modulus
 * where Osign is set, less the group's value offset.
 */

#include <cstdint>
#include <vector>

#include "cim/fault.hpp"
#include "common/bitvec.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "jc/colcodec.hpp"
#include "jc/layout.hpp"
#include "uprog/progcache.hpp"

namespace c2m {
namespace core {

/** Chain one CounterLayout per physical group from row 0. */
inline std::vector<jc::CounterLayout>
buildJcLayouts(unsigned radix, unsigned capacity_bits,
               unsigned physical_groups)
{
    std::vector<jc::CounterLayout> layouts;
    unsigned base = 0;
    for (unsigned g = 0; g < physical_groups; ++g) {
        layouts.emplace_back(radix, capacity_bits, base);
        base = layouts.back().endRow();
    }
    return layouts;
}

/**
 * Call @p fn(row) for each state row of the group in jc::ColumnCodec
 * field order: per digit the n bit rows then Onext, then Osign.
 */
template <typename Fn>
void
forEachJcFieldRow(const jc::CounterLayout &l, Fn &&fn)
{
    for (unsigned dd = 0; dd < l.numDigits(); ++dd) {
        for (unsigned i = 0; i < l.bitsPerDigit(); ++i)
            fn(l.bitRow(dd, i));
        fn(l.onextRow(dd));
    }
    fn(l.osignRow());
}

/**
 * Read the group's rows once each, in field order, and decode them
 * word-parallel, less @p offset (C2MEngine::valueOffset).
 * @p read: callable unsigned row -> const BitVector &.
 */
template <typename ReadRow>
std::vector<int64_t>
decodeJcCounters(const jc::CounterLayout &l, size_t num_cols,
                 EngineStats &stats, int64_t offset, ReadRow &&read)
{
    std::vector<const BitVector *> rows;
    rows.reserve(size_t{l.numDigits()} * (l.bitsPerDigit() + 1) + 1);
    forEachJcFieldRow(l, [&](unsigned r) { rows.push_back(&read(r)); });

    std::vector<int64_t> out(num_cols);
    stats.invalidStates +=
        jc::ColumnCodec(l.radix(), l.numDigits())
            .decode(rows, out, offset);
    return out;
}

/**
 * Johnson counters on a row-organized @p Fabric (cim::AmbitSubarray
 * or cim::NvmMachine): @p Codegen generates the digit programs of
 * type @p Program for one group's layout, and the fabric's host row
 * path (hostReadRow/hostWriteRow) carries masks, peeks, readout and
 * scrubbing. A subclass supplies runProgram and the pending clear
 * and sign fold.
 */
template <typename Fabric, typename Codegen, typename Program>
class JcBackend : public CountingBackend
{
  public:
    unsigned numDigits() const override
    {
        return layouts_[0].numDigits();
    }

    unsigned maskRow(unsigned handle) const override
    {
        return maskBase_ + handle;
    }

    void writeMask(unsigned handle, const BitVector &row) override
    {
        fabric_.hostWriteRow(maskRow(handle), row);
    }

    void karyIncrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override
    {
        runCached(Op::Increment, phys, digit, k, mask_row, [&] {
            return codegen_[phys].karyIncrement(digit, k, mask_row);
        });
    }

    void karyDecrement(unsigned phys, unsigned digit, unsigned k,
                       unsigned mask_row) override
    {
        runCached(Op::Decrement, phys, digit, k, mask_row, [&] {
            return codegen_[phys].karyDecrement(digit, k, mask_row);
        });
    }

    void carryRipple(unsigned phys, unsigned digit) override
    {
        runCached(Op::CarryRipple, phys, digit, 0, 0, [&] {
            return codegen_[phys].carryRipple(digit);
        });
    }

    void borrowRipple(unsigned phys, unsigned digit) override
    {
        runCached(Op::BorrowRipple, phys, digit, 0, 0, [&] {
            return codegen_[phys].borrowRipple(digit);
        });
    }

    const BitVector &pendingRow(unsigned phys, unsigned digit) override
    {
        return fabric_.hostReadRow(layouts_[phys].onextRow(digit));
    }

    std::vector<int64_t> readCounters(unsigned phys,
                                      int64_t offset) override
    {
        return decodeJcCounters(
            layouts_[phys], numCounters_, stats_, offset,
            [&](unsigned row) -> const BitVector & {
                return fabric_.hostReadRow(row);
            });
    }

    void clearCounters() override
    {
        for (const Codegen &cg : codegen_)
            fabric_.run(cg.clearCounters());
    }

    cim::OpStats opStats() const override { return fabric_.stats(); }
    cim::OpStats &opStatsRef() override { return fabric_.stats(); }

    const BitVector &scrubReadRow(unsigned row) override
    {
        return fabric_.hostReadRow(row);
    }

    void scrubWriteRow(unsigned row, const BitVector &v) override
    {
        fabric_.hostWriteRow(row, v);
    }

    const jc::CounterLayout &layout(unsigned phys) const override
    {
        return layouts_[phys];
    }

  protected:
    /**
     * Build the layouts, a @p Fabric of maskBase + cfg.maxMaskRows
     * rows (@p fabric_args go between its row/column counts and its
     * fault model) and one Codegen(layout, @p codegen_arg) per group.
     */
    template <typename CodegenArg, typename... FabricArgs>
    JcBackend(const EngineConfig &cfg, unsigned physical_groups,
              EngineStats &stats, const CodegenArg &codegen_arg,
              const FabricArgs &...fabric_args)
        : CountingBackend(stats),
          numCounters_(cfg.numCounters),
          layouts_(buildJcLayouts(cfg.radix, cfg.capacityBits,
                                  physical_groups)),
          maskBase_(layouts_.back().endRow()),
          fabric_(maskBase_ + cfg.maxMaskRows, cfg.numCounters,
                  fabric_args...,
                  cim::FaultModel::cimRate(cfg.faultRate), cfg.seed),
          cache_(cfg.programCache, stats.programCacheHits,
                 stats.programCacheMisses)
    {
        caps_.pendingFlags = true;
        caps_.rowScrub = true;
        for (const auto &l : layouts_)
            codegen_.emplace_back(l, codegen_arg);
    }

    /** Execute one digit program on the fabric. */
    virtual void runProgram(const Program &prog) = 0;

    size_t numCounters_;
    std::vector<jc::CounterLayout> layouts_;
    std::vector<Codegen> codegen_;
    unsigned maskBase_;
    Fabric fabric_;

  private:
    using Op = uprog::ProgramKey::Op;

    /** Run the cached program of key (op, phys, digit, k, mask_row). */
    template <typename Build>
    void runCached(Op op, unsigned phys, unsigned digit, unsigned k,
                   unsigned mask_row, Build &&build)
    {
        const uprog::ProgramKey key{op, phys,
                                    static_cast<uint16_t>(digit),
                                    static_cast<uint16_t>(k), mask_row};
        runProgram(cache_.get(key, build));
    }

    uprog::ProgramCache<Program> cache_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_BACKEND_JC_HPP
