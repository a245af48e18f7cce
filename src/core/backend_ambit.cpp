#include "core/backend_ambit.hpp"

#include "common/logging.hpp"
#include "core/backend_jc.hpp"
#include "core/fabriccost.hpp"

namespace c2m {
namespace core {

using cim::RowRef;
using uprog::ProgramKey;

AmbitBackend::AmbitBackend(const EngineConfig &cfg,
                           unsigned physical_groups,
                           EngineStats &stats)
    : CountingBackend(stats),
      numCounters_(cfg.numCounters),
      maxRetries_(cfg.maxRetries),
      layouts_(buildJcLayouts(cfg.radix, cfg.capacityBits,
                              physical_groups)),
      maskBase_(layouts_.back().endRow()),
      sub_(maskBase_ + cfg.maxMaskRows, cfg.numCounters,
           cim::FaultModel::cimRate(cfg.faultRate), cfg.seed),
      cache_(cfg.programCache, stats.programCacheHits,
             stats.programCacheMisses)
{
    caps_.eccChecks = true;
    caps_.tmrVoting = true;
    caps_.tensorOps = true;
    caps_.pendingFlags = true;
    caps_.rowScrub = true;

    sub_.setCosts(dramCommandCosts(cfg.dramTimings, cfg.dramEnergy,
                                   cfg.numCounters));

    uprog::CodegenOptions copts;
    copts.protect = cfg.protection == Protection::Ecc;
    copts.frChecks = cfg.frChecks;
    for (const auto &l : layouts_)
        codegen_.emplace_back(l, copts);
}

const BitVector &
AmbitBackend::scrubReadRow(unsigned row)
{
    return sub_.hostReadRow(row);
}

void
AmbitBackend::scrubWriteRow(unsigned row, const BitVector &v)
{
    sub_.hostWriteRow(row, v);
}

unsigned
AmbitBackend::maskRow(unsigned handle) const
{
    return maskBase_ + handle;
}

void
AmbitBackend::writeMask(unsigned handle, const BitVector &row)
{
    sub_.hostWriteRow(maskRow(handle), row);
}

void
AmbitBackend::runChecked(const uprog::CheckedProgram &prog)
{
    runCheckedOnSubarray(sub_, prog, numCounters_, maxRetries_,
                         stats_);
}

void
AmbitBackend::karyIncrement(unsigned phys, unsigned digit, unsigned k,
                            unsigned mask_row)
{
    const ProgramKey key{ProgramKey::Op::Increment, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row};
    runChecked(cache_.get(key, [&] {
        return codegen_[phys].karyIncrement(digit, k, mask_row);
    }));
}

void
AmbitBackend::karyDecrement(unsigned phys, unsigned digit, unsigned k,
                            unsigned mask_row)
{
    const ProgramKey key{ProgramKey::Op::Decrement, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row};
    runChecked(cache_.get(key, [&] {
        return codegen_[phys].karyDecrement(digit, k, mask_row);
    }));
}

void
AmbitBackend::carryRipple(unsigned phys, unsigned digit)
{
    const ProgramKey key{ProgramKey::Op::CarryRipple, phys,
                         static_cast<uint16_t>(digit), 0, 0};
    runChecked(cache_.get(
        key, [&] { return codegen_[phys].carryRipple(digit); }));
}

void
AmbitBackend::borrowRipple(unsigned phys, unsigned digit)
{
    const ProgramKey key{ProgramKey::Op::BorrowRipple, phys,
                         static_cast<uint16_t>(digit), 0, 0};
    runChecked(cache_.get(
        key, [&] { return codegen_[phys].borrowRipple(digit); }));
}

const BitVector &
AmbitBackend::pendingRow(unsigned phys, unsigned digit)
{
    return sub_.hostReadRow(layouts_[phys].onextRow(digit));
}

void
AmbitBackend::clearPending(unsigned phys, unsigned digit)
{
    rowClear(layouts_[phys].onextRow(digit));
}

void
AmbitBackend::foldTopBorrowIntoSign(unsigned phys)
{
    // Osign ^= Onext(top); Onext(top) <- 0. An overflow back across
    // zero cancels a pending sign, so XOR is the correct fold.
    const auto &l = layouts_[phys];
    const unsigned top = l.numDigits() - 1;
    cim::AmbitProgram p;
    const unsigned s0 = l.scratchRow(2);
    const unsigned s1 = l.scratchRow(3);
    uprog::AmbitCodegen::emitAndNot(p, l.osignRow(), l.onextRow(top),
                                    s0);
    uprog::AmbitCodegen::emitAndNot(p, l.onextRow(top), l.osignRow(),
                                    s1);
    uprog::AmbitCodegen::emitOr(p, s0, s1, l.osignRow());
    p.aap(RowRef::c0(), RowRef::data(l.onextRow(top)));
    sub_.run(p);
}

void
AmbitBackend::voteDigit(const std::array<unsigned, 3> &phys,
                        unsigned digit)
{
    const unsigned n = layouts_[0].bitsPerDigit();
    for (unsigned i = 0; i <= n; ++i) {
        std::array<unsigned, 3> rows;
        for (unsigned r = 0; r < 3; ++r) {
            const auto &l = layouts_[phys[r]];
            rows[r] = i < n ? l.bitRow(digit, i) : l.onextRow(digit);
        }
        voteRowsOnSubarray(sub_, rows, stats_);
    }
}

std::vector<int64_t>
AmbitBackend::readCounters(unsigned phys, int64_t offset)
{
    return decodeJcCounters(
        layouts_[phys], numCounters_, stats_, offset,
        [&](unsigned row) -> const BitVector & {
            return sub_.hostReadRow(row);
        });
}

std::vector<unsigned>
AmbitBackend::readDigit(unsigned phys, unsigned digit)
{
    return decodeJcDigit(layouts_[phys], digit, numCounters_, stats_,
                         [&](unsigned row) -> const BitVector & {
                             return sub_.hostReadRow(row);
                         });
}

void
AmbitBackend::clearCounters()
{
    for (unsigned p = 0; p < layouts_.size(); ++p)
        sub_.run(codegen_[p].clearCounters());
}

const jc::CounterLayout &
AmbitBackend::layout(unsigned phys) const
{
    return layouts_[phys];
}

void
AmbitBackend::rowCopy(unsigned src, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitCopy(p, src, dst);
    sub_.run(p);
}

void
AmbitBackend::rowOr(unsigned a, unsigned b, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitOr(p, a, b, dst);
    sub_.run(p);
}

void
AmbitBackend::rowAndNot(unsigned a, unsigned b, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitAndNot(p, a, b, dst);
    sub_.run(p);
}

void
AmbitBackend::rowClear(unsigned row)
{
    cim::AmbitProgram p;
    p.aap(RowRef::c0(), RowRef::data(row));
    sub_.run(p);
}

void
AmbitBackend::relu(unsigned phys)
{
    const auto &l = layouts_[phys];
    cim::AmbitProgram p;
    for (unsigned dd = 0; dd < l.numDigits(); ++dd) {
        for (unsigned i = 0; i < l.bitsPerDigit(); ++i)
            uprog::AmbitCodegen::emitAndNot(p, l.bitRow(dd, i),
                                            l.osignRow(),
                                            l.bitRow(dd, i));
        uprog::AmbitCodegen::emitAndNot(p, l.onextRow(dd),
                                        l.osignRow(), l.onextRow(dd));
    }
    p.aap(RowRef::c0(), RowRef::data(l.osignRow()));
    sub_.run(p);
}

void
AmbitBackend::copyCounters(unsigned from_phys, unsigned to_phys)
{
    const auto &from = layouts_[from_phys];
    const auto &to = layouts_[to_phys];
    cim::AmbitProgram p;
    for (unsigned dd = 0; dd < from.numDigits(); ++dd) {
        for (unsigned i = 0; i < from.bitsPerDigit(); ++i)
            uprog::AmbitCodegen::emitCopy(p, from.bitRow(dd, i),
                                          to.bitRow(dd, i));
        uprog::AmbitCodegen::emitCopy(p, from.onextRow(dd),
                                      to.onextRow(dd));
    }
    uprog::AmbitCodegen::emitCopy(p, from.osignRow(), to.osignRow());
    sub_.run(p);
}

} // namespace core
} // namespace c2m
