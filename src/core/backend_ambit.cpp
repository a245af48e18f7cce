#include "core/backend_ambit.hpp"

#include "core/fabriccost.hpp"

namespace c2m {
namespace core {

using cim::RowRef;

namespace {

uprog::CodegenOptions
codegenOptions(const EngineConfig &cfg)
{
    uprog::CodegenOptions copts;
    copts.protect = cfg.protection == Protection::Ecc;
    copts.frChecks = cfg.frChecks;
    return copts;
}

} // namespace

AmbitBackend::AmbitBackend(const EngineConfig &cfg,
                           unsigned physical_groups,
                           EngineStats &stats)
    : JcBackend(cfg, physical_groups, stats, codegenOptions(cfg)),
      maxRetries_(cfg.maxRetries)
{
    caps_.eccChecks = true;
    caps_.tmrVoting = true;
    caps_.tensorOps = true;

    fabric_.setCosts(dramCommandCosts(cfg.dramTimings, cfg.dramEnergy,
                                      cfg.numCounters));
}

void
AmbitBackend::runProgram(const uprog::CheckedProgram &prog)
{
    runCheckedOnSubarray(fabric_, prog, numCounters_, maxRetries_,
                         stats_);
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
    fabric_.run(p);
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
        voteRowsOnSubarray(fabric_, rows, stats_);
    }
}

void
AmbitBackend::rowCopy(unsigned src, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitCopy(p, src, dst);
    fabric_.run(p);
}

void
AmbitBackend::rowOr(unsigned a, unsigned b, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitOr(p, a, b, dst);
    fabric_.run(p);
}

void
AmbitBackend::rowAndNot(unsigned a, unsigned b, unsigned dst)
{
    cim::AmbitProgram p;
    uprog::AmbitCodegen::emitAndNot(p, a, b, dst);
    fabric_.run(p);
}

void
AmbitBackend::rowClear(unsigned row)
{
    cim::AmbitProgram p;
    p.aap(RowRef::c0(), RowRef::data(row));
    fabric_.run(p);
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
    fabric_.run(p);
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
    fabric_.run(p);
}

} // namespace core
} // namespace c2m
