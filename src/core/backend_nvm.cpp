#include "core/backend_nvm.hpp"

#include "common/logging.hpp"
#include "core/backend_jc.hpp"

namespace c2m {
namespace core {

using uprog::ProgramKey;

namespace {

cim::NvmTech
techOf(BackendKind kind)
{
    C2M_ASSERT(kind == BackendKind::NvmPinatubo ||
                   kind == BackendKind::NvmMagic,
               "not an NVM backend kind");
    return kind == BackendKind::NvmPinatubo ? cim::NvmTech::Pinatubo
                                            : cim::NvmTech::Magic;
}

} // namespace

NvmBackend::NvmBackend(const EngineConfig &cfg,
                       unsigned physical_groups, EngineStats &stats)
    : CountingBackend(stats),
      numCounters_(cfg.numCounters),
      tech_(techOf(cfg.backend)),
      layouts_(buildJcLayouts(cfg.radix, cfg.capacityBits,
                              physical_groups)),
      maskBase_(layouts_.back().endRow()),
      mach_(maskBase_ + cfg.maxMaskRows, cfg.numCounters, tech_,
            cim::FaultModel::cimRate(cfg.faultRate), cfg.seed),
      cache_(cfg.programCache, stats.programCacheHits,
             stats.programCacheMisses)
{
    caps_.pendingFlags = true;
    caps_.rowScrub = true;

    mach_.setCosts(cfg.nvmCost.commandCosts());

    for (const auto &l : layouts_)
        codegen_.emplace_back(l, tech_);
}

const BitVector &
NvmBackend::scrubReadRow(unsigned row)
{
    return mach_.hostReadRow(row);
}

void
NvmBackend::scrubWriteRow(unsigned row, const BitVector &v)
{
    mach_.writeRow(row, v);
}

unsigned
NvmBackend::maskRow(unsigned handle) const
{
    return maskBase_ + handle;
}

void
NvmBackend::writeMask(unsigned handle, const BitVector &row)
{
    mach_.writeRow(maskRow(handle), row);
}

void
NvmBackend::karyIncrement(unsigned phys, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    const ProgramKey key{ProgramKey::Op::Increment, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row};
    mach_.run(cache_.get(key, [&] {
        return codegen_[phys].karyIncrement(digit, k, mask_row);
    }));
}

void
NvmBackend::karyDecrement(unsigned phys, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    const ProgramKey key{ProgramKey::Op::Decrement, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row};
    mach_.run(cache_.get(key, [&] {
        return codegen_[phys].karyDecrement(digit, k, mask_row);
    }));
}

void
NvmBackend::carryRipple(unsigned phys, unsigned digit)
{
    const ProgramKey key{ProgramKey::Op::CarryRipple, phys,
                         static_cast<uint16_t>(digit), 0, 0};
    mach_.run(cache_.get(
        key, [&] { return codegen_[phys].carryRipple(digit); }));
}

void
NvmBackend::borrowRipple(unsigned phys, unsigned digit)
{
    const ProgramKey key{ProgramKey::Op::BorrowRipple, phys,
                         static_cast<uint16_t>(digit), 0, 0};
    mach_.run(cache_.get(
        key, [&] { return codegen_[phys].borrowRipple(digit); }));
}

const BitVector &
NvmBackend::pendingRow(unsigned phys, unsigned digit)
{
    return mach_.hostReadRow(layouts_[phys].onextRow(digit));
}

void
NvmBackend::clearPending(unsigned phys, unsigned digit)
{
    mach_.run(codegen_[phys].clearPending(digit));
}

void
NvmBackend::foldTopBorrowIntoSign(unsigned phys)
{
    mach_.run(codegen_[phys].foldTopBorrowIntoSign());
}

std::vector<int64_t>
NvmBackend::readCounters(unsigned phys, int64_t offset)
{
    return decodeJcCounters(layouts_[phys], numCounters_, stats_,
                            offset,
                            [&](unsigned row) -> const BitVector & {
                                return mach_.hostReadRow(row);
                            });
}

std::vector<unsigned>
NvmBackend::readDigit(unsigned phys, unsigned digit)
{
    return decodeJcDigit(layouts_[phys], digit, numCounters_, stats_,
                         [&](unsigned row) -> const BitVector & {
                             return mach_.hostReadRow(row);
                         });
}

void
NvmBackend::clearCounters()
{
    for (unsigned p = 0; p < layouts_.size(); ++p)
        mach_.run(codegen_[p].clearCounters());
}

const jc::CounterLayout &
NvmBackend::layout(unsigned phys) const
{
    return layouts_[phys];
}

} // namespace core
} // namespace c2m
