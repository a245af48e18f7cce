#include "core/backend_rca.hpp"

#include "common/logging.hpp"
#include "core/fabriccost.hpp"
#include "dram/subarray.hpp"
#include "jc/digits.hpp"

namespace c2m {
namespace core {

using uprog::ProgramKey;

namespace {

std::vector<uprog::RcaLayout>
buildRcaLayouts(unsigned width, unsigned physical_groups)
{
    std::vector<uprog::RcaLayout> layouts;
    unsigned base = 0;
    for (unsigned g = 0; g < physical_groups; ++g) {
        uprog::RcaLayout l;
        l.width = width;
        l.baseRow = base;
        layouts.push_back(l);
        base = l.endRow();
    }
    return layouts;
}

} // namespace

unsigned
RcaBackend::widthFor(unsigned radix, unsigned num_digits)
{
    unsigned __int128 modulus = 1;
    for (unsigned d = 0; d < num_digits; ++d)
        modulus *= radix;
    unsigned width = 1;
    while (width < 64 &&
           (static_cast<unsigned __int128>(1) << (width - 1)) <
               modulus)
        ++width;
    C2M_ASSERT((static_cast<unsigned __int128>(1) << (width - 1)) >=
                   modulus,
               "counter capacity exceeds the 64-bit RCA accumulator");
    return width;
}

RcaBackend::RcaBackend(const EngineConfig &cfg,
                       unsigned physical_groups, EngineStats &stats)
    : CountingBackend(stats),
      numCounters_(cfg.numCounters),
      maxRetries_(cfg.maxRetries),
      radix_(cfg.radix),
      numDigits_(
          jc::digitsForCapacityBits(cfg.radix, cfg.capacityBits) + 1),
      width_(widthFor(radix_, numDigits_)),
      widthMask_(width_ == 64 ? ~0ULL : (1ULL << width_) - 1),
      layouts_(buildRcaLayouts(width_, physical_groups)),
      maskBase_(layouts_.back().endRow()),
      sub_(maskBase_ + cfg.maxMaskRows, cfg.numCounters,
           cim::FaultModel::cimRate(cfg.faultRate), cfg.seed),
      cache_(stats.programCacheHits, stats.programCacheMisses)
{
    caps_.eccChecks = true;
    caps_.tmrVoting = true;

    sub_.setCosts(commandCosts(cfg.backend, cfg.numCounters));

    digitWeight_.resize(numDigits_);
    uint64_t w = 1;
    for (unsigned d = 0; d < numDigits_; ++d) {
        digitWeight_[d] = w & widthMask_;
        w *= radix_;
    }

    uprog::RcaCodegen::Options opts;
    opts.protect = cfg.protection == Protection::Ecc;
    for (const auto &l : layouts_)
        codegen_.emplace_back(l, opts);
}

unsigned
RcaBackend::maskRow(unsigned handle) const
{
    return maskBase_ + handle;
}

void
RcaBackend::writeMask(unsigned handle, const BitVector &row)
{
    sub_.hostWriteRow(maskRow(handle), row);
}

void
RcaBackend::runChecked(const uprog::CheckedProgram &prog)
{
    runCheckedOnSubarray(sub_, prog, numCounters_, maxRetries_,
                         stats_);
}

void
RcaBackend::maskedAdd(unsigned phys, uint64_t addend,
                      unsigned mask_row)
{
    runChecked(
        codegen_[phys].maskedAccumulate(addend & widthMask_, mask_row));
}

void
RcaBackend::cachedAdd(unsigned phys, uint64_t addend,
                      unsigned mask_row, ProgramKey key)
{
    runChecked(cache_.get(key, [&] {
        return codegen_[phys].maskedAccumulate(addend & widthMask_,
                                               mask_row);
    }));
}

void
RcaBackend::karyIncrement(unsigned phys, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    C2M_ASSERT(digit < numDigits_ && k >= 1 && k < radix_,
               "digit/step out of range");
    cachedAdd(phys, k * digitWeight_[digit], mask_row,
              ProgramKey{ProgramKey::Op::Increment, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row});
}

void
RcaBackend::karyDecrement(unsigned phys, unsigned digit, unsigned k,
                          unsigned mask_row)
{
    C2M_ASSERT(digit < numDigits_ && k >= 1 && k < radix_,
               "digit/step out of range");
    cachedAdd(phys, 0 - k * digitWeight_[digit], mask_row,
              ProgramKey{ProgramKey::Op::Decrement, phys,
                         static_cast<uint16_t>(digit),
                         static_cast<uint16_t>(k), mask_row});
}

void
RcaBackend::carryRipple(unsigned, unsigned)
{
    // Binary adds resolve carries in place; nothing is pending.
}

void
RcaBackend::borrowRipple(unsigned, unsigned)
{
}

void
RcaBackend::foldTopBorrowIntoSign(unsigned)
{
    // Two's complement carries the sign in the accumulator itself.
}

void
RcaBackend::voteDigit(const std::array<unsigned, 3> &phys, unsigned)
{
    // Every add ripples through all W bits, so every bit row is voted.
    for (unsigned b = 0; b < width_; ++b)
        voteRowsOnSubarray(sub_,
                           {layouts_[phys[0]].bitRow(b),
                            layouts_[phys[1]].bitRow(b),
                            layouts_[phys[2]].bitRow(b)},
                           stats_);
}

std::vector<uint64_t>
RcaBackend::readRaw(unsigned phys)
{
    std::vector<const BitVector *> rows;
    rows.reserve(width_);
    for (unsigned b = 0; b < width_; ++b)
        rows.push_back(&sub_.hostReadRow(layouts_[phys].bitRow(b)));
    return dram::transposeFromRows(rows, numCounters_);
}

std::vector<int64_t>
RcaBackend::readCounters(unsigned phys, int64_t offset)
{
    const auto raw = readRaw(phys);
    std::vector<int64_t> out(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
        uint64_t v = raw[i];
        if (width_ < 64 && (v >> (width_ - 1)) & 1)
            v |= ~widthMask_; // sign-extend
        out[i] = static_cast<int64_t>(v - static_cast<uint64_t>(offset));
    }
    return out;
}

void
RcaBackend::clearCounters()
{
    for (unsigned p = 0; p < layouts_.size(); ++p)
        sub_.run(codegen_[p].clearAccumulators());
}

} // namespace core
} // namespace c2m
