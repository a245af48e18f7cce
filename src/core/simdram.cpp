#include "core/simdram.hpp"

#include "common/logging.hpp"
#include "dram/subarray.hpp"

namespace c2m {
namespace core {

using cim::RowRef;
using cim::RowSet;

SimdramEngine::SimdramEngine(const SimdramConfig &cfg)
    : cfg_(cfg),
      maskBase_(0),
      sub_(1, 1) // placeholder, rebuilt below
{
    C2M_ASSERT(cfg.accBits >= 1 && cfg.accBits <= 64,
               "accumulator width out of range");
    unsigned base = 0;
    for (unsigned r = 0; r < replicas(); ++r) {
        uprog::RcaLayout l;
        l.width = cfg.accBits;
        l.baseRow = base;
        layouts_.push_back(l);
        base = l.endRow();
    }
    maskBase_ = base;

    uprog::RcaCodegen::Options opts;
    opts.protect = cfg.protection == RcaProtection::Ecc;
    for (const auto &l : layouts_)
        codegen_.emplace_back(l, opts);

    sub_ = cim::AmbitSubarray(maskBase_ + cfg.maxMaskRows,
                              cfg.numElements,
                              cim::FaultModel::cimRate(cfg.faultRate),
                              cfg.seed);
    clear();
}

unsigned
SimdramEngine::addMask(const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(numMasks_ < cfg_.maxMaskRows, "mask rows exhausted");
    const unsigned handle = numMasks_++;
    setMask(handle, mask);
    return handle;
}

void
SimdramEngine::setMask(unsigned handle,
                       const std::vector<uint8_t> &mask)
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle");
    sub_.hostWriteRow(maskBase_ + handle,
                      dram::maskRow(mask, cfg_.numElements));
}

void
SimdramEngine::clear()
{
    for (unsigned r = 0; r < replicas(); ++r)
        sub_.run(codegen_[r].clearAccumulators());
}

void
SimdramEngine::runChecked(const uprog::CheckedProgram &prog)
{
    for (const auto &block : prog.blocks) {
        unsigned attempt = 0;
        for (;;) {
            sub_.run(block.prog);
            if (block.checks.empty())
                break;
            bool mismatch = false;
            for (const auto &chk : block.checks) {
                ++stats_.checksRun;
                C2M_ASSERT(chk.mode == uprog::FrCheck::Mode::EqualRows,
                           "RCA protection uses duplicate compare");
                if (sub_.hostReadRow(chk.frRow) !=
                    sub_.hostReadRow(chk.rowA))
                    mismatch = true;
            }
            if (!mismatch)
                break;
            ++stats_.faultsDetected;
            if (attempt++ >= cfg_.maxRetries) {
                ++stats_.uncorrectedBlocks;
                break;
            }
            ++stats_.retries;
        }
    }
}

void
SimdramEngine::voteAll()
{
    for (unsigned b = 0; b < cfg_.accBits; ++b) {
        cim::AmbitProgram p;
        p.aap(RowRef::data(layouts_[0].bitRow(b)), RowRef::t(0));
        p.aap(RowRef::data(layouts_[1].bitRow(b)), RowRef::t(1));
        p.aap(RowRef::data(layouts_[2].bitRow(b)), RowRef::t(2));
        p.aap(RowSet::b12(),
              RowSet{RowRef::data(layouts_[0].bitRow(b)),
                     RowRef::data(layouts_[1].bitRow(b)),
                     RowRef::data(layouts_[2].bitRow(b))});
        sub_.run(p);
        stats_.voteOps += p.size();
    }
}

void
SimdramEngine::accumulate(uint64_t value, unsigned mask_handle)
{
    C2M_ASSERT(mask_handle < numMasks_, "unknown mask handle");
    const unsigned mask_row = maskBase_ + mask_handle;
    if (cfg_.accBits < 64)
        value &= (1ULL << cfg_.accBits) - 1;
    // Note: unlike Count2Multiply, the RCA baseline cannot skip zero
    // inputs -- the carry chain must still be resolved; we keep the
    // full-width ripple even for value 0, matching SIMDRAM.
    for (unsigned r = 0; r < replicas(); ++r)
        runChecked(codegen_[r].maskedAccumulate(value, mask_row));
    if (cfg_.protection == RcaProtection::Tmr)
        voteAll();
    ++stats_.accumulates;
}

void
SimdramEngine::accumulateSigned(int64_t value, unsigned mask_handle)
{
    uint64_t v = static_cast<uint64_t>(value);
    if (cfg_.accBits < 64)
        v &= (1ULL << cfg_.accBits) - 1;
    accumulate(v, mask_handle);
}

std::vector<uint64_t>
SimdramEngine::read()
{
    std::vector<const BitVector *> rows;
    rows.reserve(cfg_.accBits);
    for (unsigned b = 0; b < cfg_.accBits; ++b)
        rows.push_back(&sub_.hostReadRow(layouts_[0].bitRow(b)));
    return dram::transposeFromRows(rows, cfg_.numElements);
}

std::vector<int64_t>
SimdramEngine::readSigned()
{
    const auto raw = read();
    std::vector<int64_t> out(raw.size());
    const unsigned W = cfg_.accBits;
    for (size_t i = 0; i < raw.size(); ++i) {
        uint64_t v = raw[i];
        if (W < 64 && (v >> (W - 1)) & 1)
            v |= ~((1ULL << W) - 1); // sign-extend
        out[i] = static_cast<int64_t>(v);
    }
    return out;
}

} // namespace core
} // namespace c2m
