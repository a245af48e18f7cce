#include "core/engine.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hpp"
#include "core/backend_ambit.hpp"
#include "core/backend_jc.hpp"
#include "core/backend_rca.hpp"
#include "dram/subarray.hpp"
#include "jc/colcodec.hpp"
#include "jc/digits.hpp"
#include "jc/johnson.hpp"

namespace c2m {
namespace core {

namespace {

/** @p cfg, or std::invalid_argument naming its first bad field. */
const EngineConfig &
validated(const EngineConfig &cfg)
{
    if (const std::string err = cfg.validate(); !err.empty())
        C2M_FATAL(err);
    return cfg;
}

/**
 * Rewrite the group under @p l through @p b's reliable host path:
 * read each state row once, let @p edit(rows, image) encode into
 * copies in @p scratch (both in field order), and write back each
 * copy that changed.
 */
template <typename Edit>
void
rewriteRows(CountingBackend &b, const jc::CounterLayout &l,
            std::vector<BitVector> &scratch, Edit &&edit)
{
    // Each reference stays valid until its row is written below.
    std::vector<unsigned> index;
    std::vector<const BitVector *> rows;
    forEachJcFieldRow(l, [&](unsigned row) {
        index.push_back(row);
        rows.push_back(&b.scrubReadRow(row));
    });
    scratch.resize(rows.size());
    std::vector<BitVector *> image;
    for (size_t i = 0; i < rows.size(); ++i) {
        scratch[i] = *rows[i];
        image.push_back(&scratch[i]);
    }
    edit(rows, image);
    for (size_t i = 0; i < rows.size(); ++i)
        if (scratch[i] != *rows[i])
            b.scrubWriteRow(index[i], scratch[i]);
}

} // namespace

void
checkMaskWidth(size_t width, size_t num_counters)
{
    if (width > num_counters)
        C2M_FATAL("mask of ", width, " entries is wider than the ",
                  num_counters, " counters");
}

void
checkGroup(unsigned group, unsigned num_groups)
{
    if (group >= num_groups)
        C2M_FATAL("counter group ", group, " outside numGroups ",
                  num_groups);
}

void
checkHandle(unsigned handle, unsigned num_masks, unsigned group,
            unsigned num_groups)
{
    if (handle >= num_masks)
        C2M_FATAL("unknown mask handle ", handle);
    checkGroup(group, num_groups);
}

void
checkTensorOp(const C2MEngine &eng, unsigned group)
{
    if (!eng.backend().caps().tensorOps)
        C2M_FATAL(backendName(eng.config().backend),
                  " backend does not support tensor ops");
    checkGroup(group, eng.config().numGroups);
}

void
checkTensorPair(const C2MEngine &eng, unsigned group, unsigned other)
{
    checkTensorOp(eng, group);
    checkGroup(other, eng.config().numGroups);
    if (group == other)
        C2M_FATAL("tensor op on group ", group,
                  " twice; it needs a second group");
    for (const unsigned g : {group, other})
        if (eng.signedMode(g))
            C2M_FATAL("tensor op on group ", g,
                      " in signed mode; vector addition needs unsigned "
                      "groups");
}

C2MEngine::C2MEngine(const EngineConfig &cfg)
    : cfg_(validated(cfg)),
      bitsPerDigit_(jc::bitsForRadix(cfg.radix)),
      backend_(makeBackend(
          cfg,
          cfg.numGroups *
              (cfg.protection == Protection::Tmr ? 3u : 1u),
          stats_))
{
    if (cfg.protection == Protection::Ecc && !backend_->caps().eccChecks)
        C2M_FATAL(backendName(cfg.backend),
                  " backend does not support ECC protection");
    if (cfg.protection == Protection::Tmr && !backend_->caps().tmrVoting)
        C2M_FATAL(backendName(cfg.backend),
                  " backend does not support TMR protection");

    for (unsigned g = 0; g < cfg.numGroups; ++g)
        schedulers_.emplace_back(cfg.radix, backend_->numDigits());
    // B: c = R/2 - 1 in every digit below the top one (wrapping in
    // layouts wider than 64 bits, where readout is exact mod 2^64).
    if (backend_->caps().pendingFlags) {
        const uint64_t c = cfg.radix / 2 - 1;
        uint64_t b = 0;
        for (unsigned d = 0; d + 1 < backend_->numDigits(); ++d)
            b = b * cfg.radix + c;
        signedOffset_ = static_cast<int64_t>(b);
    }

    clear();
}

C2MEngine::~C2MEngine() = default;

cim::AmbitSubarray &
C2MEngine::subarray()
{
    if (auto *ambit = dynamic_cast<AmbitBackend *>(backend_.get()))
        return ambit->subarray();
    if (auto *rca = dynamic_cast<RcaBackend *>(backend_.get()))
        return rca->subarray();
    C2M_PANIC(backendName(cfg_.backend),
              " backend is not a DRAM fabric; no subarray");
}

const jc::CounterLayout &
C2MEngine::layout(unsigned group) const
{
    return backend_->layout(physIndex(group, 0));
}

unsigned
C2MEngine::physIndex(unsigned group, unsigned replica) const
{
    C2M_ASSERT(group < cfg_.numGroups && replica < replicas(),
               "group/replica out of range");
    return group * replicas() + replica;
}

unsigned
C2MEngine::maskRowIndex(unsigned handle) const
{
    C2M_ASSERT(handle < numMasks_, "unknown mask handle ", handle);
    return backend_->maskRow(handle);
}

unsigned
C2MEngine::addMask(const std::vector<uint8_t> &mask)
{
    if (numMasks_ >= cfg_.maxMaskRows)
        C2M_FATAL("mask rows exhausted (maxMaskRows ",
                  cfg_.maxMaskRows, "); raise maxMaskRows");
    checkMaskWidth(mask.size(), cfg_.numCounters);
    const unsigned handle = numMasks_++;
    setMask(handle, mask);
    return handle;
}

void
C2MEngine::setMask(unsigned handle, const std::vector<uint8_t> &mask)
{
    checkHandle(handle, numMasks_);
    checkMaskWidth(mask.size(), cfg_.numCounters);
    cim::AttrScope attr(backend_->opStatsRef(),
                        cim::FabricCat::MaskWrite);
    backend_->writeMask(handle,
                        dram::maskRow(mask, cfg_.numCounters));
}

void
C2MEngine::setMask(unsigned handle, const BitVector &mask)
{
    checkHandle(handle, numMasks_);
    C2M_ASSERT(mask.size() == cfg_.numCounters,
               "mask width mismatch");
    cim::AttrScope attr(backend_->opStatsRef(),
                        cim::FabricCat::MaskWrite);
    backend_->writeMask(handle, mask);
}

void
C2MEngine::clear()
{
    backend_->clearCounters();
    for (auto &s : schedulers_)
        s = jc::IarmScheduler(cfg_.radix, backend_->numDigits());
    groupHasDecrements_.assign(cfg_.numGroups, false);
    offsets_.assign(cfg_.numGroups, 0);
}

void
C2MEngine::voteDigit(unsigned group, unsigned digit)
{
    backend_->voteDigit({physIndex(group, 0), physIndex(group, 1),
                         physIndex(group, 2)},
                        digit);
}

void
C2MEngine::step(unsigned group, unsigned digit, unsigned k,
                unsigned row, bool decrement)
{
    for (unsigned r = 0; r < replicas(); ++r) {
        if (decrement)
            backend_->karyDecrement(physIndex(group, r), digit, k, row);
        else
            backend_->karyIncrement(physIndex(group, r), digit, k, row);
    }
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit);
    ++stats_.increments;
}

void
C2MEngine::ripple(unsigned group, unsigned digit, bool borrow)
{
    for (unsigned r = 0; r < replicas(); ++r) {
        if (borrow)
            backend_->borrowRipple(physIndex(group, r), digit);
        else
            backend_->carryRipple(physIndex(group, r), digit);
    }
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, digit + 1);
    ++stats_.ripples;
}

void
C2MEngine::makeIarmRoom(unsigned group,
                        const std::vector<unsigned> &digits)
{
    auto &sched = schedulers_[group];
    for (unsigned d : sched.prepareAdd(digits))
        ripple(group, d, /*borrow=*/false);
    sched.applyAdd(digits);
}

void
C2MEngine::addWhole(unsigned group, uint64_t magnitude,
                    uint64_t addend, unsigned mask_handle)
{
    const unsigned mask_row = maskRowIndex(mask_handle);
    C2M_ASSERT(jc::toDigits(magnitude, cfg_.radix).size() <
                   backend_->numDigits(),
               "value exceeds counter capacity");
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->maskedAdd(physIndex(group, r), addend, mask_row);
    if (cfg_.protection == Protection::Tmr)
        voteDigit(group, 0);
    ++stats_.increments;
    ++stats_.inputsAccumulated;
}

void
C2MEngine::accumulate(uint64_t value, unsigned mask_handle,
                      unsigned group)
{
    addInput(value, /*decrement=*/false, mask_handle, group);
}

void
C2MEngine::accumulateSigned(int64_t value, unsigned mask_handle,
                            unsigned group)
{
    if (value >= 0)
        addInput(static_cast<uint64_t>(value), /*decrement=*/false,
                 mask_handle, group);
    else
        addInput(0 - static_cast<uint64_t>(value), /*decrement=*/true,
                 mask_handle, group);
}

void
C2MEngine::addInput(uint64_t magnitude, bool decrement,
                    unsigned mask_handle, unsigned group)
{
    checkHandle(mask_handle, numMasks_, group, cfg_.numGroups);
    if (decrement)
        enterSignedMode(group);
    if (!backend_->caps().pendingFlags) {
        addWhole(group, magnitude,
                 decrement ? 0 - magnitude : magnitude, mask_handle);
        return;
    }
    if (magnitude == 0) {
        ++stats_.inputsAccumulated; // zero inputs are skipped entirely
        return;
    }
    const auto digits = jc::toDigits(magnitude, cfg_.radix);
    C2M_ASSERT(digits.size() < backend_->numDigits(),
               "value exceeds counter capacity");
    // Signed groups resolve every pending in place (runSteps), so
    // only an unsigned one defers carries.
    if (!groupHasDecrements_[group])
        makeIarmRoom(group, digits);
    std::array<MaskedStep, 64> steps; // a uint64_t has <= 64 digits
    size_t n = 0;
    for (unsigned pos = 0; pos < digits.size(); ++pos)
        if (digits[pos] != 0)
            steps[n++] = {pos, digits[pos], mask_handle, nullptr,
                          /*lead=*/true, decrement};
    runSteps(group, std::span<const MaskedStep>(steps.data(), n));
    ++stats_.inputsAccumulated;
}

void
C2MEngine::planPrepare(std::span<const MaskedStep> steps,
                       std::span<const unsigned> headroom,
                       unsigned group, uint64_t absorbed)
{
    C2M_ASSERT(group < cfg_.numGroups, "group out of range");
    if (steps.empty()) {
        // Every folded delta was zero; an absorbed carry is not.
        C2M_ASSERT(absorbed == 0, "absorbed carries with no plane");
        return;
    }

    // The headroom profile bounds what any one counter receives per
    // digit, however many steps deliver it, absorbed carries
    // included, so the scheduler headroom it accounts is sound for
    // the whole plan. It is over THIS shard's sums only, so the
    // scheduler advances exactly as it would under an independent
    // per-shard plan — merged plans change who issues a step, never
    // what a shard absorbs.
    C2M_ASSERT(headroom.size() < backend_->numDigits(),
               "planned delta exceeds counter capacity");
    for (const unsigned k : headroom)
        C2M_ASSERT(k < cfg_.radix, "headroom ", k,
                   " out of range for radix ", cfg_.radix);
    bool decrements = false;
    for (const auto &s : steps) {
        C2M_ASSERT(s.k >= 1 && s.digit < headroom.size() &&
                       s.k <= headroom[s.digit],
                   "plane step (", s.digit, ", ", s.k,
                   ") outside the headroom profile");
        C2M_ASSERT(s.mask != nullptr, "plane step without a mask");
        C2M_ASSERT(s.decrement || !decrements,
                   "increment plane after a decrement plane");
        decrements = decrements || s.decrement;
    }
    // Signed plans resolve every pending in place (executePlan), so
    // there is no deferred carry for the scheduler to make room for.
    if (!backend_->caps().pendingFlags || decrements ||
        groupHasDecrements_[group]) {
        C2M_ASSERT(absorbed == 0, "a signed plan absorbs no carries");
        return;
    }
    // Each absorbed digit leaves the plan with every real digit at
    // most R-1; the caller absorbed wherever IARM would ripple.
    auto &sched = schedulers_[group];
    for (uint64_t m = absorbed; m != 0; m &= m - 1)
        sched.absorb(static_cast<unsigned>(std::countr_zero(m)));
    const std::vector<unsigned> worst(headroom.begin(), headroom.end());
    const std::vector<unsigned> owed = sched.prepareAdd(worst);
    C2M_ASSERT(owed.empty(), "drain plan owes a ripple at digit ",
               owed.front(), " that its planner did not absorb");
    sched.applyAdd(worst);
}

void
C2MEngine::executePlan(std::span<const MaskedStep> steps,
                       uint64_t clears, unsigned group,
                       uint64_t folded_ops)
{
    ++stats_.plansExecuted;
    stats_.plannedOps += folded_ops;
    stats_.inputsAccumulated += folded_ops;
    if (steps.empty())
        return; // nothing absorbed either (planPrepare)

    cim::AttrScope attr(backend_->opStatsRef(), cim::FabricCat::Plan);
    // The absorbed carries ride the steps' deltas: their Onext rows
    // are cleared first, before a step can flag a new wrap there.
    // Which rows hold carries is this shard's own state, so the
    // clears are never ganged.
    for (uint64_t m = clears; m != 0; m &= m - 1)
        for (unsigned r = 0; r < replicas(); ++r)
            backend_->clearPending(
                physIndex(group, r),
                static_cast<unsigned>(std::countr_zero(m)));
    runSteps(group, steps);
    stats_.planPrograms += steps.size();
    stats_.planLeadPrograms += static_cast<uint64_t>(
        std::count_if(steps.begin(), steps.end(),
                      [](const MaskedStep &s) { return s.lead; }));
}

void
C2MEngine::runSteps(unsigned group, std::span<const MaskedStep> steps)
{
    // Increment rail first, decrement rail after (planPrepare checks
    // a plan's order). A decrement puts the group in signed mode the
    // way an input's first decrement does.
    const auto inc_end = static_cast<size_t>(
        std::find_if(steps.begin(), steps.end(),
                     [](const MaskedStep &s) { return s.decrement; }) -
        steps.begin());
    if (inc_end < steps.size())
        enterSignedMode(group);
    // Signed groups keep Onext fully resolved, one rail at a time:
    // its flags mean carries after the increments and borrows after
    // the decrements. Which columns ripple depends on this shard's
    // values, so these peeks and ripples are issued per shard, never
    // ganged.
    const bool resolve =
        groupHasDecrements_[group] && backend_->caps().pendingFlags;
    cim::OpStats &fab = backend_->opStatsRef();
    for (const bool borrows : {false, true}) {
        const auto rail = borrows ? steps.subspan(inc_end)
                                  : steps.first(inc_end);
        uint64_t frontier = 0; // the digits the rail's steps touch
        for (const MaskedStep &s : rail) {
            frontier |= uint64_t{1} << s.digit;
            if (s.mask) {
                // Mask rows hold per-shard plane slices, so the write
                // is never ganged: MaskWrite stays honestly per shard.
                cim::AttrScope mrow(fab, cim::FabricCat::MaskWrite);
                backend_->writeMask(s.maskHandle, *s.mask);
            }
            const unsigned row = maskRowIndex(s.maskHandle);
            if (s.lead) {
                step(group, s.digit, s.k, row, s.decrement);
                continue;
            }
            // A follower executes the identical command stream in the
            // lead shard's issue slots. ECC retries inside the checked
            // execution stay under the PlanFanout scope — a follower
            // retry is modeled as re-running in later gang slots.
            cim::AttrScope fan(fab, cim::FabricCat::PlanFanout);
            const uint64_t c0 = fab.commands();
            step(group, s.digit, s.k, row, s.decrement);
            fab.gangedCommands += fab.commands() - c0;
        }
        if (resolve)
            resolveAllPendings(group, borrows, frontier);
    }
}

void
C2MEngine::enterSignedMode(unsigned group)
{
    if (groupHasDecrements_[group])
        return;
    drain(group);
    groupHasDecrements_[group] = true;
    setValueOffset(group, signedOffset_);
}

void
C2MEngine::setValueOffset(unsigned group, int64_t offset)
{
    if (offsets_[group] == offset)
        return;
    const jc::ColumnCodec codec(cfg_.radix, backend_->numDigits());
    std::vector<int64_t> values(cfg_.numCounters);
    const auto reencode = [&](const auto &rows, const auto &image) {
        stats_.invalidStates += codec.decode(rows, values, offsets_[group]);
        // A faulted group may decode anywhere in the codec's ring.
        for (int64_t &v : values)
            v = codec.reduce(static_cast<int64_t>(
                static_cast<uint64_t>(v) + static_cast<uint64_t>(offset)));
        codec.encode(values, image);
    };
    for (unsigned r = 0; r < replicas(); ++r)
        rewriteRows(*backend_, backend_->layout(physIndex(group, r)),
                    rowImage_, reencode);
    offsets_[group] = offset;
}

void
C2MEngine::rewriteCounters(unsigned group, size_t first,
                           std::span<const int64_t> values,
                           std::span<int64_t> old)
{
    if (!backend_->caps().rowScrub)
        C2M_FATAL(backendName(cfg_.backend),
                  " backend has no host row path to rewrite counters");
    checkGroup(group, cfg_.numGroups);
    const size_t n = values.size();
    if (first > cfg_.numCounters || n > cfg_.numCounters - first ||
        old.size() != n)
        C2M_FATAL("rewrite of counters [", first, ", ", first + n,
                  ") of ", cfg_.numCounters, " with room for ",
                  old.size(), " old values");
    const jc::ColumnCodec codec(cfg_.radix, backend_->numDigits());
    const int64_t offset = offsets_[group];
    for (unsigned r = 0; r < replicas(); ++r) {
        const auto splice = [&](const auto &rows, const auto &image) {
            if (r == 0)
                stats_.invalidStates +=
                    codec.decode(rows, old, offset, nullptr, first);
            codec.encode(values, image, offset, first);
        };
        rewriteRows(*backend_, backend_->layout(physIndex(group, r)),
                    rowImage_, splice);
    }

    // The largest canonical digit written at each position (R - 1
    // bounds every digit of a negative x, stored as R^D + x).
    std::vector<unsigned> top(backend_->numDigits(), 0);
    for (const int64_t v : values) {
        uint64_t x = static_cast<uint64_t>(v) + static_cast<uint64_t>(offset);
        if (x >> 63) {
            top.assign(top.size(), cfg_.radix - 1);
            break;
        }
        for (unsigned d = 0; x != 0; ++d, x /= cfg_.radix)
            top[d] = std::max(top[d], static_cast<unsigned>(x % cfg_.radix));
    }
    schedulers_[group].cover(top);
}

void
C2MEngine::resolveAllPendings(unsigned group, bool borrows,
                              uint64_t frontier)
{
    // Only a step at digit d or a ripple at d - 1 sets Onext(d), so
    // each pass peeks just the frontier digits, highest first: every
    // carry/borrow then lands in a digit already cleared this pass,
    // and the digits the ripples land in are the next pass's
    // frontier. A ripple into the top digit leaves its pending for
    // the Osign fold instead.
    const unsigned top = backend_->numDigits() - 1;
    const unsigned phys0 = physIndex(group, 0);
    while (frontier != 0) {
        uint64_t next = 0;
        bool fold = false;
        while (frontier != 0) {
            const unsigned d =
                static_cast<unsigned>(std::bit_width(frontier)) - 1;
            frontier &= ~(uint64_t{1} << d);
            ++stats_.pendingPeeks;
            if (backend_->pendingRow(phys0, d).popcount() == 0)
                continue;
            ripple(group, d, borrows);
            if (d + 1 == top)
                fold = true;
            else
                next |= uint64_t{1} << (d + 1);
        }
        if (fold) {
            for (unsigned r = 0; r < replicas(); ++r)
                backend_->foldTopBorrowIntoSign(physIndex(group, r));
            ++stats_.signFolds;
        }
        frontier = next;
    }
}

void
C2MEngine::drain(unsigned group)
{
    checkGroup(group, cfg_.numGroups);
    if (!backend_->caps().pendingFlags)
        return;
    // Each row is read at its digit's turn, not up front: the ripple
    // of digit d can wrap digit d + 1, which the scheduler flags next.
    const unsigned phys0 = physIndex(group, 0);
    for (unsigned d : schedulers_[group].drain()) {
        ++stats_.drainPeeks;
        if (backend_->pendingRow(phys0, d).popcount() != 0)
            ripple(group, d, /*borrow=*/false);
    }
}

void
C2MEngine::noteCanonical(unsigned group)
{
    checkGroup(group, cfg_.numGroups);
    // The ripples drain() would issue are already settled in the rows.
    if (backend_->caps().pendingFlags)
        schedulers_[group].drain();
}

const BitVector &
C2MEngine::absorbPeek(unsigned group, unsigned digit)
{
    C2M_ASSERT(backend_->caps().pendingFlags &&
                   !groupHasDecrements_[group],
               "only unsigned groups with pending flags absorb");
    cim::AttrScope attr(backend_->opStatsRef(), cim::FabricCat::Plan);
    ++stats_.absorbPeeks;
    const BitVector &row0 =
        backend_->pendingRow(physIndex(group, 0), digit);
    if (replicas() == 1)
        return row0;
    // Every replica executes the plan, so the carries it takes must be
    // the vote of all three, as a ripple's vote would make them.
    if (peekMajority_.size() != cfg_.numCounters)
        peekMajority_ = BitVector(cfg_.numCounters);
    peekMajority_.assignMaj3(
        row0, backend_->pendingRow(physIndex(group, 1), digit),
        backend_->pendingRow(physIndex(group, 2), digit));
    return peekMajority_;
}

std::vector<int64_t>
C2MEngine::readCounters(unsigned group)
{
    checkGroup(group, cfg_.numGroups);
    return backend_->readCounters(physIndex(group, 0),
                                  offsets_[group]);
}

void
C2MEngine::addCounters(unsigned dst_group, unsigned src_group)
{
    checkTensorPair(*this, dst_group, src_group);
    drain(src_group);
    drain(dst_group);

    const auto &src = backend_->layout(physIndex(src_group, 0));
    const auto &dst0 = backend_->layout(physIndex(dst_group, 0));
    const unsigned n = bitsPerDigit_;
    const unsigned theta = dst0.scratchRow(2);
    const unsigned mrow = dst0.scratchRow(3);

    // The guard (top) digit of any in-capacity counter is zero, so
    // only the digits below it participate.
    for (unsigned dd = 0; dd + 1 < dst0.numDigits(); ++dd) {
        if (dd >= src.numDigits())
            break;
        // The digit receives at most R-1; create headroom through the
        // scheduler exactly like a broadcast add of R-1 would.
        std::vector<unsigned> worst(dd + 1, 0);
        worst[dd] = cfg_.radix - 1;
        makeIarmRoom(dst_group, worst);
        // Theta <- src MSB; first pass uses mask = bit OR Theta from
        // the MSB down, second pass mask = Theta AND NOT bit from the
        // LSB up (Alg. 2 with Theta updated in both passes). Each
        // mask lands in a raw scratch row, not a registered handle.
        backend_->rowCopy(src.bitRow(dd, n - 1), theta);

        for (unsigned b = n; b-- > 0;) {
            backend_->rowOr(src.bitRow(dd, b), theta, mrow);
            backend_->rowCopy(mrow, theta);
            step(dst_group, dd, 1, mrow, /*decrement=*/false);
        }
        for (unsigned b = 0; b < n; ++b) {
            backend_->rowAndNot(theta, src.bitRow(dd, b), mrow);
            backend_->rowCopy(mrow, theta);
            step(dst_group, dd, 1, mrow, /*decrement=*/false);
        }
        // The source digit's pending-overflow flags were drained
        // above, so none remain by construction.
    }
}

void
C2MEngine::relu(unsigned group)
{
    checkTensorOp(*this, group);
    const int64_t offset = offsets_[group];
    setValueOffset(group, 0);
    for (unsigned r = 0; r < replicas(); ++r)
        backend_->relu(physIndex(group, r));
    setValueOffset(group, offset);
}

void
C2MEngine::shiftLeft(unsigned group, unsigned spare_group,
                     unsigned amount)
{
    checkTensorPair(*this, group, spare_group);
    for (unsigned s = 0; s < amount; ++s) {
        drain(group);
        // spare <- group (row copies), then group += spare.
        for (unsigned r = 0; r < replicas(); ++r)
            backend_->copyCounters(physIndex(group, r),
                                   physIndex(spare_group, r));
        schedulers_[spare_group] = schedulers_[group];
        addCounters(group, spare_group);
    }
}

} // namespace core
} // namespace c2m
