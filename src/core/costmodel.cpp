#include "core/costmodel.hpp"

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "jc/digits.hpp"
#include "jc/iarm.hpp"
#include "jc/layout.hpp"
#include "uprog/codegen_ambit.hpp"
#include "uprog/codegen_rca.hpp"

namespace c2m {
namespace core {

C2mCostModel::C2mCostModel(unsigned radix, unsigned capacity_bits,
                           bool protect, unsigned fr_checks,
                           CountMode counting, RippleMode ripple)
    : radix_(radix),
      bits_(jc::bitsForRadix(radix)),
      counting_(counting),
      ripple_(ripple)
{
    jc::CounterLayout layout(radix, capacity_bits, 0);
    numDigits_ = layout.numDigits();

    uprog::CodegenOptions opts;
    opts.protect = protect;
    opts.frChecks = fr_checks;
    uprog::AmbitCodegen gen(layout, opts);

    // Measure the exact command counts the generator emits. A mask
    // row index is needed only for addressing, not for counting.
    const unsigned mask_row = layout.endRow();
    opsByK_.assign(radix, 0);
    decOpsByK_.assign(radix, 0);
    for (unsigned k = 1; k < radix; ++k) {
        opsByK_[k] = gen.karyIncrement(0, k, mask_row).totalOps();
        decOpsByK_[k] = gen.karyDecrement(0, k, mask_row).totalOps();
    }
    rippleOps_ = gen.carryRipple(0).totalOps();
}

uint64_t
C2mCostModel::incrementOps(unsigned k) const
{
    C2M_ASSERT(k >= 1 && k < radix_, "k out of range");
    return opsByK_[k];
}

uint64_t
C2mCostModel::decrementOps(unsigned k) const
{
    C2M_ASSERT(k >= 1 && k < radix_, "k out of range");
    return decOpsByK_[k];
}

C2mCostModel::StreamCost
C2mCostModel::accumulateStream(
    const std::vector<uint64_t> &values) const
{
    StreamCost cost;
    jc::IarmScheduler sched(radix_, numDigits_);

    for (uint64_t v : values) {
        if (v == 0)
            continue; // zero-skipping (Sec. 7.2.3)
        const auto digits = jc::toDigits(v, radix_);
        C2M_ASSERT(digits.size() < numDigits_,
                   "value exceeds counter capacity");

        const auto ripples = sched.prepareAdd(digits);
        cost.ripples += ripples.size();
        cost.aaps += ripples.size() * rippleOps_;
        sched.applyAdd(digits);

        for (unsigned k : digits) {
            if (k == 0)
                continue;
            if (counting_ == CountMode::Kary) {
                ++cost.increments;
                cost.aaps += opsByK_[k];
            } else {
                cost.increments += k;
                cost.aaps += static_cast<uint64_t>(k) * opsByK_[1];
            }
        }

        if (ripple_ == RippleMode::FullRipple) {
            // Full carry propagation after every input.
            const auto pass = sched.fullPassDescending();
            cost.ripples += pass.size();
            cost.aaps += pass.size() * rippleOps_;
        }
    }
    return cost;
}

double
C2mCostModel::avgOpsPerInput(unsigned bits, size_t samples,
                             uint64_t seed) const
{
    Rng rng(seed);
    std::vector<uint64_t> values(samples);
    for (auto &v : values)
        v = rng.nextBounded(1ULL << bits);
    const auto cost = accumulateStream(values);
    return static_cast<double>(cost.aaps) /
           static_cast<double>(samples);
}

uint64_t
C2mCostModel::counterAddOps() const
{
    // Per digit: 2n unit increments, each preceded by a 4-op mask
    // computation and a 1-op theta update, plus the initial theta
    // copy (Alg. 2); plus a resolving ripple pass.
    const uint64_t per_digit =
        1 + 2ULL * bits_ * (opsByK_[1] + 5);
    return per_digit * numDigits_ +
           (numDigits_ - 1) * rippleOps_;
}

RcaCostModel::RcaCostModel(unsigned width, bool protect)
    : width_(width)
{
    uprog::RcaLayout layout;
    layout.width = width;
    layout.baseRow = 0;
    uprog::RcaCodegen::Options opts;
    opts.protect = protect;
    uprog::RcaCodegen gen(layout, opts);
    accumulateOps_ =
        gen.maskedAccumulate(0, layout.endRow()).totalOps();
}

} // namespace core
} // namespace c2m
