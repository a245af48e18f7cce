#ifndef C2M_CORE_COSTMODEL_HPP
#define C2M_CORE_COSTMODEL_HPP

/**
 * @file
 * Analytic command-count models (Fig. 8, Fig. 14-16, Fig. 18).
 *
 * The functional engines are bit-accurate but too slow for
 * LLaMA-scale shapes; these models count the AAP/AP commands the
 * code generators would emit for an input stream -- exactly (the
 * per-increment costs are measured by generating the muPrograms, and
 * the IARM ripple schedule is simulated host-side), without touching
 * the bit-level state.
 */

#include <cstdint>
#include <vector>

#include "core/engine.hpp"

namespace c2m {
namespace core {

/**
 * Counting and rippling schemes of the analytic model. The engine
 * executes only k-ary increments with IARM; unit counting and full
 * rippling are the Fig. 8 baselines the model compares them with.
 */
enum class RippleMode : uint8_t
{
    Iarm,       ///< input-aware rippling minimization (Sec. 4.5.2)
    FullRipple, ///< full carry propagation after every input
};

enum class CountMode : uint8_t
{
    Kary, ///< one increment per non-zero digit (Sec. 4.5.1)
    Unit, ///< d unit increments per digit value d (Sec. 4.4)
};

class C2mCostModel
{
  public:
    C2mCostModel(unsigned radix, unsigned capacity_bits,
                 bool protect = false, unsigned fr_checks = 1,
                 CountMode counting = CountMode::Kary,
                 RippleMode ripple = RippleMode::Iarm);

    unsigned radix() const { return radix_; }
    unsigned numDigits() const { return numDigits_; }

    /** AAP/AP commands of one masked k-ary increment (measured). */
    uint64_t incrementOps(unsigned k) const;

    /**
     * AAP/AP commands of one masked k-ary decrement (measured). The
     * decrement's state shift is an increment by radix - k, but its
     * borrow detect differs, so the counts differ from incrementOps.
     */
    uint64_t decrementOps(unsigned k) const;

    /** AAP/AP commands of one carry ripple (measured). */
    uint64_t rippleOps() const { return rippleOps_; }

    struct StreamCost
    {
        uint64_t aaps = 0;
        uint64_t increments = 0;
        uint64_t ripples = 0;
    };

    /**
     * Commands to accumulate @p values into one counter group
     * (broadcast; masks are stationary). Simulates the IARM/full
     * rippling schedule host-side.
     */
    StreamCost accumulateStream(
        const std::vector<uint64_t> &values) const;

    /** Average commands per input for uniform @p bits-bit inputs. */
    double avgOpsPerInput(unsigned bits, size_t samples = 4096,
                          uint64_t seed = 9) const;

    /** Commands of one counter-vector addition (Alg. 2). */
    uint64_t counterAddOps() const;

  private:
    unsigned radix_;
    unsigned bits_;
    unsigned numDigits_;
    CountMode counting_;
    RippleMode ripple_;
    std::vector<uint64_t> opsByK_; ///< measured per k in [1, radix)
    std::vector<uint64_t> decOpsByK_; ///< decrements, same indexing
    uint64_t rippleOps_ = 0;
};

/** RCA (SIMDRAM) accumulate cost: full W-bit ripple per input. */
class RcaCostModel
{
  public:
    explicit RcaCostModel(unsigned width, bool protect = false);

    unsigned width() const { return width_; }

    /** Commands per masked accumulation (measured). */
    uint64_t accumulateOps() const { return accumulateOps_; }

  private:
    unsigned width_;
    uint64_t accumulateOps_;
};

} // namespace core
} // namespace c2m

#endif // C2M_CORE_COSTMODEL_HPP
