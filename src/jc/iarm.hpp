#ifndef C2M_JC_IARM_HPP
#define C2M_JC_IARM_HPP

/**
 * @file
 * Input-Aware Rippling Minimization (IARM, Sec. 4.5.2).
 *
 * Each counter digit is augmented with a pending-overflow flag Onext,
 * extending its effective range from [0, R-1] to [0, 2R-1]. Carry
 * propagation (a "ripple": unit-increment of digit d+1 masked by
 * Onext_d, then clearing Onext_d) can therefore be deferred.
 *
 * IARM is oblivious of the masks stored in memory: it maintains a
 * host-side *virtual bound* per digit that upper-bounds the effective
 * digit value of every real (masked) counter, and schedules a ripple
 * exactly when the next increment could push some counter past 2R-1.
 *
 * Soundness note: after a broadcast ripple of digit d, a real counter
 * that was pending drops by R while one that was not pending keeps any
 * value up to R-1, so the sound bound update is vbound[d] <- R-1 (not
 * vbound[d] - R). The same holds when a drain plan absorbs digit d
 * instead (absorb()): the host reads Onext(d), adds R^(d+1) to the
 * plan's delta of every set column and clears the row, so every real
 * digit d is at most R-1 and the carry reaches digit d+1 through the
 * plan's own headroom at d+1 (applyAdd). With these updates,
 * real_digit <= vbound holds inductively for every mask subset, which
 * the property tests verify.
 */

#include <cstdint>
#include <vector>

namespace c2m {
namespace jc {

/**
 * Schedules deferred carry rippling for one group of multi-digit
 * counters that all receive the same broadcast increments.
 */
class IarmScheduler
{
  public:
    /**
     * @param radix Digit radix R (= 2n for an n-bit JC digit).
     * @param num_digits Digit count D; the top digit must never need
     *        to ripple out (engines size counters accordingly).
     */
    IarmScheduler(unsigned radix, unsigned num_digits);

    /**
     * Ripples that must be broadcast before adding @p digits
     * (LSD-first, each < R). Within a carry chain, higher digits are
     * emitted first so the +1 they absorb always has headroom.
     * Updates the virtual bounds as if the ripples were issued.
     */
    std::vector<unsigned> prepareAdd(const std::vector<unsigned> &digits);

    /** Account for the broadcast k-ary increments of @p digits. */
    void applyAdd(const std::vector<unsigned> &digits);

    /**
     * Digit @p digit's pending carries left the fabric: a drain plan
     * read its Onext row into the plan's delta at digit + 1 and
     * clears the row before its steps. Every real digit is then at
     * most R-1, so the bound drops to R-1 with no ripple; the carries
     * count at digit + 1 through the plan's headroom there.
     */
    void absorb(unsigned digit);

    /** Some counters were rewritten to canonical digits of at most
     *  @p digits[d] (each < R, Onext clear): raise each bound to
     *  cover them. The others keep theirs, so no bound drops. */
    void cover(const std::vector<unsigned> &digits);

    /**
     * Ripples needed to clear every pending overflow (before a
     * direction switch to decrements, Sec. 4.4), in resolution order.
     * The bounds are mask-oblivious, so each returned digit only
     * *may* be pending; C2MEngine::drain reads its Onext row before
     * rippling. Updates the bounds as if every ripple were issued.
     * Readout does not require draining: Onext rows are readable and
     * contribute R*R^d.
     */
    std::vector<unsigned> drain();

    /**
     * The "full rippling" baseline pass: one unconditional ripple of
     * every digit boundary, highest first so every carry lands in a
     * just-resolved digit with guaranteed headroom. Returns all
     * boundaries D-2..0 (the memory ripples to broadcast) and updates
     * the bounds soundly.
     */
    std::vector<unsigned> fullPassDescending();

    unsigned radix() const { return radix_; }
    unsigned numDigits() const { return static_cast<unsigned>(
        bounds_.size()); }
    const std::vector<unsigned> &bounds() const { return bounds_; }
    uint64_t ripplesIssued() const { return ripples_; }

  private:
    /** Resolve digit @p pos (bound >= R), chaining upward if needed. */
    void resolveChain(unsigned pos, std::vector<unsigned> &out);

    unsigned radix_;
    std::vector<unsigned> bounds_;
    uint64_t ripples_ = 0;
};

} // namespace jc
} // namespace c2m

#endif // C2M_JC_IARM_HPP
