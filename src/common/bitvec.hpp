#ifndef C2M_COMMON_BITVEC_HPP
#define C2M_COMMON_BITVEC_HPP

/**
 * @file
 * Packed bit vector used for bit-parallel simulation of DRAM rows.
 *
 * A BitVector models the contents of one (sub)array row across its
 * columns. All CIM bulk-bitwise operations (MAJ3, AND, OR, NOT, NOR,
 * XOR, copy) are implemented 64 columns at a time, mirroring the
 * column-parallel nature of multi-row activation.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace c2m {

class Rng;

class BitVector
{
  public:
    BitVector() = default;

    /** Construct an all-zero vector of @p num_bits columns. */
    explicit BitVector(size_t num_bits);

    /** Construct from a 0/1 string, bit i = s[i] (LSB-first). */
    static BitVector fromString(const std::string &s);

    size_t size() const { return numBits_; }
    size_t numWords() const { return words_.size(); }

    bool get(size_t i) const;
    void set(size_t i, bool v);

    /** Bits [pos, pos + len) as an LSB-first word; 1 <= len <= 64. */
    uint64_t getBits(size_t pos, unsigned len) const;

    /** Overwrite bits [pos, pos + len) with the low @p len bits of @p v. */
    void setBits(size_t pos, unsigned len, uint64_t v);

    /** Set all bits to @p v. */
    void fill(bool v);

    /** Number of set bits. */
    size_t popcount() const;

    /** Bitwise complement, in place. */
    void invert();

    /** dst = src (sizes must match). */
    void copyFrom(const BitVector &src);

    void assignAnd(const BitVector &a, const BitVector &b);
    void assignOr(const BitVector &a, const BitVector &b);
    void assignXor(const BitVector &a, const BitVector &b);
    void assignNor(const BitVector &a, const BitVector &b);
    void assignNot(const BitVector &a);

    /** dst = MAJ3(a, b, c) -- the triple-row-activation primitive. */
    void assignMaj3(const BitVector &a, const BitVector &b,
                    const BitVector &c);

    /**
     * Flip each bit independently with probability @p p.
     *
     * Uses geometric skips so the cost is proportional to the number of
     * faults, not the number of bits.
     *
     * @return the number of bits flipped.
     */
    size_t injectFaults(Rng &rng, double p);

    /** Fill bits i.i.d. Bernoulli(@p density). */
    void randomize(Rng &rng, double density = 0.5);

    bool operator==(const BitVector &o) const;
    bool operator!=(const BitVector &o) const { return !(*this == o); }

    /** LSB-first 0/1 string (for diagnostics). */
    std::string toString() const;

    uint64_t word(size_t w) const { return words_[w]; }
    uint64_t &word(size_t w) { return words_[w]; }

  private:
    /** Zero any bits beyond numBits_ in the last word. */
    void maskTail();

    size_t numBits_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Transpose a 64x64 bit matrix in place: on return, bit c of m[r] is
 * bit r of the input's m[c]. Moving between row images and column
 * values one 64-column word block at a time (gather word w of 64
 * rows, transpose, read 64 column words) replaces 64 x 64 single-bit
 * accesses with six rounds of word-wide block swaps.
 */
void transpose64(std::span<uint64_t, 64> m);

} // namespace c2m

#endif // C2M_COMMON_BITVEC_HPP
