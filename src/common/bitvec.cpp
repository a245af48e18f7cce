#include "common/bitvec.hpp"

#include <bit>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace c2m {

BitVector::BitVector(size_t num_bits)
    : numBits_(num_bits), words_((num_bits + 63) / 64, 0)
{
}

BitVector
BitVector::fromString(const std::string &s)
{
    BitVector v(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        C2M_ASSERT(s[i] == '0' || s[i] == '1',
                   "BitVector string must be 0/1");
        v.set(i, s[i] == '1');
    }
    return v;
}

bool
BitVector::get(size_t i) const
{
    C2M_ASSERT(i < numBits_, "bit index ", i, " out of range ", numBits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
}

void
BitVector::set(size_t i, bool v)
{
    C2M_ASSERT(i < numBits_, "bit index ", i, " out of range ", numBits_);
    const uint64_t mask = 1ULL << (i & 63);
    if (v)
        words_[i >> 6] |= mask;
    else
        words_[i >> 6] &= ~mask;
}

uint64_t
BitVector::getBits(size_t pos, unsigned len) const
{
    C2M_ASSERT(len >= 1 && len <= 64 && pos + len <= numBits_,
               "bit range [", pos, ", +", len, ") out of range ",
               numBits_);
    const size_t w = pos >> 6;
    const unsigned off = pos & 63;
    uint64_t v = words_[w] >> off;
    if (off + len > 64)
        v |= words_[w + 1] << (64 - off);
    return len == 64 ? v : v & ((1ULL << len) - 1);
}

void
BitVector::setBits(size_t pos, unsigned len, uint64_t v)
{
    C2M_ASSERT(len >= 1 && len <= 64 && pos + len <= numBits_,
               "bit range [", pos, ", +", len, ") out of range ",
               numBits_);
    const uint64_t mask = len == 64 ? ~0ULL : (1ULL << len) - 1;
    v &= mask;
    const size_t w = pos >> 6;
    const unsigned off = pos & 63;
    words_[w] = (words_[w] & ~(mask << off)) | (v << off);
    if (off + len > 64) {
        const unsigned lo = 64 - off;
        words_[w + 1] =
            (words_[w + 1] & ~(mask >> lo)) | (v >> lo);
    }
}

namespace {

/**
 * One transpose round: in every 2J x 2J tile, the high J bits of row
 * i trade places with the low J bits of row i + J (the tile's
 * off-diagonal J x J blocks, LSB-first columns). @p Mask selects the
 * low J bits of each 2J-bit lane. Constant J lets the compiler unroll
 * and vectorize the round.
 */
template <unsigned J, uint64_t Mask>
inline void
swapBlocks(std::span<uint64_t, 64> m)
{
    for (unsigned k = 0; k < 64; k += 2 * J) {
        for (unsigned i = k; i < k + J; ++i) {
            const uint64_t t = ((m[i] >> J) ^ m[i + J]) & Mask;
            m[i] ^= t << J;
            m[i + J] ^= t;
        }
    }
}

} // namespace

void
transpose64(std::span<uint64_t, 64> m)
{
    swapBlocks<32, 0x00000000FFFFFFFFULL>(m);
    swapBlocks<16, 0x0000FFFF0000FFFFULL>(m);
    swapBlocks<8, 0x00FF00FF00FF00FFULL>(m);
    swapBlocks<4, 0x0F0F0F0F0F0F0F0FULL>(m);
    swapBlocks<2, 0x3333333333333333ULL>(m);
    swapBlocks<1, 0x5555555555555555ULL>(m);
}

void
BitVector::fill(bool v)
{
    const uint64_t pattern = v ? ~0ULL : 0ULL;
    for (auto &w : words_)
        w = pattern;
    maskTail();
}

size_t
BitVector::popcount() const
{
    size_t n = 0;
    for (auto w : words_)
        n += static_cast<size_t>(std::popcount(w));
    return n;
}

void
BitVector::invert()
{
    for (auto &w : words_)
        w = ~w;
    maskTail();
}

void
BitVector::copyFrom(const BitVector &src)
{
    C2M_ASSERT(src.numBits_ == numBits_, "size mismatch in copyFrom");
    words_ = src.words_;
}

void
BitVector::assignAnd(const BitVector &a, const BitVector &b)
{
    C2M_ASSERT(a.numBits_ == numBits_ && b.numBits_ == numBits_,
               "size mismatch in assignAnd");
    for (size_t w = 0; w < words_.size(); ++w)
        words_[w] = a.words_[w] & b.words_[w];
}

void
BitVector::assignOr(const BitVector &a, const BitVector &b)
{
    C2M_ASSERT(a.numBits_ == numBits_ && b.numBits_ == numBits_,
               "size mismatch in assignOr");
    for (size_t w = 0; w < words_.size(); ++w)
        words_[w] = a.words_[w] | b.words_[w];
}

void
BitVector::assignXor(const BitVector &a, const BitVector &b)
{
    C2M_ASSERT(a.numBits_ == numBits_ && b.numBits_ == numBits_,
               "size mismatch in assignXor");
    for (size_t w = 0; w < words_.size(); ++w)
        words_[w] = a.words_[w] ^ b.words_[w];
}

void
BitVector::assignNor(const BitVector &a, const BitVector &b)
{
    C2M_ASSERT(a.numBits_ == numBits_ && b.numBits_ == numBits_,
               "size mismatch in assignNor");
    for (size_t w = 0; w < words_.size(); ++w)
        words_[w] = ~(a.words_[w] | b.words_[w]);
    maskTail();
}

void
BitVector::assignNot(const BitVector &a)
{
    C2M_ASSERT(a.numBits_ == numBits_, "size mismatch in assignNot");
    for (size_t w = 0; w < words_.size(); ++w)
        words_[w] = ~a.words_[w];
    maskTail();
}

void
BitVector::assignMaj3(const BitVector &a, const BitVector &b,
                      const BitVector &c)
{
    C2M_ASSERT(a.numBits_ == numBits_ && b.numBits_ == numBits_ &&
               c.numBits_ == numBits_, "size mismatch in assignMaj3");
    for (size_t w = 0; w < words_.size(); ++w) {
        const uint64_t x = a.words_[w];
        const uint64_t y = b.words_[w];
        const uint64_t z = c.words_[w];
        words_[w] = (x & y) | (y & z) | (x & z);
    }
}

size_t
BitVector::injectFaults(Rng &rng, double p)
{
    if (p <= 0.0 || numBits_ == 0)
        return 0;
    size_t flipped = 0;
    uint64_t pos = rng.nextGeometric(p);
    while (pos < numBits_) {
        words_[pos >> 6] ^= 1ULL << (pos & 63);
        ++flipped;
        const uint64_t gap = rng.nextGeometric(p);
        if (gap == UINT64_MAX || pos + 1 + gap < pos)
            break;
        pos += 1 + gap;
    }
    return flipped;
}

void
BitVector::randomize(Rng &rng, double density)
{
    if (density == 0.5) {
        for (auto &w : words_)
            w = rng.next();
    } else {
        for (auto &w : words_) {
            uint64_t bits = 0;
            for (int i = 0; i < 64; ++i)
                bits |= static_cast<uint64_t>(rng.nextBool(density)) << i;
            w = bits;
        }
    }
    maskTail();
}

bool
BitVector::operator==(const BitVector &o) const
{
    return numBits_ == o.numBits_ && words_ == o.words_;
}

std::string
BitVector::toString() const
{
    std::string s(numBits_, '0');
    for (size_t i = 0; i < numBits_; ++i)
        if (get(i))
            s[i] = '1';
    return s;
}

void
BitVector::maskTail()
{
    const size_t rem = numBits_ & 63;
    if (rem != 0 && !words_.empty())
        words_.back() &= (1ULL << rem) - 1;
}

} // namespace c2m
