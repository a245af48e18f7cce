#include "jc/colcodec.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "common/logging.hpp"
#include "jc/johnson.hpp"

namespace c2m {
namespace jc {

namespace {

/** Widest lookup-table index; wider fields are decoded directly. */
constexpr unsigned kLutBits = 12;

/** Low bits of a table entry counting invalid fields. */
constexpr unsigned kInvalidBits = 3;
static_assert(kLutBits / 2 < (1u << kInvalidBits),
              "invalid-field count must fit its bits");

/** Whole digit fields per lookup: as many as fit kLutBits, >= 1. */
unsigned
digitsPerLookup(unsigned n)
{
    return std::max(1u, kLutBits / (n + 1));
}

/**
 * Decode @p per consecutive (n + 1)-bit digit fields of @p bits:
 * (sum_j (v_j + 2n * Onext_j) * (2n)^j) << kInvalidBits, plus the
 * number of fields whose JC bits were invalid (decoded
 * nearest-state). The lookup tables cache exactly this function.
 */
uint32_t
decodeFields(unsigned n, unsigned per, uint64_t bits)
{
    const uint32_t radix = 2 * n;
    uint32_t value = 0;
    uint32_t weight = 1;
    uint32_t invalid = 0;
    for (unsigned j = 0; j < per; ++j) {
        const uint64_t field = bits >> (j * (n + 1));
        const uint64_t state = field & ((uint64_t{1} << n) - 1);
        int v = decode(n, state);
        if (v < 0) {
            ++invalid;
            v = static_cast<int>(decodeNearest(n, state));
        }
        const uint32_t digit =
            static_cast<uint32_t>(v) + (((field >> n) & 1) ? radix : 0);
        value += digit * weight;
        weight *= radix;
    }
    return value << kInvalidBits | invalid;
}

struct Tables
{
    std::vector<uint32_t> lut;     ///< empty when fields are too wide
    std::vector<uint64_t> pattern; ///< digit combination -> field bits
};

/** Per-width tables, built once per process on first use. */
const Tables &
tablesFor(unsigned n)
{
    static std::array<std::once_flag, kMaxBits + 1> once;
    static std::array<Tables, kMaxBits + 1> tables;
    std::call_once(once[n], [n] {
        Tables &t = tables[n];
        const unsigned per = digitsPerLookup(n);
        const unsigned width = per * (n + 1);
        if (width <= kLutBits) {
            t.lut.resize(size_t{1} << width);
            for (uint64_t f = 0; f < t.lut.size(); ++f)
                t.lut[f] = decodeFields(n, per, f);
        }
        const unsigned radix = 2 * n;
        size_t combos = 1;
        for (unsigned j = 0; j < per; ++j)
            combos *= radix;
        t.pattern.assign(combos, 0);
        for (uint64_t x = 0; x < combos; ++x) {
            uint64_t rest = x;
            for (unsigned j = 0; j < per; ++j, rest /= radix)
                t.pattern[x] |=
                    encode(n, static_cast<unsigned>(rest % radix))
                    << (j * (n + 1));
        }
    });
    return tables[n];
}

/** Block chunk @p q: the 64-word matrix transpose64 works on. */
std::span<uint64_t, 64>
chunk(std::vector<uint64_t> &block, size_t q)
{
    return std::span<uint64_t, 64>(block.data() + q * 64, 64);
}

} // namespace

ColumnCodec::ColumnCodec(unsigned radix, unsigned digits)
    : bits_(bitsForRadix(radix)),
      fieldBits_(bits_ + 1),
      perGroup_(digitsPerLookup(bits_)),
      groupRadix_(1),
      modulus_(1),
      wide_(false),
      osignBit_(size_t{digits} * fieldBits_),
      chunks_((osignBit_ + 64) / 64)
{
    C2M_ASSERT(bits_ <= kMaxBits, "unsupported JC width n=", bits_);
    C2M_ASSERT(digits >= 1, "a counter needs at least one digit");
    for (unsigned j = 0; j < perGroup_; ++j)
        groupRadix_ *= radix;
    for (unsigned d = 0; d < digits; ++d) {
        wide_ = wide_ ||
                static_cast<unsigned __int128>(modulus_) * radix >>
                        64 != 0;
        modulus_ *= radix;
    }
    for (unsigned first = 0; first < digits; first += perGroup_) {
        const unsigned width =
            std::min(perGroup_, digits - first) * fieldBits_;
        const size_t pos = size_t{first} * fieldBits_;
        groups_.push_back({static_cast<uint32_t>(pos / 64),
                           static_cast<uint32_t>(pos % 64),
                           (uint64_t{1} << width) - 1});
    }
    const Tables &t = tablesFor(bits_);
    lut_ = &t.lut;
    pattern_ = &t.pattern;
}

uint64_t
ColumnCodec::decode(std::span<const BitVector *const> rows,
                    std::span<int64_t> out, int64_t offset,
                    BitVector *invalid_cols, size_t first) const
{
    C2M_ASSERT(rows.size() == numRows(), "decode takes ", numRows(),
               " rows, got ", rows.size());
    for (const BitVector *r : rows)
        C2M_ASSERT(!r || r->size() >= first + out.size(),
                   "row narrower than the decoded columns");
    C2M_ASSERT(!invalid_cols || invalid_cols->size() >= out.size(),
               "invalid-column mask narrower than the decoded columns");
    // Chunk-major block: word 64q + c holds column c's bits of rows
    // [64q, 64q + 64); the extra last chunk stays zero so a field
    // may straddle into it.
    std::vector<uint64_t> block(64 * (chunks_ + 1), 0);
    const uint32_t *lut = lut_->empty() ? nullptr : lut_->data();
    const uint64_t *sign = &block[osignBit_ / 64 * 64];
    const unsigned sign_shift = osignBit_ % 64;
    const uint64_t radix = groupRadix_;
    uint64_t invalid = 0;
    uint64_t value[64];
    uint64_t field[64];
    uint32_t entry[64];
    for (size_t c0 = 0; c0 < out.size(); c0 += 64) {
        const size_t w = c0 / 64;
        const auto width =
            static_cast<unsigned>(std::min<size_t>(64, out.size() - c0));
        // Columns past out.size() read as zero: a valid all-zero digit.
        const uint64_t cols = width == 64 ? ~0ULL : (1ULL << width) - 1;
        for (size_t q = 0; q < chunks_; ++q) {
            const std::span<uint64_t, 64> m = chunk(block, q);
            for (size_t r = 0; r < 64; ++r) {
                const size_t i = q * 64 + r;
                const BitVector *row = i < rows.size() ? rows[i] : nullptr;
                // Readout decodes from column 0: keep its word loads.
                m[r] = !row        ? 0
                       : first == 0 ? row->word(w) & cols
                                    : row->getBits(first + c0, width);
            }
            transpose64(m);
        }
        // Horner from the top group down, one group across all 64
        // columns at a time so the field position is loop-invariant.
        std::fill(std::begin(value), std::end(value), 0);
        uint64_t bad = 0; // columns with an invalid field
        for (auto g = groups_.rbegin(); g != groups_.rend(); ++g) {
            const uint64_t *lo = &block[g->word * 64];
            const uint64_t *hi = lo + 64;
            const unsigned down = g->shift;
            // (x << 1) << (63 - shift) == x << (64 - shift), defined
            // at shift 0.
            const unsigned up = 63 - down;
            const uint64_t mask = g->mask;
            for (size_t c = 0; c < 64; ++c)
                field[c] = ((lo[c] >> down) | ((hi[c] << 1) << up)) & mask;
            if (lut)
                for (size_t c = 0; c < 64; ++c)
                    entry[c] = lut[field[c]];
            else
                for (size_t c = 0; c < 64; ++c)
                    entry[c] = decodeFields(bits_, perGroup_, field[c]);
            for (size_t c = 0; c < 64; ++c) {
                value[c] = value[c] * radix + (entry[c] >> kInvalidBits);
                invalid += entry[c] & ((1u << kInvalidBits) - 1);
            }
            if (invalid_cols)
                for (size_t c = 0; c < 64; ++c)
                    bad |= uint64_t{(entry[c] &
                                     ((1u << kInvalidBits) - 1)) != 0}
                           << c;
        }
        if (invalid_cols)
            invalid_cols->word(w) = bad & cols;
        for (size_t c = 0; c < width; ++c)
            out[c0 + c] = static_cast<int64_t>(
                value[c] - ((sign[c] >> sign_shift) & 1) * modulus_ -
                static_cast<uint64_t>(offset));
    }
    return invalid;
}

void
ColumnCodec::encode(std::span<const int64_t> values,
                    std::span<BitVector *const> rows, int64_t offset,
                    size_t first) const
{
    C2M_ASSERT(rows.size() == numRows(), "encode takes ", numRows(),
               " rows, got ", rows.size());
    for (const BitVector *r : rows)
        C2M_ASSERT(!r || r->size() >= first + values.size(),
                   "row narrower than the encoded columns");
    std::vector<uint64_t> block(64 * (chunks_ + 1));
    const uint64_t *pattern = pattern_->data();
    const uint64_t all_top = groupRadix_ - 1;
    uint64_t *sign = &block[osignBit_ / 64 * 64];
    const unsigned sign_shift = osignBit_ % 64;
    uint64_t rest[64];
    bool neg[64];
    for (size_t c0 = 0; c0 < values.size(); c0 += 64) {
        const size_t width = std::min<size_t>(64, values.size() - c0);
        std::fill(block.begin(), block.end(), 0);
        for (size_t c = 0; c < width; ++c) {
            // A negative v is stored as R^D + v, whose digits are the
            // (R - 1)-complements of the digits of -v - 1 == ~v.
            const int64_t v = static_cast<int64_t>(
                static_cast<uint64_t>(values[c0 + c]) +
                static_cast<uint64_t>(offset));
            neg[c] = v < 0;
            rest[c] = neg[c] ? ~static_cast<uint64_t>(v)
                             : static_cast<uint64_t>(v);
            C2M_ASSERT(wide_ || rest[c] < modulus_,
                       "counter value exceeds JC modulus");
            sign[c] |= uint64_t{neg[c]} << sign_shift;
        }
        for (const Group &g : groups_) {
            uint64_t *lo = &block[g.word * 64];
            uint64_t *hi = lo + 64;
            const unsigned down = 63 - g.shift;
            for (size_t c = 0; c < width; ++c) {
                const uint64_t digits = rest[c] % groupRadix_;
                rest[c] /= groupRadix_;
                // all_top - digits complements every digit (no
                // borrows: each digit is at most R - 1).
                const uint64_t bits =
                    pattern[neg[c] ? all_top - digits : digits] & g.mask;
                lo[c] |= bits << g.shift;
                hi[c] |= (bits >> 1) >> down;
            }
        }
        for (size_t q = 0; q < chunks_; ++q) {
            const std::span<uint64_t, 64> m = chunk(block, q);
            transpose64(m);
            for (size_t r = 0; r < 64; ++r) {
                const size_t i = q * 64 + r;
                if (i < rows.size() && rows[i])
                    rows[i]->setBits(first + c0,
                                     static_cast<unsigned>(width), m[r]);
            }
        }
    }
}

int64_t
ColumnCodec::reduce(int64_t x) const
{
    // At R^D >= 2^63 the ring covers every int64.
    if (wide_ || modulus_ >= uint64_t{1} << 63)
        return x;
    const __int128 m = modulus_;
    if (x >= -m && x < m)
        return x;
    const __int128 r = (x % (2 * m) + 2 * m) % (2 * m);
    return static_cast<int64_t>(r >= m ? r - 2 * m : r);
}

} // namespace jc
} // namespace c2m
