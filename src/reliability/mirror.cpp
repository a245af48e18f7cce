#include "reliability/mirror.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace reliability {

RowMirror::RowMirror(const jc::CounterLayout &layout, size_t cols)
    : bits_(layout.bitsPerDigit()),
      digits_(layout.numDigits()),
      cols_(cols),
      codec_(cols),
      jc_(layout.radix(), layout.numDigits())
{
    C2M_ASSERT(cols >= 1, "mirror needs at least one column");
    rows_.assign(digits_ * bits_ + digits_ + 1,
                 BitVector(codec_.totalBits()));
    encodeValues(std::vector<int64_t>(cols, 0));
}

std::vector<BitVector *>
RowMirror::fieldRows(bool with_onext)
{
    // Mirror order (bit rows, Onext rows, Osign) -> codec field order.
    const size_t nbits = size_t{digits_} * bits_;
    std::vector<BitVector *> rows;
    rows.reserve(jc_.numRows());
    for (unsigned d = 0; d < digits_; ++d) {
        for (unsigned i = 0; i < bits_; ++i)
            rows.push_back(&rows_[size_t{d} * bits_ + i]);
        rows.push_back(with_onext ? &rows_[nbits + d] : nullptr);
    }
    rows.push_back(&rows_[nbits + digits_]);
    return rows;
}

unsigned
RowMirror::fabricRow(const jc::CounterLayout &layout, size_t r) const
{
    C2M_ASSERT(r < numRows(), "mirror row out of range: ", r);
    const size_t nbits = size_t{digits_} * bits_;
    if (r < nbits)
        return layout.bitRow(static_cast<unsigned>(r / bits_),
                             static_cast<unsigned>(r % bits_));
    if (r < nbits + digits_)
        return layout.onextRow(static_cast<unsigned>(r - nbits));
    return layout.osignRow();
}

void
RowMirror::encodeValues(std::span<const int64_t> values,
                        int64_t offset)
{
    C2M_ASSERT(values.size() == cols_, "value count != mirror width");
    // Every data column is rewritten (Onext rows to zero); the parity
    // lanes past cols_ are recomputed below.
    jc_.encode(values, fieldRows(true), offset);
    codec_.encodeRows(rows_);
    offset_ = offset;
}

std::vector<int64_t>
RowMirror::decodeValues(ecc::RowCodec::CorrectResult *store_scrub)
{
    const auto res = codec_.correctRows(rows_);
    if (store_scrub)
        *store_scrub = res;

    // Canonical images carry no pending carries: Onext rows are not
    // read, so decay there cannot perturb the values.
    std::vector<int64_t> values(cols_);
    jc_.decode(fieldRows(false), values, offset_);
    return values;
}

BitVector
RowMirror::dataBits(size_t r) const
{
    BitVector out(cols_);
    dataBitsInto(r, out);
    return out;
}

void
RowMirror::dataBitsInto(size_t r, BitVector &out) const
{
    C2M_ASSERT(r < numRows(), "mirror row out of range: ", r);
    C2M_ASSERT(out.size() == cols_, "output must be cols() wide");
    const BitVector &src = rows_[r];
    for (size_t w = 0; w < out.numWords(); ++w)
        out.word(w) = src.word(w);
    // Mask the tail: the last data word may hold parity-lane bits.
    if (cols_ % 64) {
        const uint64_t mask = (uint64_t{1} << (cols_ % 64)) - 1;
        out.word(out.numWords() - 1) &= mask;
    }
}

} // namespace reliability
} // namespace c2m
