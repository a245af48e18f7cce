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

template <typename Row>
void
RowMirror::fieldOrder(std::span<Row> rows, bool with_onext,
                      std::vector<Row *> &out) const
{
    // Mirror order (bit rows, Onext rows, Osign) -> codec field order.
    C2M_ASSERT(rows.size() == numRows(), "need one row per mirror row");
    const size_t nbits = size_t{digits_} * bits_;
    out.clear();
    for (unsigned d = 0; d < digits_; ++d) {
        for (unsigned i = 0; i < bits_; ++i)
            out.push_back(&rows[size_t{d} * bits_ + i]);
        out.push_back(with_onext ? &rows[nbits + d] : nullptr);
    }
    out.push_back(&rows[nbits + digits_]);
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
    fieldOrder(std::span<BitVector>(rows_), true, encodeFields_);
    jc_.encode(values, encodeFields_, offset);
    codec_.encodeRows(rows_);
    offset_ = offset;
}

ecc::RowCodec::CorrectResult
RowMirror::spliceValues(size_t first, std::span<const int64_t> values)
{
    C2M_ASSERT(first + values.size() <= cols_, "columns [", first, ", ",
               first + values.size(), ") outside the mirror");
    ecc::RowCodec::CorrectResult res;
    if (values.empty())
        return res;
    const size_t w0 = first / 64;
    const size_t w1 = (first + values.size() - 1) / 64 + 1;
    for (BitVector &row : rows_) {
        const auto fix = codec_.correctRow(row, w0, w1);
        res.corrected += fix.corrected;
        res.uncorrectable += fix.uncorrectable;
    }
    fieldOrder(std::span<BitVector>(rows_), true, encodeFields_);
    jc_.encode(values, encodeFields_, offset_, first);
    for (BitVector &row : rows_)
        codec_.encodeRow(row, w0, w1);
    return res;
}

std::vector<int64_t>
RowMirror::decodeValues(ecc::RowCodec::CorrectResult *store_scrub)
{
    std::vector<int64_t> values(cols_);
    decodeValues(values, store_scrub);
    return values;
}

void
RowMirror::decodeValues(std::span<int64_t> out,
                        ecc::RowCodec::CorrectResult *store_scrub)
{
    C2M_ASSERT(out.size() == cols_, "value count != mirror width");
    const auto res = codec_.correctRows(rows_);
    if (store_scrub)
        *store_scrub = res;

    // Canonical images carry no pending carries: Onext rows are not
    // read, so decay there cannot perturb the values.
    fieldOrder(std::span<const BitVector>(rows_), false, decodeFields_);
    jc_.decode(decodeFields_, out, offset_);
}

uint64_t
RowMirror::decodeRows(std::span<const BitVector> rows,
                      std::span<int64_t> out, int64_t offset,
                      BitVector *invalid_cols)
{
    C2M_ASSERT(out.size() == cols_, "value count != mirror width");
    fieldOrder(rows, true, decodeFields_);
    return jc_.decode(decodeFields_, out, offset, invalid_cols);
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
