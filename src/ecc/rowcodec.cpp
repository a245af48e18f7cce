#include "ecc/rowcodec.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "ecc/hamming.hpp"

namespace c2m {
namespace ecc {

RowCodec::RowCodec(size_t data_bits)
    : dataBits_(data_bits), numWords_((data_bits + 63) / 64)
{
    C2M_ASSERT(data_bits >= 1, "row must have data columns");
}

uint64_t
RowCodec::dataMask(size_t w) const
{
    // Data occupies bit positions [0, dataBits): every word is a
    // storage word, the last one possibly shared with parity lanes.
    const size_t rem = dataBits_ - w * 64;
    return rem >= 64 ? ~0ULL : (1ULL << rem) - 1;
}

uint64_t
RowCodec::dataWord(const BitVector &row, size_t w) const
{
    C2M_ASSERT(w < numWords_, "word index out of range");
    C2M_ASSERT(row.size() >= dataBits_, "row lacks data columns");
    return row.word(w) & dataMask(w);
}

void
RowCodec::setDataWord(BitVector &row, size_t w, uint64_t v) const
{
    const uint64_t mask = dataMask(w);
    row.word(w) = (row.word(w) & ~mask) | (v & mask);
}

uint8_t
RowCodec::parityOf(const BitVector &row, size_t w) const
{
    return static_cast<uint8_t>(row.getBits(dataBits_ + w * 8, 8));
}

void
RowCodec::setParity(BitVector &row, size_t w, uint8_t parity) const
{
    row.setBits(dataBits_ + w * 8, 8, parity);
}

void
RowCodec::encodeRow(BitVector &row, size_t w0, size_t w1) const
{
    C2M_ASSERT(row.size() >= totalBits(), "row lacks parity lanes");
    for (size_t w = w0; w < std::min(w1, numWords_); ++w)
        setParity(row, w, Hamming72::encode(dataWord(row, w)));
}

bool
RowCodec::checkRow(const BitVector &row) const
{
    for (size_t w = 0; w < numWords_; ++w)
        if (!Hamming72::check(dataWord(row, w), parityOf(row, w)))
            return false;
    return true;
}

RowCodec::CorrectResult
RowCodec::correctRow(BitVector &row, size_t w0, size_t w1) const
{
    CorrectResult res;
    for (size_t w = w0; w < std::min(w1, numWords_); ++w) {
        const uint64_t data = dataWord(row, w);
        const uint8_t parity = parityOf(row, w);
        const auto dec = Hamming72::decode(data, parity);
        switch (dec.result) {
          case Hamming72::Result::Clean:
            break;
          case Hamming72::Result::Corrected: {
            ++res.corrected;
            setDataWord(row, w, dec.data);
            setParity(row, w, dec.parity);
            break;
          }
          case Hamming72::Result::DoubleError:
            ++res.uncorrectable;
            break;
        }
    }
    return res;
}

void
RowCodec::encodeRows(std::vector<BitVector> &rows) const
{
    for (auto &row : rows)
        encodeRow(row);
}

RowCodec::CorrectResult
RowCodec::correctRows(std::vector<BitVector> &rows) const
{
    CorrectResult total;
    for (auto &row : rows) {
        const auto res = correctRow(row);
        total.corrected += res.corrected;
        total.uncorrectable += res.uncorrectable;
    }
    return total;
}

RowCodec::CorrectResult
RowCodec::scrubRow(BitVector &data, const BitVector &encoded) const
{
    C2M_ASSERT(data.size() >= dataBits_, "fabric row too narrow");
    C2M_ASSERT(encoded.size() >= totalBits(),
               "trusted image lacks parity lanes");

    CorrectResult res;
    for (size_t w = 0; w < numWords_; ++w) {
        const uint64_t got = dataWord(data, w);
        const uint64_t want = dataWord(encoded, w);
        if (got == want)
            continue;
        const auto dec = Hamming72::decode(got, parityOf(encoded, w));
        uint64_t fixed;
        if (dec.result == Hamming72::Result::Corrected &&
            dec.data == want) {
            ++res.corrected;
            fixed = dec.data;
        } else {
            // Double error, or a dense flip pattern the SEC-DED code
            // would silently miscorrect: fall back on the trusted
            // image.
            ++res.uncorrectable;
            fixed = want;
        }
        setDataWord(data, w, fixed);
    }
    return res;
}

} // namespace ecc
} // namespace c2m
