#ifndef C2M_TESTS_PERBIT_ORACLE_HPP
#define C2M_TESTS_PERBIT_ORACLE_HPP

/**
 * @file
 * Per-bit reference implementations of the host row <-> column
 * conversions: JC counter readout, RowMirror images, ecc::RowCodec
 * lanes and the vertical-layout transposes, written with one
 * BitVector::get/set per bit. The library moves whole words instead;
 * the differential tests hold it to these references bit for bit.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "ecc/hamming.hpp"
#include "ecc/rowcodec.hpp"
#include "jc/johnson.hpp"
#include "jc/layout.hpp"

namespace c2m {
namespace oracle {

/** JC readout of every column; invalid digits counted in @p invalid. */
template <typename ReadRow>
std::vector<int64_t>
decodeJcCounters(const jc::CounterLayout &l, size_t num_cols,
                 uint64_t &invalid, ReadRow &&read)
{
    const unsigned n = l.bitsPerDigit();
    const unsigned D = l.numDigits();
    const unsigned R = l.radix();
    std::vector<const BitVector *> bit_rows(D * n);
    std::vector<const BitVector *> onext_rows(D);
    for (unsigned dd = 0; dd < D; ++dd) {
        for (unsigned i = 0; i < n; ++i)
            bit_rows[dd * n + i] = &read(l.bitRow(dd, i));
        onext_rows[dd] = &read(l.onextRow(dd));
    }
    const BitVector &osign = read(l.osignRow());

    __int128 modulus = 1;
    for (unsigned dd = 0; dd < D; ++dd)
        modulus *= R;

    std::vector<int64_t> out(num_cols);
    for (size_t col = 0; col < num_cols; ++col) {
        __int128 value = 0;
        __int128 weight = 1;
        for (unsigned dd = 0; dd < D; ++dd) {
            uint64_t bits = 0;
            for (unsigned i = 0; i < n; ++i)
                if (bit_rows[dd * n + i]->get(col))
                    bits |= 1ULL << i;
            int v = jc::decode(n, bits);
            if (v < 0) {
                ++invalid;
                v = static_cast<int>(jc::decodeNearest(n, bits));
            }
            __int128 digit_val = v;
            if (onext_rows[dd]->get(col))
                digit_val += R;
            value += digit_val * weight;
            weight *= R;
        }
        if (osign.get(col))
            value -= modulus;
        out[col] = static_cast<int64_t>(value);
    }
    return out;
}

/** ecc::RowCodec with every lane moved one bit at a time. */
class RowCodec
{
  public:
    explicit RowCodec(size_t data_bits)
        : dataBits_(data_bits), numWords_((data_bits + 63) / 64)
    {
    }

    size_t totalBits() const { return dataBits_ + numWords_ * 8; }

    uint64_t dataWord(const BitVector &row, size_t w) const
    {
        uint64_t v = 0;
        for (size_t b = 0; b < 64 && w * 64 + b < dataBits_; ++b)
            if (row.get(w * 64 + b))
                v |= 1ULL << b;
        return v;
    }

    void encodeRow(BitVector &row) const
    {
        for (size_t w = 0; w < numWords_; ++w)
            setParity(row, w, ecc::Hamming72::encode(dataWord(row, w)));
    }

    bool checkRow(const BitVector &row) const
    {
        for (size_t w = 0; w < numWords_; ++w)
            if (!ecc::Hamming72::check(dataWord(row, w), parityOf(row, w)))
                return false;
        return true;
    }

    ecc::RowCodec::CorrectResult correctRow(BitVector &row) const
    {
        ecc::RowCodec::CorrectResult res;
        for (size_t w = 0; w < numWords_; ++w) {
            const auto dec = ecc::Hamming72::decode(dataWord(row, w),
                                                    parityOf(row, w));
            if (dec.result == ecc::Hamming72::Result::Corrected) {
                ++res.corrected;
                setData(row, w, dec.data);
                setParity(row, w, dec.parity);
            } else if (dec.result ==
                       ecc::Hamming72::Result::DoubleError) {
                ++res.uncorrectable;
            }
        }
        return res;
    }

    ecc::RowCodec::CorrectResult
    correctRows(std::vector<BitVector> &rows) const
    {
        ecc::RowCodec::CorrectResult total;
        for (auto &row : rows) {
            const auto res = correctRow(row);
            total.corrected += res.corrected;
            total.uncorrectable += res.uncorrectable;
        }
        return total;
    }

    ecc::RowCodec::CorrectResult scrubRow(BitVector &data,
                                          const BitVector &encoded) const
    {
        ecc::RowCodec::CorrectResult res;
        for (size_t w = 0; w < numWords_; ++w) {
            const uint64_t got = dataWord(data, w);
            const uint64_t want = dataWord(encoded, w);
            if (got == want)
                continue;
            const auto dec =
                ecc::Hamming72::decode(got, parityOf(encoded, w));
            uint64_t fixed = want;
            if (dec.result == ecc::Hamming72::Result::Corrected &&
                dec.data == want) {
                ++res.corrected;
                fixed = dec.data;
            } else {
                ++res.uncorrectable;
            }
            setData(data, w, fixed);
        }
        return res;
    }

  private:
    uint8_t parityOf(const BitVector &row, size_t w) const
    {
        uint8_t p = 0;
        for (size_t b = 0; b < 8; ++b)
            if (row.get(dataBits_ + w * 8 + b))
                p |= static_cast<uint8_t>(1u << b);
        return p;
    }

    void setParity(BitVector &row, size_t w, uint8_t parity) const
    {
        for (size_t b = 0; b < 8; ++b)
            row.set(dataBits_ + w * 8 + b, (parity >> b) & 1);
    }

    void setData(BitVector &row, size_t w, uint64_t v) const
    {
        for (size_t b = 0; b < 64 && w * 64 + b < dataBits_; ++b)
            row.set(w * 64 + b, (v >> b) & 1);
    }

    size_t dataBits_;
    size_t numWords_;
};

/**
 * RowMirror image of @p values: D*n bit rows, D Onext rows, Osign,
 * each cols() data bits plus parity lanes.
 */
inline std::vector<BitVector>
mirrorEncode(const jc::CounterLayout &l, std::span<const int64_t> values)
{
    const unsigned n = l.bitsPerDigit();
    const unsigned D = l.numDigits();
    const unsigned R = l.radix();
    const RowCodec codec(values.size());
    std::vector<BitVector> rows(size_t{D} * n + D + 1,
                                BitVector(codec.totalBits()));
    __int128 modulus = 1;
    for (unsigned d = 0; d < D; ++d)
        modulus *= R;
    BitVector &osign = rows[size_t{D} * n + D];
    for (size_t c = 0; c < values.size(); ++c) {
        __int128 m = values[c];
        if (m < 0) {
            m += modulus;
            osign.set(c, true);
        }
        for (unsigned d = 0; d < D; ++d) {
            const unsigned digit = static_cast<unsigned>(m % R);
            m /= R;
            const uint64_t bits = jc::encode(n, digit);
            for (unsigned i = 0; i < n; ++i)
                if ((bits >> i) & 1)
                    rows[size_t{d} * n + i].set(c, true);
        }
    }
    for (auto &row : rows)
        codec.encodeRow(row);
    return rows;
}

/** RowMirror::decodeValues: correct the store, then decode. */
inline std::vector<int64_t>
mirrorDecode(const jc::CounterLayout &l, size_t cols,
             std::vector<BitVector> &rows,
             ecc::RowCodec::CorrectResult &store_scrub)
{
    const unsigned n = l.bitsPerDigit();
    const unsigned D = l.numDigits();
    const unsigned R = l.radix();
    store_scrub = RowCodec(cols).correctRows(rows);
    __int128 modulus = 1;
    for (unsigned d = 0; d < D; ++d)
        modulus *= R;
    const BitVector &osign = rows[size_t{D} * n + D];
    std::vector<int64_t> values(cols);
    for (size_t c = 0; c < cols; ++c) {
        __int128 value = 0;
        __int128 weight = 1;
        for (unsigned d = 0; d < D; ++d) {
            uint64_t bits = 0;
            for (unsigned i = 0; i < n; ++i)
                if (rows[size_t{d} * n + i].get(c))
                    bits |= 1ULL << i;
            int v = jc::decode(n, bits);
            if (v < 0)
                v = static_cast<int>(jc::decodeNearest(n, bits));
            value += static_cast<__int128>(v) * weight;
            weight *= R;
        }
        if (osign.get(c))
            value -= modulus;
        values[c] = static_cast<int64_t>(value);
    }
    return values;
}

/** Vertical layout: bit b of values[j] at rows[b], column j. */
inline std::vector<BitVector>
transposeToRows(const std::vector<uint64_t> &values, unsigned num_bits,
                size_t cols)
{
    std::vector<BitVector> rows(num_bits, BitVector(cols));
    for (size_t j = 0; j < values.size(); ++j)
        for (unsigned b = 0; b < num_bits; ++b)
            if ((values[j] >> b) & 1)
                rows[b].set(j, true);
    return rows;
}

inline std::vector<uint64_t>
transposeFromRows(const std::vector<BitVector> &rows, size_t count)
{
    std::vector<uint64_t> values(count, 0);
    for (unsigned b = 0; b < rows.size(); ++b)
        for (size_t j = 0; j < count; ++j)
            if (rows[b].get(j))
                values[j] |= 1ULL << b;
    return values;
}

} // namespace oracle
} // namespace c2m

#endif // C2M_TESTS_PERBIT_ORACLE_HPP
