#ifndef C2M_JC_DIGITS_HPP
#define C2M_JC_DIGITS_HPP

/**
 * @file
 * Radix decomposition and capacity math for multi-digit counters.
 *
 * The host-side routine of Count2Multiply unpacks each input value
 * into digits of the counter radix (Sec. 5.1). Fig. 19's storage
 * analysis is the digitsForCapacity/bitsForCapacity math below.
 */

#include <cstdint>
#include <vector>

namespace c2m {
namespace jc {

/** LSD-first base-@p radix digits of @p value (at least one digit). */
std::vector<unsigned> toDigits(uint64_t value, unsigned radix);

/** Inverse of toDigits. */
uint64_t fromDigits(const std::vector<unsigned> &digits, unsigned radix);

/** Sum of digits (number of unit increments a value triggers). */
uint64_t digitSum(uint64_t value, unsigned radix);

/** Number of non-zero digits (number of k-ary increments). */
unsigned numNonzeroDigits(uint64_t value, unsigned radix);

/**
 * Smallest digit count D with radix^D >= capacity.
 * @p capacity must be >= 1.
 */
unsigned digitsForCapacity(unsigned radix, uint64_t capacity);

/** Digits needed to cover unsigned integers of @p bits width. */
unsigned digitsForCapacityBits(unsigned radix, unsigned bits);

/**
 * Storage bits of a JC counter covering @p capacity at @p radix:
 * digitsForCapacity * (radix / 2). Binary reference: ceil(log2 cap).
 * This is Fig. 19's y-axis.
 */
unsigned bitsForCapacity(unsigned radix, uint64_t capacity);

/** ceil(log2(capacity)), the binary-encoding reference curve. */
unsigned binaryBitsForCapacity(uint64_t capacity);

} // namespace jc
} // namespace c2m

#endif // C2M_JC_DIGITS_HPP
