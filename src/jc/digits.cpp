#include "jc/digits.hpp"

#include "common/logging.hpp"

namespace c2m {
namespace jc {

std::vector<unsigned>
toDigits(uint64_t value, unsigned radix)
{
    C2M_ASSERT(radix >= 2, "radix must be >= 2");
    std::vector<unsigned> digits;
    do {
        digits.push_back(static_cast<unsigned>(value % radix));
        value /= radix;
    } while (value != 0);
    return digits;
}

uint64_t
fromDigits(const std::vector<unsigned> &digits, unsigned radix)
{
    uint64_t value = 0;
    for (size_t i = digits.size(); i-- > 0;) {
        value = value * radix + digits[i];
    }
    return value;
}

unsigned
digitsForCapacity(unsigned radix, uint64_t capacity)
{
    C2M_ASSERT(radix >= 2 && capacity >= 1, "bad capacity request");
    unsigned digits = 1;
    // Track radix^digits without overflow: cap the accumulator once it
    // exceeds capacity.
    __uint128_t reach = radix;
    while (reach < capacity) {
        reach *= radix;
        ++digits;
    }
    return digits;
}

unsigned
digitsForCapacityBits(unsigned radix, unsigned bits)
{
    C2M_ASSERT(bits >= 1 && bits <= 64, "bad capacity bits");
    const __uint128_t capacity = static_cast<__uint128_t>(1) << bits;
    unsigned digits = 1;
    __uint128_t reach = radix;
    while (reach < capacity) {
        reach *= radix;
        ++digits;
    }
    return digits;
}

unsigned
bitsForCapacity(unsigned radix, uint64_t capacity)
{
    if (radix == 2)
        return binaryBitsForCapacity(capacity);
    C2M_ASSERT(radix % 2 == 0, "JC radix must be even");
    return digitsForCapacity(radix, capacity) * (radix / 2);
}

unsigned
binaryBitsForCapacity(uint64_t capacity)
{
    C2M_ASSERT(capacity >= 1, "bad capacity");
    unsigned bits = 1;
    __uint128_t reach = 2;
    while (reach < capacity) {
        reach *= 2;
        ++bits;
    }
    return bits;
}

} // namespace jc
} // namespace c2m
