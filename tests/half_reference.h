#ifndef HPCMIXP_TESTS_HALF_REFERENCE_H_
#define HPCMIXP_TESTS_HALF_REFERENCE_H_

/**
 * @file
 * Reference binary16 conversions for the Half tests: the obvious
 * branchy field-by-field implementation (explicit round-to-nearest-
 * even on the dropped bits, a renormalisation loop for subnormals).
 * runtime/half.h's branch-free conversions must agree with these bit
 * for bit, NaN payloads included.
 */

#include <cstdint>

namespace hpcmixp::half_reference {

/** Round-to-nearest-even of (v >> shift); the carry may propagate. */
constexpr std::uint32_t
roundShiftRight(std::uint32_t v, unsigned shift)
{
    std::uint32_t out = v >> shift;
    std::uint32_t rem = v & ((1u << shift) - 1u);
    std::uint32_t half = 1u << (shift - 1u);
    if (rem > half || (rem == half && (out & 1u)))
        ++out;
    return out;
}

constexpr std::uint16_t
floatBitsToHalfBits(std::uint32_t f)
{
    std::uint32_t sign = (f >> 16) & 0x8000u;
    std::uint32_t abs = f & 0x7fffffffu;
    if (abs >= 0x7f800000u) // Inf or NaN
        return static_cast<std::uint16_t>(
            sign | (abs > 0x7f800000u ? 0x7e00u : 0x7c00u));
    int exp = static_cast<int>(abs >> 23) - 127;
    std::uint32_t man = abs & 0x007fffffu;
    if (exp >= 16) // magnitude >= 2^16: overflow to Inf
        return static_cast<std::uint16_t>(sign | 0x7c00u);
    if (exp >= -14) {
        // Normal half; a mantissa rounding carry bumps the exponent
        // (and 65520+ correctly carries into the Inf encoding).
        std::uint32_t out = roundShiftRight(man, 13);
        std::uint32_t bits =
            (static_cast<std::uint32_t>(exp + 15) << 10) + out;
        return static_cast<std::uint16_t>(sign | bits);
    }
    if (exp >= -25) {
        // Subnormal half: make the implicit bit explicit, then round
        // in units of 2^-24 (the subnormal ulp).
        std::uint32_t full = man | 0x00800000u;
        std::uint32_t out =
            roundShiftRight(full, static_cast<unsigned>(-exp - 1));
        return static_cast<std::uint16_t>(sign | out);
    }
    return static_cast<std::uint16_t>(sign); // underflows to +/-0
}

constexpr std::uint32_t
halfBitsToFloatBits(std::uint16_t h)
{
    std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
    std::uint32_t exp = (h >> 10) & 0x1fu;
    std::uint32_t man = h & 0x3ffu;
    if (exp == 31u) // Inf / NaN
        return sign | 0x7f800000u | (man << 13);
    if (exp == 0u) {
        if (man == 0u)
            return sign; // +/-0
        // Subnormal half: renormalize into a float.
        unsigned extra = 0;
        std::uint32_t m = man;
        while (!(m & 0x400u)) {
            m <<= 1;
            ++extra;
        }
        // value = 1.xxx * 2^(-14 - extra)  ->  biased float exponent
        std::uint32_t fexp = 113u - extra;
        return sign | (fexp << 23) | ((m & 0x3ffu) << 13);
    }
    return sign | ((exp + 112u) << 23) | (man << 13);
}

} // namespace hpcmixp::half_reference

#endif // HPCMIXP_TESTS_HALF_REFERENCE_H_
