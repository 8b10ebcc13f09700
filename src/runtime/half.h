#ifndef HPCMIXP_RUNTIME_HALF_H_
#define HPCMIXP_RUNTIME_HALF_H_

/**
 * @file
 * Software-emulated 16-bit floating-point element types.
 *
 * `Half` (IEEE-754 binary16) and `BFloat16` are storage formats: a
 * value lives in 16 bits in memory, arithmetic happens in float after
 * an implicit widening conversion, and a store rounds back to 16 bits
 * (round-to-nearest-even). That matches how region templates use
 * them — `x[i] = static_cast<TX>(z[i] * (y[i] - x[i-1]))` computes in
 * float and rounds once on the store — and is deliberately
 * compiler-independent: gcc 12 has no `__bf16` arithmetic and
 * `_Float16` semantics vary by target, while these emulated types
 * produce bit-identical results everywhere, which the golden-pinned
 * tests require.
 *
 * Conversion semantics (pinned by tests/runtime_test.cc against the
 * reference conversions in tests/half_reference.h):
 *  - float -> 16-bit uses round-to-nearest-even, including subnormal
 *    results; values whose magnitude rounds beyond the maximum finite
 *    16-bit value overflow to infinity.
 *  - NaN narrows to a quiet NaN, infinity stays infinity.
 *  - double -> 16-bit goes through float first (one documented
 *    double-rounding step, mirroring the Buffer's widening ladder).
 */

#include <bit>
#include <cstdint>
#include <type_traits>

#include "runtime/precision.h"

namespace hpcmixp::runtime {

namespace detail {

// Both binary16 conversions are branch-free so that region loops over
// Half vectorize; they assume the default FP environment (round to
// nearest even), see DESIGN.md section 14.

/**
 * float -> binary16 bits. Adding 2^(e+15) to 4|f| (2^e = |f|'s binade,
 * at least 2^-14) leaves the float adder's round-to-nearest-even
 * exactly at the half ulp, for normal and subnormal results alike; the
 * sum's low 12 bits are then the half significand with its implicit
 * bit, and its exponent field mod 32 is the half exponent minus one.
 * Clamping |f| to 2^16 makes every overflow (and Inf) land on 0x7c00.
 */
constexpr std::uint16_t
floatBitsToHalfBits(std::uint32_t f)
{
    std::uint32_t sign = (f >> 16) & 0x8000u;
    std::uint32_t abs = f & 0x7fffffffu;
    std::uint32_t a = abs < 0x47800000u ? abs : 0x47800000u;
    std::uint32_t binade = a & 0x7f800000u;
    binade = binade < 0x38800000u ? 0x38800000u : binade;
    float sum = std::bit_cast<float>(binade + 0x07800000u) +
                std::bit_cast<float>(a) * 4.0f;
    std::uint32_t s = std::bit_cast<std::uint32_t>(sum);
    std::uint32_t bits = ((s >> 13) & 0x7c00u) + (s & 0x0fffu);
    return static_cast<std::uint16_t>(
        sign | (abs > 0x7f800000u ? 0x7e00u : bits));
}

/**
 * binary16 bits -> float bits: re-bias the exponent by 112; Inf/NaN
 * get a further 112 (payload kept), and zero/subnormal halves are
 * renormalised by one exact float subtraction of 2^-14. The selects
 * are arithmetic rather than `?:`: GCC keeps a `?:` on a loop-invariant
 * Half (a kernel coefficient) as a branch inside the loop, and that
 * branch stops the loop from vectorizing.
 */
constexpr std::uint32_t
halfBitsToFloatBits(std::uint16_t h)
{
    std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
    std::uint32_t shifted = (static_cast<std::uint32_t>(h) & 0x7fffu) << 13;
    std::uint32_t exp = shifted & 0x0f800000u;
    std::uint32_t out =
        shifted + 0x38000000u + (exp == 0x0f800000u) * 0x38000000u;
    std::uint32_t tiny = std::bit_cast<std::uint32_t>(
        std::bit_cast<float>(out + 0x00800000u) - 0x1p-14f);
    std::uint32_t isTiny = 0u - (exp == 0u);
    return sign | (out ^ ((out ^ tiny) & isTiny));
}

constexpr std::uint16_t
floatBitsToBf16Bits(std::uint32_t f)
{
    if ((f & 0x7fffffffu) > 0x7f800000u) // NaN: truncate but quiet
        return static_cast<std::uint16_t>((f >> 16) | 0x0040u);
    // Round-to-nearest-even on the dropped low 16 bits; the carry
    // propagates into the exponent, overflowing large finites to Inf.
    std::uint32_t lsb = (f >> 16) & 1u;
    return static_cast<std::uint16_t>((f + 0x7fffu + lsb) >> 16);
}

} // namespace detail

/** IEEE-754 binary16 storage type (float compute, round on store). */
struct Half {
    std::uint16_t bits = 0;

    constexpr Half() = default;

    template <class U,
              class = std::enable_if_t<std::is_convertible_v<U, float>>>
    constexpr Half(U value)
        : bits(detail::floatBitsToHalfBits(
              std::bit_cast<std::uint32_t>(static_cast<float>(value))))
    {
    }

    constexpr operator float() const
    {
        return std::bit_cast<float>(detail::halfBitsToFloatBits(bits));
    }

    // Compound assignment computes in float and rounds on the store,
    // like every other use of the type.
    constexpr Half&
    operator+=(float v)
    {
        return *this = Half(static_cast<float>(*this) + v);
    }
    constexpr Half&
    operator-=(float v)
    {
        return *this = Half(static_cast<float>(*this) - v);
    }
    constexpr Half&
    operator*=(float v)
    {
        return *this = Half(static_cast<float>(*this) * v);
    }
    constexpr Half&
    operator/=(float v)
    {
        return *this = Half(static_cast<float>(*this) / v);
    }

    static constexpr Half
    fromBits(std::uint16_t b)
    {
        Half h;
        h.bits = b;
        return h;
    }
};

/** bfloat16 storage type (float compute, round on store). */
struct BFloat16 {
    std::uint16_t bits = 0;

    constexpr BFloat16() = default;

    template <class U,
              class = std::enable_if_t<std::is_convertible_v<U, float>>>
    constexpr BFloat16(U value)
        : bits(detail::floatBitsToBf16Bits(
              std::bit_cast<std::uint32_t>(static_cast<float>(value))))
    {
    }

    constexpr operator float() const
    {
        return std::bit_cast<float>(static_cast<std::uint32_t>(bits)
                                    << 16);
    }

    constexpr BFloat16&
    operator+=(float v)
    {
        return *this = BFloat16(static_cast<float>(*this) + v);
    }
    constexpr BFloat16&
    operator-=(float v)
    {
        return *this = BFloat16(static_cast<float>(*this) - v);
    }
    constexpr BFloat16&
    operator*=(float v)
    {
        return *this = BFloat16(static_cast<float>(*this) * v);
    }
    constexpr BFloat16&
    operator/=(float v)
    {
        return *this = BFloat16(static_cast<float>(*this) / v);
    }

    static constexpr BFloat16
    fromBits(std::uint16_t b)
    {
        BFloat16 v;
        v.bits = b;
        return v;
    }
};

static_assert(sizeof(Half) == 2 && sizeof(BFloat16) == 2,
              "16-bit storage types must be exactly two bytes");

template <>
constexpr Precision
precisionOf<Half>()
{
    return Precision::Float16;
}

template <>
constexpr Precision
precisionOf<BFloat16>()
{
    return Precision::BFloat16;
}

} // namespace hpcmixp::runtime

// Region templates pick their accumulator type as
// std::common_type_t<TX, TY>. Teach the trait that a 16-bit storage
// type combined with an arithmetic type accumulates as float would
// (float stays float, double stays double), two identical storage
// types keep their storage rounding, and the two 16-bit formats meet
// in float — the type their arithmetic happens in.
namespace std {

template <class T>
struct common_type<hpcmixp::runtime::Half, T>
    : common_type<float, T> {
};
template <class T>
struct common_type<T, hpcmixp::runtime::Half>
    : common_type<T, float> {
};
template <class T>
struct common_type<hpcmixp::runtime::BFloat16, T>
    : common_type<float, T> {
};
template <class T>
struct common_type<T, hpcmixp::runtime::BFloat16>
    : common_type<T, float> {
};
template <>
struct common_type<hpcmixp::runtime::Half, hpcmixp::runtime::Half> {
    using type = hpcmixp::runtime::Half;
};
template <>
struct common_type<hpcmixp::runtime::BFloat16,
                   hpcmixp::runtime::BFloat16> {
    using type = hpcmixp::runtime::BFloat16;
};
template <>
struct common_type<hpcmixp::runtime::Half,
                   hpcmixp::runtime::BFloat16> {
    using type = float;
};
template <>
struct common_type<hpcmixp::runtime::BFloat16,
                   hpcmixp::runtime::Half> {
    using type = float;
};

} // namespace std

#endif // HPCMIXP_RUNTIME_HALF_H_
