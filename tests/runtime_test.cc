/**
 * @file
 * Tests for the runtime library: runtime-typed buffers (mp_malloc),
 * mixed-precision binary I/O (mp_fread/mp_fwrite) and type dispatch.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/buffer.h"
#include "runtime/dispatch.h"
#include "runtime/half.h"
#include "runtime/ladder.h"
#include "runtime/mp_io.h"
#include "support/logging.h"

#include "half_reference.h"

namespace {

using namespace hpcmixp::runtime;
namespace half_reference = hpcmixp::half_reference;

TEST(Precision, ByteSizesAndNames)
{
    EXPECT_EQ(byteSize(Precision::BFloat16), 2u);
    EXPECT_EQ(byteSize(Precision::Float16), 2u);
    EXPECT_EQ(byteSize(Precision::Float32), 4u);
    EXPECT_EQ(byteSize(Precision::Float64), 8u);
    EXPECT_EQ(precisionName(Precision::BFloat16), "bfloat16");
    EXPECT_EQ(precisionName(Precision::Float16), "half");
    EXPECT_EQ(precisionName(Precision::Float32), "float");
    EXPECT_EQ(precisionName(Precision::Float64), "double");
    EXPECT_EQ(precisionOf<BFloat16>(), Precision::BFloat16);
    EXPECT_EQ(precisionOf<Half>(), Precision::Float16);
    EXPECT_EQ(precisionOf<float>(), Precision::Float32);
    EXPECT_EQ(precisionOf<double>(), Precision::Float64);
}

/**
 * Pins the enum ordering contract the search layer leans on: a lower
 * enumerator value means a lower precision, where "lower" is ordered
 * by significand width (bfloat16 < half < float < double). This
 * resolves the precision.h open question in favor of accuracy order,
 * not range or storage-size order — bfloat16 and half tie on bytes
 * but must not tie on rank.
 */
TEST(Precision, OrderingContractTracksSignificandWidth)
{
    EXPECT_LT(static_cast<int>(Precision::BFloat16),
              static_cast<int>(Precision::Float16));
    EXPECT_LT(static_cast<int>(Precision::Float16),
              static_cast<int>(Precision::Float32));
    EXPECT_LT(static_cast<int>(Precision::Float32),
              static_cast<int>(Precision::Float64));
    EXPECT_LT(significandBits(Precision::BFloat16),
              significandBits(Precision::Float16));
    EXPECT_LT(significandBits(Precision::Float16),
              significandBits(Precision::Float32));
    EXPECT_LT(significandBits(Precision::Float32),
              significandBits(Precision::Float64));
    // Byte size is NOT a precision order: the two 16-bit formats tie.
    EXPECT_EQ(byteSize(Precision::BFloat16),
              byteSize(Precision::Float16));
}

TEST(Ladder, DefaultIsTwoTierAndDescribesCompatibly)
{
    PrecisionLadder ladder;
    EXPECT_EQ(ladder.rungs(), 2u);
    EXPECT_EQ(ladder.maxLevel(), 1u);
    EXPECT_EQ(ladder.at(0), Precision::Float64);
    EXPECT_EQ(ladder.at(1), Precision::Float32);
    // Must match the historical MemoFingerprint default so two-tier
    // memo segments stay loadable.
    EXPECT_EQ(ladder.describe(), "f64:f32");
    EXPECT_EQ(PrecisionLadder::parse("double,float"), ladder);
}

TEST(Ladder, ParsesThreeRungSpecsAndAliases)
{
    PrecisionLadder half = PrecisionLadder::parse("double,float,half");
    EXPECT_EQ(half.maxLevel(), 2u);
    EXPECT_EQ(half.at(2), Precision::Float16);
    EXPECT_EQ(half.describe(), "f64:f32:f16");
    EXPECT_EQ(PrecisionLadder::parse("f64,f32,fp16"), half);

    PrecisionLadder bf16 =
        PrecisionLadder::parse("double,float,bf16");
    EXPECT_EQ(bf16.at(2), Precision::BFloat16);
    EXPECT_EQ(bf16.describe(), "f64:f32:bf16");
    EXPECT_EQ(PrecisionLadder::parse("double,single,bfloat16"), bf16);
}

TEST(Ladder, RejectsNonDescendingOrUnknownSpecs)
{
    using hpcmixp::support::FatalError;
    EXPECT_THROW(PrecisionLadder::parse("float,double"), FatalError);
    EXPECT_THROW(PrecisionLadder::parse("double,half,float"),
                 FatalError);
    EXPECT_THROW(PrecisionLadder::parse("double,double"), FatalError);
    EXPECT_THROW(PrecisionLadder::parse("double,fp8"), FatalError);
    EXPECT_THROW(PrecisionLadder::parse(""), FatalError);
}

/**
 * Every non-NaN binary16 pattern must survive the widen-to-float /
 * round-back cycle bit-for-bit (float holds all half values
 * exactly); NaN patterns must stay NaN (payloads may canonicalize).
 */
TEST(HalfTest, ExhaustiveWidenRoundTrip)
{
    for (std::uint32_t b = 0; b < 0x10000u; ++b) {
        Half h = Half::fromBits(static_cast<std::uint16_t>(b));
        float widened = static_cast<float>(h);
        Half back(widened);
        bool isNan = ((b >> 10) & 0x1fu) == 0x1fu && (b & 0x3ffu);
        if (isNan) {
            EXPECT_TRUE(std::isnan(widened)) << "bits " << b;
            EXPECT_TRUE(std::isnan(static_cast<float>(back)))
                << "bits " << b;
        } else {
            EXPECT_EQ(back.bits, b) << "bits " << b;
        }
    }
}

// The conversions stay usable in constant expressions.
static_assert(Half(65520.f).bits == 0x7c00u, "rounds past max to Inf");
static_assert(Half(0x1p-25f).bits == 0u, "tie at 2^-25 rounds to +0");
static_assert(Half(1.5f * 0x1p-25f).bits == 1u, "rounds up to 2^-24");

/** Widening is bit-exact on every pattern, NaN payloads included. */
TEST(HalfTest, WidenMatchesReferenceOnEveryPattern)
{
    int mismatches = 0;
    for (std::uint32_t b = 0; b < 0x10000u; ++b) {
        auto h = static_cast<std::uint16_t>(b);
        std::uint32_t got = detail::halfBitsToFloatBits(h);
        std::uint32_t want = half_reference::halfBitsToFloatBits(h);
        if (got != want && ++mismatches <= 8)
            ADD_FAILURE() << std::hex << "half 0x" << b << " -> 0x"
                          << got << ", reference 0x" << want;
    }
    EXPECT_EQ(mismatches, 0);
}

/**
 * Narrowing agrees with the reference at every rounding point: each
 * sign and float exponent, every kept significand pattern, and the
 * dropped bits {0, 1, tie-1, tie, tie+1, all ones} at the position
 * where that exponent's result actually rounds — bit 13 for normal
 * halves (and the overflow/Inf/NaN exponents), shifted up to the
 * 2^-24 subnormal ulp below 2^-14.
 */
TEST(HalfTest, NarrowMatchesReferenceAroundEveryRoundingPoint)
{
    int mismatches = 0;
    for (std::uint32_t sign = 0; sign < 2; ++sign) {
        for (std::uint32_t exp = 0; exp < 256; ++exp) {
            int e = static_cast<int>(exp) - 127;
            unsigned dropped = e >= -14 ? 13u
                               : e >= -24
                                   ? static_cast<unsigned>(-e - 1)
                                   : 23u;
            std::uint32_t tie = 1u << (dropped - 1);
            const std::uint32_t low[] = {0u,      1u,      tie - 1u,
                                         tie,     tie + 1u,
                                         (tie << 1) - 1u};
            for (std::uint32_t kept = 0; kept < (1u << (23 - dropped));
                 ++kept) {
                for (std::uint32_t bits : low) {
                    std::uint32_t f = (sign << 31) | (exp << 23) |
                                      (kept << dropped) | bits;
                    std::uint16_t got = detail::floatBitsToHalfBits(f);
                    std::uint16_t want =
                        half_reference::floatBitsToHalfBits(f);
                    if (got != want && ++mismatches <= 8)
                        ADD_FAILURE()
                            << std::hex << "float 0x" << f << " -> 0x"
                            << got << ", reference 0x" << want;
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(HalfTest, ExhaustiveBf16WidenRoundTrip)
{
    for (std::uint32_t b = 0; b < 0x10000u; ++b) {
        BFloat16 v = BFloat16::fromBits(static_cast<std::uint16_t>(b));
        float widened = static_cast<float>(v);
        BFloat16 back(widened);
        bool isNan = ((b >> 7) & 0xffu) == 0xffu && (b & 0x7fu);
        if (isNan) {
            EXPECT_TRUE(std::isnan(widened)) << "bits " << b;
            EXPECT_TRUE(std::isnan(static_cast<float>(back)))
                << "bits " << b;
        } else {
            EXPECT_EQ(back.bits, b) << "bits " << b;
        }
    }
}

TEST(HalfTest, RoundsToNearestEven)
{
    // 1 + 2^-11 is exactly halfway between 1 and 1 + 2^-10: the tie
    // goes to the even mantissa, 1.0.
    EXPECT_EQ(static_cast<float>(Half(1.0f + 0x1p-11f)), 1.0f);
    // 1 + 3*2^-11 ties between odd 1 + 2^-10 and even 1 + 2^-9.
    EXPECT_EQ(static_cast<float>(Half(1.0f + 3 * 0x1p-11f)),
              1.0f + 0x1p-9f);
    // bfloat16: halfway between 1 and 1 + 2^-7 rounds to even 1.0.
    EXPECT_EQ(static_cast<float>(BFloat16(1.0f + 0x1p-8f)), 1.0f);
    EXPECT_EQ(static_cast<float>(BFloat16(1.0f + 3 * 0x1p-8f)),
              1.0f + 0x1p-6f);
}

TEST(HalfTest, SubnormalsRoundCorrectly)
{
    // 2^-24 is the smallest binary16 subnormal.
    EXPECT_EQ(static_cast<float>(Half(0x1p-24f)), 0x1p-24f);
    EXPECT_EQ(Half(0x1p-24f).bits, 0x0001u);
    // Halfway between 0 and 2^-24 underflows to the even side, +0.
    EXPECT_EQ(Half(0x1p-25f).bits, 0x0000u);
    // Anything past halfway rounds up into the subnormal range.
    EXPECT_EQ(Half(1.5f * 0x1p-25f).bits, 0x0001u);
    // Largest subnormal, then the smallest normal.
    EXPECT_EQ(static_cast<float>(Half::fromBits(0x03ffu)),
              0x3ffp-24f);
    EXPECT_EQ(static_cast<float>(Half::fromBits(0x0400u)), 0x1p-14f);
}

/**
 * Narrowing values beyond the 16-bit format's range must overflow to
 * infinity (never wrap or saturate silently), and NaN / Inf inputs
 * must stay NaN / Inf — the quality comparator depends on the fused
 * ErrorStats seeing those poisoned outputs.
 */
TEST(HalfTest, OverflowOnNarrowProducesInfinity)
{
    EXPECT_EQ(static_cast<float>(Half(65504.0f)), 65504.0f); // max
    EXPECT_TRUE(std::isinf(static_cast<float>(Half(65520.0f))));
    EXPECT_TRUE(std::isinf(static_cast<float>(Half(-1e6f))));
    EXPECT_LT(static_cast<float>(Half(-1e6f)), 0.0f);
    // double -> half goes through float; hugely out of range stays Inf.
    EXPECT_TRUE(std::isinf(static_cast<float>(Half(1e300))));

    // bfloat16 keeps float range: float max survives, but a value
    // that rounds past it overflows to Inf.
    EXPECT_FALSE(std::isinf(static_cast<float>(BFloat16(0x1.fep127f))));
    EXPECT_TRUE(std::isinf(static_cast<float>(
        BFloat16(std::numeric_limits<float>::max()))));
    EXPECT_TRUE(std::isinf(static_cast<float>(BFloat16(1e300))));

    // NaN / Inf propagate through a narrow.
    float qnan = std::numeric_limits<float>::quiet_NaN();
    float inf = std::numeric_limits<float>::infinity();
    EXPECT_TRUE(std::isnan(static_cast<float>(Half(qnan))));
    EXPECT_TRUE(std::isnan(static_cast<float>(BFloat16(qnan))));
    EXPECT_TRUE(std::isinf(static_cast<float>(Half(inf))));
    EXPECT_TRUE(std::isinf(static_cast<float>(BFloat16(inf))));
    EXPECT_GT(static_cast<float>(Half(inf)), 0.0f);
}

TEST(HalfTest, CompoundAssignRoundsOnStore)
{
    Half h(1.0f);
    h += 0x1p-11f; // rounds back to 1.0 (tie to even)
    EXPECT_EQ(static_cast<float>(h), 1.0f);
    h += 0x1p-10f;
    EXPECT_EQ(static_cast<float>(h), 1.0f + 0x1p-10f);

    BFloat16 b(256.0f);
    b *= 0.5f;
    EXPECT_EQ(static_cast<float>(b), 128.0f);
    b += 0.25f; // 128.25 is below bf16 resolution at 128
    EXPECT_EQ(static_cast<float>(b), 128.0f);
}

TEST(BufferTest, AllocatesZeroFilled)
{
    Buffer b(8, Precision::Float32);
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(b.bytes(), 32u);
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b.loadDouble(i), 0.0);
}

TEST(BufferTest, SinglePrecisionHalvesFootprint)
{
    Buffer d(1000, Precision::Float64);
    Buffer f(1000, Precision::Float32);
    EXPECT_EQ(f.bytes() * 2, d.bytes());
}

TEST(BufferTest, TypedViewsMatchPrecision)
{
    Buffer b(4, Precision::Float64);
    auto view = b.as<double>();
    view[2] = 2.5;
    EXPECT_DOUBLE_EQ(b.loadDouble(2), 2.5);
}

TEST(BufferTest, FromDoublesRoundsToFloat)
{
    std::vector<double> data{0.1, 0.2, 1.0 / 3.0};
    Buffer f = Buffer::fromDoubles(data, Precision::Float32);
    Buffer d = Buffer::fromDoubles(data, Precision::Float64);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(f.loadDouble(i),
                  static_cast<double>(static_cast<float>(data[i])));
        EXPECT_EQ(d.loadDouble(i), data[i]);
    }
}

TEST(BufferTest, ToDoublesRoundTripsWiden)
{
    std::vector<double> data{1.0, 2.0, 3.0};
    Buffer b = Buffer::fromDoubles(data, Precision::Float64);
    EXPECT_EQ(b.toDoubles(), data);
}

TEST(BufferTest, StoreDoubleConvertsAtWrite)
{
    Buffer f(1, Precision::Float32);
    f.storeDouble(0, 1.0 / 3.0);
    EXPECT_EQ(f.loadDouble(0),
              static_cast<double>(static_cast<float>(1.0 / 3.0)));
}

TEST(BufferDeathTest, MismatchedTypedAccessPanics)
{
    Buffer f(4, Precision::Float32);
    EXPECT_DEATH((void)f.as<double>(), "typed access");
}

TEST(BufferDeathTest, OutOfRangeAccessPanics)
{
    Buffer b(2, Precision::Float64);
    EXPECT_DEATH((void)b.loadDouble(2), "out of range");
}

TEST(MpIo, WriteDoubleReadIntoFloatConverts)
{
    std::vector<double> data{0.5, 1.5, 1.0 / 3.0};
    Buffer source = Buffer::fromDoubles(data, Precision::Float64);
    std::stringstream stream;
    mpFwrite(source, Precision::Float64, stream);

    Buffer dest(3, Precision::Float32);
    mpFread(dest, Precision::Float64, stream);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(dest.loadDouble(i),
                  static_cast<double>(static_cast<float>(data[i])));
}

TEST(MpIo, WriteFloatDiskFormatFromDoubleBuffer)
{
    std::vector<double> data{0.25, 0.125};
    Buffer source = Buffer::fromDoubles(data, Precision::Float64);
    std::stringstream stream;
    mpFwrite(source, Precision::Float32, stream);
    EXPECT_EQ(stream.str().size(), 2 * sizeof(float));

    Buffer dest(2, Precision::Float64);
    mpFread(dest, Precision::Float32, stream);
    EXPECT_EQ(dest.toDoubles(), data); // exactly representable
}

TEST(MpIo, ShortReadIsFatal)
{
    std::stringstream stream;
    stream.write("abcd", 4);
    Buffer dest(4, Precision::Float64);
    EXPECT_THROW(mpFread(dest, Precision::Float64, stream),
                 hpcmixp::support::FatalError);
}

TEST(MpIo, FileRoundTrip)
{
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "hpcmixp_io_test.bin").string();
    std::vector<double> data{3.0, -2.5, 0.0625};
    Buffer source = Buffer::fromDoubles(data, Precision::Float32);
    mpWriteFile(source, Precision::Float64, path);
    Buffer loaded =
        mpReadFile(path, Precision::Float64, 3, Precision::Float32);
    EXPECT_EQ(loaded.toDoubles(), source.toDoubles());
    fs::remove(path);
    EXPECT_THROW(
        mpReadFile("/no/such/file", Precision::Float64, 1,
                   Precision::Float64),
        hpcmixp::support::FatalError);
}

TEST(Dispatch, Dispatch1SelectsMatchingType)
{
    auto kind = dispatch1(Precision::Float32, [](auto tag) {
        using T = typename decltype(tag)::type;
        return precisionOf<T>();
    });
    EXPECT_EQ(kind, Precision::Float32);
    kind = dispatch1(Precision::Float64, [](auto tag) {
        using T = typename decltype(tag)::type;
        return precisionOf<T>();
    });
    EXPECT_EQ(kind, Precision::Float64);
}

constexpr Precision kAllPrecisions[] = {
    Precision::BFloat16,
    Precision::Float16,
    Precision::Float32,
    Precision::Float64,
};

TEST(Dispatch, Dispatch2CoversAll16Combinations)
{
    for (auto a : kAllPrecisions) {
        for (auto b : kAllPrecisions) {
            auto got = dispatch2(a, b, [](auto ta, auto tb) {
                using A = typename decltype(ta)::type;
                using B = typename decltype(tb)::type;
                return std::pair{precisionOf<A>(), precisionOf<B>()};
            });
            EXPECT_EQ(got.first, a);
            EXPECT_EQ(got.second, b);
        }
    }
}

TEST(Dispatch, PromotionInsideDispatchMatchesCxxRules)
{
    auto sum = dispatch2(
        Precision::Float32, Precision::Float64, [](auto ta, auto tb) {
            using A = typename decltype(ta)::type;
            using B = typename decltype(tb)::type;
            A x = A(0.1f);
            B y = B(0.2);
            return sizeof(x + y);
        });
    EXPECT_EQ(sum, sizeof(double));
}

TEST(Dispatch, Dispatch4Covers256Combinations)
{
    int count = 0;
    for (auto a : kAllPrecisions)
        for (auto b : kAllPrecisions)
            for (auto c : kAllPrecisions)
                for (auto d : kAllPrecisions)
                    dispatch4(a, b, c, d,
                              [&](auto, auto, auto, auto) { ++count; });
    EXPECT_EQ(count, 256);
}

TEST(BufferTest, HalfLaneQuartersDoubleFootprint)
{
    Buffer d(1000, Precision::Float64);
    Buffer h(1000, Precision::Float16);
    Buffer b(1000, Precision::BFloat16);
    EXPECT_EQ(h.bytes() * 4, d.bytes());
    EXPECT_EQ(b.bytes(), h.bytes());
}

TEST(BufferTest, HalfLanesConvertOnStoreAndLoad)
{
    std::vector<double> data{1.0, 1.0 / 3.0, 65504.0, 1e6, -2.5};
    Buffer h = Buffer::fromDoubles(data, Precision::Float16);
    Buffer b = Buffer::fromDoubles(data, Precision::BFloat16);
    for (std::size_t i = 0; i < data.size(); ++i) {
        float f = static_cast<float>(data[i]);
        EXPECT_EQ(h.loadDouble(i),
                  static_cast<double>(static_cast<float>(Half(f))))
            << i;
        EXPECT_EQ(b.loadDouble(i),
                  static_cast<double>(static_cast<float>(BFloat16(f))))
            << i;
    }
    // 1e6 exceeds binary16 range: the stored lane reads back as Inf.
    EXPECT_TRUE(std::isinf(h.loadDouble(3)));
    EXPECT_FALSE(std::isinf(b.loadDouble(3)));

    Buffer w(1, Precision::Float16);
    w.storeDouble(0, 1.0 / 3.0);
    auto view = w.as<Half>();
    EXPECT_EQ(view[0].bits, Half(1.0f / 3.0f).bits);
}

TEST(MpIo, HalfLaneFileRoundTrip)
{
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "hpcmixp_io_half.bin").string();
    std::vector<double> data{0.5, -0.25, 1.0 / 3.0, 1024.0};
    Buffer source = Buffer::fromDoubles(data, Precision::Float16);
    mpWriteFile(source, Precision::Float64, path);
    Buffer loaded =
        mpReadFile(path, Precision::Float64, 4, Precision::Float16);
    EXPECT_EQ(loaded.toDoubles(), source.toDoubles());
    fs::remove(path);
}

} // namespace
