/**
 * @file
 * Exhaustive check of float -> binary16 narrowing: every one of the
 * 2^32 float bit patterns against the reference conversion. Sharded
 * so `ctest -j` spreads it over the cores; labelled `exhaustive` so
 * it can run (or be left out) on its own.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "runtime/half.h"

#include "half_reference.h"

namespace {

namespace detail = hpcmixp::runtime::detail;
namespace half_reference = hpcmixp::half_reference;

constexpr std::uint64_t kShards = 16;

class HalfSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HalfSweep, NarrowMatchesReferenceOnEveryFloat)
{
    constexpr std::uint64_t kSpan = (std::uint64_t{1} << 32) / kShards;
    std::uint64_t begin = GetParam() * kSpan;
    int mismatches = 0;
    for (std::uint64_t i = begin; i < begin + kSpan; ++i) {
        auto f = static_cast<std::uint32_t>(i);
        std::uint16_t got = detail::floatBitsToHalfBits(f);
        std::uint16_t want = half_reference::floatBitsToHalfBits(f);
        if (got != want && ++mismatches <= 8)
            ADD_FAILURE() << std::hex << "float 0x" << f << " -> 0x"
                          << got << ", reference 0x" << want;
    }
    EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, HalfSweep,
                         ::testing::Range(std::uint64_t{0}, kShards));

} // namespace
