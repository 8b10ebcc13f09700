/**
 * @file
 * Property-based tests for the verification metrics over randomized
 * vectors: mathematical identities and orderings that must hold for
 * any input.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/half.h"
#include "support/rng.h"
#include "verify/comparator.h"
#include "verify/metrics.h"

namespace {

using namespace hpcmixp::verify;
using hpcmixp::support::Pcg32;

struct Vectors {
    std::vector<double> ref;
    std::vector<double> test;
};

Vectors
randomVectors(std::uint64_t seed, std::size_t n)
{
    Pcg32 rng(seed);
    Vectors v;
    v.ref.resize(n);
    v.test.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        v.ref[i] = rng.uniform(-10.0, 10.0);
        v.test[i] = v.ref[i] + rng.uniform(-0.5, 0.5);
    }
    return v;
}

class MetricProperty : public ::testing::TestWithParam<std::uint64_t> {
  protected:
    Vectors v_ = randomVectors(GetParam(), 257);
};

TEST_P(MetricProperty, IdentityGivesZeroLoss)
{
    auto& reg = MetricRegistry::instance();
    for (const char* name : {"MAE", "MSE", "RMSE", "R2", "MCR"}) {
        const Metric& m = reg.get(name);
        EXPECT_NEAR(m.loss(v_.ref, v_.ref), 0.0, 1e-12) << name;
    }
}

TEST_P(MetricProperty, RmseDominatesMae)
{
    MeanAbsoluteError mae;
    RootMeanSquareError rmse;
    EXPECT_GE(rmse.compute(v_.ref, v_.test) + 1e-15,
              mae.compute(v_.ref, v_.test));
}

TEST_P(MetricProperty, RmseSquaredIsMse)
{
    MeanSquareError mse;
    RootMeanSquareError rmse;
    double r = rmse.compute(v_.ref, v_.test);
    EXPECT_NEAR(r * r, mse.compute(v_.ref, v_.test),
                1e-12 * (1.0 + r * r));
}

TEST_P(MetricProperty, R2NeverExceedsOne)
{
    CoefficientOfDetermination r2;
    EXPECT_LE(r2.compute(v_.ref, v_.test), 1.0 + 1e-12);
    EXPECT_GE(r2.loss(v_.ref, v_.test), -1e-12);
}

TEST_P(MetricProperty, McrIsAProperFraction)
{
    MisclassificationRate mcr;
    double v = mcr.compute(v_.ref, v_.test);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
}

TEST_P(MetricProperty, MaeIsSymmetricInDifferenceSign)
{
    MeanAbsoluteError mae;
    std::vector<double> flipped(v_.ref.size());
    for (std::size_t i = 0; i < v_.ref.size(); ++i)
        flipped[i] = 2.0 * v_.ref[i] - v_.test[i]; // mirror around ref
    EXPECT_NEAR(mae.compute(v_.ref, v_.test),
                mae.compute(v_.ref, flipped), 1e-12);
}

TEST_P(MetricProperty, MaeScalesLinearly)
{
    MeanAbsoluteError mae;
    std::vector<double> ref2(v_.ref.size());
    std::vector<double> test2(v_.test.size());
    for (std::size_t i = 0; i < v_.ref.size(); ++i) {
        ref2[i] = 3.0 * v_.ref[i];
        test2[i] = 3.0 * v_.test[i];
    }
    EXPECT_NEAR(mae.compute(ref2, test2),
                3.0 * mae.compute(v_.ref, v_.test), 1e-9);
}

TEST_P(MetricProperty, WorseningOnePointNeverImprovesMae)
{
    MeanAbsoluteError mae;
    double before = mae.compute(v_.ref, v_.test);
    std::vector<double> worse = v_.test;
    // Push the first element further from the reference.
    worse[0] += (worse[0] >= v_.ref[0]) ? 1.0 : -1.0;
    EXPECT_GE(mae.compute(v_.ref, worse), before);
}

/**
 * A comparator's verdict loss must be exactly its metric's loss() for
 * every built-in metric when the test vector is a 16-bit degradation
 * of the reference — the exact shape a half / bfloat16 ladder rung
 * produces. (The test names predate the removal of the fused
 * all-metrics pass; what they pin is OutputComparator::verify.)
 */
TEST_P(MetricProperty, FusedStatsMatchMetricsOnHalfDegradedOutput)
{
    using hpcmixp::runtime::BFloat16;
    using hpcmixp::runtime::Half;
    const double inf = std::numeric_limits<double>::infinity();
    auto& reg = MetricRegistry::instance();
    for (int format = 0; format < 2; ++format) {
        std::vector<double> narrowed(v_.ref.size());
        for (std::size_t i = 0; i < v_.ref.size(); ++i) {
            float f = static_cast<float>(v_.ref[i]);
            narrowed[i] = format == 0
                              ? static_cast<float>(Half(f))
                              : static_cast<float>(BFloat16(f));
        }
        for (const char* name : {"MAE", "MSE", "RMSE", "R2", "MCR"}) {
            Verdict verdict =
                OutputComparator(name, inf).verify(v_.ref, narrowed);
            EXPECT_TRUE(verdict.passed) << name;
            EXPECT_EQ(verdict.loss, reg.get(name).loss(v_.ref, narrowed))
                << name;
        }
        // A 16-bit rounding of values in [-10, 10] is small but not
        // free: the loss must be positive yet bounded by the format's
        // ulp at the largest magnitude (2^-8 for half, 2^-5 for bf16).
        double ulp = format == 0 ? 0x1p-8 : 0x1p-5;
        Verdict mae = OutputComparator("MAE", ulp).verify(v_.ref, narrowed);
        EXPECT_GT(mae.loss, 0.0);
        EXPECT_LT(mae.loss, ulp);
        EXPECT_TRUE(mae.passed);
        EXPECT_FALSE(
            OutputComparator("MAE", 0.0).verify(v_.ref, narrowed).passed);
    }
}

/**
 * Overflow-on-narrow poisoning: when a ladder rung overflows a value
 * to infinity (binary16 tops out at 65504), or an output is NaN, the
 * loss goes non-finite and the comparator never accepts the run, even
 * at an infinite threshold.
 */
TEST_P(MetricProperty, FusedStatsPropagateNarrowOverflowAndNan)
{
    using hpcmixp::runtime::Half;
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> ref = v_.ref;
    ref[3] = 70000.0; // beyond binary16 range
    std::vector<double> narrowed(ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        narrowed[i] = static_cast<float>(
            Half(static_cast<float>(ref[i])));
    ASSERT_TRUE(std::isinf(narrowed[3]));

    std::vector<double> poisoned = v_.test;
    poisoned[5] = std::numeric_limits<double>::quiet_NaN();
    for (const char* name : {"MAE", "MSE", "RMSE", "R2"}) {
        OutputComparator cmp(name, inf);
        Verdict overflow = cmp.verify(ref, narrowed);
        EXPECT_FALSE(std::isfinite(overflow.loss)) << name;
        EXPECT_FALSE(overflow.passed) << name;
        Verdict nan = cmp.verify(v_.ref, poisoned);
        EXPECT_TRUE(std::isnan(nan.loss)) << name;
        EXPECT_FALSE(nan.passed) << name;
    }
    // MCR counts a NaN label as misclassified: a finite, non-zero loss.
    Verdict mcr = OutputComparator("MCR", 0.0).verify(v_.ref, poisoned);
    EXPECT_GT(mcr.loss, 0.0);
    EXPECT_FALSE(mcr.passed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u, 77u, 88u));

} // namespace
