/**
 * @file
 * Tests for the verification library: the five quality metrics, the
 * registry extension point, and the pass/fail comparator.
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "support/logging.h"
#include "support/rng.h"
#include "verify/comparator.h"
#include "verify/metrics.h"

namespace {

using namespace hpcmixp::verify;
using hpcmixp::support::FatalError;

const std::vector<double> kRef{1.0, 2.0, 3.0, 4.0};

TEST(Metrics, MaeOfIdenticalVectorsIsZero)
{
    MeanAbsoluteError mae;
    EXPECT_DOUBLE_EQ(mae.compute(kRef, kRef), 0.0);
}

TEST(Metrics, MaeAveragesAbsoluteDeviations)
{
    MeanAbsoluteError mae;
    std::vector<double> test{1.5, 1.5, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mae.compute(kRef, test), (0.5 + 0.5) / 4.0);
}

TEST(Metrics, MseAndRmseAreConsistent)
{
    MeanSquareError mse;
    RootMeanSquareError rmse;
    std::vector<double> test{2.0, 2.0, 3.0, 4.0};
    double m = mse.compute(kRef, test);
    EXPECT_DOUBLE_EQ(m, 1.0 / 4.0);
    EXPECT_DOUBLE_EQ(rmse.compute(kRef, test), std::sqrt(m));
}

TEST(Metrics, R2PerfectFitIsOne)
{
    CoefficientOfDetermination r2;
    EXPECT_DOUBLE_EQ(r2.compute(kRef, kRef), 1.0);
    EXPECT_DOUBLE_EQ(r2.loss(kRef, kRef), 0.0);
}

TEST(Metrics, R2MeanPredictorIsZero)
{
    CoefficientOfDetermination r2;
    std::vector<double> meanOnly(4, 2.5);
    EXPECT_DOUBLE_EQ(r2.compute(kRef, meanOnly), 0.0);
    EXPECT_DOUBLE_EQ(r2.loss(kRef, meanOnly), 1.0);
}

TEST(Metrics, R2ConstantReferenceEdgeCase)
{
    CoefficientOfDetermination r2;
    std::vector<double> ref(4, 3.0);
    std::vector<double> same(4, 3.0);
    std::vector<double> off(4, 3.1);
    EXPECT_DOUBLE_EQ(r2.compute(ref, same), 1.0);
    EXPECT_DOUBLE_EQ(r2.compute(ref, off), 0.0);
}

TEST(Metrics, McrCountsLabelFlips)
{
    MisclassificationRate mcr;
    std::vector<double> ref{0, 1, 2, 2};
    std::vector<double> test{0, 1, 2, 1};
    EXPECT_DOUBLE_EQ(mcr.compute(ref, test), 0.25);
    // Rounding tolerance: 1.4999 rounds to 1.
    std::vector<double> close{0.0, 1.4, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(mcr.compute(ref, close), 0.0);
}

TEST(Metrics, McrTreatsNaNAsMisclassified)
{
    MisclassificationRate mcr;
    std::vector<double> ref{0, 1};
    std::vector<double> test{0, std::nan("")};
    EXPECT_DOUBLE_EQ(mcr.compute(ref, test), 0.5);
}

/** MCR of one label pair as the llround() formulation decided it. */
double
llroundMcr(double reference, double test)
{
    return std::isnan(test) || std::llround(reference) != std::llround(test)
               ? 1.0
               : 0.0;
}

TEST(Metrics, McrMatchesLlroundLabels)
{
    MisclassificationRate mcr;
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> values{0.0,  -0.0, 0.5,  -0.5, 1.5, -1.5, 2.5,
                               -2.5, 0.49999999999999994,
                               -0.49999999999999994, 0x1p51 + 0.5,
                               -(0x1p51 + 0.5), 0x1p51 + 1.0, 0x1p52 + 1.0,
                               1.0,  2.0,  3.0,  -1.0, -3.0};
    hpcmixp::support::Pcg32 rng(17);
    for (int i = 0; i < 200; ++i) {
        double label = std::floor(rng.uniform(-8.0, 8.0));
        values.push_back(label);
        values.push_back(label + rng.uniform(-0.6, 0.6));
        values.push_back(label + 0.5);
    }
    for (double a : values)
        for (double b : values)
            ASSERT_EQ(mcr.compute({&a, 1}, {&b, 1}), llroundMcr(a, b))
                << a << " vs " << b;

    // A NaN output is still a mismatch; equal infinities still match.
    const double nan = std::nan("");
    for (double a : {0.0, 1.5, -2.5, inf, -inf})
        EXPECT_EQ(mcr.compute({&a, 1}, {&nan, 1}), 1.0) << a;
    for (double a : {inf, -inf})
        EXPECT_EQ(mcr.compute({&a, 1}, {&a, 1}), llroundMcr(a, a)) << a;

    // Where llround() is unspecified, labels compare as values: glibc
    // gives +inf and -inf (and every |x| >= 2^63) the same llround().
    const double huge = 0x1p70;
    std::vector<double> ref{inf, huge, nan};
    std::vector<double> test{-inf, 2.0 * huge, nan};
    EXPECT_EQ(mcr.compute(ref, test), 1.0);
}

TEST(Metrics, NaNInTestPropagatesIntoContinuousMetrics)
{
    MeanAbsoluteError mae;
    std::vector<double> test{1.0, std::nan(""), 3.0, 4.0};
    EXPECT_TRUE(std::isnan(mae.compute(kRef, test)));
}

TEST(Metrics, ShapeMismatchesAreFatal)
{
    MeanAbsoluteError mae;
    std::vector<double> shorter{1.0};
    std::vector<double> empty;
    EXPECT_THROW(mae.compute(kRef, shorter), FatalError);
    EXPECT_THROW(mae.compute(empty, empty), FatalError);
}

TEST(MetricRegistryTest, BuiltinsPresentAndCaseInsensitive)
{
    auto& reg = MetricRegistry::instance();
    for (const char* name : {"MAE", "MSE", "RMSE", "R2", "MCR"})
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_EQ(reg.get("mae").name(), "MAE");
    EXPECT_THROW(reg.get("nope"), FatalError);
}

TEST(MetricRegistryTest, UserMetricsCanBeAdded)
{
    /** Max absolute error: the paper's extension point in action. */
    class MaxAbsError : public Metric {
      public:
        std::string name() const override { return "MAXABS-test"; }
        double
        compute(std::span<const double> reference,
                std::span<const double> test) const override
        {
            ++computeCalls;
            double worst = 0.0;
            for (std::size_t i = 0; i < reference.size(); ++i)
                worst = std::max(worst,
                                 std::abs(reference[i] - test[i]));
            return worst;
        }
        mutable int computeCalls = 0;
    };
    auto& reg = MetricRegistry::instance();
    if (!reg.has("MAXABS-test"))
        reg.add(std::make_unique<MaxAbsError>());
    std::vector<double> test{1.0, 2.0, 3.0, 5.5};
    EXPECT_DOUBLE_EQ(reg.get("MAXABS-test").compute(kRef, test), 1.5);
    EXPECT_THROW(reg.add(std::make_unique<MaxAbsError>()), FatalError);

    // A comparator on a user metric reads the outputs once per verify.
    const auto& registered =
        dynamic_cast<const MaxAbsError&>(reg.get("maxabs-TEST"));
    OutputComparator cmp("MAXABS-test", 2.0);
    int before = registered.computeCalls;
    Verdict verdict = cmp.verify(kRef, test);
    EXPECT_EQ(registered.computeCalls - before, 1);
    EXPECT_TRUE(verdict.passed);
    EXPECT_DOUBLE_EQ(verdict.loss, 1.5);
}

TEST(Comparator, PassesAtOrBelowThreshold)
{
    OutputComparator cmp("MAE", 0.25);
    std::vector<double> pass{1.5, 2.5, 3.0, 4.0};   // MAE 0.25
    std::vector<double> fail{1.5, 2.5, 3.5, 4.5};   // MAE 0.5
    EXPECT_TRUE(cmp.verify(kRef, pass).passed);
    EXPECT_FALSE(cmp.verify(kRef, fail).passed);
    EXPECT_DOUBLE_EQ(cmp.threshold(), 0.25);
}

TEST(Comparator, NaNOutputNeverPasses)
{
    OutputComparator cmp("MAE",
                         std::numeric_limits<double>::infinity());
    std::vector<double> destroyed{1.0, std::nan(""), 3.0, 4.0};
    auto verdict = cmp.verify(kRef, destroyed);
    EXPECT_FALSE(verdict.passed);
    EXPECT_TRUE(std::isnan(verdict.loss));
}

TEST(Comparator, R2UsesLossNotRawValue)
{
    OutputComparator cmp("R2", 0.01);
    EXPECT_TRUE(cmp.verify(kRef, kRef).passed);
    std::vector<double> meanOnly(4, 2.5);
    EXPECT_FALSE(cmp.verify(kRef, meanOnly).passed);
}

/**
 * A large common offset in the reference must not cancel R2's total
 * sum of squares: the verdict is the two-pass metric's, bit for bit.
 * (The sum-of-squares form sum(r^2) - sum(r) * mean drives ssTot
 * negative here and would report R2 = 0.)
 */
TEST(Comparator, R2SurvivesLargeReferenceOffset)
{
    hpcmixp::support::Pcg32 rng(7);
    std::vector<double> ref(1000);
    std::vector<double> test(ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i] = 1e8 + rng.uniform(0.0, 1.0);
        test[i] = ref[i] + rng.uniform(-0.1, 0.1);
    }
    Verdict verdict = OutputComparator("R2", 0.1).verify(ref, test);
    EXPECT_TRUE(verdict.passed) << verdict.loss;
    // 1 - R2 = var(noise) / var(ref) = (0.2^2 / 12) / (1 / 12).
    EXPECT_NEAR(verdict.loss, 0.04, 0.01);
    EXPECT_EQ(verdict.loss, CoefficientOfDetermination().loss(ref, test));
}

TEST(Comparator, NegativeThresholdIsFatal)
{
    EXPECT_THROW(OutputComparator("MAE", -1.0), FatalError);
}

TEST(Comparator, NaNThresholdIsFatal)
{
    EXPECT_THROW(
        OutputComparator("MAE", std::numeric_limits<double>::quiet_NaN()),
        FatalError);
}

} // namespace
