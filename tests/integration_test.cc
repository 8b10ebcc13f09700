/**
 * @file
 * End-to-end integration tests: full searches over real benchmarks
 * through the public API, and suite-level batch execution through
 * the harness job runner.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/mixpbench.h"
#include "harness/harness.h"
#include "support/yaml.h"

namespace {

using namespace hpcmixp;

core::TunerOptions
fastOptions(double threshold)
{
    core::TunerOptions opt;
    opt.threshold = threshold;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {150, 0.0};
    return opt;
}

/** Every strategy must complete a kernel search end to end. */
class EveryStrategy : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryStrategy, CompletesOnAKernel)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("int-predict");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-3));
    auto outcome = tuner.tune(GetParam());
    EXPECT_TRUE(std::isfinite(outcome.finalSpeedup));
    EXPECT_GT(outcome.finalSpeedup, 0.0);
    // The quality constraint is always respected by the final config.
    EXPECT_TRUE(outcome.finalQualityLoss <= 1e-3);
    EXPECT_EQ(outcome.clusterConfig.size(), tuner.clusterCount());
}

INSTANTIATE_TEST_SUITE_P(Strategies, EveryStrategy,
                         ::testing::Values("CB", "CM", "DD", "HR",
                                           "HC", "GA"));

TEST(Integration, CombinationalIsExhaustiveOnKernels)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("iccg");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-3));
    auto outcome = tuner.tune("CB");
    // iccg has 2 clusters: CB must execute all 3 non-baseline configs.
    EXPECT_EQ(outcome.search.evaluated, 3u);
}

TEST(Integration, SradIsTunableOnlyAtRelaxedThresholds)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("srad");
    core::BenchmarkTuner strict(*bench, fastOptions(1e-8));
    auto tight = strict.tune("DD");
    EXPECT_LE(tight.finalQualityLoss, 1e-8);

    core::BenchmarkTuner relaxed(*bench, fastOptions(1e-3));
    auto loose = relaxed.tune("DD");
    EXPECT_LE(loose.finalQualityLoss, 1e-3);
}

TEST(Integration, KmeansPassesStrictThresholdViaMcr)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("kmeans");
    core::BenchmarkTuner tuner(*bench, fastOptions(1e-8));
    auto outcome = tuner.tune("DD");
    // MCR of the float version is 0: DD can lower everything.
    EXPECT_TRUE(outcome.search.foundImprovement);
    EXPECT_EQ(outcome.clusterConfig.count(),
              outcome.clusterConfig.size());
    EXPECT_EQ(outcome.finalQualityLoss, 0.0);
}

TEST(Integration, SuiteRunnerParallelMatchesSerialStructure)
{
    auto jobs = harness::parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    a:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    b:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n"));
    harness::HarnessOptions serial;
    serial.tuner = fastOptions(1e-3);
    harness::HarnessOptions parallel = serial;
    parallel.jobs = 2;

    auto a = harness::runJobs(jobs, serial);
    auto b = harness::runJobs(jobs, parallel);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_EQ(b.size(), 2u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.benchmark, jobs[i].benchmark);
        EXPECT_EQ(b[i].spec.benchmark, jobs[i].benchmark);
        EXPECT_TRUE(a[i].error.empty()) << a[i].error;
        EXPECT_TRUE(b[i].error.empty()) << b[i].error;
        // Timing differs under contention, so the winners may differ;
        // both schedules must produce structurally valid outcomes over
        // the same clusters.
        EXPECT_EQ(a[i].result.configuration.size(),
                  b[i].result.configuration.size());
        EXPECT_LE(a[i].result.qualityLoss, 1e-3);
        EXPECT_LE(b[i].result.qualityLoss, 1e-3);
    }
}

TEST(Integration, BudgetTruncationIsReported)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("blackscholes");
    core::TunerOptions opt = fastOptions(1e-6);
    opt.budget = {2, 0.0}; // absurdly small: CM cannot finish
    core::BenchmarkTuner tuner(*bench, opt);
    auto outcome = tuner.tune("CM");
    EXPECT_TRUE(outcome.search.timedOut);
}

} // namespace
