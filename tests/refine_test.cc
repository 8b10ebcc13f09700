/**
 * @file
 * Tests for iterative-refinement recovery (--refine) and the ladder
 * separation of memo tables: a half-precision configuration that
 * fails the quality gate unrefined must pass with refinement on, a
 * diverging refinement must surface as RuntimeFail (never a hang),
 * and a two-tier campaign's memo must never serve a three-rung one.
 */

#include <cmath>
#include <filesystem>
#include <memory>

#include <gtest/gtest.h>

#include "benchmarks/benchmark.h"
#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "runtime/ladder.h"
#include "search/memo_store.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp;
using core::BenchmarkTuner;
using core::TunerOptions;
using search::Config;
using search::EvalStatus;

std::unique_ptr<benchmarks::Benchmark>
make(const std::string& name)
{
    return benchmarks::BenchmarkRegistry::instance().create(name);
}

TunerOptions
ladderOptions(const std::string& spec, bool refine,
              double threshold = 1e-8)
{
    TunerOptions opt;
    opt.threshold = threshold;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {200, 0.0};
    opt.ladder = runtime::PrecisionLadder::parse(spec);
    opt.refine = refine;
    return opt;
}

/** All clusters at ladder level @p level. */
Config
uniformConfig(const BenchmarkTuner& tuner, std::uint8_t level)
{
    Config cfg(tuner.clusterCount());
    for (std::size_t c = 0; c < tuner.clusterCount(); ++c)
        cfg.setLevel(c, level);
    return cfg;
}

/**
 * The headline recovery scenario: tridiag with every cluster at the
 * half rung fails a 1e-8 quality gate unrefined, and passes it once
 * iterative refinement corrects the low-precision solution against
 * the double-precision residual.
 */
TEST(Refine, FailingHalfConfigPassesWithRefinementOn)
{
    auto plainBench = make("tridiag");
    BenchmarkTuner plain(*plainBench,
                         ladderOptions("double,float,half", false));
    auto unrefined =
        plain.evaluateClusterConfig(uniformConfig(plain, 2), 1);
    ASSERT_EQ(unrefined.status, EvalStatus::QualityFail)
        << "half tridiag must fail 1e-8 unrefined, or this test "
           "guards nothing (loss "
        << unrefined.qualityLoss << ")";

    auto refinedBench = make("tridiag");
    BenchmarkTuner refined(*refinedBench,
                           ladderOptions("double,float,half", true));
    auto eval =
        refined.evaluateClusterConfig(uniformConfig(refined, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_LT(eval.qualityLoss, 1e-8);
}

/** The bfloat16 rung recovers the same way. */
TEST(Refine, FailingBf16ConfigPassesWithRefinementOn)
{
    auto plainBench = make("tridiag");
    BenchmarkTuner plain(*plainBench,
                         ladderOptions("double,float,bf16", false));
    auto unrefined =
        plain.evaluateClusterConfig(uniformConfig(plain, 2), 1);
    ASSERT_EQ(unrefined.status, EvalStatus::QualityFail);

    auto refinedBench = make("tridiag");
    BenchmarkTuner refined(*refinedBench,
                           ladderOptions("double,float,bf16", true));
    auto eval =
        refined.evaluateClusterConfig(uniformConfig(refined, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_LT(eval.qualityLoss, 1e-8);
}

/** The baseline configuration is never routed through refinement:
 *  with --refine=on it still passes with exactly zero loss. */
TEST(Refine, BaselineIsNeverRefined)
{
    auto bench = make("tridiag");
    BenchmarkTuner tuner(*bench,
                         ladderOptions("double,float,half", true));
    auto eval =
        tuner.evaluateClusterConfig(Config(tuner.clusterCount()), 1);
    EXPECT_EQ(eval.status, EvalStatus::Pass);
    EXPECT_DOUBLE_EQ(eval.qualityLoss, 0.0);
}

/**
 * Divergence at the benchmark layer: an unreachable target residual
 * must throw RefineDiverged within the iteration cap — a bounded
 * loop, never a hang.
 */
TEST(Refine, UnreachableTargetThrowsRefineDiverged)
{
    auto bench = make("tridiag");
    ASSERT_TRUE(bench->supportsRefinement());

    benchmarks::PrecisionMap pm;
    pm.set("x", runtime::Precision::Float16);
    pm.set("y", runtime::Precision::Float16);
    pm.set("z", runtime::Precision::Float16);
    benchmarks::RunPlan plan = bench->prepare(pm);
    runtime::RunWorkspace ws;

    benchmarks::RefineControl control;
    control.targetResidual = 0.0; // exact zero: unreachable
    control.maxIterations = 8;
    EXPECT_THROW(bench->executeRefined(plan, ws, control),
                 benchmarks::RefineDiverged);
}

/** A benchmark without a refinement hook reports so, and the default
 *  executeRefined refuses to pretend otherwise. */
TEST(Refine, KernelsWithoutResidualHookDeclineRefinement)
{
    auto bench = make("hydro-1d");
    EXPECT_FALSE(bench->supportsRefinement());

    benchmarks::PrecisionMap pm;
    benchmarks::RunPlan plan = bench->prepare(pm);
    runtime::RunWorkspace ws;
    EXPECT_THROW(
        bench->executeRefined(plan, ws, benchmarks::RefineControl{}),
        hpcmixp::support::FatalError);
}

/**
 * Divergence at the tuner layer: an impossible quality threshold
 * drives the target residual below anything the correction loop can
 * reach; the RefineDiverged must land in the tuner's evaluation as
 * an ordinary RuntimeFail (memoizable, retryable), not an escape.
 */
TEST(Refine, TunerMapsDivergenceToRuntimeFail)
{
    auto bench = make("tridiag");
    BenchmarkTuner tuner(
        *bench, ladderOptions("double,float,half", true, 1e-300));
    auto eval =
        tuner.evaluateClusterConfig(uniformConfig(tuner, 2), 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
}

/**
 * The ladder (and the refinement flag) are part of the evaluation-
 * function identity: fingerprints taken under different ladders must
 * differ, and the default two-tier fingerprint must keep the exact
 * historical spelling so pre-ladder memo segments stay addressable.
 */
TEST(Refine, FingerprintCarriesLadderAndRefinementMarker)
{
    auto twoTier = make("tridiag");
    BenchmarkTuner two(*twoTier,
                       ladderOptions("double,float", false));
    auto threeRung = make("tridiag");
    BenchmarkTuner three(*threeRung,
                         ladderOptions("double,float,half", false));
    auto refined = make("tridiag");
    BenchmarkTuner ir(*refined,
                      ladderOptions("double,float,half", true));

    using search::Granularity;
    EXPECT_EQ(two.fingerprint(Granularity::Cluster).ladder,
              "f64:f32");
    EXPECT_EQ(three.fingerprint(Granularity::Cluster).ladder,
              "f64:f32:f16");
    EXPECT_EQ(ir.fingerprint(Granularity::Cluster).ladder,
              "f64:f32:f16+ir");
}

/**
 * A two-tier campaign's memo directory gives a three-rung campaign of
 * the same benchmark no memo hits: the ladder is part of the
 * fingerprint, so two-tier evaluations are never misread under
 * another ladder. A two-tier re-run is served entirely from it.
 */
TEST(Refine, TwoTierCheckpointIsRecoverablyRejectedByThreeRung)
{
    std::string dir = ::testing::TempDir() + "refine_two_tier_memo";
    std::filesystem::remove_all(dir);
    auto campaign = [&](const std::string& ladder) {
        TunerOptions opt = ladderOptions(ladder, false);
        opt.memoStore = std::make_shared<search::MemoStore>(dir);
        auto bench = make("tridiag");
        BenchmarkTuner tuner(*bench, opt);
        return tuner.tune("DD").search;
    };

    auto twoTier = campaign("double,float");
    ASSERT_GT(twoTier.evaluated, 0u);
    EXPECT_EQ(twoTier.memoHits, 0u);

    auto threeRung = campaign("double,float,half");
    EXPECT_GT(threeRung.evaluated, 0u);
    EXPECT_EQ(threeRung.memoHits, 0u);

    auto rerun = campaign("double,float");
    EXPECT_EQ(rerun.evaluated, 0u);
    EXPECT_EQ(rerun.memoHits, twoTier.evaluated);
    std::filesystem::remove_all(dir);
}

} // namespace
