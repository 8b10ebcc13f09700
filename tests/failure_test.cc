/**
 * @file
 * Failure-injection tests: crashing configurations, destroyed (NaN)
 * outputs, and strategies encountering hostile problems must degrade
 * gracefully — the behaviours the paper attributes to searches that
 * "raise run-time errors" or produce invalid configurations. Also
 * covers the resilience layer: the deterministic FaultInjector, the
 * retry/backoff/deadline policy of SearchContext, and the
 * injection-vs-clean equivalence of all six strategies.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache_capture.h"
#include "core/tuner.h"
#include "search/fault.h"
#include "support/logging.h"
#include "search/driver.h"

namespace {

using namespace hpcmixp;
using search::Config;
using search::EvalStatus;

/** A tiny benchmark whose lowered configuration misbehaves on demand. */
class HostileBenchmark final : public benchmarks::Benchmark {
  public:
    enum class Failure { None, Throw, NaN };

    explicit HostileBenchmark(Failure mode)
        : mode_(mode), model_("hostile")
    {
        using namespace model;
        ModuleId m = model_.addModule("hostile.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
        model_.addVariable(f, "aux", realPointer(), "aux");
    }

    std::string name() const override { return "hostile"; }
    std::string description() const override
    {
        return "failure-injection benchmark";
    }
    bool isKernel() const override { return true; }

    const model::ProgramModel& programModel() const override
    {
        return model_;
    }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap& pm) const override
    {
        bool lowered =
            pm.get("data") == runtime::Precision::Float32;
        if (lowered && mode_ == Failure::Throw)
            throw std::runtime_error("injected crash");
        benchmarks::RunOutput out;
        out.values.assign(64, 1.0);
        if (lowered && mode_ == Failure::NaN)
            out.values[7] = std::nan("");
        return out;
    }

  private:
    Failure mode_;
    model::ProgramModel model_;
};

core::TunerOptions
fastOptions()
{
    core::TunerOptions opt;
    opt.threshold = 1e-6;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {100, 0.0};
    return opt;
}

TEST(FailureInjection, CrashingConfigIsRuntimeFail)
{
    HostileBenchmark bench(HostileBenchmark::Failure::Throw);
    core::BenchmarkTuner tuner(bench, fastOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(tuner.clusters().clusterOf(
        bench.programModel().findVariable("data")));
    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
}

TEST(FailureInjection, CrashingConfigNeverWinsASearch)
{
    HostileBenchmark bench(HostileBenchmark::Failure::Throw);
    core::BenchmarkTuner tuner(bench, fastOptions());
    auto outcome = tuner.tune("DD");
    // DD must settle on the aux-only (or baseline) configuration.
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
    auto dataCluster = tuner.clusters().clusterOf(
        bench.programModel().findVariable("data"));
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster));
}

TEST(FailureInjection, NaNOutputFailsVerificationButNotTheSearch)
{
    HostileBenchmark bench(HostileBenchmark::Failure::NaN);
    core::BenchmarkTuner tuner(bench, fastOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(tuner.clusters().clusterOf(
        bench.programModel().findVariable("data")));
    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    EXPECT_EQ(eval.status, EvalStatus::QualityFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));

    auto outcome = tuner.tune("GA");
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
}

TEST(FailureInjection, FinalMeasureOnCrashingConfig)
{
    HostileBenchmark bench(HostileBenchmark::Failure::Throw);
    core::BenchmarkTuner tuner(bench, fastOptions());
    Config cfg = Config::allLowered(tuner.clusterCount());
    auto eval = tuner.finalMeasure(cfg);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
}

/** run() that returns an empty output must be rejected up front. */
class EmptyBenchmark final : public benchmarks::Benchmark {
  public:
    EmptyBenchmark() : model_("empty")
    {
        auto m = model_.addModule("empty.c");
        auto f = model_.addFunction(m, "f");
        model_.addVariable(f, "x", model::realScalar(), "x");
    }
    std::string name() const override { return "empty"; }
    std::string description() const override { return "empty"; }
    bool isKernel() const override { return true; }
    const model::ProgramModel& programModel() const override
    {
        return model_;
    }
    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap&) const override
    {
        return {};
    }

  private:
    model::ProgramModel model_;
};

TEST(FailureInjection, EmptyBaselineOutputIsFatal)
{
    EmptyBenchmark bench;
    EXPECT_THROW(core::BenchmarkTuner(bench, fastOptions()),
                 support::FatalError);
}

// ---- Resilience layer --------------------------------------------------

using search::FaultInjector;
using search::FaultKind;
using search::FaultPlan;
using search::FaultyProblem;
using search::ResiliencePolicy;
using search::SearchContext;
using search::StructureNode;

/** Deterministic synthetic problem: site 3 is toxic, speedup grows
 *  with the number of lowered sites. Optionally has a structure tree
 *  so HR/HC can run. */
class ScriptedProblem : public search::SearchProblem {
  public:
    explicit ScriptedProblem(bool withStructure = true)
        : withStructure_(withStructure)
    {
        if (!withStructure)
            return;
        // root -> {modA: 0,1} {modB: 2,3}, one leaf per site.
        tree_.name = "prog";
        tree_.sites = {0, 1, 2, 3};
        StructureNode a, b;
        a.name = "modA";
        a.sites = {0, 1};
        b.name = "modB";
        b.sites = {2, 3};
        for (std::size_t s : {0u, 1u}) {
            StructureNode leaf;
            leaf.name = "va" + std::to_string(s);
            leaf.sites = {s};
            a.children.push_back(leaf);
        }
        for (std::size_t s : {2u, 3u}) {
            StructureNode leaf;
            leaf.name = "vb" + std::to_string(s);
            leaf.sites = {s};
            b.children.push_back(leaf);
        }
        tree_.children = {a, b};
    }

    std::size_t siteCount() const override { return 4; }

    search::Evaluation
    evaluate(const Config& config) override
    {
        ++rawCalls_;
        search::Evaluation eval;
        eval.speedup = 1.0 + 0.1 * static_cast<double>(config.count());
        eval.runtimeSeconds = 1.0 / eval.speedup;
        if (config.test(3)) {
            eval.status = EvalStatus::QualityFail;
            eval.qualityLoss = 1.0;
        } else {
            eval.status = EvalStatus::Pass;
            eval.qualityLoss = 0.0;
        }
        return eval;
    }

    const StructureNode* structure() const override
    {
        return withStructure_ ? &tree_ : nullptr;
    }

    int rawCalls() const { return rawCalls_; }

  private:
    bool withStructure_;
    StructureNode tree_;
    // Atomic: batch evaluation calls evaluate() from pool workers.
    std::atomic<int> rawCalls_{0};
};

TEST(FaultDeterminism, DrawsAreDeterministicPerSeed)
{
    FaultPlan plan;
    plan.crashRate = 0.2;
    plan.hangRate = 0.1;
    plan.nanRate = 0.1;
    plan.seed = 7;
    FaultInjector a(plan), b(plan);
    int nonNone = 0;
    for (std::uint64_t attempt = 0; attempt < 50; ++attempt) {
        for (const char* key : {"0000", "0101", "1111"}) {
            FaultKind ka = a.draw(key, attempt);
            EXPECT_EQ(ka, b.draw(key, attempt));
            if (ka != FaultKind::None)
                ++nonNone;
        }
    }
    EXPECT_GT(nonNone, 0);
    EXPECT_EQ(a.crashesInjected(), b.crashesInjected());

    // A different seed produces a different decision stream.
    plan.seed = 8;
    FaultInjector c(plan);
    int differs = 0;
    for (std::uint64_t attempt = 0; attempt < 50; ++attempt)
        for (const char* key : {"0000", "0101", "1111"})
            if (c.draw(key, attempt) != b.draw(key, attempt))
                ++differs;
    EXPECT_GT(differs, 0);
}

TEST(Resilience, OutOfRangeRatesAndDeadlinesAreRejected)
{
    // A NaN or negative rate would silently switch injection off
    // (FaultPlan::enabled() is false), and above 1 is no probability;
    // a NaN deadline never arms the sandbox kill.
    HostileBenchmark bench(HostileBenchmark::Failure::None);
    for (double bad : {std::nan(""), -0.5, 1.5}) {
        for (double FaultPlan::*rate :
             {&FaultPlan::crashRate, &FaultPlan::hangRate,
              &FaultPlan::nanRate}) {
            core::TunerOptions opt = fastOptions();
            opt.faultPlan.*rate = bad;
            EXPECT_THROW(core::BenchmarkTuner(bench, opt),
                         support::FatalError)
                << "rate " << bad;
        }
    }
    for (double bad : {std::nan(""), -1.0}) {
        core::TunerOptions opt = fastOptions();
        opt.resilience.deadlineSeconds = bad;
        EXPECT_THROW(core::BenchmarkTuner(bench, opt),
                     support::FatalError)
            << "deadline " << bad;
    }
    core::TunerOptions edge = fastOptions();
    edge.faultPlan.crashRate = 1.0;
    EXPECT_NO_THROW(core::BenchmarkTuner(bench, edge));
}

TEST(Resilience, TransientCrashIsRetriedToSuccess)
{
    ScriptedProblem inner;
    FaultPlan plan;
    plan.crashRate = 0.5;
    plan.seed = 11;
    FaultyProblem faulty(inner, plan);

    ResiliencePolicy policy;
    policy.maxAttempts = 20;
    policy.sleepBetweenRetries = false;
    SearchContext ctx(faulty, {100, 0.0}, policy);

    // Every configuration eventually evaluates to its true result.
    ScriptedProblem clean;
    for (const auto& lowered :
         std::vector<std::vector<std::size_t>>{{}, {0}, {1, 2}, {3}}) {
        Config cfg = Config::withLowered(4, lowered);
        SearchContext ref(clean, {100, 0.0});
        const auto& expected = ref.evaluate(cfg);
        const auto& got = ctx.evaluate(cfg);
        EXPECT_EQ(got.status, expected.status) << cfg.toString();
        EXPECT_DOUBLE_EQ(got.speedup, expected.speedup);
    }
    EXPECT_GT(ctx.counters().retries, 0u);
    EXPECT_EQ(ctx.counters().quarantined, 0u);
}

TEST(Resilience, RetryExhaustionQuarantinesTheConfig)
{
    ScriptedProblem inner;
    FaultPlan plan;
    plan.crashRate = 1.0; // every attempt crashes
    plan.seed = 5;
    FaultyProblem faulty(inner, plan);

    ResiliencePolicy policy;
    policy.maxAttempts = 3;
    policy.sleepBetweenRetries = false;
    SearchContext ctx(faulty, {100, 0.0}, policy);

    const auto& eval = ctx.evaluate(Config::withLowered(4, {0}));
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_EQ(ctx.counters().retries, 2u);
    EXPECT_EQ(ctx.counters().quarantined, 1u);
    EXPECT_EQ(inner.rawCalls(), 0); // the crash replaced every run

    // The search continues: further configs evaluate (and fail)
    // without the context aborting.
    const auto& second = ctx.evaluate(Config::withLowered(4, {1}));
    EXPECT_EQ(second.status, EvalStatus::RuntimeFail);
    EXPECT_EQ(ctx.counters().quarantined, 2u);
}

TEST(Resilience, DeadlineConvertsStragglersIntoRuntimeFails)
{
    ScriptedProblem inner;
    FaultPlan plan;
    plan.hangRate = 1.0; // every attempt stalls
    plan.hangSeconds = 0.03;
    plan.seed = 3;
    FaultyProblem faulty(inner, plan);

    ResiliencePolicy policy;
    policy.maxAttempts = 2;
    policy.deadlineSeconds = 0.005;
    policy.sleepBetweenRetries = false;
    SearchContext ctx(faulty, {100, 0.0}, policy);

    const auto& eval = ctx.evaluate(Config::withLowered(4, {0}));
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_EQ(ctx.counters().deadlineMisses, 2u);
    EXPECT_EQ(ctx.counters().retries, 1u);
    EXPECT_EQ(ctx.counters().quarantined, 1u);
}

TEST(Resilience, InjectedNaNLossNeverWinsASearch)
{
    ScriptedProblem inner;
    FaultPlan plan;
    plan.nanRate = 1.0;
    plan.seed = 13;
    FaultyProblem faulty(inner, plan);

    auto result = search::runSearch(faulty, "DD", {1000, 0.0});
    EXPECT_FALSE(result.foundImprovement);
    EXPECT_GT(faulty.injector().nansInjected(), 0u);
}

/**
 * The headline property of the resilience layer: with transient fault
 * injection on (10% crash rate, fixed seed) and retries enabled,
 * every strategy completes and reports exactly the result it finds
 * with injection off — the injected failures are fully absorbed.
 */
TEST(Resilience, AllStrategiesMatchCleanRunUnderInjection)
{
    search::SearchBudget budget{100000, 0.0};
    std::size_t totalRetries = 0;
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        ScriptedProblem clean;
        auto expected = search::runSearch(clean, code, budget);

        ScriptedProblem inner;
        FaultPlan plan;
        plan.crashRate = 0.1;
        plan.seed = 2020;
        FaultyProblem faulty(inner, plan);
        search::SearchRunOptions run;
        run.resilience.maxAttempts = 12;
        run.resilience.sleepBetweenRetries = false;
        auto injected = search::runSearch(faulty, code, budget, run);

        EXPECT_EQ(injected.foundImprovement, expected.foundImprovement)
            << code;
        EXPECT_EQ(injected.best, expected.best) << code;
        EXPECT_DOUBLE_EQ(injected.bestEvaluation.speedup,
                         expected.bestEvaluation.speedup)
            << code;
        EXPECT_EQ(injected.evaluated, expected.evaluated) << code;
        EXPECT_EQ(injected.quarantined, 0u) << code;
        totalRetries += injected.retries;
    }
    // The injector did fire: the equivalence above was earned by
    // retries, not by the faults never happening.
    EXPECT_GT(totalRetries, 0u);
}

/**
 * Batch-parallel stress pin: with fault injection and retries active,
 * a 4-worker search must report exactly the serial run's trajectory —
 * including the resilience counters. Fault draws are a pure function
 * of (seed, config key, attempt), and each configuration's attempt
 * sequence stays private to its evaluation task, so worker scheduling
 * cannot change which faults fire.
 */
TEST(Resilience, BatchParallelMatchesSerialUnderInjection)
{
    search::SearchBudget budget{100000, 0.0};
    std::size_t totalRetries = 0;
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        auto runWith = [&](std::size_t jobs) {
            ScriptedProblem inner;
            FaultPlan plan;
            plan.crashRate = 0.15;
            plan.nanRate = 0.05;
            plan.seed = 2020;
            FaultyProblem faulty(inner, plan);
            search::SearchRunOptions run;
            run.resilience.maxAttempts = 12;
            run.resilience.sleepBetweenRetries = false;
            run.searchJobs = jobs;
            return search::runSearch(faulty, code, budget, run);
        };
        auto serial = runWith(1);
        auto parallel = runWith(4);

        EXPECT_EQ(parallel.best, serial.best) << code;
        EXPECT_DOUBLE_EQ(parallel.bestEvaluation.speedup,
                         serial.bestEvaluation.speedup)
            << code;
        EXPECT_EQ(parallel.evaluated, serial.evaluated) << code;
        EXPECT_EQ(parallel.cacheHits, serial.cacheHits) << code;
        EXPECT_EQ(parallel.retries, serial.retries) << code;
        EXPECT_EQ(parallel.deadlineMisses, serial.deadlineMisses)
            << code;
        EXPECT_EQ(parallel.quarantined, serial.quarantined) << code;
        totalRetries += parallel.retries;
    }
    EXPECT_GT(totalRetries, 0u);
}

/**
 * Quarantine parity: when retries run out, serial and parallel runs
 * must quarantine the *same* configurations (observable as identical
 * runtime_fail cache entries), not merely the same number of them.
 */
TEST(Resilience, ParallelQuarantineSetMatchesSerial)
{
    auto quarantineKeys = [&](std::size_t jobs,
                              std::size_t& quarantined) {
        ScriptedProblem inner(false);
        FaultPlan plan;
        plan.crashRate = 0.6; // enough to exhaust 2 attempts at times
        plan.seed = 17;
        FaultyProblem faulty(inner, plan);
        search::SearchRunOptions run;
        run.resilience.maxAttempts = 2;
        run.resilience.sleepBetweenRetries = false;
        run.searchJobs = jobs;
        test::CacheCapture capture("CB");
        auto result =
            search::runSearch(faulty, capture, {100000, 0.0}, run);
        quarantined = result.quarantined;
        std::vector<std::string> keys;
        for (const auto& e : capture.cache().at("evaluations").items())
            if (e.at("status").asString() == "runtime_fail")
                keys.push_back(e.at("config").asString());
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    std::size_t serialQuarantined = 0, parallelQuarantined = 0;
    auto serial = quarantineKeys(1, serialQuarantined);
    auto parallel = quarantineKeys(4, parallelQuarantined);
    EXPECT_GT(serialQuarantined, 0u);
    EXPECT_EQ(parallelQuarantined, serialQuarantined);
    EXPECT_EQ(parallel, serial);
}

} // namespace
