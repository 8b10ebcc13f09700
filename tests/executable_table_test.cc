/**
 * @file
 * Tests for the tuner's executable table: search evaluations of
 * configurations that differ only in cold clusters (clusters without a
 * bind key) share one timed, verified measurement, while EV, verdicts
 * and the harness report stay those of the configuration-level search.
 * Sharing relies on the execute determinism contract, which is checked
 * here over every benchmark of the suite. The baseline executable is
 * shared one level up: its runtime is timed once per memo store.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "cache_capture.h"
#include "core/tuner.h"
#include "harness/harness.h"
#include "runtime/workspace.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/rng.h"
#include "support/yaml.h"
#include "verify/comparator.h"

namespace {

using namespace hpcmixp;
using core::BenchmarkTuner;
using core::TunerOptions;
using search::Config;
using search::EvalStatus;
using search::Evaluation;

TunerOptions
fastOptions()
{
    TunerOptions opt;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {2000, 0.0};
    return opt;
}

std::unique_ptr<benchmarks::Benchmark>
make(const std::string& name)
{
    return benchmarks::BenchmarkRegistry::instance().create(name);
}

/** Indices of the hot (or cold) clusters of @p tuner. */
std::vector<std::size_t>
clustersWhere(const BenchmarkTuner& tuner, bool hot)
{
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < tuner.clusterCount(); ++c)
        if (tuner.hotClusters()[c] == hot)
            out.push_back(c);
    return out;
}

void
expectSameEvaluation(const Evaluation& a, const Evaluation& b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.runtimeSeconds, b.runtimeSeconds);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.qualityLoss, b.qualityLoss);
}

TEST(ExecutableTable, HotspotHasTwoHotClusters)
{
    auto bench = make("hotspot");
    BenchmarkTuner tuner(*bench, fastOptions());
    ASSERT_EQ(tuner.clusterCount(), 9u);
    EXPECT_EQ(clustersWhere(tuner, true).size(), 2u);
    EXPECT_EQ(tuner.executableCount(), 0u);
}

TEST(ExecutableTable, HotspotCbTimesFourExecutablesFor511Configurations)
{
    auto bench = make("hotspot");
    BenchmarkTuner tuner(*bench, fastOptions());
    core::TuneOutcome outcome = tuner.tune("CB");
    EXPECT_EQ(outcome.search.evaluated, 511u);
    EXPECT_EQ(tuner.executableCount(), 4u);
}

TEST(ExecutableTable, ConfigurationsDifferingInColdBitsShareOneEvaluation)
{
    auto bench = make("hotspot");
    BenchmarkTuner tuner(*bench, fastOptions());
    auto hot = clustersWhere(tuner, true);
    auto cold = clustersWhere(tuner, false);
    ASSERT_FALSE(hot.empty());
    ASSERT_GE(cold.size(), 2u);

    Config a(tuner.clusterCount());
    a.set(hot[0]);
    a.set(cold[0]);
    Config b(tuner.clusterCount());
    b.set(hot[0]);
    b.set(cold[1]);
    for (std::size_t c : cold)
        b.set(c);

    Evaluation first = tuner.clusterProblem().evaluate(a);
    Evaluation second = tuner.clusterProblem().evaluate(b);
    ASSERT_TRUE(first.ran());
    expectSameEvaluation(first, second);
    EXPECT_EQ(second.speedup,
              tuner.baselineSeconds() / second.runtimeSeconds);
    EXPECT_EQ(tuner.executableCount(), 1u);

    // The variable-level problem reaches the same table through its
    // cluster-uniform projection.
    Config vars(tuner.variableCount());
    const auto& variables = bench->programModel().realVariables();
    for (std::size_t v = 0; v < variables.size(); ++v) {
        std::size_t c = tuner.clusters().clusterOf(variables[v]);
        if (c == hot[0] || c == cold.back())
            vars.set(v);
    }
    expectSameEvaluation(tuner.variableProblem().evaluate(vars), first);
    EXPECT_EQ(tuner.executableCount(), 1u);
}

TEST(ExecutableTable, DifferentHotProjectionIsMeasuredFresh)
{
    auto bench = make("hotspot");
    BenchmarkTuner tuner(*bench, fastOptions());
    auto hot = clustersWhere(tuner, true);
    auto cold = clustersWhere(tuner, false);
    ASSERT_GE(hot.size(), 2u);

    Config a(tuner.clusterCount());
    a.set(hot[0]);
    a.set(cold[0]);
    (void)tuner.clusterProblem().evaluate(a);
    EXPECT_EQ(tuner.executableCount(), 1u);

    Config b = a;
    b.set(hot[1]);
    EXPECT_TRUE(tuner.clusterProblem().evaluate(b).ran());
    EXPECT_EQ(tuner.executableCount(), 2u);

    // A cold-only configuration runs the all-double executable, which
    // is a third one.
    Config coldOnly(tuner.clusterCount());
    coldOnly.set(cold[0]);
    EXPECT_TRUE(tuner.clusterProblem().evaluate(coldOnly).passed());
    EXPECT_EQ(tuner.executableCount(), 3u);

    // The public entry point measures on every call and leaves the
    // table alone.
    EXPECT_TRUE(tuner.evaluateClusterConfig(a, 1).ran());
    EXPECT_EQ(tuner.executableCount(), 3u);
}

/**
 * Refinable two-knob benchmark with one cold cluster: `data` binds a
 * knob, `ghost` binds none. A refined execute marks its output, so a
 * refined evaluation of the all-double map fails verification while
 * the (never refined) baseline passes.
 */
class RefinableGhostBenchmark final : public benchmarks::Benchmark {
  public:
    RefinableGhostBenchmark() : model_("refghost")
    {
        using namespace model;
        ModuleId m = model_.addModule("refghost.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
        model_.addVariable(f, "ghost", realPointer());
    }

    std::string name() const override { return "refghost"; }
    std::string description() const override
    {
        return "refinement with a cold cluster";
    }
    bool isKernel() const override { return true; }
    const model::ProgramModel& programModel() const override
    {
        return model_;
    }
    bool supportsRefinement() const override { return true; }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap& pm) const override
    {
        ++executes;
        benchmarks::RunOutput out;
        out.values.assign(16, 1.0);
        if (pm.get("data") == runtime::Precision::Float32)
            out.values[0] += 1e-9;
        return out;
    }

    benchmarks::RunOutput
    executeRefined(const benchmarks::RunPlan& plan,
                   runtime::RunWorkspace& ws,
                   const benchmarks::RefineControl&) const override
    {
        benchmarks::RunOutput out = execute(plan, ws);
        out.values[1] += 1.0;
        return out;
    }

    mutable std::atomic<int> executes{0};

  private:
    model::ProgramModel model_;
};

TEST(ExecutableTable, RefinedColdOnlyConfigIsNotServedTheBaseline)
{
    RefinableGhostBenchmark bench;
    TunerOptions opt = fastOptions();
    opt.metric = "MAE";
    opt.refine = true;
    BenchmarkTuner tuner(bench, opt);
    ASSERT_EQ(tuner.clusterCount(), 2u);
    auto cold = clustersWhere(tuner, false);
    ASSERT_EQ(cold.size(), 1u);

    // The baseline itself runs unrefined and passes; it is answered
    // from the baseline measurement.
    int before = bench.executes;
    Evaluation baseline =
        tuner.clusterProblem().evaluate(Config(tuner.clusterCount()));
    EXPECT_EQ(baseline.status, EvalStatus::Pass);
    EXPECT_EQ(bench.executes - before, 0);
    EXPECT_EQ(tuner.executableCount(), 1u);

    // Lowering only the cold cluster projects onto the same precision
    // map, but the configuration is not the baseline, so it runs
    // refined: a different executable, measured fresh (one rep, which
    // fails verification).
    Config coldOnly(tuner.clusterCount());
    coldOnly.set(cold[0]);
    before = bench.executes;
    Evaluation refined = tuner.clusterProblem().evaluate(coldOnly);
    EXPECT_EQ(refined.status, EvalStatus::QualityFail);
    EXPECT_EQ(bench.executes - before, 1);
    EXPECT_EQ(tuner.executableCount(), 2u);
}

/**
 * A search evaluation of a configuration that lowers only cold
 * clusters runs the all-double executable, so it is answered from the
 * baseline measurement: no execute and, under fork isolation, no fork.
 */
TEST(ExecutableTable, ColdOnlySearchEvaluationExecutesNothing)
{
    for (auto isolation :
         {support::IsolationMode::None, support::IsolationMode::Fork}) {
        RefinableGhostBenchmark bench;
        TunerOptions opt = fastOptions();
        opt.metric = "MAE";
        opt.isolation = isolation;
        BenchmarkTuner tuner(bench, opt);
        Config coldOnly(tuner.clusterCount());
        coldOnly.set(clustersWhere(tuner, false)[0]);
        ASSERT_TRUE(tuner.runsBaselineExecutable(coldOnly));

        const int before = bench.executes;
        Evaluation eval = tuner.clusterProblem().evaluate(coldOnly);
        EXPECT_EQ(bench.executes - before, 0);
        EXPECT_EQ(tuner.sandboxStats().forks, 0u);
        EXPECT_EQ(eval.status, EvalStatus::Pass);
        EXPECT_EQ(eval.runtimeSeconds, tuner.baselineSeconds());
        EXPECT_EQ(eval.speedup, 1.0);
        EXPECT_EQ(eval.qualityLoss, 0.0);
        // It enters the table as the all-double executable.
        EXPECT_EQ(tuner.executableCount(), 1u);
        expectSameEvaluation(
            tuner.clusterProblem().evaluate(Config(tuner.clusterCount())),
            eval);
        EXPECT_EQ(tuner.executableCount(), 1u);
    }
}

TEST(ExecutableTable, ColdOnlyWinnerRunsTheBaselineExecutable)
{
    auto bench = make("hotspot");
    BenchmarkTuner tuner(*bench, fastOptions());
    auto cold = clustersWhere(tuner, false);
    ASSERT_GE(cold.size(), 2u);

    // Its output is the reference bit for bit, so nothing is timed.
    Config coldOnly(tuner.clusterCount());
    coldOnly.set(cold[0]);
    coldOnly.set(cold[1]);
    EXPECT_TRUE(tuner.runsBaselineExecutable(coldOnly));
    Evaluation final = tuner.finalMeasure(coldOnly);
    EXPECT_EQ(final.status, EvalStatus::Pass);
    EXPECT_EQ(final.speedup, 1.0);
    EXPECT_EQ(final.qualityLoss, 0.0);

    // A hot cluster makes it a different executable, timed afresh.
    Config hot = coldOnly;
    hot.set(clustersWhere(tuner, true)[0]);
    EXPECT_FALSE(tuner.runsBaselineExecutable(hot));
    EXPECT_NE(tuner.finalMeasure(hot).speedup, 1.0);
}

TEST(ExecutableTable, RefinedColdOnlyWinnerIsStillMeasured)
{
    RefinableGhostBenchmark bench;
    TunerOptions opt = fastOptions();
    opt.metric = "MAE";
    opt.refine = true;
    BenchmarkTuner tuner(bench, opt);
    auto cold = clustersWhere(tuner, false);
    ASSERT_EQ(cold.size(), 1u);

    // Lowering only the cold cluster runs refined on the all-double
    // map, which is not the baseline executable: it is measured, and
    // the refined execute's mark fails verification.
    Config coldOnly(tuner.clusterCount());
    coldOnly.set(cold[0]);
    EXPECT_FALSE(tuner.runsBaselineExecutable(coldOnly));
    const int before = bench.executes;
    Evaluation final = tuner.finalMeasure(coldOnly);
    EXPECT_EQ(bench.executes - before, 2 * static_cast<int>(opt.finalReps));
    EXPECT_EQ(final.status, EvalStatus::QualityFail);
    EXPECT_GT(final.qualityLoss, 0.0);
}

/** A capture's cache reduced to its timing-independent fields. */
std::set<std::string>
verdicts(const support::json::Value& cache)
{
    std::set<std::string> entries;
    for (const auto& e : cache.at("evaluations").items()) {
        double loss = e.at("quality_loss").isNull()
                          ? -1.0
                          : e.at("quality_loss").asNumber();
        entries.insert(support::strCat(e.at("config").asString(), "|",
                                       e.at("status").asString(), "|",
                                       loss));
    }
    return entries;
}

TEST(ExecutableTable, ParallelHotspotCbCommitsTheSerialVerdicts)
{
    auto campaign = [](std::size_t jobs, std::size_t& executables) {
        auto bench = make("hotspot");
        TunerOptions opt = fastOptions();
        opt.searchJobs = jobs;
        BenchmarkTuner tuner(*bench, opt);
        test::CacheCapture capture("CB");
        core::TuneOutcome outcome = tuner.tune(capture);
        EXPECT_EQ(outcome.search.evaluated, 511u);
        executables = tuner.executableCount();
        return verdicts(capture.cache());
    };
    std::size_t serialExecutables = 0;
    std::size_t parallelExecutables = 0;
    auto serial = campaign(1, serialExecutables);
    auto parallel = campaign(4, parallelExecutables);
    EXPECT_EQ(serial.size(), 511u);
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(serialExecutables, 4u);
    EXPECT_EQ(parallelExecutables, 4u);
}

TEST(ExecutableTable, HarnessReportsAndJournalsExecutables)
{
    auto jobs = harness::parseConfig(support::yaml::parse(
        "hotspot:\n  analysis:\n    fs:\n      name: 'floatsmith'\n"
        "      extra_args:\n        algorithm: 'combinational'\n"));
    std::string dir = ::testing::TempDir() + "executables_journal";
    std::filesystem::remove_all(dir);
    harness::HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.memoCacheDir = dir;

    auto first = harness::runJobs(jobs, options);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;
    EXPECT_EQ(first[0].result.evaluated, 511u);
    EXPECT_EQ(first[0].result.executables, 4u);
    auto json = harness::resultsToJson(first);
    const auto& entry = json.items()[0];
    EXPECT_EQ(entry.at("evaluated_configurations").asLong(), 511);
    EXPECT_EQ(entry.at("executables").asLong(), 4);

    options.resume = true;
    auto resumed = harness::runJobs(jobs, options);
    ASSERT_TRUE(resumed[0].restored);
    EXPECT_EQ(resumed[0].result.evaluated, 511u);
    EXPECT_EQ(resumed[0].result.executables, 4u);
    std::filesystem::remove_all(dir);
}

/** Output of one execute, or nothing when prepare/execute threw. */
std::optional<std::vector<double>>
runOnce(const benchmarks::Benchmark& bench,
        const benchmarks::PrecisionMap& pm, runtime::RunWorkspace& ws)
{
    try {
        return bench.execute(bench.prepare(pm), ws).values;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/** Bitwise equality, so NaN payloads count too. */
bool
sameBits(const std::optional<std::vector<double>>& a,
         const std::optional<std::vector<double>>& b)
{
    if (a.has_value() != b.has_value())
        return false;
    if (!a)
        return true;
    return a->size() == b->size() &&
           std::memcmp(a->data(), b->data(),
                       a->size() * sizeof(double)) == 0;
}

TEST(ExecuteDeterminism, EqualHotProjectionsRunIdenticalExecutables)
{
    constexpr std::size_t kPairs = 4;
    core::TunerOptions opt;
    opt.searchReps = 1;
    opt.finalReps = 1;
    opt.ladder = runtime::PrecisionLadder::parse("double,float,half,bf16");
    const std::uint32_t rungs =
        static_cast<std::uint32_t>(opt.ladder.maxLevel() + 1);

    support::Pcg32 rng(20201017);
    runtime::RunWorkspace reused; // dirtied by every benchmark in turn
    const auto names = benchmarks::BenchmarkRegistry::instance().names();
    EXPECT_EQ(names.size(), 17u);
    std::size_t coldPairs = 0;
    for (const std::string& name : names) {
        SCOPED_TRACE(name);
        auto bench = benchmarks::BenchmarkRegistry::instance().create(name);
        core::BenchmarkTuner tuner(*bench, opt);
        const auto& program = bench->programModel();

        // Hot clusters from the model itself, not from the tuner.
        std::vector<bool> hot(tuner.clusterCount(), false);
        std::vector<std::string> keys;
        for (model::VarId v : program.realVariables()) {
            const std::string& key = program.variable(v).bindKey;
            if (key.empty())
                continue;
            hot[tuner.clusters().clusterOf(v)] = true;
            keys.push_back(key);
        }
        EXPECT_EQ(tuner.hotClusters(), hot);

        for (std::size_t pair = 0; pair < kPairs; ++pair) {
            Config a(tuner.clusterCount());
            Config b(tuner.clusterCount());
            bool coldDiffers = false;
            for (std::size_t c = 0; c < a.size(); ++c) {
                auto level =
                    static_cast<std::uint8_t>(rng.nextBounded(rungs));
                a.setLevel(c, level);
                if (!hot[c])
                    level =
                        static_cast<std::uint8_t>(rng.nextBounded(rungs));
                b.setLevel(c, level);
                coldDiffers = coldDiffers || a.level(c) != b.level(c);
            }
            coldPairs += coldDiffers ? 1 : 0;
            SCOPED_TRACE(a.toString() + " vs " + b.toString());

            benchmarks::PrecisionMap pmA = tuner.precisionMapFor(a);
            benchmarks::PrecisionMap pmB = tuner.precisionMapFor(b);
            EXPECT_EQ(pmA.allDouble(), pmB.allDouble());
            for (const std::string& key : keys)
                EXPECT_EQ(pmA.get(key), pmB.get(key)) << key;

            auto aReused = runOnce(*bench, pmA, reused);
            auto bReused = runOnce(*bench, pmB, reused);
            runtime::RunWorkspace freshA;
            runtime::RunWorkspace freshB;
            auto aFresh = runOnce(*bench, pmA, freshA);
            auto bFresh = runOnce(*bench, pmB, freshB);
            EXPECT_TRUE(sameBits(aReused, bReused));
            EXPECT_TRUE(sameBits(aReused, bFresh));
            EXPECT_TRUE(sameBits(bReused, aFresh));
        }
    }
    // The contract is only exercised where cold clusters exist.
    EXPECT_GT(coldPairs, 0u);
}

// --- Baseline record -------------------------------------------------

/**
 * One-knob benchmark that counts its executes. Its output is
 * @p value everywhere, so benchmarks built with different values have
 * different inputs as far as the memo store can tell; with
 * @p stampOrdinal the output is instead the execute's ordinal, which
 * shows which execute produced the tuner's reference. With
 * @p lowerFails, lowering `data` adds 0.5 to every output value, so
 * the lowered configuration fails any quality threshold below 0.5.
 */
class CountingBenchmark final : public benchmarks::Benchmark {
  public:
    explicit CountingBenchmark(double value = 1.0,
                               bool stampOrdinal = false,
                               bool lowerFails = false)
        : model_("counting"), value_(value), stampOrdinal_(stampOrdinal),
          lowerFails_(lowerFails)
    {
        using namespace model;
        ModuleId m = model_.addModule("counting.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
    }

    std::string name() const override { return "counting"; }
    std::string description() const override
    {
        return "counts its executes";
    }
    bool isKernel() const override { return true; }
    const model::ProgramModel& programModel() const override
    {
        return model_;
    }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap& pm) const override
    {
        int ordinal = ++executes;
        const bool lowered =
            pm.get("data") != runtime::Precision::Float64;
        benchmarks::RunOutput out;
        out.values.assign(8, (stampOrdinal_ ? ordinal : value_) +
                                 (lowerFails_ && lowered ? 0.5 : 0.0));
        return out;
    }

    mutable std::atomic<int> executes{0};

  private:
    model::ProgramModel model_;
    double value_;
    bool stampOrdinal_;
    bool lowerFails_;
};

/** Executes @p bench runs while constructing one tuner. */
int
baselineExecutes(const CountingBenchmark& bench, const TunerOptions& opt,
                 double* baselineSeconds = nullptr)
{
    int before = bench.executes;
    BenchmarkTuner tuner(bench, opt);
    if (baselineSeconds)
        *baselineSeconds = tuner.baselineSeconds();
    return bench.executes - before;
}

TunerOptions
storeOptions(const std::string& dir)
{
    TunerOptions opt;
    opt.memoStore = std::make_shared<search::MemoStore>(dir);
    return opt;
}

std::string
freshDir(const char* name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Executes of a tuner that times its baseline: searchReps timed
 *  reps, the first of which also gives the reference. */
int
measuredExecutes(const TunerOptions& opt)
{
    return static_cast<int>(opt.searchReps);
}

TEST(BaselineRecord, WithoutAStoreEveryTunerTimesSearchReps)
{
    for (std::size_t reps : {1u, 5u}) {
        CountingBenchmark bench(0.0, true);
        TunerOptions opt;
        opt.searchReps = reps;
        BenchmarkTuner first(bench, opt);
        EXPECT_EQ(bench.executes, measuredExecutes(opt));
        // The reference is the last timed rep's output.
        std::vector<double> lastOutput(8, static_cast<double>(reps));
        EXPECT_EQ(
            first.fingerprint(search::Granularity::Cluster).inputSignature,
            support::xxh64(lastOutput.data(),
                           lastOutput.size() * sizeof(double)));
        EXPECT_EQ(baselineExecutes(bench, opt), measuredExecutes(opt));
    }
}

TEST(BaselineRecord, StoreMissTimesSearchRepsHitTimesOne)
{
    for (std::size_t reps : {1u, 3u, 5u}) {
        std::string dir = freshDir("baseline_miss_hit");
        TunerOptions opt = storeOptions(dir);
        opt.searchReps = reps;
        CountingBenchmark bench;
        EXPECT_EQ(baselineExecutes(bench, opt), static_cast<int>(reps));
        EXPECT_EQ(baselineExecutes(bench, opt), 1);
        std::filesystem::remove_all(dir);
    }
}

TEST(BaselineRecord, SecondTunerOnTheStoreTimesOneRep)
{
    std::string dir = freshDir("baseline_second");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    double first = 0.0;
    double second = 0.0;
    EXPECT_EQ(baselineExecutes(bench, opt, &first), measuredExecutes(opt));
    EXPECT_EQ(baselineExecutes(bench, opt, &second), 1);
    EXPECT_EQ(second, first);

    // The record is the baseline table's only entry, and reading it is
    // no search memo hit.
    BenchmarkTuner tuner(bench, opt);
    auto table = opt.memoStore->table(tuner.baselineFingerprint());
    ASSERT_EQ(table->size(), 1u);
    auto stored = table->lookup(Config(tuner.clusterCount()).toString());
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->runtimeSeconds, first);
    core::TuneOutcome outcome = tuner.tune("CB");
    EXPECT_EQ(outcome.search.memoHits, 0u);
    EXPECT_EQ(outcome.search.evaluated, 1u);
    std::filesystem::remove_all(dir);
}

TEST(BaselineRecord, NewStoreOnTheSameDirectoryHits)
{
    std::string dir = freshDir("baseline_reopen");
    CountingBenchmark bench;
    double first = 0.0;
    double reopened = 0.0;
    EXPECT_EQ(baselineExecutes(bench, storeOptions(dir), &first),
              measuredExecutes(storeOptions(dir)));
    EXPECT_EQ(baselineExecutes(bench, storeOptions(dir), &reopened), 1);
    EXPECT_EQ(reopened, first);
    std::filesystem::remove_all(dir);
}

TEST(BaselineRecord, ThresholdMetricAndLadderShareOneRecordInputDoesNot)
{
    std::string dir = freshDir("baseline_share");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    double first = 0.0;
    EXPECT_EQ(baselineExecutes(bench, opt, &first), measuredExecutes(opt));

    TunerOptions threshold = opt;
    threshold.threshold = 1e-3;
    TunerOptions metric = opt;
    metric.metric = "MSE";
    TunerOptions ladder = opt;
    ladder.ladder = runtime::PrecisionLadder::parse("double,float,half");
    for (const TunerOptions* other : {&threshold, &metric, &ladder}) {
        double seconds = 0.0;
        EXPECT_EQ(baselineExecutes(bench, *other, &seconds), 1);
        EXPECT_EQ(seconds, first);
    }

    CountingBenchmark changed(2.0);
    EXPECT_EQ(baselineExecutes(changed, opt), measuredExecutes(opt));
    BenchmarkTuner a(bench, opt);
    BenchmarkTuner b(changed, opt);
    EXPECT_NE(a.baselineFingerprint().inputSignature,
              b.baselineFingerprint().inputSignature);
    EXPECT_EQ(opt.memoStore->table(a.baselineFingerprint())->size(), 1u);
    EXPECT_EQ(opt.memoStore->table(b.baselineFingerprint())->size(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(BaselineRecord, ConcurrentTunersEndWithOneValue)
{
    std::string dir = freshDir("baseline_concurrent");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    std::vector<double> seconds(4, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        threads.emplace_back([&, i] {
            BenchmarkTuner tuner(bench, opt);
            seconds[i] = tuner.baselineSeconds();
        });
    for (std::thread& t : threads)
        t.join();
    for (double s : seconds)
        EXPECT_EQ(s, seconds.front());
    // At least one tuner measures and every other one at least reads
    // the record; at most all four measure.
    const int measured = measuredExecutes(opt);
    EXPECT_GE(bench.executes, measured + 3);
    EXPECT_LE(bench.executes, 4 * measured);

    BenchmarkTuner tuner(bench, opt);
    auto table = opt.memoStore->table(tuner.baselineFingerprint());
    EXPECT_EQ(table->size(), 1u);
    EXPECT_EQ(tuner.baselineSeconds(), seconds.front());
    std::filesystem::remove_all(dir);
}

// --- Finals table ----------------------------------------------------

/** Executes @p bench runs for one final measurement of @p cfg. */
template <class Bench>
int
finalExecutes(const Bench& bench, BenchmarkTuner& tuner, const Config& cfg,
              Evaluation* out = nullptr)
{
    int before = bench.executes;
    Evaluation eval = tuner.finalMeasure(cfg);
    if (out)
        *out = eval;
    return bench.executes - before;
}

Config
lowered(const BenchmarkTuner& tuner)
{
    return Config::allLowered(tuner.clusterCount());
}

TEST(FinalsTable, SecondTunerOnTheStoreExecutesNothing)
{
    std::string dir = freshDir("finals_second");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    BenchmarkTuner first(bench, opt);
    BenchmarkTuner second(bench, opt);
    Evaluation measured;
    Evaluation read;
    EXPECT_EQ(finalExecutes(bench, first, lowered(first), &measured),
              2 * static_cast<int>(opt.finalReps));
    EXPECT_EQ(finalExecutes(bench, second, lowered(second), &read), 0);
    EXPECT_EQ(measured.status, EvalStatus::Pass);
    expectSameEvaluation(read, measured);
    EXPECT_EQ(read.memoizable, measured.memoizable);
    EXPECT_EQ(read.deadlineMiss, measured.deadlineMiss);

    // One record, keyed by the hot projection, in a table of its own.
    auto table = opt.memoStore->table(first.finalsFingerprint(false));
    EXPECT_EQ(table->size(), 1u);
    EXPECT_NE(first.finalsFingerprint(false),
              first.fingerprint(search::Granularity::Cluster));
    EXPECT_NE(first.finalsFingerprint(false), first.baselineFingerprint());
    EXPECT_NE(first.finalsFingerprint(false), first.finalsFingerprint(true));
    std::filesystem::remove_all(dir);
}

TEST(FinalsTable, ConfigurationsOfOneExecutableShareTheStoredFinal)
{
    std::string dir = freshDir("finals_hotspot");
    TunerOptions opt = fastOptions();
    opt.memoStore = std::make_shared<search::MemoStore>(dir);
    auto bench = make("hotspot");
    BenchmarkTuner first(*bench, opt);
    BenchmarkTuner second(*bench, opt);
    auto hot = clustersWhere(first, true);
    auto cold = clustersWhere(first, false);
    Config a(first.clusterCount());
    a.set(hot[0]);
    Config b = a;
    for (std::size_t c : cold)
        b.set(c);
    // A wall-clock runtime repeats to the bit only when it is read back.
    expectSameEvaluation(second.finalMeasure(b), first.finalMeasure(a));
    EXPECT_EQ(opt.memoStore->table(first.finalsFingerprint(false))->size(),
              1u);
    std::filesystem::remove_all(dir);
}

TEST(FinalsTable, NewStoreOnTheSameDirectoryHitsPlainAndRefined)
{
    std::string dir = freshDir("finals_reopen");
    {
        CountingBenchmark bench;
        BenchmarkTuner first(bench, storeOptions(dir));
        Evaluation measured;
        Evaluation read;
        EXPECT_GT(finalExecutes(bench, first, lowered(first), &measured), 0);
        BenchmarkTuner reopened(bench, storeOptions(dir));
        EXPECT_EQ(finalExecutes(bench, reopened, lowered(reopened), &read),
                  0);
        expectSameEvaluation(read, measured);
    }

    // A refined executable is stored under its plain hot projection,
    // so the table loader keeps it across a reopen.
    RefinableGhostBenchmark bench;
    TunerOptions opt = storeOptions(dir);
    opt.metric = "MAE";
    opt.refine = true;
    auto cold = [](const BenchmarkTuner& tuner) {
        Config cfg(tuner.clusterCount());
        cfg.set(clustersWhere(tuner, false)[0]);
        return cfg;
    };
    BenchmarkTuner first(bench, opt);
    Evaluation measured;
    Evaluation read;
    EXPECT_GT(finalExecutes(bench, first, cold(first), &measured), 0);
    EXPECT_EQ(measured.status, EvalStatus::QualityFail);
    opt.memoStore = std::make_shared<search::MemoStore>(dir);
    BenchmarkTuner reopened(bench, opt);
    EXPECT_EQ(finalExecutes(bench, reopened, cold(reopened), &read), 0);
    expectSameEvaluation(read, measured);
    auto table = opt.memoStore->table(reopened.finalsFingerprint(true));
    ASSERT_EQ(table->size(), 1u);
    EXPECT_EQ(table->entries().front().first,
              Config(reopened.clusterCount()).toString());
    std::filesystem::remove_all(dir);
}

TEST(FinalsTable, FinalRepsThresholdAndInputMiss)
{
    std::string dir = freshDir("finals_miss");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    BenchmarkTuner tuner(bench, opt);
    EXPECT_GT(finalExecutes(bench, tuner, lowered(tuner)), 0);

    TunerOptions reps = opt;
    reps.finalReps = 3;
    TunerOptions threshold = opt;
    threshold.threshold = 1e-3;
    for (const TunerOptions* other : {&reps, &threshold}) {
        BenchmarkTuner missing(bench, *other);
        EXPECT_EQ(finalExecutes(bench, missing, lowered(missing)),
                  2 * static_cast<int>(other->finalReps));
    }
    CountingBenchmark changed(2.0);
    BenchmarkTuner input(changed, opt);
    EXPECT_EQ(finalExecutes(changed, input, lowered(input)),
              2 * static_cast<int>(opt.finalReps));
    std::filesystem::remove_all(dir);
}

/** One-knob benchmark whose prepare throws once `data` is lowered. */
class FailingPrepareBenchmark final : public benchmarks::Benchmark {
  public:
    FailingPrepareBenchmark() : model_("failprep")
    {
        using namespace model;
        ModuleId m = model_.addModule("failprep.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
    }

    std::string name() const override { return "failprep"; }
    std::string description() const override
    {
        return "throws from a lowered prepare";
    }
    bool isKernel() const override { return true; }
    const model::ProgramModel& programModel() const override
    {
        return model_;
    }

    benchmarks::RunPlan
    prepare(const benchmarks::PrecisionMap& pm,
            const benchmarks::PrepareOptions& options) const override
    {
        if (pm.get("data") != runtime::Precision::Float64) {
            ++prepares;
            throw std::runtime_error("no lowered plan");
        }
        return Benchmark::prepare(pm, options);
    }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap&) const override
    {
        benchmarks::RunOutput out;
        out.values.assign(8, 1.0);
        return out;
    }

    mutable std::atomic<int> prepares{0};

  private:
    model::ProgramModel model_;
};

TEST(FinalsTable, RuntimeFailIsNotPublished)
{
    std::string dir = freshDir("finals_runtime_fail");
    TunerOptions opt = storeOptions(dir);
    FailingPrepareBenchmark bench;
    BenchmarkTuner tuner(bench, opt);
    for (int call = 1; call <= 2; ++call) {
        EXPECT_EQ(tuner.finalMeasure(lowered(tuner)).status,
                  EvalStatus::RuntimeFail);
        EXPECT_EQ(bench.prepares, call);
    }
    EXPECT_EQ(opt.memoStore->table(tuner.finalsFingerprint(false))->size(),
              0u);
    std::filesystem::remove_all(dir);
}

TEST(FinalsTable, ConcurrentTunersEndWithOneValue)
{
    std::string dir = freshDir("finals_concurrent");
    TunerOptions opt = storeOptions(dir);
    CountingBenchmark bench;
    std::vector<Evaluation> finals(4);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < finals.size(); ++i)
        threads.emplace_back([&, i] {
            BenchmarkTuner tuner(bench, opt);
            finals[i] = tuner.finalMeasure(lowered(tuner));
        });
    for (std::thread& t : threads)
        t.join();
    for (const Evaluation& eval : finals)
        expectSameEvaluation(eval, finals.front());

    BenchmarkTuner tuner(bench, opt);
    auto table = opt.memoStore->table(tuner.finalsFingerprint(false));
    EXPECT_EQ(table->size(), 1u);
    expectSameEvaluation(tuner.finalMeasure(lowered(tuner)),
                         finals.front());
    std::filesystem::remove_all(dir);
}

/**
 * One knob `data` and two cold clusters. A lowered `data` sleeps a
 * tenth of the double run, so every configuration that lowers it is
 * the fastest executable, and those executes are counted.
 */
class GhostsBenchmark final : public benchmarks::Benchmark {
  public:
    GhostsBenchmark() : model_("ghosts")
    {
        using namespace model;
        ModuleId m = model_.addModule("ghosts.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
        model_.addVariable(f, "ghost1", realPointer());
        model_.addVariable(f, "ghost2", realPointer());
    }

    std::string name() const override { return "ghosts"; }
    std::string description() const override
    {
        return "one knob, two cold clusters";
    }
    bool isKernel() const override { return true; }
    const model::ProgramModel& programModel() const override
    {
        return model_;
    }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap& pm) const override
    {
        const bool low = pm.get("data") != runtime::Precision::Float64;
        if (low)
            ++executes;
        std::this_thread::sleep_for(
            std::chrono::microseconds(low ? 200 : 2000));
        benchmarks::RunOutput out;
        out.values.assign(8, 1.0);
        return out;
    }

    mutable std::atomic<int> executes{0};

  private:
    model::ProgramModel model_;
};

TEST(PortfolioFinals, CandidatesSharingAnExecutableCostOneFinal)
{
    GhostsBenchmark bench;
    TunerOptions opt = fastOptions();
    BenchmarkTuner tuner(bench, opt);
    ASSERT_EQ(tuner.clusterCount(), 3u);
    const int before = bench.executes;
    // Serial entrants: CB (largest subsets first) times the lowered
    // executable once and keeps all-lowered; CM (singletons first)
    // keeps `data` alone, served by the executable table.
    core::PortfolioOutcome outcome =
        tuner.tunePortfolio({"CB", "CM"}, search::PortfolioMode::Best, 1);
    const auto& results = outcome.portfolio.results;
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].foundImprovement);
    ASSERT_TRUE(results[1].foundImprovement);
    // Two different configurations of one executable...
    const Config cb = results[0].best;
    const Config cm = tuner.toClusterConfig(results[1].best);
    ASSERT_EQ(cb.count(), 3u);
    ASSERT_EQ(cm.count(), 1u);
    ASSERT_TRUE(cm.isSubsetOf(cb));
    ASSERT_TRUE(tuner.hotClusters()[cm.lowered().front()]);

    // ...cost one search measurement and one final.
    EXPECT_EQ(bench.executes - before,
              static_cast<int>(opt.searchReps + opt.finalReps));
    // The one with fewer lowered sites represents them.
    EXPECT_EQ(outcome.clusterConfig, cm);
    EXPECT_EQ(outcome.winnerCode, "CM");
    EXPECT_GT(outcome.finalSpeedup, 1.0);
}

// --- Early rejection -------------------------------------------------

/**
 * A search evaluation verifies its first timed rep before it times the
 * rest: a configuration that fails the quality check executes once, a
 * passing one every rep, and the verdict and loss are those of a run
 * that timed (and verified) its last rep. At one rep both do the same
 * work.
 */
TEST(EarlyReject, FailingEvaluationExecutesOncePassingOneEveryRep)
{
    TunerOptions opt;
    opt.searchReps = 3;
    CountingBenchmark failing(1.0, false, true);
    CountingBenchmark passing;
    BenchmarkTuner failTuner(failing, opt);
    BenchmarkTuner passTuner(passing, opt);
    Config lowered(failTuner.clusterCount());
    lowered.set(0);
    const benchmarks::PrecisionMap pm = failTuner.precisionMapFor(lowered);
    const verify::OutputComparator comparator(failing.qualityMetric(),
                                              opt.threshold);
    const std::vector<double> reference(8, 1.0);

    auto evaluate = [&](BenchmarkTuner& tuner, const CountingBenchmark& bench,
                        std::size_t reps, int expectedExecutes) {
        int before = bench.executes;
        Evaluation eval = tuner.evaluateClusterConfig(lowered, reps);
        EXPECT_EQ(bench.executes - before, expectedExecutes);
        // Every rep of an executable yields the same output, so the
        // last of @p reps reps gives the same verdict and loss.
        benchmarks::RunOutput last;
        for (std::size_t rep = 0; rep < reps; ++rep)
            last = bench.run(pm);
        verify::Verdict verdict = comparator.verify(reference, last.values);
        EXPECT_EQ(eval.status, verdict.passed ? EvalStatus::Pass
                                              : EvalStatus::QualityFail);
        EXPECT_EQ(eval.qualityLoss, verdict.loss);
        return eval;
    };
    EXPECT_EQ(evaluate(failTuner, failing, 3, 1).qualityLoss, 0.5);
    EXPECT_EQ(evaluate(passTuner, passing, 3, 3).status, EvalStatus::Pass);
    evaluate(failTuner, failing, 1, 1);
    evaluate(passTuner, passing, 1, 1);
}

} // namespace
