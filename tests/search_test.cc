/**
 * @file
 * Tests for the search framework: configurations, the metered context,
 * and all six strategies against controllable mock problems.
 */

#include <atomic>
#include <functional>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "search/driver.h"
#include "search/genetic.h"
#include "search/strategy.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp::search;

/** Fully scriptable problem for strategy tests. */
class MockProblem : public SearchProblem {
  public:
    using PassFn = std::function<bool(const Config&)>;
    using SpeedFn = std::function<double(const Config&)>;

    MockProblem(std::size_t sites, PassFn pass)
        : sites_(sites),
          pass_(std::move(pass)),
          speed_([](const Config& c) {
              return 1.0 + 0.1 * static_cast<double>(c.count());
          })
    {
    }

    void setSpeed(SpeedFn fn) { speed_ = std::move(fn); }
    void setCompileCheck(PassFn fn) { compiles_ = std::move(fn); }
    void setStructure(StructureNode tree)
    {
        tree_ = std::move(tree);
        hasTree_ = true;
    }

    std::size_t siteCount() const override { return sites_; }

    Evaluation
    evaluate(const Config& config) override
    {
        ++rawCalls_;
        Evaluation eval;
        if (compiles_ && !compiles_(config)) {
            eval.status = EvalStatus::CompileFail;
            return eval;
        }
        eval.speedup = speed_(config);
        eval.runtimeSeconds = 1.0 / eval.speedup;
        if (pass_(config)) {
            eval.status = EvalStatus::Pass;
            eval.qualityLoss = 0.0;
        } else {
            eval.status = EvalStatus::QualityFail;
            eval.qualityLoss = 1.0;
        }
        return eval;
    }

    const StructureNode* structure() const override
    {
        return hasTree_ ? &tree_ : nullptr;
    }

    int rawCalls() const { return rawCalls_; }

  private:
    std::size_t sites_;
    PassFn pass_;
    SpeedFn speed_;
    PassFn compiles_;
    StructureNode tree_;
    bool hasTree_ = false;
    // Atomic: batch evaluation calls evaluate() from pool workers.
    std::atomic<int> rawCalls_{0};
};

SearchBudget
bigBudget()
{
    return {100000, 0.0};
}

// ---- Config ------------------------------------------------------------

TEST(ConfigTest, BasicBitOperations)
{
    Config c(4);
    EXPECT_TRUE(c.isBaseline());
    c.set(1);
    c.set(3);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_TRUE(c.test(1));
    EXPECT_FALSE(c.test(0));
    EXPECT_EQ(c.toString(), "0101");
    EXPECT_EQ(c.lowered(), (std::vector<std::size_t>{1, 3}));
    c.set(1, false);
    EXPECT_EQ(c.count(), 1u);
}

TEST(ConfigTest, FactoriesAndSetOps)
{
    Config all = Config::allLowered(3);
    EXPECT_EQ(all.count(), 3u);
    Config some = Config::withLowered(3, {0, 2});
    EXPECT_TRUE(some.isSubsetOf(all));
    EXPECT_FALSE(all.isSubsetOf(some));
    Config other = Config::withLowered(3, {1});
    EXPECT_EQ(some.unionWith(other), all);
    EXPECT_EQ(some.unionWith(some), some);
}

TEST(ConfigDeathTest, OutOfRangePanics)
{
    Config c(2);
    EXPECT_DEATH((void)c.test(2), "out of range");
}

// ---- SearchContext -----------------------------------------------------

// ---- SearchCounters ----------------------------------------------------

TEST(SearchCountersTest, SumCompareAndJsonCoverEveryField)
{
    using hpcmixp::support::json::Value;
    SearchCounters a;
    std::size_t next = 1;
    for (const CounterField& f : kCounterFields)
        a.*f.member = next++;
    SearchCounters sum = a;
    sum += a;
    for (const CounterField& f : kCounterFields) {
        EXPECT_EQ(sum.*f.member, 2 * (a.*f.member)) << f.key;
        SearchCounters other = a;
        ++(other.*f.member);
        EXPECT_NE(other, a) << f.key;
    }

    Value v = Value::object();
    writeCounters(v, sum);
    EXPECT_EQ(v.keys().size(), std::size(kCounterFields));
    EXPECT_EQ(readCounters(hpcmixp::support::json::parse(v.dump())), sum);
}

TEST(Context, CachesRepeatEvaluations)
{
    MockProblem problem(3, [](const Config&) { return true; });
    SearchContext ctx(problem, bigBudget());
    Config cfg = Config::withLowered(3, {0});
    ctx.evaluate(cfg);
    ctx.evaluate(cfg);
    ctx.evaluate(cfg);
    EXPECT_EQ(problem.rawCalls(), 1);
    EXPECT_EQ(ctx.counters().evaluated, 1u);
    EXPECT_EQ(ctx.counters().cacheHits, 2u);
}

TEST(Context, CompileFailuresAreNotEV)
{
    MockProblem problem(2, [](const Config&) { return true; });
    problem.setCompileCheck(
        [](const Config& c) { return c.count() != 1; });
    SearchContext ctx(problem, bigBudget());
    ctx.evaluate(Config::withLowered(2, {0}));  // compile fail
    ctx.evaluate(Config::withLowered(2, {0, 1}));
    EXPECT_EQ(ctx.counters().evaluated, 1u);
    EXPECT_EQ(ctx.counters().compileFailures, 1u);
}

TEST(Context, TracksBestPassingBySpeedup)
{
    MockProblem problem(3, [](const Config& c) {
        return c.count() <= 2; // lowering everything fails
    });
    SearchContext ctx(problem, bigBudget());
    ctx.evaluate(Config(3)); // baseline never competes
    EXPECT_FALSE(ctx.hasBest());
    ctx.evaluate(Config::withLowered(3, {0}));
    ctx.evaluate(Config::withLowered(3, {0, 1}));
    ctx.evaluate(Config::withLowered(3, {0, 1, 2})); // fails
    ASSERT_TRUE(ctx.hasBest());
    EXPECT_EQ(ctx.bestConfig().count(), 2u);
    EXPECT_DOUBLE_EQ(ctx.bestEvaluation().speedup, 1.2);
}

TEST(Context, BudgetExhaustionThrows)
{
    MockProblem problem(8, [](const Config&) { return true; });
    SearchContext ctx(problem, {3, 0.0});
    ctx.evaluate(Config::withLowered(8, {0}));
    ctx.evaluate(Config::withLowered(8, {1}));
    ctx.evaluate(Config::withLowered(8, {2}));
    EXPECT_THROW(ctx.evaluate(Config::withLowered(8, {3})),
                 BudgetExhausted);
    EXPECT_TRUE(ctx.exhausted());
}

// ---- SearchContext::evaluateBatch --------------------------------------

TEST(BatchEvaluate, AccountsHitsAndDuplicatesLikeTheSerialLoop)
{
    for (std::size_t jobs : {1u, 4u}) {
        MockProblem problem(3, [](const Config&) { return true; });
        SearchContext ctx(problem, bigBudget());
        ctx.setSearchJobs(jobs);
        ctx.evaluate(Config::withLowered(3, {0})); // pre-batch cache

        std::vector<Config> batch{
            Config::withLowered(3, {0}),    // hit on pre-batch cache
            Config::withLowered(3, {1}),    // fresh
            Config::withLowered(3, {1}),    // duplicate of a fresh one
            Config::withLowered(3, {1, 2}), // fresh
        };
        auto evals = ctx.evaluateBatch(batch);
        ASSERT_EQ(evals.size(), 4u);
        EXPECT_DOUBLE_EQ(evals[1].speedup, evals[2].speedup);
        EXPECT_EQ(ctx.counters().evaluated, 3u) << "jobs=" << jobs;
        EXPECT_EQ(ctx.counters().cacheHits, 2u) << "jobs=" << jobs;
        EXPECT_EQ(problem.rawCalls(), 3) << "jobs=" << jobs;
        ASSERT_TRUE(ctx.hasBest());
        EXPECT_EQ(ctx.bestConfig(), Config::withLowered(3, {1, 2}));
    }
}

TEST(BatchEvaluate, BudgetCutsTheBatchAtTheSerialPoint)
{
    for (std::size_t jobs : {1u, 4u}) {
        MockProblem problem(8, [](const Config&) { return true; });
        SearchContext ctx(problem, {3, 0.0});
        ctx.setSearchJobs(jobs);
        std::vector<Config> batch;
        for (std::size_t i = 0; i < 6; ++i)
            batch.push_back(Config::withLowered(8, {i}));
        EXPECT_THROW(ctx.evaluateBatch(batch), BudgetExhausted);
        // Exactly the serial prefix committed; the speculative tail
        // left no trace in EV, cache, or best.
        EXPECT_EQ(ctx.counters().evaluated, 3u) << "jobs=" << jobs;
        if (jobs == 1) {
            // One worker runs each candidate at its commit: nothing
            // executes speculatively past the budget.
            EXPECT_EQ(problem.rawCalls(), 3);
        }
        EXPECT_TRUE(ctx.isCached(Config::withLowered(8, {2})));
        EXPECT_FALSE(ctx.isCached(Config::withLowered(8, {3})));
        EXPECT_TRUE(ctx.exhausted());
        ASSERT_TRUE(ctx.hasBest());
        EXPECT_EQ(ctx.bestConfig().count(), 1u);
    }
}

TEST(BatchEvaluate, CompileFailuresCountedIdenticallyInParallel)
{
    for (std::size_t jobs : {1u, 4u}) {
        MockProblem problem(4, [](const Config&) { return true; });
        problem.setCompileCheck(
            [](const Config& c) { return c.count() != 1; });
        SearchContext ctx(problem, bigBudget());
        ctx.setSearchJobs(jobs);
        std::vector<Config> batch{
            Config::withLowered(4, {0}),    // compile fail
            Config::withLowered(4, {0, 1}), // runs
            Config::withLowered(4, {2}),    // compile fail
            Config::withLowered(4, {2, 3}), // runs
        };
        auto evals = ctx.evaluateBatch(batch);
        EXPECT_EQ(evals[0].status, EvalStatus::CompileFail);
        EXPECT_EQ(ctx.counters().evaluated, 2u) << "jobs=" << jobs;
        EXPECT_EQ(ctx.counters().compileFailures, 2u) << "jobs=" << jobs;
    }
}

TEST(BatchEvaluate, EmptyAndSingletonBatches)
{
    MockProblem problem(2, [](const Config&) { return true; });
    SearchContext ctx(problem, bigBudget());
    ctx.setSearchJobs(4);
    EXPECT_TRUE(ctx.evaluateBatch({}).empty());
    std::vector<Config> one{Config::withLowered(2, {0})};
    auto evals = ctx.evaluateBatch(one);
    ASSERT_EQ(evals.size(), 1u);
    EXPECT_EQ(ctx.counters().evaluated, 1u);
}

// ---- Strategies ----------------------------------------------------------

TEST(Combinational, EnumeratesEveryNonBaselineConfig)
{
    MockProblem problem(3, [](const Config&) { return true; });
    auto result = runSearch(problem, "CB", bigBudget());
    EXPECT_EQ(result.evaluated, 7u); // 2^3 - 1
    EXPECT_FALSE(result.timedOut);
    // Speedup grows with count, so the best is all-lowered.
    EXPECT_EQ(result.best.count(), 3u);
}

TEST(Combinational, FindsIsolatedOptimum)
{
    // Only the exact config {0,2} passes.
    MockProblem problem(4, [](const Config& c) {
        return c == Config::withLowered(4, {0, 2});
    });
    auto result = runSearch(problem, "CB", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_EQ(result.best, Config::withLowered(4, {0, 2}));
}

TEST(DeltaDebug, FastPathWhenEverythingLowers)
{
    MockProblem problem(6, [](const Config&) { return true; });
    auto result = runSearch(problem, "DD", bigBudget());
    EXPECT_EQ(result.evaluated, 1u);
    EXPECT_EQ(result.best.count(), 6u);
}

TEST(DeltaDebug, KeepsOnlyTheToxicSite)
{
    // Lowering site 2 always breaks quality.
    MockProblem problem(6, [](const Config& c) { return !c.test(2); });
    auto result = runSearch(problem, "DD", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_FALSE(result.best.test(2));
    EXPECT_EQ(result.best.count(), 5u);
}

TEST(DeltaDebug, StricterPredicateCostsMoreEvaluations)
{
    MockProblem loose(8, [](const Config&) { return true; });
    auto easy = runSearch(loose, "DD", bigBudget());

    MockProblem strict(8, [](const Config& c) {
        return c.count() <= 1; // almost nothing can be lowered
    });
    auto hard = runSearch(strict, "DD", bigBudget());
    EXPECT_GT(hard.evaluated, easy.evaluated);
}

TEST(Compositional, CombinesPassingSingletons)
{
    // Sites 0 and 2 pass alone and together; site 1 always fails.
    MockProblem problem(3, [](const Config& c) { return !c.test(1); });
    auto result = runSearch(problem, "CM", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_EQ(result.best, Config::withLowered(3, {0, 2}));
    // 3 singletons + 1 composition = 4 executed configs.
    EXPECT_EQ(result.evaluated, 4u);
}

TEST(Compositional, TerminatesWhenNoCompositionsRemain)
{
    // Singletons pass, every union fails: must stop after trying them.
    MockProblem problem(3, [](const Config& c) {
        return c.count() <= 1;
    });
    auto result = runSearch(problem, "CM", bigBudget());
    EXPECT_FALSE(result.timedOut);
    EXPECT_EQ(result.best.count(), 1u);
    EXPECT_EQ(result.evaluated, 6u); // 3 singletons + 3 pair unions
}

StructureNode
twoModuleTree()
{
    // root -> {modA: sites 0,1} {modB: sites 2,3}, leaves per site.
    StructureNode root;
    root.name = "prog";
    root.sites = {0, 1, 2, 3};
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
    root.children = {a, b};
    return root;
}

TEST(Hierarchical, AcceptsWholeProgramWhenItPasses)
{
    MockProblem problem(4, [](const Config&) { return true; });
    problem.setStructure(twoModuleTree());
    auto result = runSearch(problem, "HR", bigBudget());
    EXPECT_EQ(result.evaluated, 1u);
    EXPECT_EQ(result.best.count(), 4u);
}

TEST(Hierarchical, DescendsIntoPassingComponents)
{
    // Site 3 is toxic: whole program and modB fail; modA passes;
    // leaf 2 passes alone.
    MockProblem problem(4, [](const Config& c) { return !c.test(3); });
    problem.setStructure(twoModuleTree());
    auto result = runSearch(problem, "HR", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_EQ(result.best, Config::withLowered(4, {0, 1, 2}));
}

TEST(Hierarchical, RequiresStructure)
{
    MockProblem problem(4, [](const Config&) { return true; });
    EXPECT_THROW(runSearch(problem, "HR", bigBudget()),
                 hpcmixp::support::FatalError);
}

TEST(Hierarchical, CompileFailuresDriveDescent)
{
    // Sites 0 and 1 form a cluster whose joint lowering fails quality,
    // so HR descends to single variables — and splitting the cluster
    // is a compile failure, the waste the paper reports for HR.
    MockProblem problem(4, [](const Config& c) {
        return !c.test(3) && !(c.test(0) && c.test(1));
    });
    problem.setCompileCheck([](const Config& c) {
        return c.test(0) == c.test(1);
    });
    problem.setStructure(twoModuleTree());
    auto result = runSearch(problem, "HR", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_EQ(result.compileFailures, 2u); // leaves {0} and {1}
    EXPECT_EQ(result.best, Config::withLowered(4, {2}));
}

TEST(HierarchicalCompositional, CombinesDiscoveredComponents)
{
    // Whole program fails; each module passes alone and combined.
    MockProblem problem(4, [](const Config& c) {
        return c.count() < 4 || false;
    });
    problem.setStructure(twoModuleTree());
    auto result = runSearch(problem, "HC", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    // modA + modB composed -> {0,1,2,3}... which fails; best is a
    // module pair union that passes: {0,1} U {2,3} has count 4 and
    // fails, so best stays a single module.
    EXPECT_EQ(result.best.count(), 2u);
}

TEST(HierarchicalCompositional, FindsInterComponentUnion)
{
    // Three modules of two sites each. The whole program (count 6)
    // fails, every module passes, and the union of the first two
    // modules passes — an inter-component configuration that plain
    // hierarchical search cannot justify trying.
    StructureNode root;
    root.name = "prog";
    root.sites = {0, 1, 2, 3, 4, 5};
    for (std::size_t mod = 0; mod < 3; ++mod) {
        StructureNode node;
        node.name = "mod" + std::to_string(mod);
        node.sites = {2 * mod, 2 * mod + 1};
        root.children.push_back(node);
    }
    MockProblem problem(6, [](const Config& c) {
        if (c.count() > 4)
            return false;               // whole program fails
        return !c.test(4) && !c.test(5); // modC sites are toxic in unions
    });
    problem.setStructure(root);
    auto result = runSearch(problem, "HC", bigBudget());
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_EQ(result.best, Config::withLowered(6, {0, 1, 2, 3}));
}

TEST(Genetic, DeterministicUnderFixedSeed)
{
    auto run = [] {
        MockProblem problem(6, [](const Config& c) {
            return c.count() <= 4;
        });
        return runSearch(problem, "GA", bigBudget());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(Genetic, EvaluationCountIsBoundedByPopulationTimesGenerations)
{
    MockProblem problem(10, [](const Config&) { return true; });
    GaOptions opt;
    GeneticSearch ga(opt);
    SearchContext ctx(problem, bigBudget());
    ga.run(ctx);
    EXPECT_LE(ctx.counters().evaluated, opt.population * opt.generations);
    EXPECT_GT(ctx.counters().evaluated, 0u);
}

TEST(Genetic, SmallSiteCountsDeduplicateNaturally)
{
    MockProblem problem(2, [](const Config&) { return true; });
    auto result = runSearch(problem, "GA", bigBudget());
    EXPECT_LE(result.evaluated, 4u); // only 4 distinct configs exist
}

TEST(Genetic, FindsImprovementWhenEverythingPasses)
{
    MockProblem problem(5, [](const Config&) { return true; });
    auto result = runSearch(problem, "GA", bigBudget());
    EXPECT_TRUE(result.foundImprovement);
    EXPECT_GE(result.best.count(), 1u);
}


TEST(Context, WallClockBudgetTruncates)
{
    /** Problem whose evaluations burn real time. */
    class SlowProblem : public SearchProblem {
      public:
        std::size_t siteCount() const override { return 16; }
        Evaluation
        evaluate(const Config&) override
        {
            hpcmixp::support::WallTimer t;
            while (t.seconds() < 0.02) {
            }
            Evaluation eval;
            eval.status = EvalStatus::Pass;
            eval.speedup = 1.1;
            return eval;
        }
    };
    SlowProblem problem;
    // 60 ms wall budget: roughly three 20 ms evaluations fit.
    auto result = runSearch(problem, "CB", {100000, 0.06});
    EXPECT_TRUE(result.timedOut);
    EXPECT_LT(result.evaluated, 20u);
    EXPECT_GE(result.evaluated, 1u);
}


TEST(Strategies, DegenerateSiteCountsAreHandled)
{
    // Zero tunable sites: every strategy must return the baseline
    // without evaluating anything (HR/HC need a structure, so they
    // get an empty root).
    for (const char* code : {"CB", "CM", "DD", "GA"}) {
        MockProblem empty(0, [](const Config&) { return true; });
        auto result = runSearch(empty, code, bigBudget());
        EXPECT_EQ(result.evaluated, 0u) << code;
        EXPECT_FALSE(result.foundImprovement) << code;
    }
    for (const char* code : {"HR", "HC"}) {
        MockProblem empty(0, [](const Config&) { return true; });
        empty.setStructure(StructureNode{});
        auto result = runSearch(empty, code, bigBudget());
        EXPECT_EQ(result.evaluated, 0u) << code;
        EXPECT_FALSE(result.foundImprovement) << code;
    }

    // One site: the space has exactly one non-baseline config.
    for (const char* code : {"CB", "CM", "DD", "GA"}) {
        MockProblem one(1, [](const Config&) { return true; });
        auto result = runSearch(one, code, bigBudget());
        EXPECT_LE(result.evaluated, 2u) << code;
        EXPECT_TRUE(result.foundImprovement) << code;
        EXPECT_EQ(result.best.count(), 1u) << code;
    }
}

// ---- Driver / registry ----------------------------------------------------

TEST(Driver, TimedOutSearchStillReportsBestSoFar)
{
    MockProblem problem(10, [](const Config&) { return true; });
    auto result = runSearch(problem, "CB", {5, 0.0});
    EXPECT_TRUE(result.timedOut);
    EXPECT_EQ(result.evaluated, 5u);
    EXPECT_TRUE(result.foundImprovement);
}

TEST(Driver, NoImprovementMeansBaselineResult)
{
    MockProblem problem(3, [](const Config&) { return false; });
    auto result = runSearch(problem, "DD", bigBudget());
    EXPECT_FALSE(result.foundImprovement);
    EXPECT_TRUE(result.best.isBaseline());
    EXPECT_DOUBLE_EQ(result.bestEvaluation.speedup, 1.0);
}

TEST(Registry, AllSixStrategiesRegistered)
{
    auto& reg = StrategyRegistry::instance();
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        EXPECT_TRUE(reg.has(code)) << code;
        auto strategy = reg.create(code);
        EXPECT_EQ(strategy->code(), code);
    }
    EXPECT_TRUE(reg.has("dd")); // case-insensitive
    EXPECT_THROW(reg.create("XX"), hpcmixp::support::FatalError);
}

TEST(Registry, GranularitiesMatchThePaper)
{
    auto& reg = StrategyRegistry::instance();
    EXPECT_EQ(reg.create("CB")->granularity(), Granularity::Cluster);
    EXPECT_EQ(reg.create("DD")->granularity(), Granularity::Cluster);
    EXPECT_EQ(reg.create("GA")->granularity(), Granularity::Cluster);
    // CM proposes variables but Typeforge closure makes its probes
    // cluster configurations; HR/HC ignore cluster information
    // entirely (paper Sections II-B and V).
    EXPECT_EQ(reg.create("CM")->granularity(), Granularity::Cluster);
    EXPECT_EQ(reg.create("HR")->granularity(), Granularity::Variable);
    EXPECT_EQ(reg.create("HC")->granularity(), Granularity::Variable);
}

} // namespace
