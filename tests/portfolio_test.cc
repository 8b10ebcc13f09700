/**
 * @file
 * Tests for cache-racing portfolio search: the deterministic winner
 * rule, cooperative cancellation, the portfolio-vs-single equivalence
 * property (a warm shared memo never changes a strategy's committed
 * trajectory, only its execution count), and the tuner/harness entry
 * points.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "search/combinational.h"
#include "search/delta_debug.h"
#include "search/driver.h"
#include "search/genetic.h"
#include "search/memo_store.h"
#include "search/portfolio.h"

namespace {

using namespace hpcmixp::search;
namespace benchmarks = hpcmixp::benchmarks;
namespace core = hpcmixp::core;

std::string
freshDir(const std::string& name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Deterministic thread-safe problem that counts raw executions. */
class CountingProblem : public SearchProblem {
  public:
    explicit CountingProblem(std::size_t sites) : sites_(sites) {}

    std::size_t siteCount() const override { return sites_; }

    Evaluation
    evaluate(const Config& config) override
    {
        ++rawCalls_;
        Evaluation eval;
        eval.status = config.test(0) ? EvalStatus::QualityFail
                                     : EvalStatus::Pass;
        eval.qualityLoss = eval.passed() ? 0.0 : 1.0;
        eval.speedup =
            1.0 + 0.1 * static_cast<double>(config.count());
        eval.runtimeSeconds = 1.0;
        return eval;
    }

    std::atomic<int> rawCalls_{0};

  private:
    std::size_t sites_;
};

const std::vector<std::string> kClusterCodes = {"CB", "DD", "GA"};

MemoFingerprint
testFingerprint(std::size_t sites)
{
    MemoFingerprint fp;
    fp.benchmark = "counting";
    fp.inputSignature = 42;
    fp.metric = "MAE";
    fp.threshold = 1e-6;
    fp.sites = sites;
    return fp;
}

SearchResult
improved(double speedup, Config best)
{
    SearchResult r;
    r.foundImprovement = true;
    r.bestEvaluation.speedup = speedup;
    r.best = std::move(best);
    return r;
}

// --- winner rule -----------------------------------------------------

TEST(Portfolio, WinnerRuleIsDeterministic)
{
    SearchResult baseline; // no improvement
    Config a = Config::withLowered(4, {1});
    Config b = Config::withLowered(4, {2});

    // An improvement beats none; none never beats none (entrant order).
    EXPECT_TRUE(betterSearchResult(improved(1.1, a), baseline));
    EXPECT_FALSE(betterSearchResult(baseline, improved(1.1, a)));
    EXPECT_FALSE(betterSearchResult(baseline, baseline));

    // Higher speedup wins.
    EXPECT_TRUE(
        betterSearchResult(improved(1.5, a), improved(1.2, b)));
    EXPECT_FALSE(
        betterSearchResult(improved(1.2, b), improved(1.5, a)));

    // Equal speedups: the lexicographically smaller bitmask wins,
    // independent of which finished first.
    SearchResult left = improved(1.5, a);  // "0100"
    SearchResult right = improved(1.5, b); // "0010"
    EXPECT_TRUE(betterSearchResult(right, left));
    EXPECT_FALSE(betterSearchResult(left, right));
    // Identical results: neither beats the other (entrant order).
    EXPECT_FALSE(betterSearchResult(left, left));
}

// --- cancellation ----------------------------------------------------

TEST(Portfolio, PresetCancelFlagStopsSearchBeforeExecuting)
{
    CountingProblem problem(4);
    CombinationalSearch cb;
    SearchRunOptions run;
    auto cancel = std::make_shared<std::atomic<bool>>(true);
    run.cancel = cancel;
    auto result = runSearch(problem, cb, {100, 0.0}, run);
    EXPECT_TRUE(result.timedOut);
    EXPECT_EQ(result.evaluated, 0u);
    EXPECT_EQ(problem.rawCalls_.load(), 0);
    // Cancellation is cooperative best-so-far: the baseline answer.
    EXPECT_FALSE(result.foundImprovement);
}

// --- portfolio runs --------------------------------------------------

TEST(Portfolio, BestModePicksNoWorseThanAnySingleStrategy)
{
    // Solo reference runs, one fresh problem each.
    std::map<std::string, SearchResult> solo;
    for (const auto& code : kClusterCodes) {
        CountingProblem problem(4);
        solo[code] = runSearch(problem, code, {200, 0.0});
    }

    CountingProblem shared(4);
    std::vector<PortfolioEntrant> entrants;
    for (const auto& code : kClusterCodes) {
        PortfolioEntrant entrant;
        entrant.code = code;
        entrant.problem = &shared;
        entrants.push_back(std::move(entrant));
    }
    PortfolioOptions options;
    options.budget = {200, 0.0};
    PortfolioResult result = runPortfolio(entrants, options);

    ASSERT_EQ(result.results.size(), kClusterCodes.size());
    ASSERT_LT(result.winner, result.results.size());
    const SearchResult& winner = result.results[result.winner];
    EXPECT_TRUE(winner.foundImprovement);
    for (const auto& [code, single] : solo) {
        EXPECT_GE(winner.bestEvaluation.speedup,
                  single.bestEvaluation.speedup)
            << "portfolio winner is worse than solo " << code;
    }
    // The per-entrant results match their solo counterparts: the
    // problem is deterministic and nothing was shared between them.
    for (std::size_t i = 0; i < entrants.size(); ++i) {
        EXPECT_EQ(result.results[i].best,
                  solo[entrants[i].code].best);
        EXPECT_EQ(result.results[i].evaluated,
                  solo[entrants[i].code].evaluated);
    }
}

TEST(Portfolio, SharedMemoPreservesTrajectoriesAndSavesWork)
{
    // The equivalence property: with a shared (then warm) memo table,
    // every strategy still commits exactly the evaluations of its solo
    // run — same best, same speedup — only the split between executed
    // and memo-hit changes.
    std::map<std::string, SearchResult> solo;
    for (const auto& code : kClusterCodes) {
        CountingProblem problem(4);
        solo[code] = runSearch(problem, code, {200, 0.0});
    }

    auto runShared = [&](std::shared_ptr<MemoTable> memo,
                         CountingProblem& problem) {
        std::vector<PortfolioEntrant> entrants;
        for (const auto& code : kClusterCodes) {
            PortfolioEntrant entrant;
            entrant.code = code;
            entrant.problem = &problem;
            entrant.run.memo = memo;
            entrants.push_back(std::move(entrant));
        }
        PortfolioOptions options;
        options.budget = {200, 0.0};
        return runPortfolio(entrants, options);
    };

    std::string path = ::testing::TempDir() + "portfolio_memo.log";
    std::remove(path.c_str());
    MemoFingerprint fp = testFingerprint(4);

    // Cold portfolio: entrants deduplicate against each other live.
    CountingProblem cold(4);
    PortfolioResult coldRun =
        runShared(std::make_shared<MemoTable>(path, fp), cold);
    std::size_t soloExecutions = 0;
    for (std::size_t i = 0; i < kClusterCodes.size(); ++i) {
        const SearchResult& entrant = coldRun.results[i];
        const SearchResult& reference = solo[kClusterCodes[i]];
        EXPECT_EQ(entrant.best, reference.best);
        EXPECT_DOUBLE_EQ(entrant.bestEvaluation.speedup,
                         reference.bestEvaluation.speedup);
        // Every solo execution became an execution or a memo hit.
        EXPECT_EQ(entrant.evaluated + entrant.memoHits,
                  reference.evaluated);
        soloExecutions += reference.evaluated;
    }
    // Sharing cannot execute more than the solo runs did combined.
    EXPECT_LE(cold.rawCalls_.load(),
              static_cast<int>(soloExecutions));

    // Warm portfolio from the reopened segment: zero executions.
    CountingProblem warm(4);
    PortfolioResult warmRun =
        runShared(std::make_shared<MemoTable>(path, fp), warm);
    EXPECT_EQ(warm.rawCalls_.load(), 0);
    for (std::size_t i = 0; i < kClusterCodes.size(); ++i) {
        const SearchResult& entrant = warmRun.results[i];
        EXPECT_EQ(entrant.evaluated, 0u);
        EXPECT_EQ(entrant.best, solo[kClusterCodes[i]].best);
    }
    EXPECT_EQ(warmRun.results[warmRun.winner].best,
              coldRun.results[coldRun.winner].best);
}

TEST(Portfolio, RaceModeFinishesAndPicksAWinner)
{
    CountingProblem problem(4);
    std::vector<PortfolioEntrant> entrants;
    for (const auto& code : kClusterCodes) {
        PortfolioEntrant entrant;
        entrant.code = code;
        entrant.problem = &problem;
        entrants.push_back(std::move(entrant));
    }
    PortfolioOptions options;
    options.mode = PortfolioMode::Race;
    options.budget = {200, 0.0};
    PortfolioResult result = runPortfolio(entrants, options);
    ASSERT_EQ(result.results.size(), kClusterCodes.size());
    // Whatever got cancelled, the winner holds a real improvement:
    // at least one entrant finished cleanly before raising the flag.
    EXPECT_TRUE(result.results[result.winner].foundImprovement);
    EXPECT_GT(result.results[result.winner].bestEvaluation.speedup,
              1.0);
}

TEST(Portfolio, SerialFallbackMatchesConcurrentResults)
{
    auto run = [](std::size_t workers) {
        CountingProblem problem(4);
        std::vector<PortfolioEntrant> entrants;
        for (const auto& code : kClusterCodes) {
            PortfolioEntrant entrant;
            entrant.code = code;
            entrant.problem = &problem;
            entrants.push_back(std::move(entrant));
        }
        PortfolioOptions options;
        options.workers = workers;
        options.budget = {200, 0.0};
        return runPortfolio(entrants, options);
    };
    PortfolioResult serial = run(1);
    PortfolioResult parallel = run(3);
    EXPECT_EQ(serial.winner, parallel.winner);
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].best, parallel.results[i].best);
        EXPECT_EQ(serial.results[i].evaluated,
                  parallel.results[i].evaluated);
    }
}

// --- tuner entry point ----------------------------------------------

core::TunerOptions
fastOptions()
{
    core::TunerOptions opt;
    opt.threshold = 1e-2;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {200, 0.0};
    return opt;
}

TEST(Portfolio, TunerPortfolioBeatsNoSingleStrategy)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("hydro-1d");
    std::string dir = freshDir("portfolio_tuner_store/");
    core::TunerOptions options = fastOptions();
    options.memoStore = std::make_shared<MemoStore>(dir);

    core::BenchmarkTuner tuner(*bench, options);
    core::PortfolioOutcome outcome = tuner.tunePortfolio(
        {"CB", "DD", "GA"}, PortfolioMode::Best, 2);

    ASSERT_EQ(outcome.portfolio.results.size(), 3u);
    EXPECT_FALSE(outcome.winnerCode.empty());
    EXPECT_EQ(outcome.clusterConfig.size(), tuner.clusterCount());
    const SearchResult& winner =
        outcome.portfolio.results[outcome.portfolio.winner];
    for (const SearchResult& entrant : outcome.portfolio.results)
        EXPECT_GE(winner.bestEvaluation.speedup,
                  entrant.bestEvaluation.speedup);
    EXPECT_GT(outcome.total.evaluated, 0u);

    // Warm rerun from the same store directory: a fresh tuner (new
    // baseline, same inputs → same fingerprint) re-executes nothing
    // during search — every query is a memo hit. (Measured speedups
    // carry timing noise, so the warm *winner* may legitimately
    // differ; the trajectory-equality property is pinned down by the
    // deterministic search-layer tests above.)
    core::TunerOptions warmOptions = fastOptions();
    warmOptions.memoStore = std::make_shared<MemoStore>(dir);
    core::BenchmarkTuner warmTuner(*bench, warmOptions);
    core::PortfolioOutcome warm = warmTuner.tunePortfolio(
        {"CB", "DD", "GA"}, PortfolioMode::Best, 2);
    EXPECT_EQ(warm.total.evaluated, 0u);
    EXPECT_GT(warm.total.memoHits, 0u);
}

TEST(Portfolio, TotalSumsEveryEntrantCounter)
{
    // Batch-parallel entrants, so steals can be non-zero too.
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("hydro-1d");
    core::TunerOptions options = fastOptions();
    options.searchJobs = 2;
    core::BenchmarkTuner tuner(*bench, options);
    core::PortfolioOutcome outcome = tuner.tunePortfolio(
        {"CB", "CM", "DD", "GA"}, PortfolioMode::Best, 2);

    ASSERT_EQ(outcome.portfolio.results.size(), 4u);
    for (const CounterField& f : kCounterFields) {
        std::size_t sum = 0;
        for (const SearchResult& entrant : outcome.portfolio.results)
            sum += entrant.*f.member;
        EXPECT_EQ(outcome.total.*f.member, sum) << f.key;
    }
    SearchCounters summed;
    for (const SearchResult& entrant : outcome.portfolio.results)
        summed += entrant;
    EXPECT_EQ(outcome.total, summed);
}

TEST(Portfolio, VariableLevelWinnerReducesToClusterConfig)
{
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create("hydro-1d");
    core::BenchmarkTuner tuner(*bench, fastOptions());
    // CM searches at variable granularity; the outcome must still be
    // a cluster-level configuration.
    core::PortfolioOutcome outcome =
        tuner.tunePortfolio({"CM"}, PortfolioMode::Best, 1);
    EXPECT_EQ(outcome.winnerCode, "CM");
    EXPECT_EQ(outcome.clusterConfig.size(), tuner.clusterCount());
}

} // namespace
