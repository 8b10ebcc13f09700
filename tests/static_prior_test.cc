/**
 * @file
 * StaticPrior semantics and its effect on every search strategy:
 * Off is trajectory-identical to a plain search, On never evaluates a
 * pinned site and seeds the GA, Strict rejects violating configs
 * without executing them, and the hierarchical traversal visits
 * high-score groups first.
 */

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "search/driver.h"
#include "search/prior.h"
#include "search/strategy.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp::search;

/** Deterministic problem that records every raw evaluation in order.
 *  Only safe for serial contexts (searchJobs == 1, the default). */
class RecordingProblem : public SearchProblem {
  public:
    using PassFn = std::function<bool(const Config&)>;

    RecordingProblem(std::size_t sites, PassFn pass)
        : sites_(sites), pass_(std::move(pass))
    {
    }

    void setStructure(StructureNode tree)
    {
        tree_ = std::move(tree);
        hasTree_ = true;
    }

    std::size_t siteCount() const override { return sites_; }

    Evaluation
    evaluate(const Config& config) override
    {
        evaluated_.push_back(config);
        Evaluation eval;
        eval.speedup = 1.0 + 0.1 * static_cast<double>(config.count());
        eval.runtimeSeconds = 1.0 / eval.speedup;
        if (pass_(config)) {
            eval.status = EvalStatus::Pass;
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

    const std::vector<Config>& evaluated() const { return evaluated_; }

  private:
    std::size_t sites_;
    PassFn pass_;
    StructureNode tree_;
    bool hasTree_ = false;
    std::vector<Config> evaluated_;
};

/** root -> two functions -> per-site leaves, over 4 sites. */
StructureNode
fourSiteTree()
{
    StructureNode root{"root", {0, 1, 2, 3}, {}};
    StructureNode fa{"fa", {0, 1}, {}};
    StructureNode fb{"fb", {2, 3}, {}};
    fa.children = {StructureNode{"a0", {0}, {}},
                   StructureNode{"a1", {1}, {}}};
    fb.children = {StructureNode{"b2", {2}, {}},
                   StructureNode{"b3", {3}, {}}};
    root.children = {std::move(fa), std::move(fb)};
    return root;
}

/** Site 2 is precision-sensitive; everything else lowers freely. */
bool
passUnlessSite2(const Config& c)
{
    return !c.test(2);
}

RecordingProblem
fourSiteProblem()
{
    RecordingProblem problem(4, passUnlessSite2);
    problem.setStructure(fourSiteTree());
    return problem;
}

/** The prior mixp-lint would derive: site 2 KeepDouble, 0/1 safe. */
StaticPrior
fourSitePrior(PriorMode mode)
{
    return StaticPrior(mode, {false, false, true, false},
                       {true, true, false, false}, {0, 0, 5, 2});
}

std::vector<std::string>
allCodes()
{
    return {"CB", "CM", "DD", "GA", "HR", "HC"};
}

// ---- StaticPrior unit behaviour ----------------------------------------

TEST(StaticPrior, DefaultIsAbsent)
{
    StaticPrior prior;
    EXPECT_FALSE(prior.enabled());
    EXPECT_FALSE(prior.strict());
    EXPECT_EQ(prior.siteCount(), 0u);
}

TEST(StaticPrior, AccessorsReflectTheVerdicts)
{
    StaticPrior prior(PriorMode::On, {false, true, false, false},
                      {true, false, false, false}, {1, 5, 0, 2});
    EXPECT_TRUE(prior.enabled());
    EXPECT_FALSE(prior.strict());
    EXPECT_EQ(prior.pinnedCount(), 1u);
    EXPECT_TRUE(prior.pinned(1));
    EXPECT_EQ(prior.freeSites(),
              (std::vector<std::size_t>{0, 2, 3}));
    EXPECT_EQ(prior.seedConfig(), Config::withLowered(4, {0}));
    EXPECT_TRUE(prior.violates(Config::withLowered(4, {1})));
    EXPECT_FALSE(prior.violates(Config::withLowered(4, {0, 2})));
    EXPECT_EQ(prior.clamped(Config::withLowered(4, {0, 1, 3})),
              Config::withLowered(4, {0, 3}));
    EXPECT_EQ(prior.groupScore({0, 3}), 3);
    EXPECT_EQ(prior.groupScore({}), 0);
}

TEST(StaticPrior, SeedNeverLowersAPinnedSite)
{
    // A contradictory verdict pair (pinned *and* narrow) resolves in
    // favour of the pin.
    StaticPrior prior(PriorMode::On, {true, false}, {true, true},
                      {5, 0});
    EXPECT_EQ(prior.seedConfig(), Config::withLowered(2, {1}));
}

TEST(StaticPrior, ModeNamesRoundTrip)
{
    for (PriorMode mode :
         {PriorMode::Off, PriorMode::On, PriorMode::Strict})
        EXPECT_EQ(parsePriorMode(priorModeName(mode)), mode);
}

TEST(StaticPrior, UnknownModeSpellingIsAUserError)
{
    EXPECT_THROW((void)parsePriorMode("auto"),
                 hpcmixp::support::FatalError);
}

// ---- Off mode: bit-identical trajectories ------------------------------

TEST(StaticPrior, OffModeIsTrajectoryIdenticalOnEveryStrategy)
{
    for (const std::string& code : allCodes()) {
        RecordingProblem plain = fourSiteProblem();
        SearchResult without =
            runSearch(plain, code, SearchBudget{10000, 0.0});

        RecordingProblem primed = fourSiteProblem();
        SearchRunOptions run;
        run.prior = fourSitePrior(PriorMode::Off);
        SearchResult with =
            runSearch(primed, code, SearchBudget{10000, 0.0}, run);

        EXPECT_EQ(plain.evaluated(), primed.evaluated())
            << code << ": Off prior changed the evaluation sequence";
        EXPECT_EQ(without.evaluated, with.evaluated) << code;
        EXPECT_EQ(without.best, with.best) << code;
    }
}

// ---- On mode: pruning, seeding, ordering -------------------------------

TEST(StaticPrior, OnModeNeverEvaluatesAPinnedSite)
{
    for (const std::string& code : allCodes()) {
        RecordingProblem problem = fourSiteProblem();
        SearchRunOptions run;
        run.prior = fourSitePrior(PriorMode::On);
        SearchResult result =
            runSearch(problem, code, SearchBudget{10000, 0.0}, run);

        for (const Config& cfg : problem.evaluated())
            EXPECT_FALSE(cfg.test(2))
                << code << " evaluated pinned site: " << cfg.toString();
        EXPECT_FALSE(result.best.test(2)) << code;
    }
}

TEST(StaticPrior, OnModeSeedsTheGeneticPopulation)
{
    RecordingProblem problem = fourSiteProblem();
    SearchRunOptions run;
    run.prior = fourSitePrior(PriorMode::On);
    runSearch(problem, "GA", SearchBudget{10000, 0.0}, run);

    Config seed = run.prior.seedConfig();
    bool found = false;
    for (const Config& cfg : problem.evaluated())
        found = found || cfg == seed;
    EXPECT_TRUE(found) << "GA never evaluated the SafeToNarrow seed";
}

TEST(StaticPrior, HierarchicalVisitsHighScoreGroupsFirst)
{
    // No pins — only the ordering signal. Root fails (it lowers the
    // sensitive site 2), so level two enumerates both functions; the
    // prior's scores put fb {2,3} (score 7) ahead of fa {0,1}.
    RecordingProblem problem = fourSiteProblem();
    SearchRunOptions run;
    run.prior = StaticPrior(PriorMode::On, {false, false, false, false},
                            {false, false, false, false}, {0, 0, 5, 2});
    runSearch(problem, "HR", SearchBudget{10000, 0.0}, run);

    const auto& seq = problem.evaluated();
    ASSERT_GE(seq.size(), 3u);
    EXPECT_EQ(seq[0], Config::withLowered(4, {0, 1, 2, 3}));
    EXPECT_EQ(seq[1], Config::withLowered(4, {2, 3}));
    EXPECT_EQ(seq[2], Config::withLowered(4, {0, 1}));
}

// ---- Strict mode -------------------------------------------------------

TEST(StaticPrior, StrictRejectsViolationsWithoutExecuting)
{
    RecordingProblem problem = fourSiteProblem();
    SearchContext ctx(problem, SearchBudget{10000, 0.0});
    ctx.setPrior(fourSitePrior(PriorMode::Strict));

    const Evaluation& eval =
        ctx.evaluate(Config::withLowered(4, {0, 2}));
    EXPECT_EQ(eval.status, EvalStatus::CompileFail);
    EXPECT_TRUE(problem.evaluated().empty())
        << "violating config must not reach the problem";
    EXPECT_EQ(ctx.counters().evaluated, 0u);
    EXPECT_EQ(ctx.counters().compileFailures, 1u);

    // Conforming configurations still execute normally.
    const Evaluation& ok = ctx.evaluate(Config::withLowered(4, {0}));
    EXPECT_TRUE(ok.passed());
    EXPECT_EQ(ctx.counters().evaluated, 1u);
}

TEST(StaticPriorDeathTest, SiteCountMismatchPanics)
{
    RecordingProblem problem = fourSiteProblem();
    SearchContext ctx(problem, SearchBudget{10000, 0.0});
    EXPECT_DEATH(ctx.setPrior(StaticPrior(PriorMode::On, {false},
                                          {false}, {0})),
                 "site count");
}

} // namespace
