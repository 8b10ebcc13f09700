/**
 * @file
 * Property-based tests for the search strategies: randomized problem
 * instances (seeded, reproducible) checked against strategy
 * invariants and a brute-force reference.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache_capture.h"
#include "search/driver.h"
#include "search/genetic.h"
#include "support/json.h"
#include "support/rng.h"

namespace {

using namespace hpcmixp::search;
using hpcmixp::test::CacheCapture;
using hpcmixp::support::Pcg32;

/**
 * A randomized "toxic subset" problem: each site is independently
 * toxic with probability 1/3; a configuration passes iff it lowers no
 * toxic site. Speedup grows with the number of lowered sites, by 0.05
 * per site, or with @p rankedGains by a random per-site gain in
 * {1, ..., 8} / 64, so that configurations of equal size rank apart.
 */
class RandomProblem : public SearchProblem {
  public:
    RandomProblem(std::size_t sites, std::uint64_t seed,
                  bool rankedGains = false)
        : sites_(sites), toxic_(sites)
    {
        Pcg32 rng(seed);
        for (std::size_t i = 0; i < sites; ++i)
            toxic_[i] = rng.chance(1.0 / 3.0);
        if (rankedGains)
            for (std::size_t i = 0; i < sites; ++i)
                gains_.push_back((1.0 + rng.nextBounded(8)) / 64.0);
    }

    std::size_t siteCount() const override { return sites_; }

    bool
    passes(const Config& config) const
    {
        for (std::size_t i = 0; i < sites_; ++i)
            if (config.test(i) && toxic_[i])
                return false;
        return true;
    }

    Evaluation
    evaluate(const Config& config) override
    {
        Evaluation eval;
        double gain = 0.05 * static_cast<double>(config.count());
        if (!gains_.empty()) {
            gain = 0.0;
            for (std::size_t i = 0; i < sites_; ++i)
                gain += config.test(i) ? gains_[i] : 0.0;
        }
        eval.speedup = 1.0 + gain;
        eval.runtimeSeconds = 1.0 / eval.speedup;
        eval.status = passes(config) ? EvalStatus::Pass
                                     : EvalStatus::QualityFail;
        eval.qualityLoss = eval.passed() ? 0.0 : 1.0;
        return eval;
    }

    /** Number of non-toxic sites = optimum lowered count. */
    std::size_t
    optimumCount() const
    {
        std::size_t n = 0;
        for (bool t : toxic_)
            n += t ? 0 : 1;
        return n;
    }

  private:
    std::size_t sites_;
    std::vector<bool> toxic_;
    std::vector<double> gains_; ///< empty = 0.05 per lowered site
};

/** RandomProblem plus a two-module structure tree so the hierarchical
 *  strategies (HR, HC) can run over it. */
class StructuredRandomProblem : public RandomProblem {
  public:
    StructuredRandomProblem(std::size_t sites, std::uint64_t seed,
                            bool rankedGains = false)
        : RandomProblem(sites, seed, rankedGains)
    {
        tree_.name = "prog";
        StructureNode left, right;
        left.name = "modA";
        right.name = "modB";
        for (std::size_t i = 0; i < sites; ++i) {
            tree_.sites.push_back(i);
            StructureNode leaf;
            leaf.name = "v" + std::to_string(i);
            leaf.sites = {i};
            StructureNode& half = i < sites / 2 ? left : right;
            half.sites.push_back(i);
            half.children.push_back(std::move(leaf));
        }
        tree_.children = {std::move(left), std::move(right)};
    }

    const StructureNode* structure() const override { return &tree_; }

  private:
    StructureNode tree_;
};

SearchBudget
bigBudget()
{
    return {1000000, 0.0};
}

/** Order-independent view of an exportCache() snapshot: every entry's
 *  dump, sorted by config key (the map dump order is unspecified). */
std::vector<std::string>
canonicalCache(const hpcmixp::support::json::Value& cache)
{
    std::vector<std::pair<std::string, std::string>> entries;
    for (const auto& e : cache.at("evaluations").items())
        entries.emplace_back(e.at("config").asString(), e.dump());
    std::sort(entries.begin(), entries.end());
    std::vector<std::string> dumps;
    dumps.reserve(entries.size());
    for (auto& [key, dump] : entries)
        dumps.push_back(std::move(dump));
    return dumps;
}

class SearchProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SearchProperty, CombinationalFindsTheOptimum)
{
    RandomProblem problem(6, GetParam());
    auto result = runSearch(problem, "CB", bigBudget());
    EXPECT_EQ(result.evaluated, 63u);
    if (problem.optimumCount() == 0) {
        EXPECT_FALSE(result.foundImprovement);
    } else {
        ASSERT_TRUE(result.foundImprovement);
        // The independent-toxicity structure makes "lower every
        // non-toxic site" the unique optimum.
        EXPECT_EQ(result.best.count(), problem.optimumCount());
        EXPECT_TRUE(problem.passes(result.best));
    }
}

TEST_P(SearchProperty, DeltaDebugResultPassesAndIsLocallyMinimal)
{
    RandomProblem problem(9, GetParam());
    auto result = runSearch(problem, "DD", bigBudget());
    EXPECT_TRUE(problem.passes(result.best));
    // Local minimality of the kept set: lowering any additional site
    // on top of DD's answer must fail (otherwise DD stopped early).
    // This holds for independent toxicity: the only extension sites
    // are toxic ones.
    for (std::size_t i = 0; i < problem.siteCount(); ++i) {
        if (result.best.test(i))
            continue;
        Config extended = result.best;
        extended.set(i);
        EXPECT_FALSE(problem.passes(extended))
            << "site " << i << " was convertible but kept in double";
    }
}

TEST_P(SearchProperty, DeltaDebugMatchesCombinationalOptimum)
{
    RandomProblem problem(6, GetParam());
    auto cb = runSearch(problem, "CB", bigBudget());
    auto dd = runSearch(problem, "DD", bigBudget());
    // With monotone speedup and independent toxicity, DD's local
    // minimum is the global optimum CB finds.
    EXPECT_EQ(dd.best.count(), cb.best.count());
    EXPECT_LE(dd.evaluated, cb.evaluated);
}

TEST_P(SearchProperty, CompositionalResultsAlwaysPass)
{
    RandomProblem problem(7, GetParam());
    auto result = runSearch(problem, "CM", bigBudget());
    EXPECT_TRUE(problem.passes(result.best));
    if (problem.optimumCount() > 0) {
        ASSERT_TRUE(result.foundImprovement);
        // CM composes all passing singletons, reaching the optimum.
        EXPECT_EQ(result.best.count(), problem.optimumCount());
    }
}

TEST_P(SearchProperty, GeneticRespectsItsBudgetAndPasses)
{
    RandomProblem problem(8, GetParam());
    GaOptions options;
    options.seed = GetParam() ^ 0xabcdef;
    GeneticSearch ga(options);
    SearchContext ctx(problem, bigBudget());
    ga.run(ctx);
    EXPECT_LE(ctx.counters().evaluated,
              options.population * options.generations);
    if (ctx.hasBest()) {
        EXPECT_TRUE(problem.passes(ctx.bestConfig()));
    }
}

TEST_P(SearchProperty, CacheNeverReExecutes)
{
    RandomProblem problem(6, GetParam());
    SearchContext ctx(problem, bigBudget());
    Pcg32 rng(GetParam());
    std::size_t distinct = 0;
    std::vector<std::string> seen;
    for (int i = 0; i < 200; ++i) {
        Config cfg(6);
        for (std::size_t s = 0; s < 6; ++s)
            cfg.set(s, rng.chance(0.5));
        std::string key = cfg.toString();
        bool isNew = true;
        for (const auto& k : seen)
            if (k == key)
                isNew = false;
        if (isNew) {
            seen.push_back(key);
            ++distinct;
        }
        ctx.evaluate(cfg);
    }
    EXPECT_EQ(ctx.counters().evaluated, distinct);
    EXPECT_EQ(ctx.counters().cacheHits, 200u - distinct);
}

/**
 * The headline pin of batch-parallel evaluation: for every strategy,
 * a 4-worker search must traverse exactly the trajectory of the
 * serial search — same best configuration, same EV / cache-hit /
 * compile-failure accounting, and a bit-identical evaluation cache.
 * (Commit-in-submission-order makes this hold; see DESIGN.md §9.)
 */
TEST_P(SearchProperty, ParallelBatchesMatchSerialTrajectory)
{
    using hpcmixp::support::json::Value;
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        auto runWith = [&](std::size_t jobs, Value& cache) {
            StructuredRandomProblem problem(7, GetParam());
            SearchRunOptions run;
            run.searchJobs = jobs;
            CacheCapture capture(code);
            auto result = runSearch(problem, capture, bigBudget(), run);
            cache = capture.cache();
            return result;
        };
        Value serialCache, parallelCache;
        auto serial = runWith(1, serialCache);
        auto parallel = runWith(4, parallelCache);

        EXPECT_EQ(parallel.foundImprovement, serial.foundImprovement)
            << code;
        EXPECT_EQ(parallel.best, serial.best) << code;
        EXPECT_DOUBLE_EQ(parallel.bestEvaluation.speedup,
                         serial.bestEvaluation.speedup)
            << code;
        EXPECT_EQ(parallel.evaluated, serial.evaluated) << code;
        EXPECT_EQ(parallel.cacheHits, serial.cacheHits) << code;
        EXPECT_EQ(parallel.compileFailures, serial.compileFailures)
            << code;
        EXPECT_EQ(canonicalCache(parallelCache),
                  canonicalCache(serialCache))
            << code;
    }
}

/**
 * RandomProblem whose evaluation *cost* varies per configuration (a
 * seeded spin) while the evaluation *values* stay pure functions of
 * the configuration. Uneven latency is what makes work stealing kick
 * in: fast workers drain their deques and raid the loaded ones.
 */
class UnevenLatencyProblem : public RandomProblem {
  public:
    UnevenLatencyProblem(std::size_t sites, std::uint64_t seed)
        : RandomProblem(sites, seed), spinSeed_(seed)
    {
    }

    Evaluation
    evaluate(const Config& config) override
    {
        Pcg32 rng(spinSeed_ ^
                  std::hash<std::string>{}(config.toString()));
        volatile double sink = 0.0;
        const std::uint32_t spins = rng.nextBounded(20000);
        for (std::uint32_t i = 0; i < spins; ++i)
            sink = sink + static_cast<double>(i) * 1e-9;
        (void)sink;
        return RandomProblem::evaluate(config);
    }

  private:
    std::uint64_t spinSeed_;
};

/**
 * The stealing pool is a pure throughput optimization: a batch with
 * wildly uneven per-item latencies must commit bit-identical
 * evaluations on four stealing workers and on one (the serial
 * reference) — commit order follows submission order, never
 * completion order.
 */
TEST_P(SearchProperty, StealingBatchMatchesSerialBitIdentically)
{
    auto runWith = [&](std::size_t jobs, std::vector<Evaluation>& evals) {
        UnevenLatencyProblem problem(10, GetParam());
        SearchContext ctx(problem, bigBudget(), ResiliencePolicy{});
        ctx.setSearchJobs(jobs);

        std::vector<Config> batch;
        Pcg32 rng(GetParam() * 0x9e3779b9u + 17);
        for (int i = 0; i < 48; ++i) {
            Config cfg(10);
            for (std::size_t s = 0; s < 10; ++s)
                if (rng.chance(0.5))
                    cfg.set(s);
            batch.push_back(cfg);
        }
        evals = ctx.evaluateBatch(batch);
        return canonicalCache(ctx.exportCache());
    };

    std::vector<Evaluation> stealEvals, serialEvals;
    auto stealCache = runWith(4, stealEvals);
    auto serialCache = runWith(1, serialEvals);

    ASSERT_EQ(stealEvals.size(), serialEvals.size());
    for (std::size_t i = 0; i < stealEvals.size(); ++i) {
        EXPECT_EQ(stealEvals[i].status, serialEvals[i].status) << i;
        EXPECT_EQ(stealEvals[i].speedup, serialEvals[i].speedup) << i;
        EXPECT_EQ(stealEvals[i].runtimeSeconds,
                  serialEvals[i].runtimeSeconds)
            << i;
        EXPECT_EQ(stealEvals[i].qualityLoss, serialEvals[i].qualityLoss)
            << i;
    }
    EXPECT_EQ(stealCache, serialCache);
}

/** A deliberately lopsided batch: the slow item lands in one worker's
 *  deque along with a pile of fast ones, so the idle workers must
 *  steal to drain the batch promptly. */
TEST(StealScheduling, ThievesDrainALoadedWorker)
{
    class StallFirstProblem : public SearchProblem {
      public:
        std::size_t siteCount() const override { return 6; }
        Evaluation
        evaluate(const Config& config) override
        {
            if (config.test(0) && config.count() == 1)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(80));
            Evaluation eval;
            eval.speedup =
                1.0 + 0.01 * static_cast<double>(config.count());
            eval.runtimeSeconds = 1.0 / eval.speedup;
            eval.status = EvalStatus::Pass;
            return eval;
        }
    } problem;

    SearchContext ctx(problem, SearchBudget{1000000, 0.0},
                      ResiliencePolicy{});
    ctx.setSearchJobs(4);

    std::vector<Config> batch;
    Config slow(6);
    slow.set(0);
    batch.push_back(slow);
    // Distinct fast configurations (binary images of 2..33, none of
    // which is the lone-bit-0 slow config).
    for (unsigned pattern = 2; pattern < 34; ++pattern) {
        Config cfg(6);
        for (std::size_t s = 0; s < 6; ++s)
            if (pattern & (1u << s))
                cfg.set(s);
        batch.push_back(cfg);
    }
    auto evals = ctx.evaluateBatch(batch);
    EXPECT_EQ(evals.size(), batch.size());
    EXPECT_GT(ctx.counters().steals, 0u);
}

/**
 * Budget exhaustion must cut a parallel search at exactly the same
 * configuration as the serial search: speculative evaluations past
 * the budget are discarded, never committed.
 */
TEST_P(SearchProperty, ParallelBudgetTruncationMatchesSerial)
{
    using hpcmixp::support::json::Value;
    for (const char* code : {"CB", "GA"}) {
        for (std::size_t cap : {3u, 7u}) {
            auto runWith = [&](std::size_t jobs, Value& cache) {
                StructuredRandomProblem problem(7, GetParam());
                SearchRunOptions run;
                run.searchJobs = jobs;
                CacheCapture capture(code);
                auto result = runSearch(problem, capture,
                                        SearchBudget{cap, 0.0}, run);
                cache = capture.cache();
                return result;
            };
            Value serialCache, parallelCache;
            auto serial = runWith(1, serialCache);
            auto parallel = runWith(4, parallelCache);
            EXPECT_EQ(parallel.timedOut, serial.timedOut) << code;
            EXPECT_EQ(parallel.evaluated, serial.evaluated) << code;
            EXPECT_EQ(parallel.best, serial.best) << code;
            EXPECT_EQ(canonicalCache(parallelCache),
                      canonicalCache(serialCache))
                << code << " cap=" << cap;
        }
    }
}

/** StructuredRandomProblem that records every cache-miss evaluation
 *  in submission order. Cache hits never reach evaluate(), so they
 *  are invisible to the trajectory — exactly the view the pre-ladder
 *  golden capture used. */
class TrajectoryProblem : public StructuredRandomProblem {
  public:
    using StructuredRandomProblem::StructuredRandomProblem;

    Evaluation
    evaluate(const Config& config) override
    {
        trajectory.push_back(config.toString());
        return StructuredRandomProblem::evaluate(config);
    }

    std::vector<std::string> trajectory;
};

std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct TrajectoryPin {
    const char* code;
    std::uint64_t seed;
    std::uint64_t hash;
};

/**
 * Golden hashes captured at the last pre-ladder commit: FNV-1a over
 * (trajectory keys, winner, canonical exported cache) for every
 * strategy run serially on StructuredRandomProblem(7, seed) with an
 * unbounded budget. The multi-rung generalization must keep a
 * default two-rung campaign bit-identical to these — any drift means
 * ladder logic leaked into the maxLevel()==1 path.
 */
constexpr TrajectoryPin kPreLadderPins[] = {
    {"CB", 1u, 0xe41e77d7a16ef669ull},
    {"CB", 2u, 0x240b4e726cf2994full},
    {"CB", 3u, 0x66a6e5d497332e89ull},
    {"CB", 5u, 0x1f6c1a3033a8ccd4ull},
    {"CB", 8u, 0x3bfe5d5d610448c0ull},
    {"CB", 13u, 0x00f443ebc949ed86ull},
    {"CB", 21u, 0x55ca32d089f8b4b4ull},
    {"CB", 34u, 0x2c7fed7da08f83f1ull},
    {"CB", 55u, 0xee2d645a5544d1d8ull},
    {"CB", 89u, 0xe41e77d7a16ef669ull},
    {"CM", 1u, 0x6e7f23b30403b6eaull},
    {"CM", 2u, 0x10179868b6c17f76ull},
    {"CM", 3u, 0x3417646d3ac2d25cull},
    {"CM", 5u, 0xcb334f04bf56ebb4ull},
    {"CM", 8u, 0xdae91e1202797c3cull},
    {"CM", 13u, 0x928f0c500538d4deull},
    {"CM", 21u, 0x59da92fe94adafccull},
    {"CM", 34u, 0xe787200c0c00f15aull},
    {"CM", 55u, 0xd688c13ebc9a394cull},
    {"CM", 89u, 0x6e7f23b30403b6eaull},
    {"DD", 1u, 0x37a40a91e2e335e7ull},
    {"DD", 2u, 0x4e1730d51127befdull},
    {"DD", 3u, 0x630815735bbc721cull},
    {"DD", 5u, 0x0454f954225051baull},
    {"DD", 8u, 0xdb83bb9fc02a65f5ull},
    {"DD", 13u, 0x8d753ee4d0e4e17dull},
    {"DD", 21u, 0xf74ed7f39648f1eeull},
    {"DD", 34u, 0x8ebcac9c410ad7d3ull},
    {"DD", 55u, 0x703ae36d42fe243bull},
    {"DD", 89u, 0x37a40a91e2e335e7ull},
    {"HR", 1u, 0xa739e631934079fbull},
    {"HR", 2u, 0x83cfe0fe719fa23cull},
    {"HR", 3u, 0xcf8d223dd9da0ac6ull},
    {"HR", 5u, 0xfbb9ec3f8d9d8e46ull},
    {"HR", 8u, 0xdb83bb9fc02a65f5ull},
    {"HR", 13u, 0x89dc9ce980e85a78ull},
    {"HR", 21u, 0x3b1d662e2fb52a6eull},
    {"HR", 34u, 0x9f6ff9ef6cff9bccull},
    {"HR", 55u, 0xd4dec53a058e6782ull},
    {"HR", 89u, 0xa739e631934079fbull},
    {"HC", 1u, 0xa7349147e5924973ull},
    {"HC", 2u, 0x83cfe0fe719fa23cull},
    {"HC", 3u, 0xe85d165b17978f7eull},
    {"HC", 5u, 0x6ea5a0c77ee1d5beull},
    {"HC", 8u, 0xdb83bb9fc02a65f5ull},
    {"HC", 13u, 0x4b2da60acd6a1db4ull},
    {"HC", 21u, 0x3b1d662e2fb52a6eull},
    {"HC", 34u, 0xdae632e30749d2ccull},
    {"HC", 55u, 0x366714028db321ceull},
    {"HC", 89u, 0xa7349147e5924973ull},
    {"GA", 1u, 0x6946b360545a99d0ull},
    {"GA", 2u, 0xeebfe0da9e248990ull},
    {"GA", 3u, 0x73ae751317adcec5ull},
    {"GA", 5u, 0x08c93e510d24a14aull},
    {"GA", 8u, 0xafa7796c3eaff243ull},
    {"GA", 13u, 0x8763ae657939d83aull},
    {"GA", 21u, 0xeebfe0da9e248990ull},
    {"GA", 34u, 0x08c93e510d24a14aull},
    {"GA", 55u, 0xc95b5f0f891a2694ull},
    {"GA", 89u, 0x6946b360545a99d0ull},
};

/**
 * The headline pin of the precision-ladder generalization: with the
 * default two-rung ladder (maxLevel()==1), every strategy's full
 * trajectory, winner, and exported evaluation cache must be
 * bit-identical to the pre-ladder implementation, per seed.
 */
TEST_P(SearchProperty, DefaultLadderMatchesPreLadderTrajectoryGolden)
{
    using hpcmixp::support::json::Value;
    const std::uint64_t seed = GetParam();
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        TrajectoryProblem problem(7, seed);
        CacheCapture capture(code);
        auto result = runSearch(problem, capture, bigBudget());
        const Value& cache = capture.cache();

        std::string blob;
        for (const auto& key : problem.trajectory) {
            blob += key;
            blob += ',';
        }
        blob += "|best=";
        blob += result.foundImprovement ? result.best.toString()
                                        : std::string("-");
        blob += "|cache=";
        for (const auto& dump : canonicalCache(cache)) {
            blob += dump;
            blob += ';';
        }

        const TrajectoryPin* pin = nullptr;
        for (const auto& p : kPreLadderPins)
            if (std::string(p.code) == code && p.seed == seed)
                pin = &p;
        ASSERT_NE(pin, nullptr) << code << " seed=" << seed;
        EXPECT_EQ(fnv1a(blob), pin->hash)
            << code << " seed=" << seed
            << ": two-rung trajectory drifted from the pre-ladder "
               "golden";
    }
}

/**
 * Multiplies every speedup of an inner problem by a common @p scale,
 * as a different baseline runtime would, and records each
 * evaluation's (config, status) in order: a serial search commits in
 * evaluation order.
 */
class ScaledSpeedupProblem : public SearchProblem {
  public:
    ScaledSpeedupProblem(SearchProblem& inner, double scale)
        : inner_(inner), scale_(scale)
    {
    }

    std::size_t siteCount() const override { return inner_.siteCount(); }
    const StructureNode* structure() const override
    {
        return inner_.structure();
    }

    Evaluation
    evaluate(const Config& config) override
    {
        Evaluation eval = inner_.evaluate(config);
        eval.speedup *= scale_;
        committed.emplace_back(config.toString(), eval.status);
        return eval;
    }

    std::vector<std::pair<std::string, EvalStatus>> committed;

  private:
    SearchProblem& inner_;
    double scale_;
};

/**
 * Search-time speedups all divide by one baseline runtime, so no
 * decision may depend on its value: every strategy commits the same
 * evaluations and returns the same best when every speedup is halved
 * or doubled. Powers of two keep every comparison exact.
 */
TEST_P(SearchProperty, DecisionsIgnoreTheBaselineScale)
{
    for (const char* code : {"CB", "CM", "DD", "GA", "HR", "HC"}) {
        std::vector<std::pair<std::string, EvalStatus>> reference;
        std::string referenceBest;
        for (double scale : {1.0, 0.5, 2.0}) {
            StructuredRandomProblem inner(7, GetParam(), true);
            ScaledSpeedupProblem problem(inner, scale);
            auto result = runSearch(problem, code, bigBudget());
            std::string best = result.foundImprovement
                                   ? result.best.toString()
                                   : std::string("-");
            if (scale == 1.0) {
                reference = problem.committed;
                referenceBest = best;
                continue;
            }
            EXPECT_EQ(problem.committed, reference)
                << code << " seed=" << GetParam() << " scale=" << scale;
            EXPECT_EQ(best, referenceBest)
                << code << " seed=" << GetParam() << " scale=" << scale;
        }
    }
}

/**
 * A randomized ladder problem: each site independently tolerates
 * narrowing down to a per-site level `tolerance[i]` in [0, rungs];
 * a configuration passes iff no site sits below its tolerance rung.
 * Speedup grows with total demotion depth, so the unique optimum is
 * the tolerance vector itself.
 */
class LadderProblem : public SearchProblem {
  public:
    LadderProblem(std::size_t sites, std::size_t rungs,
                  std::uint64_t seed)
        : sites_(sites), rungs_(rungs), tolerance_(sites)
    {
        Pcg32 rng(seed ^ 0x1adde5u);
        for (std::size_t i = 0; i < sites; ++i)
            tolerance_[i] = static_cast<std::uint8_t>(
                rng.nextBounded(static_cast<std::uint32_t>(rungs) + 1));
    }

    std::size_t siteCount() const override { return sites_; }
    std::size_t maxLevel() const override { return rungs_; }

    bool
    passes(const Config& config) const
    {
        for (std::size_t i = 0; i < sites_; ++i)
            if (config.level(i) > tolerance_[i])
                return false;
        return true;
    }

    Evaluation
    evaluate(const Config& config) override
    {
        std::size_t depth = 0;
        for (std::size_t i = 0; i < sites_; ++i)
            depth += config.level(i);
        Evaluation eval;
        eval.speedup = 1.0 + 0.05 * static_cast<double>(depth);
        eval.runtimeSeconds = 1.0 / eval.speedup;
        eval.status = passes(config) ? EvalStatus::Pass
                                     : EvalStatus::QualityFail;
        eval.qualityLoss = eval.passed() ? 0.0 : 1.0;
        return eval;
    }

    std::uint8_t tolerance(std::size_t i) const
    {
        return tolerance_[i];
    }

    /** Sum of tolerances = total demotion depth of the optimum. */
    std::size_t
    optimumDepth() const
    {
        std::size_t depth = 0;
        for (std::uint8_t t : tolerance_)
            depth += t;
        return depth;
    }

  private:
    std::size_t sites_;
    std::size_t rungs_;
    std::vector<std::uint8_t> tolerance_;
};

/** LadderProblem plus a two-module structure tree for HR / HC. */
class StructuredLadderProblem : public LadderProblem {
  public:
    StructuredLadderProblem(std::size_t sites, std::size_t rungs,
                            std::uint64_t seed)
        : LadderProblem(sites, rungs, seed)
    {
        tree_.name = "prog";
        StructureNode left, right;
        left.name = "modA";
        right.name = "modB";
        for (std::size_t i = 0; i < sites; ++i) {
            tree_.sites.push_back(i);
            StructureNode leaf;
            leaf.name = "v" + std::to_string(i);
            leaf.sites = {i};
            StructureNode& half = i < sites / 2 ? left : right;
            half.sites.push_back(i);
            half.children.push_back(std::move(leaf));
        }
        tree_.children = {std::move(left), std::move(right)};
    }

    const StructureNode* structure() const override { return &tree_; }

  private:
    StructureNode tree_;
};

/**
 * With independent per-site tolerances the tolerance vector is the
 * unique optimum; CB's level odometer enumerates the full ladder
 * space and must land exactly on it.
 */
TEST_P(SearchProperty, ThreeRungCombinationalFindsTheOptimum)
{
    LadderProblem problem(4, 2, GetParam());
    auto result = runSearch(problem, "CB", bigBudget());
    if (problem.optimumDepth() == 0) {
        EXPECT_FALSE(result.foundImprovement);
        return;
    }
    ASSERT_TRUE(result.foundImprovement);
    EXPECT_TRUE(problem.passes(result.best));
    for (std::size_t i = 0; i < problem.siteCount(); ++i)
        EXPECT_EQ(result.best.level(i), problem.tolerance(i))
            << "site " << i;
}

/**
 * DD and CM both end in (or compose to) the per-site deepest
 * tolerated level: DD via the greedy demotion pass, CM via
 * per-(site, level) singles unioned with per-site max.
 */
TEST_P(SearchProperty, ThreeRungDemotionReachesPerSiteTolerance)
{
    for (const char* code : {"DD", "CM"}) {
        LadderProblem problem(6, 2, GetParam());
        if (problem.optimumDepth() == 0)
            continue;
        auto result = runSearch(problem, code, bigBudget());
        ASSERT_TRUE(result.foundImprovement) << code;
        for (std::size_t i = 0; i < problem.siteCount(); ++i)
            EXPECT_EQ(result.best.level(i), problem.tolerance(i))
                << code << " site " << i;
    }
}

/** Every strategy's winner must pass on a three-rung ladder. */
TEST_P(SearchProperty, ThreeRungWinnersAlwaysPass)
{
    for (const char* code : {"CB", "CM", "DD", "HR", "HC", "GA"}) {
        StructuredLadderProblem problem(6, 2, GetParam());
        auto result = runSearch(problem, code, bigBudget());
        if (result.foundImprovement) {
            EXPECT_TRUE(problem.passes(result.best)) << code;
        }
    }
}

/**
 * Per-site prior caps bound every proposed level: with site i capped
 * at i % 3 rungs, no strategy may return (or even cache) a
 * configuration exceeding a cap.
 */
TEST_P(SearchProperty, ThreeRungPriorCapsAreNeverExceeded)
{
    using hpcmixp::support::json::Value;
    const std::size_t sites = 6;
    std::vector<std::uint8_t> caps(sites);
    for (std::size_t i = 0; i < sites; ++i)
        caps[i] = static_cast<std::uint8_t>(i % 3);
    StaticPrior prior = StaticPrior::withCaps(
        PriorMode::On, caps, std::vector<bool>(sites, false),
        std::vector<int>(sites, 0));

    for (const char* code : {"CB", "CM", "DD", "HR", "HC"}) {
        StructuredLadderProblem problem(sites, 2, GetParam());
        SearchRunOptions run;
        run.prior = prior;
        CacheCapture capture(code);
        auto result = runSearch(problem, capture, bigBudget(), run);
        const Value& cache = capture.cache();
        for (std::size_t i = 0; i < sites; ++i)
            EXPECT_LE(result.best.level(i), caps[i])
                << code << " site " << i;
        for (const auto& e : cache.at("evaluations").items()) {
            Config cfg =
                Config::fromString(e.at("config").asString());
            EXPECT_FALSE(prior.violates(cfg))
                << code << " cached " << cfg.toString();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u, 55u, 89u));

} // namespace
