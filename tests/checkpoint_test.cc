/**
 * @file
 * Tests for campaign resume (CRAFT's searches are resumable). The
 * memo store is the only durable search state: a search cut short —
 * by its budget or by a kill — leaves every evaluation it committed
 * in its fingerprint's memo segment, and a resumed search replays
 * them as memo hits that cost no EV and no budget. The harness adds a
 * completed-jobs journal beside the segments, so a resumed campaign
 * restores finished jobs outright and re-runs only the rest.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache_capture.h"
#include "harness/harness.h"
#include "search/combinational.h"
#include "search/driver.h"
#include "search/fault.h"
#include "search/memo_store.h"
#include "support/json.h"
#include "support/memo_log.h"
#include "support/yaml.h"

namespace {

using namespace hpcmixp::search;
using hpcmixp::harness::HarnessOptions;
using hpcmixp::harness::JobResult;
using hpcmixp::harness::parseConfig;
using hpcmixp::harness::runJobs;
using hpcmixp::support::json::Value;
using hpcmixp::test::CacheCapture;

/** Counts raw executions so resume behaviour is observable. */
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

    // Atomic: batch evaluation calls evaluate() from pool workers.
    std::atomic<int> rawCalls_{0};

  private:
    std::size_t sites_;
};

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

/** A path under gtest's temporary directory, removed first. */
std::string
freshPath(const std::string& name)
{
    std::string path = ::testing::TempDir() + name;
    std::filesystem::remove_all(path);
    return path;
}

/** Open the memo segment at @p path as a new process would. */
std::shared_ptr<MemoTable>
reopen(const std::string& path, std::size_t sites = 4)
{
    return std::make_shared<MemoTable>(path, testFingerprint(sites));
}

/** Every line of @p path after the header, in file order. */
std::vector<std::string>
recordLines(const std::string& path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Sorted (config, status) pairs of an exportCache() document. */
std::vector<std::string>
verdicts(const Value& cache)
{
    std::vector<std::string> out;
    for (const auto& e : cache.at("evaluations").items())
        out.push_back(e.at("config").asString() + "=" +
                      e.at("status").asString());
    std::sort(out.begin(), out.end());
    return out;
}

// --- search level: the memo segment is the durable search state ----

TEST(Checkpoint, ResumedSearchDoesNotReExecute)
{
    std::string path = freshPath("resume_cb.log");
    CountingProblem problem(4);

    // Phase 1: CB cut after 5 executions.
    CombinationalSearch cb;
    SearchContext first(problem, {5, 0.0});
    first.setMemo(reopen(path));
    EXPECT_THROW(cb.run(first), BudgetExhausted);
    EXPECT_EQ(first.counters().evaluated, 5u);
    int executedSoFar = problem.rawCalls_;

    // Phase 2: a new process resumes over the same segment.
    SearchContext second(problem, {100, 0.0});
    second.setMemo(reopen(path));
    cb.run(second); // completes
    // Only the remaining 15 - 5 = 10 configs executed.
    EXPECT_EQ(second.counters().evaluated, 10u);
    EXPECT_EQ(second.counters().memoHits, 5u);
    EXPECT_EQ(problem.rawCalls_, executedSoFar + 10);
    EXPECT_EQ(first.counters().evaluated + second.counters().evaluated, 15u);
}

TEST(Checkpoint, RestoredBestSurvivesResume)
{
    std::string path = freshPath("resume_best.log");
    CountingProblem problem(4);
    Config best = Config::withLowered(4, {1, 2, 3});
    {
        SearchContext first(problem, {100, 0.0});
        first.setMemo(reopen(path));
        first.evaluate(best);
    }

    // The resumed search meets the winner again as a memo hit, and
    // the hit competes for best-so-far like an execution would.
    SearchContext second(problem, {100, 0.0});
    second.setMemo(reopen(path));
    second.evaluate(best);
    EXPECT_EQ(second.counters().evaluated, 0u);
    ASSERT_TRUE(second.hasBest());
    EXPECT_EQ(second.bestConfig(), best);
    EXPECT_DOUBLE_EQ(second.bestEvaluation().speedup, 1.3);
}

TEST(Checkpoint, ValidatesSiteCountAndShape)
{
    // A segment written for 4 sites is no table for 5: the header
    // names the fingerprint, so the wider table starts empty.
    std::string path = freshPath("resume_shape.log");
    reopen(path)->publish(Config::withLowered(4, {1}).toString(),
                          CountingProblem(4).evaluate(
                              Config::withLowered(4, {1})));
    EXPECT_EQ(reopen(path)->size(), 1u);
    auto wider = reopen(path, 5);
    EXPECT_TRUE(wider->invalidated());
    EXPECT_EQ(wider->size(), 0u);
}

/**
 * The memo segment takes one durable record per execution — its
 * "snapshot" advances with every commit, not every N. Cache hits and
 * memo hits ran nothing and append nothing.
 */
TEST(Checkpoint, PeriodicHookFiresEveryNExecutions)
{
    std::string path = freshPath("resume_every.log");
    CountingProblem problem(4);
    SearchContext ctx(problem, {100, 0.0});
    ctx.setMemo(reopen(path));
    for (std::size_t i = 0; i < 4; ++i) {
        ctx.evaluate(Config::withLowered(4, {i}));
        EXPECT_EQ(recordLines(path).size(), i + 1);
    }
    ctx.evaluate(Config::withLowered(4, {0})); // cache hit
    EXPECT_EQ(recordLines(path).size(), 4u);

    SearchContext warm(problem, {100, 0.0});
    warm.setMemo(reopen(path));
    warm.evaluate(Config::withLowered(4, {0})); // memo hit
    EXPECT_EQ(warm.counters().memoHits, 1u);
    EXPECT_EQ(recordLines(path).size(), 4u);
}

TEST(Checkpoint, RunSearchResumesFromSnapshotWithCacheHits)
{
    std::string path = freshPath("resume_runsearch.log");
    CountingProblem problem(4);
    CombinationalSearch cb;
    SearchRunOptions phase1;
    phase1.memo = reopen(path);
    auto truncated = runSearch(problem, cb, {5, 0.0}, phase1);
    EXPECT_TRUE(truncated.timedOut);

    // The resumed run replays the cut run's evaluations as memo hits,
    // not re-executions.
    SearchRunOptions phase2;
    phase2.memo = reopen(path);
    int executedBefore = problem.rawCalls_;
    auto resumed = runSearch(problem, cb, {100, 0.0}, phase2);
    EXPECT_FALSE(resumed.timedOut);
    EXPECT_EQ(resumed.evaluated, 10u); // 15 - 5 already durable
    EXPECT_EQ(resumed.memoHits, 5u);
    EXPECT_EQ(problem.rawCalls_, executedBefore + 10);

    // Same final answer as a never-interrupted search.
    CountingProblem fresh(4);
    auto oneShot = runSearch(fresh, cb, {100, 0.0});
    EXPECT_EQ(resumed.best, oneShot.best);
    EXPECT_DOUBLE_EQ(resumed.bestEvaluation.speedup,
                     oneShot.bestEvaluation.speedup);
}

TEST(Checkpoint, UnusableInitialCacheIsIgnoredNotFatal)
{
    // A file that is no memo segment at all is reset, not fatal: the
    // search simply starts fresh.
    std::string path = freshPath("resume_garbage.log");
    {
        std::ofstream out(path);
        out << "{\"not\": \"a memo segment\"}\n0000 torn";
    }
    auto memo = reopen(path);
    EXPECT_TRUE(memo->invalidated());
    CountingProblem problem(4);
    CombinationalSearch cb;
    SearchRunOptions run;
    run.memo = memo;
    auto result = runSearch(problem, cb, {100, 0.0}, run);
    EXPECT_FALSE(result.timedOut);
    EXPECT_EQ(result.evaluated, 15u);
    EXPECT_EQ(memo->size(), 15u);
}

TEST(Checkpoint, NaNQualityLossSurvivesSerialization)
{
    /** Problem whose lowered config destroys the output. */
    class NaNProblem : public SearchProblem {
      public:
        std::size_t siteCount() const override { return 1; }
        Evaluation
        evaluate(const Config&) override
        {
            Evaluation eval;
            eval.status = EvalStatus::QualityFail;
            eval.qualityLoss =
                std::numeric_limits<double>::quiet_NaN();
            eval.speedup = 1.2;
            return eval;
        }
    };
    std::string path = freshPath("resume_nan.log");
    NaNProblem problem;
    {
        SearchContext ctx(problem, {100, 0.0});
        ctx.setMemo(reopen(path, 1));
        ctx.evaluate(Config::allLowered(1));
    }
    SearchContext restored(problem, {100, 0.0});
    restored.setMemo(reopen(path, 1));
    const auto& eval = restored.evaluate(Config::allLowered(1));
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
    EXPECT_EQ(restored.counters().evaluated, 0u);
    EXPECT_EQ(restored.counters().memoHits, 1u);
}

/**
 * Ordered commit makes every durable *prefix* deterministic, not just
 * the final state: the memo segment records appear in the same order
 * under serial and 4-worker batches, so whatever a kill leaves behind
 * is a prefix of the serial trajectory.
 */
TEST(Checkpoint, PeriodicSnapshotsMatchSerialUnderParallelBatches)
{
    auto segment = [](std::size_t jobs) {
        std::string path =
            freshPath("resume_order_" + std::to_string(jobs) + ".log");
        CountingProblem problem(6);
        SearchContext ctx(problem, {100, 0.0});
        ctx.setSearchJobs(jobs);
        ctx.setMemo(reopen(path, 6));
        std::vector<Config> batch;
        for (std::size_t i = 0; i < 6; ++i)
            batch.push_back(Config::withLowered(6, {i}));
        batch.push_back(Config::withLowered(6, {0})); // duplicate
        for (std::size_t i = 0; i + 1 < 6; ++i)
            batch.push_back(Config::withLowered(6, {i, i + 1}));
        ctx.evaluateBatch(batch);
        return recordLines(path);
    };
    auto serial = segment(1);
    ASSERT_EQ(serial.size(), 11u);
    EXPECT_EQ(segment(4), serial);
}

/**
 * A faulty parallel campaign leaves the same memo segment — records,
 * order, quarantined runtime_fail entries and all — as the serial
 * one, and reopening it yields exactly the evaluations the search
 * committed.
 */
TEST(Checkpoint, FaultyParallelCheckpointRoundTripsIdentically)
{
    auto campaign = [](std::size_t jobs, Value& cache) {
        std::string path =
            freshPath("resume_faulty_" + std::to_string(jobs) + ".log");
        CountingProblem inner(4);
        FaultPlan plan;
        plan.crashRate = 0.5;
        plan.seed = 17;
        FaultyProblem faulty(inner, plan);
        CacheCapture capture(std::make_unique<CombinationalSearch>());
        SearchRunOptions run;
        run.resilience.maxAttempts = 2;
        run.resilience.sleepBetweenRetries = false;
        run.searchJobs = jobs;
        run.memo = reopen(path);
        runSearch(faulty, capture, {1000, 0.0}, run);
        cache = capture.cache();
        return path;
    };
    Value serialCache, parallelCache;
    std::string serial = campaign(1, serialCache);
    std::string parallel = campaign(4, parallelCache);
    EXPECT_EQ(recordLines(parallel), recordLines(serial));
    EXPECT_EQ(verdicts(parallelCache), verdicts(serialCache));

    // The stress run did quarantine something, so the equality above
    // covers failure entries, not just clean ones.
    auto all = verdicts(parallelCache);
    EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const auto& v) {
        return v.find("=runtime_fail") != std::string::npos;
    }));

    std::vector<std::string> reopened;
    for (const auto& [key, eval] : reopen(parallel)->entries())
        reopened.push_back(key + "=" + evalStatusName(eval.status));
    std::sort(reopened.begin(), reopened.end());
    EXPECT_EQ(reopened, all);
}

// --- harness level: the completed-jobs journal ----------------------

const char* kThreeJobs =
    "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
    "      name: 'floatsmith'\n      extra_args:\n"
    "        algorithm: 'ddebug'\n"
    "iccg:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
    "      name: 'floatsmith'\n      extra_args:\n"
    "        algorithm: 'combinational'\n"
    "hydro-1d:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
    "      name: 'floatsmith'\n      extra_args:\n"
    "        algorithm: 'compositional'\n";

/** The first @p n jobs of kThreeJobs. */
std::vector<hpcmixp::harness::JobSpec>
threeJobs(std::size_t n = 3)
{
    auto jobs = parseConfig(hpcmixp::support::yaml::parse(kThreeJobs));
    jobs.resize(n);
    return jobs;
}

HarnessOptions
campaignOptions(const std::string& dir)
{
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    options.memoCacheDir = dir;
    return options;
}

/** The memo directory's one job journal. */
std::string
journalPath(const std::string& dir)
{
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind("jobs-", 0) == 0)
            found.push_back(entry.path().string());
    EXPECT_EQ(found.size(), 1u);
    return found.empty() ? std::string() : found.front();
}

void
expectSameResult(const JobResult& restored, const JobResult& original)
{
    ASSERT_TRUE(restored.error.empty()) << restored.error;
    const auto& a = restored.result;
    const auto& b = original.result;
    EXPECT_EQ(a.analysis, b.analysis);
    EXPECT_EQ(a.detail, b.detail);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.qualityLoss, b.qualityLoss);
    for (const CounterField& f : kCounterFields)
        EXPECT_EQ(a.*f.member, b.*f.member) << f.key;
    EXPECT_EQ(a.executables, b.executables);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.configuration, b.configuration);
    EXPECT_EQ(a.sandbox, b.sandbox);
}

/** Journalled results survive their JSON text round trip exactly. */
TEST(Checkpoint, RoundTripsThroughJsonText)
{
    std::string dir = freshPath("resume_roundtrip");
    HarnessOptions options = campaignOptions(dir);
    auto first = runJobs(threeJobs(1), options);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    options.resume = true;
    auto second = runJobs(threeJobs(1), options);
    ASSERT_TRUE(second[0].restored);
    expectSameResult(second[0], first[0]);
}

/**
 * A journal record in the flat pre-SearchCounters schema (`evaluated`,
 * `child_forks`, ...) is skipped with a warning; its job re-runs on
 * memo hits.
 */
TEST(Resume, OldFormatJournalRecordReRunsItsJob)
{
    std::string dir = freshPath("resume_old_record");
    HarnessOptions options = campaignOptions(dir);
    auto first = runJobs(threeJobs(1), options);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    // Rewrite the journal with the same header and job key, but the
    // result in the old schema.
    std::string journal = journalPath(dir);
    std::ifstream in(journal);
    std::string header;
    std::string line;
    std::getline(in, header);
    std::getline(in, line);
    in.close();
    Value job = hpcmixp::support::json::parse(line.substr(line.find(' ') + 1));
    const auto& r = first[0].result;
    auto number = [](double v) { return Value::number(v); };
    Value old = Value::object();
    old.set("analysis", Value::string(r.analysis));
    old.set("detail", Value::string(r.detail));
    old.set("speedup", number(r.speedup));
    old.set("quality_loss", number(r.qualityLoss));
    old.set("evaluated", number(r.evaluated));
    old.set("executables", number(r.executables));
    old.set("compile_failures", number(r.compileFailures));
    old.set("cache_hits", number(r.cacheHits));
    old.set("memo_hits", number(r.memoHits));
    old.set("retries", number(r.retries));
    old.set("deadline_misses", number(r.deadlineMisses));
    old.set("quarantined", number(r.quarantined));
    old.set("steals", number(r.steals));
    old.set("timed_out", Value::boolean(r.timedOut));
    old.set("configuration", Value::string(r.configuration));
    for (const char* key :
         {"child_forks", "child_kills", "child_nonzero_exits",
          "child_signaled", "child_arena_corrupt", "child_respawns",
          "child_spawn_mean_seconds"})
        old.set(key, number(0));
    Value record = Value::object();
    record.set("job", job.at("job"));
    record.set("result", std::move(old));
    std::filesystem::remove(journal);
    {
        hpcmixp::support::AppendLog log(journal, header);
        log.append(record.dump());
    }

    options.resume = true;
    testing::internal::CaptureStderr();
    auto second = runJobs(threeJobs(1), options);
    std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("skipping malformed job journal record"),
              std::string::npos)
        << log;
    EXPECT_FALSE(second[0].restored);
    ASSERT_TRUE(second[0].error.empty()) << second[0].error;
    EXPECT_EQ(second[0].result.evaluated, 0u);
    EXPECT_EQ(second[0].result.memoHits, first[0].result.evaluated);
    EXPECT_EQ(second[0].result.configuration,
              first[0].result.configuration);
}

TEST(Resume, PartialCampaignRestoresCompletedJobsAndRunsNewOnes)
{
    // Two jobs complete concurrently (their journal appends share one
    // mutex); the resumed three-job campaign restores both and runs
    // only the new one.
    std::string dir = freshPath("resume_partial");
    HarnessOptions options = campaignOptions(dir);
    options.jobs = 2;
    auto first = runJobs(threeJobs(2), options);
    for (const auto& r : first)
        ASSERT_TRUE(r.error.empty()) << r.error;

    options.resume = true;
    auto second = runJobs(threeJobs(), options);
    ASSERT_EQ(second.size(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(second[i].restored) << i;
        expectSameResult(second[i], first[i]);
    }
    EXPECT_FALSE(second[2].restored);
    EXPECT_TRUE(second[2].error.empty()) << second[2].error;
    EXPECT_GT(second[2].result.evaluated, 0u);
}

TEST(Resume, TornJournalTailReRunsOnlyThatJob)
{
    std::string dir = freshPath("resume_torn");
    HarnessOptions options = campaignOptions(dir);
    auto first = runJobs(threeJobs(2), options);
    for (const auto& r : first)
        ASSERT_TRUE(r.error.empty()) << r.error;

    // A kill mid-append leaves the last record without its newline
    // and with a bad checksum.
    std::string journal = journalPath(dir);
    auto size = std::filesystem::file_size(journal);
    std::filesystem::resize_file(journal, size - 7);

    options.resume = true;
    auto second = runJobs(threeJobs(2), options);
    EXPECT_TRUE(second[0].restored);
    expectSameResult(second[0], first[0]);
    EXPECT_FALSE(second[1].restored);
    ASSERT_TRUE(second[1].error.empty()) << second[1].error;
    // Re-run, not re-executed: every evaluation is a memo hit.
    EXPECT_EQ(second[1].result.evaluated, 0u);
    EXPECT_EQ(second[1].result.memoHits, first[1].result.evaluated);
    EXPECT_EQ(second[1].result.configuration,
              first[1].result.configuration);

    // The re-run job was journalled again, so now both restore.
    auto third = runJobs(threeJobs(2), options);
    EXPECT_TRUE(third[0].restored);
    EXPECT_TRUE(third[1].restored);
}

TEST(Resume, OtherCampaignHeaderRestoresNothing)
{
    std::string dir = freshPath("resume_header");
    HarnessOptions options = campaignOptions(dir);
    auto first = runJobs(threeJobs(1), options);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    // Another budget is another campaign: its journal is a different
    // file, so nothing is restored (memo hits still apply).
    HarnessOptions other = options;
    other.resume = true;
    other.tuner.budget = {150, 0.0};
    auto second = runJobs(threeJobs(1), other);
    EXPECT_FALSE(second[0].restored);
    ASSERT_TRUE(second[0].error.empty()) << second[0].error;

    // So is another fault plan or resilience policy: both change the
    // retry and quarantine counts a journalled result carries.
    HarnessOptions faulty = options;
    faulty.resume = true;
    faulty.tuner.faultPlan.crashRate = 0.05;
    faulty.tuner.resilience.maxAttempts = 3;
    faulty.tuner.resilience.sleepBetweenRetries = false;
    auto fourth = runJobs(threeJobs(1), faulty);
    EXPECT_FALSE(fourth[0].restored);
    ASSERT_TRUE(fourth[0].error.empty()) << fourth[0].error;

    // The original campaign's journal is untouched.
    options.resume = true;
    auto third = runJobs(threeJobs(1), options);
    EXPECT_TRUE(third[0].restored);
}

} // namespace
