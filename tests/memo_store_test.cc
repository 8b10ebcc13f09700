/**
 * @file
 * Tests for the persistent cross-run evaluation memo-cache: crash-safe
 * append-log recovery, fingerprint addressing and invalidation,
 * concurrent publish/lookup, and the warm-rerun guarantee (a repeated
 * search re-executes nothing and commits the same trajectory).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "search/combinational.h"
#include "search/driver.h"
#include "search/memo_store.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/memo_log.h"

namespace {

using namespace hpcmixp::search;
using hpcmixp::support::AppendLog;
using hpcmixp::support::fnv1a64;
using hpcmixp::support::json::Value;

std::string
scratchPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

/** Fresh scratch path: any leftover from a previous run is removed. */
std::string
freshPath(const std::string& name)
{
    std::string path = scratchPath(name);
    std::remove(path.c_str());
    return path;
}

std::string
freshDir(const std::string& name)
{
    std::string dir = scratchPath(name);
    std::filesystem::remove_all(dir);
    return dir;
}

/** Deterministic problem that counts raw executions. */
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

MemoFingerprint
testFingerprint(std::size_t sites)
{
    MemoFingerprint fp;
    fp.benchmark = "counting";
    fp.inputSignature = 0x1234abcdu;
    fp.metric = "MAE";
    fp.threshold = 1e-6;
    fp.sites = sites;
    return fp;
}

Evaluation
passEval(double speedup)
{
    Evaluation eval;
    eval.status = EvalStatus::Pass;
    eval.speedup = speedup;
    eval.qualityLoss = 1e-9;
    eval.runtimeSeconds = 0.5;
    return eval;
}

/** Order-independent view of an exportCache() snapshot. */
std::vector<std::string>
canonicalCache(const Value& cache)
{
    std::vector<std::string> dumps;
    for (const auto& e : cache.at("evaluations").items())
        dumps.push_back(e.dump());
    std::sort(dumps.begin(), dumps.end());
    return dumps;
}

// --- AppendLog -------------------------------------------------------

TEST(AppendLog, RoundTripsRecordsAcrossReopen)
{
    std::string path = freshPath("append_roundtrip.log");
    {
        AppendLog log(path, "header v1");
        EXPECT_TRUE(log.records().empty());
        EXPECT_FALSE(log.reset());
        log.append("alpha");
        log.append("beta gamma");
    }
    AppendLog reopened(path, "header v1");
    EXPECT_FALSE(reopened.reset());
    EXPECT_EQ(reopened.truncatedBytes(), 0u);
    ASSERT_EQ(reopened.records().size(), 2u);
    EXPECT_EQ(reopened.records()[0], "alpha");
    EXPECT_EQ(reopened.records()[1], "beta gamma");
}

TEST(AppendLog, TruncatesPartialTrailingRecord)
{
    std::string path = freshPath("append_partial.log");
    {
        AppendLog log(path, "header v1");
        log.append("alpha");
        log.append("beta");
    }
    // Simulate a crash mid-append: a record with no terminating
    // newline (and therefore no durable checksum) trails the file.
    auto durable = std::filesystem::file_size(path);
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "deadbeef gam"; // no '\n'
    }
    ASSERT_GT(std::filesystem::file_size(path), durable);

    AppendLog recovered(path, "header v1");
    EXPECT_FALSE(recovered.reset());
    EXPECT_GT(recovered.truncatedBytes(), 0u);
    ASSERT_EQ(recovered.records().size(), 2u);
    EXPECT_EQ(recovered.records()[1], "beta");
    // The file itself was truncated back to the durable prefix, so
    // the next append produces a well-formed log.
    EXPECT_EQ(std::filesystem::file_size(path), durable);
}

TEST(AppendLog, DropsRecordWithCorruptChecksum)
{
    std::string path = freshPath("append_corrupt.log");
    {
        AppendLog log(path, "header v1");
        log.append("alpha");
        log.append("beta");
    }
    // Flip a byte inside the *last* record's payload.
    {
        std::fstream io(path, std::ios::in | std::ios::out |
                                  std::ios::binary);
        io.seekp(-3, std::ios::end);
        io.put('X');
    }
    AppendLog recovered(path, "header v1");
    ASSERT_EQ(recovered.records().size(), 1u);
    EXPECT_EQ(recovered.records()[0], "alpha");
}

TEST(AppendLog, HeaderMismatchResetsTheFile)
{
    std::string path = freshPath("append_header.log");
    {
        AppendLog log(path, "fingerprint A");
        log.append("stale");
    }
    AppendLog fresh(path, "fingerprint B");
    EXPECT_TRUE(fresh.reset());
    EXPECT_TRUE(fresh.records().empty());
    fresh.append("new");

    AppendLog reopened(path, "fingerprint B");
    EXPECT_FALSE(reopened.reset());
    ASSERT_EQ(reopened.records().size(), 1u);
    EXPECT_EQ(reopened.records()[0], "new");
}

// --- MemoFingerprint -------------------------------------------------

TEST(MemoFingerprint, HashSeparatesEveryField)
{
    MemoFingerprint base = testFingerprint(4);
    for (auto mutate : std::vector<void (*)(MemoFingerprint&)>{
             [](MemoFingerprint& f) { f.benchmark = "other"; },
             [](MemoFingerprint& f) { f.inputSignature ^= 1; },
             [](MemoFingerprint& f) { f.metric = "MSE"; },
             [](MemoFingerprint& f) { f.threshold *= 2; },
             [](MemoFingerprint& f) { f.sites += 1; },
             [](MemoFingerprint& f) { f.ladder = "f64:f32:f16"; }}) {
        MemoFingerprint changed = base;
        mutate(changed);
        EXPECT_NE(changed, base);
        EXPECT_NE(changed.hash(), base.hash());
        EXPECT_NE(changed.describe(), base.describe());
    }
}

// --- MemoTable -------------------------------------------------------

TEST(MemoTable, PublishLookupRoundTripsAcrossReopen)
{
    std::string path = freshPath("memo_roundtrip.log");
    MemoFingerprint fp = testFingerprint(4);
    Config cfg = Config::withLowered(4, {1, 3});

    Evaluation eval = passEval(1.25);
    eval.runtimeSeconds = 0.123456789012345; // exercise hexfloat
    {
        MemoTable table(path, fp);
        EXPECT_EQ(table.size(), 0u);
        EXPECT_FALSE(table.lookup(cfg.toString()).has_value());
        EXPECT_TRUE(table.publish(cfg.toString(), eval));
        // First publisher wins; repeats are no-ops.
        EXPECT_FALSE(table.publish(cfg.toString(), passEval(9.9)));
        EXPECT_EQ(table.size(), 1u);
    }
    MemoTable reopened(path, fp);
    EXPECT_FALSE(reopened.invalidated());
    ASSERT_EQ(reopened.size(), 1u);
    auto hit = reopened.lookup(cfg.toString());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->status, EvalStatus::Pass);
    EXPECT_EQ(hit->speedup, eval.speedup);
    EXPECT_EQ(hit->runtimeSeconds, eval.runtimeSeconds);
    EXPECT_EQ(hit->qualityLoss, eval.qualityLoss);
}

TEST(MemoTable, EntriesSnapshotsEveryPublishedPair)
{
    std::string path = freshPath("memo_entries.log");
    MemoTable table(path, testFingerprint(4));
    EXPECT_TRUE(table.entries().empty());

    std::vector<std::string> keys;
    for (std::size_t i = 0; i < 8; ++i) {
        Config cfg = Config::withLowered(4, {i % 4});
        cfg.set((i + 1) % 4, i >= 4);
        std::string key = cfg.toString();
        if (table.publish(key, passEval(1.0 + 0.1 * i)))
            keys.push_back(key);
    }

    auto all = table.entries();
    ASSERT_EQ(all.size(), keys.size());
    std::vector<std::string> seen;
    for (const auto& [key, eval] : all) {
        seen.push_back(key);
        EXPECT_EQ(eval.status, EvalStatus::Pass);
        auto hit = table.lookup(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->speedup, eval.speedup);
    }
    std::sort(seen.begin(), seen.end());
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(seen, keys);
}

TEST(MemoTable, NaNQualityLossRoundTrips)
{
    std::string path = freshPath("memo_nan.log");
    MemoFingerprint fp = testFingerprint(2);
    Evaluation eval;
    eval.status = EvalStatus::QualityFail;
    eval.speedup = 1.5;
    eval.qualityLoss = std::numeric_limits<double>::quiet_NaN();
    {
        MemoTable table(path, fp);
        EXPECT_TRUE(table.publish("01", eval));
    }
    MemoTable reopened(path, fp);
    auto hit = reopened.lookup("01");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->status, EvalStatus::QualityFail);
    EXPECT_TRUE(std::isnan(hit->qualityLoss));
}

TEST(MemoTable, CompileFailuresAreNeverPublished)
{
    std::string path = freshPath("memo_compilefail.log");
    MemoTable table(path, testFingerprint(2));
    Evaluation fail;
    fail.status = EvalStatus::CompileFail;
    EXPECT_FALSE(table.publish("10", fail));
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.lookup("10").has_value());
}

TEST(MemoTable, FingerprintChangeInvalidatesTheSegment)
{
    std::string path = freshPath("memo_invalidate.log");
    {
        MemoTable table(path, testFingerprint(4));
        table.publish("0101", passEval(2.0));
    }
    // Same file, different threshold: the stale entries must not be
    // consulted and the segment restarts.
    MemoFingerprint changed = testFingerprint(4);
    changed.threshold = 1e-3;
    MemoTable fresh(path, changed);
    EXPECT_TRUE(fresh.invalidated());
    EXPECT_EQ(fresh.size(), 0u);
    EXPECT_FALSE(fresh.lookup("0101").has_value());
}

TEST(MemoTable, KillMidAppendRecoversDurablePrefix)
{
    std::string path = freshPath("memo_kill.log");
    MemoFingerprint fp = testFingerprint(4);
    {
        MemoTable table(path, fp);
        table.publish("0001", passEval(1.1));
        table.publish("0010", passEval(1.2));
    }
    // A kill mid-append leaves a torn record at the tail.
    {
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "00abcdef 0100 pass 0x1p-1";
    }
    MemoTable recovered(path, fp);
    EXPECT_GT(recovered.truncatedBytes(), 0u);
    EXPECT_EQ(recovered.size(), 2u);
    EXPECT_TRUE(recovered.lookup("0001").has_value());
    EXPECT_TRUE(recovered.lookup("0010").has_value());
    EXPECT_FALSE(recovered.lookup("0100").has_value());
    // And the table keeps working after recovery.
    EXPECT_TRUE(recovered.publish("0100", passEval(1.3)));
    MemoTable reopened(path, fp);
    EXPECT_EQ(reopened.size(), 3u);
}

TEST(MemoTable, ConcurrentPublishAndLookupAreSafe)
{
    // Runs under `ctest -L parallel` (TSan job): writers race on the
    // same keys while readers poll, exercising shard mutexes and the
    // append mutex together.
    std::string path = freshPath("memo_concurrent.log");
    MemoFingerprint fp = testFingerprint(8);
    MemoTable table(path, fp);

    constexpr int kThreads = 4;
    constexpr int kKeys = 64;
    std::atomic<int> published{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads * 2);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&table, &published, t] {
            for (int k = 0; k < kKeys; ++k) {
                Config cfg(8);
                for (int b = 0; b < 6; ++b)
                    cfg.set(static_cast<std::size_t>(b),
                            ((k >> b) & 1) != 0);
                double speedup = 1.0 + 0.01 * k + 0.0 * t;
                if (table.publish(cfg.toString(), passEval(speedup)))
                    ++published;
            }
        });
        threads.emplace_back([&table] {
            for (int k = 0; k < kKeys; ++k) {
                Config cfg(8);
                for (int b = 0; b < 6; ++b)
                    cfg.set(static_cast<std::size_t>(b),
                            ((k >> b) & 1) != 0);
                auto hit = table.lookup(cfg.toString());
                if (hit) {
                    EXPECT_EQ(hit->status, EvalStatus::Pass);
                }
            }
        });
    }
    for (auto& thread : threads)
        thread.join();

    // Exactly one writer won each key.
    EXPECT_EQ(published.load(), kKeys);
    EXPECT_EQ(table.size(), static_cast<std::size_t>(kKeys));
    MemoTable reopened(path, fp);
    EXPECT_EQ(reopened.size(), static_cast<std::size_t>(kKeys));
}

// --- SearchContext integration --------------------------------------

TEST(MemoSearch, WarmRerunExecutesNothing)
{
    std::string path = freshPath("memo_warm.log");
    MemoFingerprint fp = testFingerprint(4);
    CombinationalSearch cb;

    // Cold run: everything executes, everything is published.
    CountingProblem cold(4);
    SearchRunOptions run;
    run.memo = std::make_shared<MemoTable>(path, fp);
    auto coldResult = runSearch(cold, cb, {100, 0.0}, run);
    EXPECT_EQ(coldResult.evaluated, 15u);
    EXPECT_EQ(coldResult.memoHits, 0u);
    EXPECT_EQ(cold.rawCalls_.load(), 15);

    // Warm run in a "new process": fresh problem, table reopened from
    // disk. Zero executions, all memo hits, identical answer.
    CountingProblem warm(4);
    SearchRunOptions rerun;
    rerun.memo = std::make_shared<MemoTable>(path, fp);
    auto warmResult = runSearch(warm, cb, {100, 0.0}, rerun);
    EXPECT_EQ(warmResult.evaluated, 0u);
    EXPECT_EQ(warmResult.memoHits, 15u);
    EXPECT_EQ(warm.rawCalls_.load(), 0);
    EXPECT_EQ(warmResult.best, coldResult.best);
    EXPECT_DOUBLE_EQ(warmResult.bestEvaluation.speedup,
                     coldResult.bestEvaluation.speedup);
}

TEST(MemoSearch, WarmCacheDoesNotChangeCommittedTrajectory)
{
    // The warm context's evaluation cache must be byte-identical to
    // the cold one's: memo hits commit the same evaluations, only the
    // EV accounting differs.
    std::string path = freshPath("memo_trajectory.log");
    MemoFingerprint fp = testFingerprint(4);
    CombinationalSearch cb;

    auto exportRun = [&](std::shared_ptr<MemoTable> memo,
                         CountingProblem& problem) {
        SearchContext ctx(problem, {100, 0.0});
        if (memo)
            ctx.setMemo(memo);
        cb.run(ctx);
        return ctx.exportCache();
    };

    CountingProblem cold(4);
    Value coldCache =
        exportRun(std::make_shared<MemoTable>(path, fp), cold);
    CountingProblem warm(4);
    Value warmCache =
        exportRun(std::make_shared<MemoTable>(path, fp), warm);
    EXPECT_EQ(warm.rawCalls_.load(), 0);
    EXPECT_EQ(canonicalCache(warmCache), canonicalCache(coldCache));
}

TEST(MemoSearch, BatchEvaluationMixesMemoHitsAndFreshWork)
{
    std::string path = freshPath("memo_batch.log");
    MemoFingerprint fp = testFingerprint(4);
    auto memo = std::make_shared<MemoTable>(path, fp);
    memo->publish(Config::withLowered(4, {1}).toString(),
                  passEval(1.1));
    memo->publish(Config::withLowered(4, {2}).toString(),
                  passEval(1.1));

    CountingProblem problem(4);
    SearchContext ctx(problem, {100, 0.0});
    ctx.setMemo(memo);
    ctx.setSearchJobs(4);
    std::vector<Config> batch = {
        Config::withLowered(4, {1}),    // memo hit
        Config::withLowered(4, {2}),    // memo hit
        Config::withLowered(4, {3}),    // fresh
        Config::withLowered(4, {1}),    // in-batch duplicate of a hit
        Config::withLowered(4, {1, 2}), // fresh
    };
    ctx.evaluateBatch(batch);
    EXPECT_EQ(ctx.counters().memoHits, 2u);
    EXPECT_EQ(ctx.counters().cacheHits, 1u);
    EXPECT_EQ(ctx.counters().evaluated, 2u);
    EXPECT_EQ(problem.rawCalls_.load(), 2);
    // The fresh work was published back for the next run.
    EXPECT_EQ(memo->size(), 4u);
}

TEST(MemoSearch, SerialBatchSeesEntriesPublishedMidBatch)
{
    // A portfolio entrant sharing the table publishes {1} while this
    // context evaluates {2}. The serial batch planned {1} as fresh, so
    // it must look at the table again before executing it.
    class PublishingProblem : public CountingProblem {
      public:
        explicit PublishingProblem(std::shared_ptr<MemoTable> memo)
            : CountingProblem(4), memo_(std::move(memo))
        {
        }

        Evaluation
        evaluate(const Config& config) override
        {
            if (config == Config::withLowered(4, {2}))
                memo_->publish(Config::withLowered(4, {1}).toString(),
                               passEval(1.1));
            return CountingProblem::evaluate(config);
        }

      private:
        std::shared_ptr<MemoTable> memo_;
    };

    auto memo = std::make_shared<MemoTable>(
        freshPath("memo_mid_batch.log"), testFingerprint(4));
    PublishingProblem problem(memo);
    SearchContext ctx(problem, {100, 0.0});
    ctx.setMemo(memo);
    std::vector<Config> batch = {Config::withLowered(4, {2}),
                                 Config::withLowered(4, {1})};
    ctx.evaluateBatch(batch);
    EXPECT_EQ(problem.rawCalls_.load(), 1);
    EXPECT_EQ(ctx.counters().evaluated, 1u);
    EXPECT_EQ(ctx.counters().memoHits, 1u);
}

// --- MemoStore -------------------------------------------------------

TEST(MemoStore, SharesOneTablePerFingerprint)
{
    std::string dir = freshDir("memo_store_share/");
    MemoStore store(dir);
    MemoFingerprint fp = testFingerprint(4);
    auto a = store.table(fp);
    auto b = store.table(fp);
    EXPECT_EQ(a.get(), b.get());

    MemoFingerprint other = testFingerprint(4);
    other.metric = "MSE";
    auto c = store.table(other);
    EXPECT_NE(a.get(), c.get());

    a->publish("0011", passEval(1.5));
    // A second store over the same directory sees the published entry.
    MemoStore reopened(dir);
    EXPECT_TRUE(reopened.table(fp)->lookup("0011").has_value());
    EXPECT_FALSE(reopened.table(other)->lookup("0011").has_value());
}

} // namespace
