/**
 * @file
 * Unit tests for the support substrate: strings, RNG, timing protocol,
 * CLI parsing, tables, env knobs, logging, thread pool.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/cli.h"
#include "support/env.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace {

using namespace hpcmixp::support;

// ---- string_util ----------------------------------------------------

TEST(StringUtil, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  a b \t\n"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" \t "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, SplitKeepsEmptyFields)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitWhitespaceDropsEmptyTokens)
{
    auto parts = splitWhitespace("  a \t b\nc ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
    EXPECT_TRUE(endsWith("file.cc", ".cc"));
    EXPECT_FALSE(endsWith("cc", "file.cc"));
}

TEST(StringUtil, JoinAndToLower)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(toLower("MiXeD"), "mixed");
}

TEST(StringUtil, ParseDoubleAcceptsScientific)
{
    EXPECT_DOUBLE_EQ(parseDouble("1e-8", "t"), 1e-8);
    EXPECT_DOUBLE_EQ(parseDouble(" 2.5 ", "t"), 2.5);
    EXPECT_THROW(parseDouble("1x", "t"), FatalError);
    EXPECT_THROW(parseDouble("", "t"), FatalError);
}

TEST(StringUtil, ParseLongRejectsTrailingGarbage)
{
    EXPECT_EQ(parseLong("42", "t"), 42);
    EXPECT_THROW(parseLong("42.5", "t"), FatalError);
}

TEST(StringUtil, SciCompactSpecialCases)
{
    EXPECT_EQ(sciCompact(0.0), "0");
    EXPECT_EQ(sciCompact(std::nan("")), "NaN");
    EXPECT_EQ(sciCompact(1.1e-7), "1.10e-07");
}

// ---- rng --------------------------------------------------------------

TEST(Rng, Pcg32IsDeterministicPerSeed)
{
    Pcg32 a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        auto va = a.nextU32();
        EXPECT_EQ(va, b.nextU32());
    }
    bool anyDiff = false;
    Pcg32 a2(7);
    for (int i = 0; i < 100; ++i)
        anyDiff |= (a2.nextU32() != c.nextU32());
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Pcg32 rng(123);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NextBoundedNeverExceedsBound)
{
    Pcg32 rng(9);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.nextBounded(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all residues should appear";
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, UniformRespectsRange)
{
    Pcg32 rng(5);
    for (int i = 0; i < 500; ++i) {
        double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, NormalHasRoughlyZeroMeanUnitVariance)
{
    Pcg32 rng(31);
    double sum = 0, sum2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal();
        sum += v;
        sum2 += v * v;
    }
    double mean = sum / n;
    double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, ChanceExtremes)
{
    Pcg32 rng(77);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

// ---- timer ------------------------------------------------------------

TEST(Timer, TrimmedMeanDropsBestAndWorst)
{
    EXPECT_DOUBLE_EQ(trimmedMean({1.0, 100.0, 2.0, 3.0, 0.5}),
                     (1.0 + 2.0 + 3.0) / 3.0);
    EXPECT_DOUBLE_EQ(trimmedMean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(trimmedMean({4.0, 6.0}), 5.0);
}

TEST(Timer, RepeatTimedRunsExactly)
{
    int calls = 0;
    auto result = repeatTimed([&] { ++calls; }, 5);
    EXPECT_EQ(calls, 5);
    EXPECT_EQ(result.samples.size(), 5u);
    EXPECT_LE(result.minSeconds, result.meanSeconds);
    EXPECT_LE(result.meanSeconds, result.maxSeconds);
}

TEST(Timer, WallTimerAdvances)
{
    WallTimer t;
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i)
        x = x + 1.0;
    EXPECT_GT(t.seconds(), 0.0);
}

// ---- cli --------------------------------------------------------------

TEST(Cli, ParsesFlagFormsAndPositionals)
{
    const char* argv[] = {"prog", "--a", "1", "--b=two",
                          "pos1", "--flag", "--c=3.5", "pos2"};
    CommandLine cl(8, argv);
    EXPECT_EQ(cl.getLong("a", 0), 1);
    EXPECT_EQ(cl.getString("b", ""), "two");
    EXPECT_TRUE(cl.getBool("flag", false));
    EXPECT_DOUBLE_EQ(cl.getDouble("c", 0.0), 3.5);
    ASSERT_EQ(cl.positional().size(), 2u);
    EXPECT_EQ(cl.positional()[0], "pos1");
    EXPECT_EQ(cl.positional()[1], "pos2");
    EXPECT_EQ(cl.getString("missing", "dflt"), "dflt");
}

TEST(Cli, BoolValueSpellings)
{
    const char* argv[] = {"p", "--x=yes", "--y=0", "--z=TRUE"};
    CommandLine cl(4, argv);
    EXPECT_TRUE(cl.getBool("x", false));
    EXPECT_FALSE(cl.getBool("y", true));
    EXPECT_TRUE(cl.getBool("z", false));
}

// ---- table ------------------------------------------------------------

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2.5"});
    EXPECT_EQ(t.rowCount(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| name "), std::string::npos);
    EXPECT_NE(s.find("| longer "), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::cell(1.23456, 2), "1.23");
    EXPECT_EQ(Table::cell(static_cast<long>(42)), "42");
    EXPECT_EQ(Table::cell(std::nan(""), 2), "NaN");
}

// ---- env --------------------------------------------------------------

TEST(Env, QuickModeFollowsVariable)
{
    // tests run with HPCMIXP_QUICK=1 (see tests/CMakeLists.txt)
    EXPECT_TRUE(quickMode());
    EXPECT_EQ(envString("HPCMIXP_NO_SUCH_VAR", "dflt"), "dflt");
    EXPECT_EQ(envLong("HPCMIXP_NO_SUCH_VAR", 7), 7);
}

// ---- logging ----------------------------------------------------------

TEST(Logging, FatalThrowsWithMessage)
{
    try {
        fatal("boom");
        FAIL() << "fatal must throw";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "boom");
    }
}

TEST(Logging, StrCatConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("x=", 3, ", y=", 1.5), "x=3, y=1.5");
}

// ---- thread pool -------------------------------------------------------

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([&] { ++count; }));
    for (auto& f : futs)
        f.get();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.workerCount(), 1u);
}

TEST(ThreadPool, DrainShutdownRunsQueuedJobs)
{
    std::atomic<int> count{0};
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::thread releaser;
    {
        ThreadPool pool(1);
        std::atomic<bool> started{false};

        // The single worker blocks on the gate, so the next 8 jobs are
        // guaranteed to still be queued when the destructor begins.
        pool.submit([&, opened] {
            started = true;
            opened.wait();
            ++count;
        });
        while (!started)
            std::this_thread::yield();
        for (int i = 0; i < 8; ++i)
            pool.submit([&] { ++count; });

        releaser = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            gate.set_value();
        });
    }
    releaser.join();
    EXPECT_EQ(count.load(), 9); // every queued job still ran
}

TEST(ThreadPool, StealModeDrainShutdownRunsQueuedJobs)
{
    std::atomic<int> count{0};
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::thread releaser;
    {
        ThreadPool pool(2);
        std::atomic<int> startedCount{0};

        // Block both workers so the next 8 jobs stay queued, dealt
        // across both per-worker deques, when the destructor begins.
        for (int i = 0; i < 2; ++i)
            pool.submit([&, opened] {
                ++startedCount;
                opened.wait();
                ++count;
            });
        while (startedCount.load() < 2)
            std::this_thread::yield();
        for (int i = 0; i < 8; ++i)
            pool.submit([&] { ++count; });

        releaser = std::thread([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            gate.set_value();
        });
    }
    releaser.join();
    EXPECT_EQ(count.load(), 10); // every deque was drained
}

TEST(ThreadPool, UnevenLoadTriggersSteals)
{
    // Two workers, round-robin dealing: worker 0's deque gets every
    // even-indexed job. Job 0 blocks worker 0 on the gate, so worker 1
    // must steal from worker 0's deque to drain the rest.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::atomic<int> count{0};

    std::vector<std::future<void>> futs;
    futs.push_back(pool.submit([&, opened] {
        opened.wait();
        ++count;
    }));
    for (int i = 0; i < 31; ++i)
        futs.push_back(pool.submit([&] { ++count; }));

    // The thief drains every runnable job while the owner is blocked.
    WallTimer timer;
    while (count.load() < 31 && timer.seconds() < 10.0)
        std::this_thread::yield();
    EXPECT_EQ(count.load(), 31);
    EXPECT_GT(pool.stealCount(), 0u);

    gate.set_value();
    for (auto& f : futs)
        f.get();
    EXPECT_EQ(count.load(), 32);
}

// ---- stats --------------------------------------------------------------

TEST(Stats, MeanMedianStddev)
{
    std::vector<double> odd{3.0, 1.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(odd), 2.0);
    EXPECT_DOUBLE_EQ(median(odd), 2.0);
    std::vector<double> even{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(median(even), 2.5);
    // stddev of {2,4,4,4,5,5,7,9} (population 2) -> sample ~2.138
    std::vector<double> s{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(stddev(s), 2.13809, 1e-4);
    EXPECT_DOUBLE_EQ(stddev({42.0}), 0.0);
}

TEST(Stats, SummarizeCoversExtremes)
{
    auto stats = summarize({5.0, 1.0, 3.0});
    EXPECT_EQ(stats.count, 3u);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 5.0);
    EXPECT_DOUBLE_EQ(stats.mean, 3.0);
    EXPECT_DOUBLE_EQ(stats.median, 3.0);
}

TEST(Stats, EmptySamplesAreFatal)
{
    EXPECT_THROW(mean({}), FatalError);
    EXPECT_THROW(median({}), FatalError);
    EXPECT_THROW(summarize({}), FatalError);
    EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

// ---- retry/backoff ---------------------------------------------------

TEST(Backoff, GrowsExponentiallyWithinJitterBounds)
{
    BackoffPolicy policy;
    policy.initialSeconds = 0.010;
    policy.multiplier = 2.0;
    policy.maxSeconds = 10.0;
    policy.jitterFraction = 0.1;
    Pcg32 rng(1);
    for (std::size_t attempt = 0; attempt < 6; ++attempt) {
        double base = 0.010 * std::pow(2.0, double(attempt));
        double d = backoffDelaySeconds(policy, attempt, rng);
        EXPECT_GE(d, base * 0.9);
        EXPECT_LE(d, base * 1.1);
    }
}

TEST(Backoff, DelayIsCappedAtMaxSeconds)
{
    BackoffPolicy policy;
    policy.initialSeconds = 0.010;
    policy.multiplier = 10.0;
    policy.maxSeconds = 0.050;
    policy.jitterFraction = 0.0;
    Pcg32 rng(1);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 0, rng), 0.010);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 1, rng), 0.050);
    EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, 9, rng), 0.050);
}

TEST(Backoff, JitterIsDeterministicPerSeed)
{
    BackoffPolicy policy;
    Pcg32 a(42), b(42);
    for (std::size_t attempt = 0; attempt < 8; ++attempt)
        EXPECT_DOUBLE_EQ(backoffDelaySeconds(policy, attempt, a),
                         backoffDelaySeconds(policy, attempt, b));
}

TEST(Backoff, SleepForSecondsIgnoresNonPositive)
{
    WallTimer timer;
    sleepForSeconds(0.0);
    sleepForSeconds(-1.0);
    EXPECT_LT(timer.seconds(), 0.05);
}

// ---- xxh64 ---------------------------------------------------------

TEST(Xxh64, PinnedValues)
{
    // The input signature persists in memo segment names, so a change
    // of value orphans every store. The first two are XXH64's published
    // seed-0 values; the 64-byte input runs the four-lane stripe loop.
    EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);
    unsigned char bytes[64];
    for (std::size_t i = 0; i < sizeof bytes; ++i)
        bytes[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(xxh64(bytes, sizeof bytes), 0xf7c67301db6713f0ull);
    const double values[8] = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
    EXPECT_EQ(xxh64(values, sizeof values), 0xabfff371c5939338ull);
}

TEST(Xxh64, EverySingleBitFlipChangesTheValue)
{
    unsigned char bytes[64];
    for (std::size_t i = 0; i < sizeof bytes; ++i)
        bytes[i] = static_cast<unsigned char>(i * 37 + 11);
    const std::uint64_t original = xxh64(bytes, sizeof bytes);
    std::set<std::uint64_t> seen{original};
    for (std::size_t bit = 0; bit < 8 * sizeof bytes; ++bit) {
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_TRUE(seen.insert(xxh64(bytes, sizeof bytes)).second)
            << "bit " << bit;
        bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
    EXPECT_EQ(xxh64(bytes, sizeof bytes), original);
}

TEST(Xxh64, LengthsUpToFortyHashDistinctlyAndRepeatably)
{
    // 0-40 bytes cover every tail path (bytes, a 4-byte word, 8-byte
    // words) on both sides of the 32-byte stripe. The copy at an odd
    // offset checks that the value does not depend on alignment.
    unsigned char bytes[41];
    unsigned char shifted[42];
    for (std::size_t i = 0; i < sizeof bytes; ++i)
        bytes[i] = shifted[i + 1] = static_cast<unsigned char>(i + 1);
    std::set<std::uint64_t> seen;
    for (std::size_t n = 0; n < sizeof bytes; ++n) {
        const std::uint64_t h = xxh64(bytes, n);
        EXPECT_TRUE(seen.insert(h).second) << "length " << n;
        EXPECT_EQ(xxh64(bytes, n), h) << "length " << n;
        EXPECT_EQ(xxh64(shifted + 1, n), h) << "length " << n;
    }
}

} // namespace
