/**
 * @file
 * Sandbox-execution tests (DESIGN.md §13, §15): containment of
 * genuinely crashing / hanging / SIGSEGVing configurations on one-job
 * and persistent WorkerPool workers, real kill-on-deadline,
 * shared-memory arena integrity, fd/zombie hygiene, memo-cache
 * publication rules, and trajectory identity between in-process,
 * fork and pool evaluation.
 *
 * Carries the `sandbox` ctest label (and not `parallel`: fork and
 * TSan do not mix).
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "cache_capture.h"
#include "core/tuner.h"
#include "harness/harness.h"
#include "search/driver.h"
#include "search/fault.h"
#include "search/memo_store.h"
#include "support/logging.h"
#include "support/shm_arena.h"
#include "support/string_util.h"
#include "support/timer.h"
#include "support/worker_pool.h"
#include "support/yaml.h"

namespace {

using namespace hpcmixp;
using search::Config;
using search::EvalStatus;
using support::ChildExit;
using support::IsolationMode;
using support::ShmArena;

// ---- RunInFork: one job per fresh worker (isolation = fork) -----------

/** Run @p body as the only job of a fresh one-job worker. */
support::PoolOutcome
runInFreshWorker(const std::function<void()>& body, double deadline)
{
    support::WorkerPool pool(
        1, 1, 1,
        [&body](const void*, std::size_t, void*, std::size_t) {
            body();
            return std::size_t{0};
        },
        support::WorkerLifetime::OneJob);
    char job = 0;
    char result = 0;
    support::PoolOutcome out = pool.run(&job, 1, &result, 0, deadline);
    EXPECT_EQ(pool.stats().forks, 1u);
    EXPECT_EQ(pool.workerPids(), std::vector<pid_t>{-1});
    return out;
}

TEST(RunInFork, CleanBodyExitsClean)
{
    support::PoolOutcome out = runInFreshWorker([] {}, 0.0);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    EXPECT_EQ(out.detail, 0);
    EXPECT_TRUE(out.resultValid);
    EXPECT_GE(out.wallSeconds, 0.0);
}

TEST(RunInFork, NonzeroExitIsClassifiedWithCode)
{
    support::PoolOutcome out = runInFreshWorker([] { ::_exit(3); }, 0.0);
    EXPECT_EQ(out.exit, ChildExit::NonZeroExit);
    EXPECT_EQ(out.detail, 3);
    EXPECT_FALSE(out.resultValid);
}

TEST(RunInFork, ThrowingBodyUsesTheThrewExitCode)
{
    support::PoolOutcome out = runInFreshWorker(
        [] { throw std::runtime_error("boom"); }, 0.0);
    EXPECT_EQ(out.exit, ChildExit::NonZeroExit);
    EXPECT_EQ(out.detail, support::kChildBodyThrew);
    EXPECT_FALSE(out.resultValid);
}

TEST(RunInFork, AbortingBodyIsContained)
{
    support::PoolOutcome out = runInFreshWorker([] { std::abort(); }, 0.0);
    // Sanitizer runtimes may intercept the abort and _exit nonzero
    // instead; either way the death is contained and classified.
    EXPECT_TRUE(out.exit == ChildExit::Signaled ||
                out.exit == ChildExit::NonZeroExit)
        << support::childExitName(out.exit);
}

TEST(RunInFork, SegvIsContained)
{
    support::PoolOutcome out = runInFreshWorker(
        [] { search::executeRawFault(search::RawFault::Segv); }, 0.0);
    EXPECT_TRUE(out.exit == ChildExit::Signaled ||
                out.exit == ChildExit::NonZeroExit)
        << support::childExitName(out.exit);
}

TEST(RunInFork, GenuineSpinHangIsKilledOnDeadline)
{
    support::WallTimer timer;
    support::PoolOutcome out = runInFreshWorker(
        [] { search::executeRawFault(search::RawFault::Hang); }, 0.25);
    EXPECT_EQ(out.exit, ChildExit::KilledOnDeadline);
    EXPECT_EQ(out.detail, SIGKILL);
    EXPECT_GE(out.wallSeconds, 0.25);
    // The kill is prompt: nowhere near a blocking wait.
    EXPECT_LT(timer.seconds(), 10.0);
}

TEST(RunInFork, DeadlineWaitDoesNotBusyPoll)
{
    // The parent's deadline wait sleeps in poll() on the done doorbell
    // and the worker's pidfd (or a 20 ms death probe on kernels
    // without pidfds) — waiting for a slow job must not burn parent
    // CPU.
    struct rusage before{}, after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    support::PoolOutcome out = runInFreshWorker(
        [] {
            std::this_thread::sleep_for(std::chrono::milliseconds(350));
        },
        5.0);
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    auto cpuSeconds = [](const rusage& r) {
        return r.ru_utime.tv_sec + r.ru_stime.tv_sec +
               (r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
    };
    // The worker slept 350ms; the parent's own CPU over the wait stays
    // far below that (generous bound for loaded CI machines).
    EXPECT_LT(cpuSeconds(after) - cpuSeconds(before), 0.1);
}

// ---- ShmArena ----------------------------------------------------------

TEST(ShmArenaTest, RoundTripsAPayload)
{
    ShmArena arena(64);
    EXPECT_EQ(arena.capacity(), 64u);
    EXPECT_FALSE(arena.committed());
    EXPECT_EQ(arena.payloadSize(), 0u);

    double values[4] = {1.0, -2.5, 3.25, 1e-300};
    arena.commit(values, sizeof values);
    EXPECT_TRUE(arena.committed());
    EXPECT_EQ(arena.payloadSize(), sizeof values);

    double back[4] = {};
    ASSERT_TRUE(arena.read(back, sizeof back));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(back[i], values[i]);
}

TEST(ShmArenaTest, UncommittedArenaReadsFalse)
{
    ShmArena arena(16);
    double out = 0.0;
    EXPECT_FALSE(arena.read(&out, sizeof out));
}

TEST(ShmArenaTest, SizeMismatchReadsFalse)
{
    ShmArena arena(16);
    double v = 7.0;
    arena.commit(&v, sizeof v);
    float small = 0.0f;
    EXPECT_FALSE(arena.read(&small, sizeof small));
}

TEST(ShmArenaTest, TornPayloadFailsTheChecksum)
{
    ShmArena arena(32);
    double values[2] = {42.0, 43.0};
    arena.commit(values, sizeof values);
    ASSERT_TRUE(arena.committed());
    // Simulate a child dying mid-write after the state flip would
    // have been observed: flip one payload byte.
    static_cast<unsigned char*>(arena.payload())[3] ^= 0xff;
    EXPECT_FALSE(arena.committed());
    double back[2];
    EXPECT_FALSE(arena.read(back, sizeof back));
}

TEST(ShmArenaTest, ResetClearsACommit)
{
    ShmArena arena(8);
    double v = 1.0;
    arena.commit(&v, sizeof v);
    arena.reset();
    EXPECT_FALSE(arena.committed());
}

TEST(ShmArenaTest, ChildCommitIsVisibleAfterReap)
{
    ShmArena arena(sizeof(double));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        double v = 6.5;
        arena.commit(&v, sizeof v);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    double back = 0.0;
    ASSERT_TRUE(arena.read(&back, sizeof back));
    EXPECT_EQ(back, 6.5);
}

TEST(ShmArenaTest, KilledChildLeavesNoCommit)
{
    ShmArena arena(sizeof(double));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        search::executeRawFault(search::RawFault::Hang);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    EXPECT_FALSE(arena.committed());
}

// ---- Tuner-level sandbox ----------------------------------------------

/**
 * Two-cluster benchmark whose `data` cluster misbehaves on demand
 * when lowered; `aux` lowering perturbs the output past any sane
 * threshold (deterministic quality fail), so the only passing
 * improvement is data-only — which forces a timing-independent winner
 * for trajectory-identity checks.
 */
class RawHostileBenchmark final : public benchmarks::Benchmark {
  public:
    enum class Mode { Clean, Abort, Segv, Spin, Exit3, Throw };

    explicit RawHostileBenchmark(Mode mode)
        : mode_(mode), model_("rawhostile")
    {
        using namespace model;
        ModuleId m = model_.addModule("rawhostile.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
        model_.addVariable(f, "aux", realPointer(), "aux");
    }

    std::string name() const override { return "rawhostile"; }
    std::string description() const override
    {
        return "sandbox containment benchmark";
    }
    bool isKernel() const override { return true; }

    const model::ProgramModel& programModel() const override
    {
        return model_;
    }

    benchmarks::RunOutput
    run(const benchmarks::PrecisionMap& pm) const override
    {
        bool dataLowered =
            pm.get("data") == runtime::Precision::Float32;
        bool auxLowered =
            pm.get("aux") == runtime::Precision::Float32;
        if (dataLowered) {
            switch (mode_) {
              case Mode::Abort:
                std::abort();
              case Mode::Segv:
                search::executeRawFault(search::RawFault::Segv);
                break;
              case Mode::Spin:
                search::executeRawFault(search::RawFault::Hang);
                break;
              case Mode::Exit3:
                ::_exit(3);
              case Mode::Throw:
                throw std::runtime_error("hostile throw");
              case Mode::Clean:
                break;
            }
        }
        benchmarks::RunOutput out;
        out.values.assign(64, 1.0);
        if (dataLowered)
            out.values[0] += 1e-9; // tiny, below threshold
        if (auxLowered)
            out.values[0] += 1.0; // deterministic quality fail
        return out;
    }

  private:
    Mode mode_;
    model::ProgramModel model_;
};

core::TunerOptions
sandboxOptions()
{
    core::TunerOptions opt;
    opt.metric = "MAE";
    opt.threshold = 1e-6;
    opt.searchReps = 1;
    opt.finalReps = 3;
    opt.budget = {200, 0.0};
    opt.isolation = IsolationMode::Fork;
    opt.resilience.maxAttempts = 2;
    opt.resilience.sleepBetweenRetries = false;
    return opt;
}

std::size_t
dataCluster(const core::BenchmarkTuner& tuner,
            const benchmarks::Benchmark& bench)
{
    return tuner.clusters().clusterOf(
        bench.programModel().findVariable("data"));
}

TEST(SandboxTuner, SegvIsContainedAndQuarantined)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Segv);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(dataCluster(tuner, bench));

    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
    EXPECT_FALSE(eval.memoizable);

    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.forks, 1u);
    // ASan converts the SEGV into a nonzero exit; bare builds die by
    // signal. Both are containment.
    EXPECT_EQ(stats.signaled + stats.nonZeroExits, 1u);
}

TEST(SandboxTuner, AbortingCampaignCompletesWithValidWinner)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Abort);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    auto outcome = tuner.tune("DD");

    // The crashing cluster is quarantined, the search finishes, and
    // the winner avoids it.
    EXPECT_GT(outcome.search.quarantined, 0u);
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster(tuner, bench)));
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
    auto stats = tuner.sandboxStats();
    EXPECT_GT(stats.signaled + stats.nonZeroExits, 0u);
}

TEST(SandboxTuner, NonzeroExitQuarantines)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Exit3);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    auto outcome = tuner.tune("DD");

    EXPECT_GT(outcome.search.quarantined, 0u);
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster(tuner, bench)));
    auto stats = tuner.sandboxStats();
    EXPECT_GT(stats.nonZeroExits, 0u);
    EXPECT_EQ(stats.killedOnDeadline, 0u);
}

TEST(SandboxTuner, GenuineHangIsKilledOnDeadline)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Spin);
    core::TunerOptions opt = sandboxOptions();
    opt.resilience.deadlineSeconds = 0.25;
    core::BenchmarkTuner tuner(bench, opt);
    auto outcome = tuner.tune("DD");

    // The spin-looping configuration genuinely hung children; the
    // parent killed and reaped each attempt, counted the misses, and
    // the campaign still produced a quality-clean winner.
    EXPECT_GT(outcome.search.deadlineMisses, 0u);
    EXPECT_GT(outcome.search.quarantined, 0u);
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster(tuner, bench)));
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
    auto stats = tuner.sandboxStats();
    EXPECT_GT(stats.killedOnDeadline, 0u);
    EXPECT_EQ(stats.killedOnDeadline, outcome.search.deadlineMisses);
}

TEST(SandboxTuner, ThrowMatchesInProcessClassification)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Throw);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(dataCluster(tuner, bench));

    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    // A contained C++ exception classifies exactly like the
    // in-process catch: RuntimeFail, NaN loss — and stays memoizable.
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
    EXPECT_TRUE(eval.memoizable);
    EXPECT_EQ(tuner.sandboxStats().nonZeroExits, 1u);
}

TEST(SandboxTuner, CrashLoopCutoffStopsForking)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Abort);
    core::TunerOptions opt = sandboxOptions();
    opt.isolationMaxCrashes = 3;
    core::BenchmarkTuner tuner(bench, opt);

    Config toxic(tuner.clusterCount());
    toxic.set(dataCluster(tuner, bench));
    for (int i = 0; i < 10; ++i) {
        auto eval = tuner.evaluateClusterConfig(toxic, 1);
        EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    }
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.forks, 3u);
    EXPECT_EQ(stats.crashedChildren(), 3u);
    EXPECT_EQ(stats.fastFailed, 7u);
}

/** /proc/self/fd entry count (excluding the iteration itself is not
 *  needed: both samples are taken the same way). */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(SandboxTuner, HundredEvalsLeakNoFdsOrZombies)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Exit3);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    Config clean(tuner.clusterCount());
    Config toxic(tuner.clusterCount());
    toxic.set(dataCluster(tuner, bench));

    const std::size_t before = openFdCount();
    for (int i = 0; i < 50; ++i) {
        (void)tuner.evaluateClusterConfig(clean, 1);
        (void)tuner.evaluateClusterConfig(toxic, 1);
    }
    EXPECT_EQ(openFdCount(), before);
    EXPECT_EQ(tuner.sandboxStats().forks, 100u);

    // Every child was reaped: no zombies left for anyone to collect.
    int status = 0;
    pid_t reaped = ::waitpid(-1, &status, WNOHANG);
    EXPECT_EQ(reaped, -1);
    EXPECT_EQ(errno, ECHILD);
}

/** Shared scratch for trajectory comparisons: the per-config cache
 *  snapshot reduced to its timing-independent fields. */
std::set<std::string>
cacheSnapshot(const support::json::Value& cache)
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

TEST(SandboxTuner, ForkAndInProcessAreTrajectoryIdentical)
{
    auto campaign = [](IsolationMode isolation,
                       support::json::Value& cache) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.isolation = isolation;
        core::BenchmarkTuner tuner(bench, opt);
        test::CacheCapture capture("DD");
        auto outcome = tuner.tune(capture);
        cache = capture.cache();
        return outcome;
    };

    support::json::Value forkCache, inprocCache;
    auto forked = campaign(IsolationMode::Fork, forkCache);
    auto inproc = campaign(IsolationMode::None, inprocCache);

    // Same EV, same winner, same cache contents (configs, statuses,
    // quality losses — bit-identical arithmetic either side of the
    // fork). Speedups are wall-clock and excluded by construction.
    EXPECT_EQ(forked.search.evaluated, inproc.search.evaluated);
    EXPECT_EQ(forked.search.cacheHits, inproc.search.cacheHits);
    EXPECT_EQ(forked.search.compileFailures,
              inproc.search.compileFailures);
    EXPECT_EQ(forked.clusterConfig, inproc.clusterConfig);
    EXPECT_EQ(forked.search.best, inproc.search.best);
    EXPECT_DOUBLE_EQ(forked.finalQualityLoss, inproc.finalQualityLoss);
    EXPECT_EQ(cacheSnapshot(forkCache), cacheSnapshot(inprocCache));

    // And the sandbox really ran: every evaluation forked cleanly.
    // (No assertion on spawn overhead magnitude — CI machines vary.)
    support::json::Value cache;
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    (void)tuner.evaluateClusterConfig(Config(tuner.clusterCount()), 1);
    EXPECT_EQ(tuner.sandboxStats().cleanExits, 1u);
}

TEST(SandboxTuner, BatchParallelForkMatchesSerialFork)
{
    auto campaign = [](std::size_t jobs) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.searchJobs = jobs;
        core::BenchmarkTuner tuner(bench, opt);
        return tuner.tune("DD");
    };
    auto serial = campaign(1);
    auto parallel = campaign(4);
    EXPECT_EQ(parallel.search.evaluated, serial.search.evaluated);
    EXPECT_EQ(parallel.search.best, serial.search.best);
    EXPECT_EQ(parallel.clusterConfig, serial.clusterConfig);
}

// ---- WorkerPool --------------------------------------------------------

/** Echo-or-misbehave handler: doubles the int job; negative jobs
 *  throw, kMagicExit _exit()s, kMagicSpin spins forever. */
constexpr int kMagicExit = 1000001;
constexpr int kMagicSpin = 1000002;

support::WorkerPool::Handler
hostileHandler()
{
    return [](const void* job, std::size_t jobSize, void* result,
              std::size_t resultCapacity) -> std::size_t {
        int v = 0;
        EXPECT_EQ(jobSize, sizeof v);
        EXPECT_GE(resultCapacity, sizeof v);
        std::memcpy(&v, job, sizeof v);
        if (v < 0)
            throw std::runtime_error("hostile job");
        if (v == kMagicExit)
            ::_exit(5);
        if (v == kMagicSpin)
            search::executeRawFault(search::RawFault::Hang);
        v *= 2;
        std::memcpy(result, &v, sizeof v);
        return sizeof v;
    };
}

support::PoolOutcome
runInt(support::WorkerPool& pool, int job, int& result,
       double deadline = 0.0)
{
    return pool.run(&job, sizeof job, &result, sizeof result, deadline);
}

TEST(WorkerPoolTest, DispatchesJobsToPersistentWorkers)
{
    support::WorkerPool pool(2, sizeof(int), sizeof(int),
                             hostileHandler());
    for (int i = 1; i <= 10; ++i) {
        int result = 0;
        support::PoolOutcome out = runInt(pool, i, result);
        EXPECT_EQ(out.exit, ChildExit::Clean);
        ASSERT_TRUE(out.resultValid);
        EXPECT_EQ(result, 2 * i);
        EXPECT_GE(out.wallSeconds, 0.0);
    }
    support::WorkerPoolStats stats = pool.stats();
    // Ten jobs, two forks: the whole point of the pool.
    EXPECT_EQ(stats.forks, 2u);
    EXPECT_EQ(stats.dispatched, 10u);
    EXPECT_EQ(stats.respawns, 0u);
}

TEST(WorkerPoolTest, ThrowingHandlerIsContainedInWorker)
{
    support::WorkerPool pool(1, sizeof(int), sizeof(int),
                             hostileHandler());
    int result = 0;
    support::PoolOutcome out = runInt(pool, -1, result);
    EXPECT_EQ(out.exit, ChildExit::NonZeroExit);
    EXPECT_EQ(out.detail, support::kChildBodyThrew);
    EXPECT_FALSE(out.resultValid);

    // The worker contained the exception and kept serving: the next
    // job runs on the same child, no re-fork.
    out = runInt(pool, 21, result);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    EXPECT_EQ(result, 42);
    EXPECT_EQ(pool.stats().forks, 1u);
    EXPECT_EQ(pool.stats().respawns, 0u);
}

TEST(WorkerPoolTest, DyingWorkerIsReapedClassifiedAndReforked)
{
    support::WorkerPool pool(1, sizeof(int), sizeof(int),
                             hostileHandler());
    int result = 0;
    support::PoolOutcome out = runInt(pool, kMagicExit, result);
    EXPECT_EQ(out.exit, ChildExit::NonZeroExit);
    EXPECT_EQ(out.detail, 5);
    EXPECT_FALSE(out.resultValid);

    // The corpse was reaped and a fresh worker forked onto the same
    // rings and doorbells.
    out = runInt(pool, 4, result);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    EXPECT_EQ(result, 8);
    EXPECT_EQ(pool.stats().forks, 2u);
    EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(WorkerPoolTest, SpinningHandlerIsKilledOnDeadline)
{
    support::WorkerPool pool(1, sizeof(int), sizeof(int),
                             hostileHandler());
    int result = 0;
    support::WallTimer timer;
    support::PoolOutcome out = runInt(pool, kMagicSpin, result, 0.25);
    EXPECT_EQ(out.exit, ChildExit::KilledOnDeadline);
    EXPECT_EQ(out.detail, SIGKILL);
    EXPECT_GE(out.wallSeconds, 0.25);
    EXPECT_LT(timer.seconds(), 10.0);

    out = runInt(pool, 3, result);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    EXPECT_EQ(result, 6);
    EXPECT_EQ(pool.stats().respawns, 1u);
}

TEST(WorkerPoolTest, FarDeadlineServesAQuickJobCleanly)
{
    // Deadlines past INT_MAX milliseconds (and +inf) must not overflow
    // the poll timeout: the quick job completes as if none were set.
    support::WorkerPool pool(1, sizeof(int), sizeof(int),
                             hostileHandler());
    for (double deadline :
         {std::numeric_limits<double>::infinity(), 1e10}) {
        int result = 0;
        support::PoolOutcome out = runInt(pool, 5, result, deadline);
        EXPECT_EQ(out.exit, ChildExit::Clean) << deadline;
        ASSERT_TRUE(out.resultValid) << deadline;
        EXPECT_EQ(result, 10);
    }
    EXPECT_EQ(pool.stats().respawns, 0u);
}

TEST(WorkerPoolTest, SigkilledIdleWorkerIsDetectedOnNextDispatch)
{
    support::WorkerPool pool(1, sizeof(int), sizeof(int),
                             hostileHandler());
    int result = 0;
    ASSERT_EQ(runInt(pool, 1, result).exit, ChildExit::Clean);

    std::vector<pid_t> pids = pool.workerPids();
    ASSERT_EQ(pids.size(), 1u);
    ASSERT_GT(pids[0], 0);
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

    // The next dispatch lands on the corpse, classifies the death and
    // re-forks; the one after runs on the replacement.
    support::PoolOutcome out = runInt(pool, 2, result);
    EXPECT_EQ(out.exit, ChildExit::Signaled);
    EXPECT_EQ(out.detail, SIGKILL);
    out = runInt(pool, 5, result);
    EXPECT_EQ(out.exit, ChildExit::Clean);
    EXPECT_EQ(result, 10);
    EXPECT_EQ(pool.stats().respawns, 1u);
    EXPECT_NE(pool.workerPids()[0], pids[0]);
}

TEST(WorkerPoolTest, OneJobWorkersAreFreshWherePersistentOnesAreWarm)
{
    // A handler-side static counts the jobs its process has served: a
    // one-job worker is a fresh fork of the parent for every job, a
    // persistent worker carries its process state from job to job.
    auto countingHandler = [](const void*, std::size_t, void* result,
                              std::size_t) -> std::size_t {
        static int served = 0;
        ++served;
        std::memcpy(result, &served, sizeof served);
        return sizeof served;
    };
    constexpr int kJobs = 5;
    for (auto lifetime : {support::WorkerLifetime::OneJob,
                          support::WorkerLifetime::Persistent}) {
        const bool oneJob = lifetime == support::WorkerLifetime::OneJob;
        support::WorkerPool pool(1, sizeof(int), sizeof(int),
                                 countingHandler, lifetime);
        for (int i = 1; i <= kJobs; ++i) {
            int result = 0;
            ASSERT_EQ(runInt(pool, i, result).exit, ChildExit::Clean);
            EXPECT_EQ(result, oneJob ? 1 : i);
        }
        EXPECT_EQ(pool.stats().forks, oneJob ? std::size_t{kJobs} : 1u);
        EXPECT_EQ(pool.stats().dispatched, std::size_t{kJobs});
        EXPECT_EQ(pool.stats().respawns, 0u);
    }
}

TEST(WorkerPoolTest, PoolLifecycleLeaksNoFdsOrZombies)
{
    const std::size_t before = openFdCount();
    {
        support::WorkerPool pool(3, sizeof(int), sizeof(int),
                                 hostileHandler());
        EXPECT_GT(openFdCount(), before); // rings + doorbells live
        int result = 0;
        for (int i = 0; i < 6; ++i)
            EXPECT_EQ(runInt(pool, i + 1, result).exit,
                      ChildExit::Clean);
        (void)runInt(pool, kMagicExit, result); // force one respawn
    }
    // Destruction stops the workers, reaps every child and closes
    // every descriptor.
    EXPECT_EQ(openFdCount(), before);
    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

// ---- Tuner-level pool isolation ----------------------------------------

core::TunerOptions
poolOptions()
{
    core::TunerOptions opt = sandboxOptions();
    opt.isolation = IsolationMode::Pool;
    return opt;
}

TEST(PoolTuner, SegvIsContainedAndWorkerRespawned)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Segv);
    core::BenchmarkTuner tuner(bench, poolOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(dataCluster(tuner, bench));

    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
    EXPECT_FALSE(eval.memoizable);

    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.signaled + stats.nonZeroExits, 1u);
    EXPECT_EQ(stats.workerRespawns, 1u);
    EXPECT_EQ(stats.poolDispatches, 1u);
}

TEST(PoolTuner, AbortingCampaignCompletesWithValidWinner)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Abort);
    core::BenchmarkTuner tuner(bench, poolOptions());
    auto outcome = tuner.tune("DD");

    EXPECT_GT(outcome.search.quarantined, 0u);
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster(tuner, bench)));
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
    auto stats = tuner.sandboxStats();
    EXPECT_GT(stats.signaled + stats.nonZeroExits, 0u);
    EXPECT_GT(stats.workerRespawns, 0u);
}

TEST(PoolTuner, GenuineHangIsKilledOnDeadline)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Spin);
    core::TunerOptions opt = poolOptions();
    opt.resilience.deadlineSeconds = 0.25;
    core::BenchmarkTuner tuner(bench, opt);
    auto outcome = tuner.tune("DD");

    EXPECT_GT(outcome.search.deadlineMisses, 0u);
    EXPECT_GT(outcome.search.quarantined, 0u);
    EXPECT_FALSE(outcome.clusterConfig.test(dataCluster(tuner, bench)));
    EXPECT_LE(outcome.finalQualityLoss, 1e-6);
    auto stats = tuner.sandboxStats();
    EXPECT_GT(stats.killedOnDeadline, 0u);
    EXPECT_EQ(stats.killedOnDeadline, outcome.search.deadlineMisses);
}

TEST(PoolTuner, ThrowIsContainedWithoutKillingTheWorker)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Throw);
    core::BenchmarkTuner tuner(bench, poolOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(dataCluster(tuner, bench));

    auto eval = tuner.evaluateClusterConfig(cfg, 1);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_TRUE(std::isnan(eval.qualityLoss));
    EXPECT_TRUE(eval.memoizable);
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.nonZeroExits, 1u);
    EXPECT_EQ(stats.workerRespawns, 0u);
}

TEST(PoolTuner, TwoHundredEvalsLeakNoFdsOrZombies)
{
    const std::size_t preTuner = openFdCount();
    {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Exit3);
        core::BenchmarkTuner tuner(bench, poolOptions());
        Config clean(tuner.clusterCount());
        Config toxic(tuner.clusterCount());
        toxic.set(dataCluster(tuner, bench));

        // The pool's rings and doorbells are paid once, up front; the
        // fd count stays campaign-constant across 200 dispatches even
        // though half of them kill the worker and force a re-fork.
        const std::size_t during = openFdCount();
        EXPECT_GT(during, preTuner);
        for (int i = 0; i < 100; ++i) {
            (void)tuner.evaluateClusterConfig(clean, 1);
            (void)tuner.evaluateClusterConfig(toxic, 1);
        }
        EXPECT_EQ(openFdCount(), during);
        auto stats = tuner.sandboxStats();
        EXPECT_EQ(stats.poolDispatches, 200u);
        EXPECT_EQ(stats.workerRespawns, 100u);
        EXPECT_EQ(stats.cleanExits, 100u);
        EXPECT_EQ(stats.nonZeroExits, 100u);
    }
    // Tuner gone: descriptors returned, every child reaped.
    EXPECT_EQ(openFdCount(), preTuner);
    int status = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}

TEST(PoolTuner, PoolAndForkAreTrajectoryIdentical)
{
    auto campaign = [](IsolationMode isolation,
                       support::json::Value& cache) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.isolation = isolation;
        core::BenchmarkTuner tuner(bench, opt);
        test::CacheCapture capture("DD");
        auto outcome = tuner.tune(capture);
        cache = capture.cache();
        return outcome;
    };

    support::json::Value poolCache, forkCache;
    auto pooled = campaign(IsolationMode::Pool, poolCache);
    auto forked = campaign(IsolationMode::Fork, forkCache);

    // Bit-identical trajectories: the pool path publishes the same
    // evaluations (configs, statuses, losses) the per-attempt fork
    // path does, so the search walks the same line.
    EXPECT_EQ(pooled.search.evaluated, forked.search.evaluated);
    EXPECT_EQ(pooled.search.cacheHits, forked.search.cacheHits);
    EXPECT_EQ(pooled.search.compileFailures,
              forked.search.compileFailures);
    EXPECT_EQ(pooled.clusterConfig, forked.clusterConfig);
    EXPECT_EQ(pooled.search.best, forked.search.best);
    EXPECT_DOUBLE_EQ(pooled.finalQualityLoss, forked.finalQualityLoss);
    EXPECT_EQ(cacheSnapshot(poolCache), cacheSnapshot(forkCache));
}

/**
 * A search evaluation verifies its first timed rep and stops there when
 * the output fails the quality check. At three reps, so that the early
 * stop and the remaining timed reps both run, every isolation mode
 * publishes the same evaluations, a quality failure (`aux` lowered)
 * among them.
 */
TEST(PoolTuner, EarlyRejectionIsIdenticalInEveryIsolationMode)
{
    auto snapshot = [](IsolationMode isolation) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.isolation = isolation;
        opt.searchReps = 3;
        core::BenchmarkTuner tuner(bench, opt);
        test::CacheCapture capture("DD");
        (void)tuner.tune(capture);
        return cacheSnapshot(capture.cache());
    };
    const std::set<std::string> inproc = snapshot(IsolationMode::None);
    EXPECT_EQ(snapshot(IsolationMode::Fork), inproc);
    EXPECT_EQ(snapshot(IsolationMode::Pool), inproc);
    EXPECT_TRUE(std::any_of(inproc.begin(), inproc.end(),
                            [](const std::string& e) {
                                return e.find("|quality_fail|") !=
                                       std::string::npos;
                            }));
}

TEST(PoolTuner, SurvivesMidCampaignWorkerSigkill)
{
    auto forkCampaign = [] {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::BenchmarkTuner tuner(bench, sandboxOptions());
        return tuner.tune("DD");
    };
    auto forked = forkCampaign();

    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
    core::BenchmarkTuner tuner(bench, poolOptions());
    std::vector<pid_t> pids = tuner.poolWorkerPids();
    ASSERT_FALSE(pids.empty());
    ASSERT_GT(pids[0], 0);
    ASSERT_EQ(::kill(pids[0], SIGKILL), 0);

    auto pooled = tuner.tune("DD");

    // The murdered worker costs exactly one classified failure, which
    // the resilience layer retries on the re-forked replacement — the
    // campaign's trajectory is otherwise identical to fork isolation.
    EXPECT_EQ(pooled.search.evaluated, forked.search.evaluated);
    EXPECT_EQ(pooled.search.cacheHits, forked.search.cacheHits);
    EXPECT_EQ(pooled.clusterConfig, forked.clusterConfig);
    EXPECT_EQ(pooled.search.best, forked.search.best);
    EXPECT_EQ(pooled.search.retries, forked.search.retries + 1);
    EXPECT_EQ(pooled.search.quarantined, forked.search.quarantined);
    auto stats = tuner.sandboxStats();
    EXPECT_GE(stats.workerRespawns, 1u);
    EXPECT_EQ(stats.signaled, 1u);
}

TEST(PoolTuner, CrashLoopCutoffStopsDispatching)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Abort);
    core::TunerOptions opt = poolOptions();
    opt.isolationMaxCrashes = 3;
    core::BenchmarkTuner tuner(bench, opt);

    Config toxic(tuner.clusterCount());
    toxic.set(dataCluster(tuner, bench));
    for (int i = 0; i < 10; ++i) {
        auto eval = tuner.evaluateClusterConfig(toxic, 1);
        EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    }
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.poolDispatches, 3u);
    EXPECT_EQ(stats.crashedChildren(), 3u);
    EXPECT_EQ(stats.fastFailed, 7u);
}

// ---- Memo-cache publication rules -------------------------------------

class TempDir {
  public:
    explicit TempDir(const std::string& tag)
        : path_(std::filesystem::temp_directory_path() /
                (tag + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string string() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(SandboxMemo, PublishesOnlyCleanChildResults)
{
    TempDir dir("hpcmixp_sandbox_memo_");
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Segv);
    core::TunerOptions opt = sandboxOptions();
    opt.memoStore = std::make_shared<search::MemoStore>(dir.string());
    core::BenchmarkTuner tuner(bench, opt);
    auto outcome = tuner.tune("DD");
    EXPECT_GT(outcome.search.quarantined, 0u);

    auto table = opt.memoStore->table(
        tuner.fingerprint(search::Granularity::Cluster));
    auto entries = table->entries();
    EXPECT_GT(entries.size(), 0u);
    std::string toxicKey;
    {
        Config toxic(tuner.clusterCount());
        toxic.set(dataCluster(tuner, bench));
        toxicKey = toxic.toString();
    }
    for (const auto& [key, eval] : entries) {
        // Crashed children never reach the memo: every published
        // entry is a clean (ran-and-verified) result, and the
        // SIGSEGVing configuration in particular is absent even
        // though the search quarantined (and cached) it in-run.
        EXPECT_NE(eval.status, EvalStatus::RuntimeFail) << key;
        EXPECT_NE(key, toxicKey);
    }
}

// ---- Fork-mode input conversions ---------------------------------------

/**
 * One knob `data`; counts, in this process, the prepares that lower
 * it. With @p failLowered those prepares throw.
 */
class LoweredPrepareBenchmark final : public benchmarks::Benchmark {
  public:
    explicit LoweredPrepareBenchmark(bool failLowered = false)
        : failLowered_(failLowered), model_("loweredprepare")
    {
        using namespace model;
        ModuleId m = model_.addModule("loweredprepare.c");
        FunctionId f = model_.addFunction(m, "f");
        model_.addVariable(f, "data", realPointer(), "data");
    }

    std::string name() const override { return "loweredprepare"; }
    std::string description() const override
    {
        return "counts its lowered prepares";
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
        if (!pm.allDouble()) {
            ++loweredPrepares;
            if (failLowered_)
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

    mutable std::atomic<int> loweredPrepares{0};

  private:
    bool failLowered_;
    model::ProgramModel model_;
};

TEST(SandboxConversions, WarmStoreCampaignPreparesNothingLowered)
{
    TempDir dir("hpcmixp_sandbox_conversions_");
    core::TunerOptions opt = sandboxOptions();
    {
        // Cold, the parent converts once just before the one dispatch
        // (the child's own prepare is not counted here), then once for
        // the final measurement.
        opt.memoStore = std::make_shared<search::MemoStore>(dir.string());
        LoweredPrepareBenchmark bench;
        core::BenchmarkTuner tuner(bench, opt);
        EXPECT_EQ(bench.loweredPrepares, 0);
        core::TuneOutcome outcome = tuner.tune("CB");
        ASSERT_EQ(outcome.search.evaluated, 1u);
        EXPECT_EQ(tuner.sandboxStats().forks, 1u);
        EXPECT_EQ(bench.loweredPrepares, 2);
    }
    // Warm, neither construction nor a campaign whose evaluation and
    // final come from the store converts anything.
    opt.memoStore = std::make_shared<search::MemoStore>(dir.string());
    LoweredPrepareBenchmark bench;
    core::BenchmarkTuner tuner(bench, opt);
    EXPECT_EQ(bench.loweredPrepares, 0);
    core::TuneOutcome outcome = tuner.tune("CB");
    EXPECT_EQ(outcome.search.memoHits, 1u);
    EXPECT_EQ(tuner.sandboxStats().forks, 0u);
    EXPECT_EQ(bench.loweredPrepares, 0);
}

TEST(SandboxConversions, FailingLoweredPrepareMatchesInProcess)
{
    // The parent's conversion throws and is swallowed; the child's
    // prepare throws again and reports it, so the verdict is the
    // in-process one.
    for (IsolationMode mode : {IsolationMode::None, IsolationMode::Fork}) {
        LoweredPrepareBenchmark bench(true);
        core::TunerOptions opt = sandboxOptions();
        opt.isolation = mode;
        core::BenchmarkTuner tuner(bench, opt);
        auto eval = tuner.evaluateClusterConfig(
            Config::allLowered(tuner.clusterCount()), 1);
        EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
        EXPECT_TRUE(std::isnan(eval.qualityLoss));
        EXPECT_TRUE(eval.memoizable);
        EXPECT_FALSE(eval.deadlineMiss);
        EXPECT_EQ(bench.loweredPrepares, 1);
        EXPECT_EQ(tuner.sandboxStats().nonZeroExits,
                  mode == IsolationMode::Fork ? 1u : 0u);
    }
}

// ---- Raw fault injection legality -------------------------------------

TEST(RawFaults, RejectedWithoutSandboxAsRecoverableError)
{
    search::FaultPlan plan;
    plan.rawCrashRate = 0.5;
    ASSERT_FALSE(plan.sandboxed);
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
    core::TunerOptions opt = sandboxOptions();
    opt.isolation = IsolationMode::None;
    opt.faultPlan = plan;
    EXPECT_THROW(core::BenchmarkTuner(bench, opt),
                 support::FatalError);
    // The message names both sandboxed modes that would accept it.
    try {
        core::BenchmarkTuner tuner(bench, opt);
    } catch (const support::FatalError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--isolation=fork or --isolation=pool"),
                  std::string::npos)
            << what;
    }
}

TEST(RawFaults, RawHangWithoutDeadlineIsRejected)
{
    // A NaN deadline never arms the parent's kill, so it is no
    // deadline at all: the spinning child would hang the campaign.
    for (double deadline : {0.0, std::nan(""), -1.0}) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.faultPlan.rawHangRate = 0.5;
        opt.resilience.deadlineSeconds = deadline;
        EXPECT_THROW(core::BenchmarkTuner(bench, opt),
                     support::FatalError)
            << "deadline " << deadline;
    }
}

TEST(RawFaults, InjectedCrashesAreContainedDeterministically)
{
    auto countersFor = [](std::uint64_t seed) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.faultPlan.rawCrashRate = 0.4;
        opt.faultPlan.seed = seed;
        core::BenchmarkTuner tuner(bench, opt);
        auto outcome = tuner.tune("DD");
        return std::make_tuple(outcome.search.evaluated,
                               outcome.search.retries,
                               outcome.search.quarantined,
                               tuner.sandboxStats().signaled +
                                   tuner.sandboxStats().nonZeroExits);
    };
    auto a = countersFor(99);
    auto b = countersFor(99);
    EXPECT_EQ(a, b);
    EXPECT_GT(std::get<3>(a), 0u);
}

/**
 * The satellite property test: with the same seed and a single
 * nonzero rate r, `hangRate = r` (simulated in-process stall) and
 * `rawHangRate = r` (genuine spin loop killed by the parent) fire on
 * exactly the same (configuration, attempt) draws — so the campaign
 * counters (EV, deadline misses, retries as the backoff input,
 * quarantines) must be identical between isolation modes.
 */
TEST(RawFaults, SimulatedAndForkedHangCountersMatch)
{
    struct Counters {
        std::size_t evaluated, deadlineMisses, retries, quarantined;
        bool operator==(const Counters&) const = default;
    };
    auto campaign = [](bool forked) {
        RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
        core::TunerOptions opt = sandboxOptions();
        opt.resilience.deadlineSeconds = 0.2;
        opt.faultPlan.seed = 77;
        if (forked) {
            opt.isolation = IsolationMode::Fork;
            opt.faultPlan.rawHangRate = 0.6;
        } else {
            opt.isolation = IsolationMode::None;
            opt.faultPlan.hangRate = 0.6;
            opt.faultPlan.hangSeconds = 0.4; // well past the deadline
        }
        core::BenchmarkTuner tuner(bench, opt);
        auto outcome = tuner.tune("DD");
        return Counters{outcome.search.evaluated,
                        outcome.search.deadlineMisses,
                        outcome.search.retries,
                        outcome.search.quarantined};
    };
    Counters simulated = campaign(false);
    Counters forked = campaign(true);
    EXPECT_GT(simulated.deadlineMisses, 0u);
    EXPECT_EQ(forked, simulated);
}

// ---- Executable table under isolation --------------------------------

TEST(SandboxExecutables, HotspotCbForksOncePerExecutable)
{
    auto bench = benchmarks::BenchmarkRegistry::instance().create("hotspot");
    core::TunerOptions opt = sandboxOptions();
    opt.budget = {2000, 0.0};
    core::BenchmarkTuner tuner(*bench, opt);
    auto outcome = tuner.tune("CB");
    EXPECT_EQ(outcome.search.evaluated, 511u);
    EXPECT_EQ(tuner.executableCount(), 4u);
    // The all-double executable is answered from the baseline.
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.forks, 3u);
    EXPECT_EQ(stats.cleanExits, 3u);
}

TEST(SandboxExecutables, PendingRawFaultOnMeasuredExecutableDetonates)
{
    RawHostileBenchmark bench(RawHostileBenchmark::Mode::Clean);
    core::BenchmarkTuner tuner(bench, sandboxOptions());
    Config cfg(tuner.clusterCount());
    cfg.set(dataCluster(tuner, bench));
    ASSERT_EQ(tuner.clusterProblem().evaluate(cfg).status,
              EvalStatus::Pass);
    ASSERT_EQ(tuner.executableCount(), 1u);

    // The executable is already in the table, yet the attempt that
    // carries a raw fault still reaches a worker and dies there.
    search::setPendingRawFault(search::RawFault::Crash);
    auto eval = tuner.clusterProblem().evaluate(cfg);
    EXPECT_EQ(search::pendingRawFault(), search::RawFault::None);
    EXPECT_EQ(eval.status, EvalStatus::RuntimeFail);
    EXPECT_FALSE(eval.memoizable);
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.forks, 2u);
    EXPECT_EQ(stats.signaled + stats.nonZeroExits, 1u);

    // The crash is not stored: a clean attempt is served the first
    // measurement without forking.
    EXPECT_EQ(tuner.clusterProblem().evaluate(cfg).status,
              EvalStatus::Pass);
    EXPECT_EQ(tuner.sandboxStats().forks, 2u);
    EXPECT_EQ(tuner.executableCount(), 1u);
}

TEST(SandboxExecutables, EveryInjectedRawCrashDetonatesInItsOwnAttempt)
{
    auto bench = benchmarks::BenchmarkRegistry::instance().create("hotspot");
    core::TunerOptions opt = sandboxOptions();
    opt.budget = {2000, 0.0};
    opt.faultPlan.rawCrashRate = 0.05;
    opt.faultPlan.seed = 41;
    core::BenchmarkTuner tuner(*bench, opt);
    auto outcome = tuner.tune("CB");
    EXPECT_EQ(outcome.search.evaluated, 511u);

    auto* faulty = dynamic_cast<search::FaultyProblem*>(
        &tuner.searchClusterProblem());
    ASSERT_NE(faulty, nullptr);
    const std::size_t injected = faulty->injector().rawCrashesInjected();
    EXPECT_GT(injected, 0u);
    // One crashed child per injected fault; the clean children are
    // the executables measured, all but the all-double one, which is
    // answered from the baseline.
    auto stats = tuner.sandboxStats();
    EXPECT_EQ(stats.signaled + stats.nonZeroExits, injected);
    EXPECT_EQ(stats.cleanExits, tuner.executableCount() - 1);
    EXPECT_EQ(stats.forks, injected + stats.cleanExits);
}

// --- kill -9 mid-campaign, then --resume ----------------------------

/** Complete records across the memo segments in @p dir so far. */
std::size_t
memoRecordsLanded(const std::string& dir)
{
    std::size_t records = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().rfind("memo-", 0) != 0)
            continue;
        std::ifstream in(entry.path());
        std::string line;
        std::getline(in, line); // header
        while (std::getline(in, line) && !in.eof())
            ++records;
    }
    return records;
}

/**
 * The genuine crash: a campaign process SIGKILLed mid-search, then
 * resumed from its memo directory. The resumed campaign ends with the
 * same (config, verdict) pairs as an uninterrupted one, and no
 * evaluation is paid for twice: a job's resumed EV plus the entries
 * the killed run left in its fingerprint's memo table is the
 * uninterrupted EV.
 */
TEST(SandboxResume, SigkilledCampaignResumesWithoutRepeatingWork)
{
    auto jobs = harness::parseConfig(support::yaml::parse(
        "hotspot:\n  analysis:\n    fs:\n      name: 'floatsmith'\n"
        "      extra_args:\n        algorithm: 'combinational'\n"
        "hpccg:\n  analysis:\n    fs:\n      name: 'floatsmith'\n"
        "      extra_args:\n        algorithm: 'compositional'\n"
        "lavamd:\n  analysis:\n    fs:\n      name: 'floatsmith'\n"
        "      extra_args:\n        algorithm: 'ddebug'\n"));
    auto optionsFor = [](const std::string& dir) {
        harness::HarnessOptions options;
        options.tuner.searchReps = 1;
        options.tuner.finalReps = 3;
        options.memoCacheDir = dir;
        return options;
    };
    std::string killedDir = ::testing::TempDir() + "resume_killed";
    std::string cleanDir = ::testing::TempDir() + "resume_clean";
    std::filesystem::remove_all(killedDir);
    std::filesystem::remove_all(cleanDir);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            harness::runJobs(jobs, optionsFor(killedDir));
        } catch (...) {
            ::_exit(1);
        }
        ::_exit(0);
    }
    support::WallTimer waited;
    // Kill well into the first search, not at its very first record.
    while (memoRecordsLanded(killedDir) < 50 && waited.seconds() < 60.0)
        support::sleepForSeconds(0.001);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the campaign finished before the kill";

    // Each job's (config, verdict) pairs in directory @p dir: the
    // entries of its fingerprint's memo table, recovered the way a
    // resuming run recovers them (each job tunes its own benchmark).
    auto verdicts = [&](const std::string& dir) {
        std::vector<std::set<std::string>> perJob;
        for (const auto& job : jobs) {
            auto bench = benchmarks::BenchmarkRegistry::instance().create(
                job.benchmark);
            core::TunerOptions opt = optionsFor(dir).tuner;
            opt.memoStore = std::make_shared<search::MemoStore>(dir);
            core::BenchmarkTuner tuner(*bench, opt);
            // CB, CM and DD all search the cluster space.
            auto memo =
                tuner.runOptionsFor(search::Granularity::Cluster).memo;
            perJob.emplace_back();
            for (const auto& [key, eval] : memo->entries())
                perJob.back().insert(key + "=" +
                                     search::evalStatusName(eval.status));
        }
        return perJob;
    };
    auto killed = verdicts(killedDir);

    harness::HarnessOptions resumeOptions = optionsFor(killedDir);
    resumeOptions.resume = true;
    auto resumed = harness::runJobs(jobs, resumeOptions);
    auto clean = harness::runJobs(jobs, optionsFor(cleanDir));

    auto cleanVerdicts = verdicts(cleanDir);
    EXPECT_EQ(verdicts(killedDir), cleanVerdicts);
    std::size_t rerun = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(resumed[i].error.empty()) << resumed[i].error;
        ASSERT_TRUE(clean[i].error.empty()) << clean[i].error;
        // Winners rank by measured speedup, so they are timing noise;
        // the verdicts and the work are not.
        EXPECT_FALSE(clean[i].result.timedOut) << jobs[i].benchmark;
        EXPECT_EQ(cleanVerdicts[i].size(), clean[i].result.evaluated)
            << jobs[i].benchmark;
        if (resumed[i].restored) {
            EXPECT_EQ(resumed[i].result.evaluated,
                      clean[i].result.evaluated);
            continue;
        }
        ++rerun;
        EXPECT_EQ(resumed[i].result.evaluated + killed[i].size(),
                  clean[i].result.evaluated)
            << jobs[i].benchmark;
    }
    EXPECT_GT(rerun, 0u);
    std::filesystem::remove_all(killedDir);
    std::filesystem::remove_all(cleanDir);
}

// ---- Harness sandbox report ---------------------------------------------

const char* kTridiagDd =
    "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
    "      name: 'floatsmith'\n      extra_args:\n"
    "        algorithm: 'ddebug'\n";

harness::HarnessOptions
poolHarnessOptions()
{
    harness::HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    options.tuner.isolation = IsolationMode::Pool;
    return options;
}

/** A pool job's non-zero sandbox counts survive the job journal. */
TEST(SandboxHarness, PoolJobRoundTripsThroughTheJournal)
{
    TempDir dir("sandbox_journal_pool");
    auto jobs = harness::parseConfig(support::yaml::parse(kTridiagDd));
    harness::HarnessOptions options = poolHarnessOptions();
    options.memoCacheDir = dir.string();
    auto first = harness::runJobs(jobs, options);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;
    const core::SandboxStats& sandbox = first[0].result.sandbox;
    EXPECT_GT(sandbox.forks, 0u);
    EXPECT_GT(sandbox.poolDispatches, 0u);
    EXPECT_GT(sandbox.cleanExits, 0u);
    EXPECT_GT(sandbox.spawnOverheadMeanSeconds, 0.0);

    options.resume = true;
    auto second = harness::runJobs(jobs, options);
    ASSERT_TRUE(second[0].restored);
    const harness::AnalysisResult& a = second[0].result;
    const harness::AnalysisResult& b = first[0].result;
    EXPECT_EQ(static_cast<const search::SearchCounters&>(a),
              static_cast<const search::SearchCounters&>(b));
    EXPECT_EQ(a.executables, b.executables);
    EXPECT_EQ(a.sandbox, b.sandbox);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.configuration, b.configuration);
}

/** The crash-loop cutoff's fast fails reach the --json report. */
TEST(SandboxHarness, ReportsCrashLoopFastFails)
{
    auto jobs = harness::parseConfig(support::yaml::parse(kTridiagDd));
    harness::HarnessOptions options = poolHarnessOptions();
    options.tuner.isolationMaxCrashes = 3;
    options.tuner.faultPlan.rawCrashRate = 0.9;
    auto results = harness::runJobs(jobs, options);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.sandbox.crashedChildren(), 3u);

    auto json = harness::resultsToJson(results);
    const auto& sandbox = json.items()[0].at("sandbox");
    EXPECT_GT(sandbox.at("fast_failed").asLong(), 0);
    EXPECT_EQ(sandbox.at("fast_failed").asLong(),
              static_cast<long>(results[0].result.sandbox.fastFailed));
    EXPECT_EQ(sandbox.at("pool_dispatches").asLong(),
              static_cast<long>(results[0].result.sandbox.poolDispatches));
}

} // namespace
