/**
 * @file
 * Tests for the prepare/execute evaluation pipeline.
 *
 * The split must be a pure refactoring of the timed region: for every
 * benchmark and precision assignment, executing a cached plan against a
 * reused workspace produces bit-identical output to a fresh
 * uncached-plan run and to the legacy run() entry point. Workspace
 * reuse across configurations must never leak state between runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/benchmark.h"
#include "benchmarks/registry.h"
#include "runtime/workspace.h"

namespace {

using hpcmixp::benchmarks::Benchmark;
using hpcmixp::benchmarks::BenchmarkRegistry;
using hpcmixp::benchmarks::CachedInput;
using hpcmixp::benchmarks::PrecisionMap;
using hpcmixp::benchmarks::PrepareOptions;
using hpcmixp::benchmarks::RunOutput;
using hpcmixp::benchmarks::RunPlan;
using hpcmixp::runtime::Buffer;
using hpcmixp::runtime::Precision;
using hpcmixp::runtime::RunWorkspace;

/** Sorted unique bind keys of a benchmark's model variables. */
std::vector<std::string>
bindKeysOf(const Benchmark& bench)
{
    std::set<std::string> keys;
    const auto& program = bench.programModel();
    for (hpcmixp::model::VarId v : program.realVariables()) {
        const auto& var = program.variable(v);
        if (!var.bindKey.empty())
            keys.insert(var.bindKey);
    }
    return {keys.begin(), keys.end()};
}

/** All-double, all-float, and alternating assignments for @p bench. */
std::vector<PrecisionMap>
sampleMaps(const Benchmark& bench)
{
    std::vector<std::string> keys = bindKeysOf(bench);
    std::vector<PrecisionMap> maps;
    maps.emplace_back();

    PrecisionMap allFloat;
    for (const std::string& k : keys)
        allFloat.set(k, Precision::Float32);
    maps.push_back(std::move(allFloat));

    PrecisionMap mixed;
    for (std::size_t i = 0; i < keys.size(); i += 2)
        mixed.set(keys[i], Precision::Float32);
    maps.push_back(std::move(mixed));
    return maps;
}

void
expectBitIdentical(const RunOutput& a, const RunOutput& b,
                   const std::string& what)
{
    ASSERT_EQ(a.values.size(), b.values.size()) << what;
    for (std::size_t i = 0; i < a.values.size(); ++i) {
        // EXPECT_EQ (not NEAR): the pipeline split must not change a
        // single bit. NaN == NaN fails, so compare representations.
        if (std::isnan(a.values[i]) && std::isnan(b.values[i]))
            continue;
        ASSERT_EQ(a.values[i], b.values[i])
            << what << " at index " << i;
    }
}

TEST(EvalPipeline, ExecuteMatchesRunForEveryBenchmark)
{
    RunWorkspace sharedWs;
    for (const std::string& name :
         BenchmarkRegistry::instance().names()) {
        auto bench = BenchmarkRegistry::instance().create(name);
        for (const PrecisionMap& pm : sampleMaps(*bench)) {
            RunOutput legacy = bench->run(pm);

            RunPlan plan = bench->prepare(pm);
            RunOutput cached = bench->execute(plan, sharedWs);
            expectBitIdentical(legacy, cached,
                               name + ": cached plan + shared ws");

            PrepareOptions uncached;
            uncached.reuseInputCache = false;
            RunPlan freshPlan = bench->prepare(pm, uncached);
            RunWorkspace freshWs;
            RunOutput fresh = bench->execute(freshPlan, freshWs);
            expectBitIdentical(legacy, fresh,
                               name + ": fresh plan + fresh ws");
        }
    }
}

TEST(EvalPipeline, RepeatedExecuteIsIdempotent)
{
    RunWorkspace ws;
    for (const std::string& name :
         BenchmarkRegistry::instance().names()) {
        auto bench = BenchmarkRegistry::instance().create(name);
        PrecisionMap pm = sampleMaps(*bench)[2];
        RunPlan plan = bench->prepare(pm);
        RunOutput first = bench->execute(plan, ws);
        RunOutput second = bench->execute(plan, ws);
        expectBitIdentical(first, second, name + ": rep 1 vs rep 2");
    }
}

// Reusing one workspace across configurations A -> B -> A must leave no
// trace of B in the second A run.
TEST(EvalPipeline, WorkspaceReuseLeaksNoStateAcrossConfigs)
{
    RunWorkspace ws;
    for (const std::string& name :
         BenchmarkRegistry::instance().names()) {
        auto bench = BenchmarkRegistry::instance().create(name);
        std::vector<PrecisionMap> maps = sampleMaps(*bench);
        RunPlan planA = bench->prepare(maps[0]);
        RunPlan planB = bench->prepare(maps[1]);

        RunOutput firstA = bench->execute(planA, ws);
        (void)bench->execute(planB, ws);
        RunOutput secondA = bench->execute(planA, ws);
        expectBitIdentical(firstA, secondA,
                           name + ": A after B differs from A");
    }
}

// A shared benchmark (and its input cache) must be safe to execute from
// several threads at once, each with its own workspace — the shape the
// tuner uses under --search-jobs.
TEST(EvalPipeline, ConcurrentExecuteSharesInputCache)
{
    auto bench = BenchmarkRegistry::instance().create("planckian");
    PrecisionMap pm = sampleMaps(*bench)[1];

    PrepareOptions uncached;
    uncached.reuseInputCache = false;
    RunWorkspace serialWs;
    RunPlan serialPlan = bench->prepare(pm, uncached);
    RunOutput expected = bench->execute(serialPlan, serialWs);

    constexpr int kThreads = 4;
    std::vector<RunOutput> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            RunWorkspace ws;
            RunPlan plan = bench->prepare(pm);
            for (int rep = 0; rep < 3; ++rep)
                results[static_cast<std::size_t>(t)] =
                    bench->execute(plan, ws);
        });
    }
    for (std::thread& th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        expectBitIdentical(expected, results[static_cast<std::size_t>(t)],
                           "thread " + std::to_string(t));
}

TEST(EvalPipeline, UnknownBindKeyDefaultsToFloat64)
{
    // Instantiating any benchmark declares its model's bind keys.
    auto bench = BenchmarkRegistry::instance().create("innerprod");
    PrecisionMap pm;
    pm.set("x", Precision::Float32);
    EXPECT_EQ(pm.get("x"), Precision::Float32);
    // A key no model variable declares: logged once, then Float64.
    EXPECT_EQ(pm.get("definitely-not-a-knob"), Precision::Float64);
    EXPECT_EQ(pm.get("definitely-not-a-knob"), Precision::Float64);
}

// The arena guarantee: re-acquiring a slot at or below its high-water
// size must not move the allocation.
TEST(EvalPipeline, WorkspaceSlotsAreStableAcrossReuse)
{
    RunWorkspace ws;
    hpcmixp::runtime::Buffer& big =
        ws.zeroed(0, 4096, Precision::Float64);
    const double* data = big.as<double>().data();

    ws.zeroed(0, 64, Precision::Float64);
    hpcmixp::runtime::Buffer& regrown =
        ws.zeroed(0, 4096, Precision::Float64);
    EXPECT_EQ(regrown.as<double>().data(), data);

    // Acquiring later slots must not invalidate earlier ones.
    hpcmixp::runtime::Buffer& first =
        ws.zeroed(1, 128, Precision::Float32);
    const float* firstData = first.as<float>().data();
    for (std::size_t slot = 2; slot < 32; ++slot)
        ws.zeroed(slot, 128, Precision::Float32);
    EXPECT_EQ(first.as<float>().data(), firstData);
}

/** The raw bytes of @p buffer's elements, at its own precision. */
std::vector<unsigned char>
bytesOf(const Buffer& buffer)
{
    const void* data = nullptr;
    switch (buffer.precision()) {
    case Precision::BFloat16:
        data = buffer.as<hpcmixp::runtime::BFloat16>().data();
        break;
    case Precision::Float16:
        data = buffer.as<hpcmixp::runtime::Half>().data();
        break;
    case Precision::Float32:
        data = buffer.as<float>().data();
        break;
    case Precision::Float64:
        data = buffer.as<double>().data();
        break;
    }
    std::vector<unsigned char> bytes(buffer.bytes());
    if (!bytes.empty())
        std::memcpy(bytes.data(), data, bytes.size());
    return bytes;
}

// The Float64 view is the source storage itself, not a copy, and every
// cached view is bit for bit the uncached conversion — including values
// that round, overflow or go subnormal at the lower rungs.
TEST(CachedInputViews, Float64ViewIsTheSourceAndEveryViewMatchesConvert)
{
    const std::vector<double> values = {
        0.0, -0.0, 1.0 / 3.0, -2.5e-3, 6.1e-5, 3.0e-8, 65504.0, 1.0e6,
        -7.0e40, 1.0e-320, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    CachedInput input;
    input = std::vector<double>(values);
    ASSERT_EQ(input.size(), values.size());

    const Buffer& f64 = input.view(Precision::Float64);
    EXPECT_EQ(f64.as<double>().data(), input.doubles().data());
    ASSERT_EQ(input.doubles().size(), values.size());
    EXPECT_EQ(std::memcmp(input.doubles().data(), values.data(),
                          values.size() * sizeof(double)),
              0);

    for (Precision p : {Precision::Float64, Precision::Float32,
                        Precision::Float16, Precision::BFloat16}) {
        const Buffer& view = input.view(p);
        EXPECT_EQ(&input.view(p), &view) << "view is converted once";
        Buffer fresh = input.convert(p);
        EXPECT_EQ(view.precision(), p);
        EXPECT_EQ(view.size(), values.size());
        EXPECT_EQ(bytesOf(view), bytesOf(fresh))
            << hpcmixp::runtime::precisionName(p);
    }
}

} // namespace
