/**
 * @file
 * google-benchmark microbenchmarks: throughput of every kernel and
 * application in the suite with every bound knob at one rung — double,
 * single, half or bfloat16. The double/single rows are the raw runtime
 * samples behind the speedup columns of Tables III-V; the half/bf16
 * rows give the per-rung cost of the emulated 16-bit formats.
 */

#include <string>
#include <utility>

#include <benchmark/benchmark.h>

#include "benchmarks/benchmark.h"
#include "benchmarks/registry.h"

namespace {

using hpcmixp::benchmarks::Benchmark;
using hpcmixp::benchmarks::BenchmarkRegistry;
using hpcmixp::benchmarks::PrecisionMap;
using hpcmixp::runtime::Precision;

/** Set every bound knob of a benchmark to precision @p p. */
PrecisionMap
uniform(const Benchmark& bench, Precision p)
{
    PrecisionMap pm;
    for (const auto& var : bench.programModel().variables())
        if (!var.bindKey.empty())
            pm.set(var.bindKey, p);
    return pm;
}

void
runAt(benchmark::State& state, const std::string& name, Precision p)
{
    auto bench = BenchmarkRegistry::instance().create(name);
    PrecisionMap pm = uniform(*bench, p);
    for (auto _ : state) {
        auto out = bench->run(pm);
        benchmark::DoNotOptimize(out.values.data());
    }
}

const bool kRegistered = [] {
    const std::pair<const char*, Precision> rungs[] = {
        {"double", Precision::Float64},
        {"single", Precision::Float32},
        {"half", Precision::Float16},
        {"bf16", Precision::BFloat16},
    };
    for (const auto& name : BenchmarkRegistry::instance().names())
        for (const auto& [suffix, p] : rungs)
            benchmark::RegisterBenchmark((name + "/" + suffix).c_str(),
                                         runAt, name, p)
                ->Unit(benchmark::kMillisecond);
    return true;
}();

} // namespace

BENCHMARK_MAIN();
