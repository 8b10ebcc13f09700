/**
 * @file
 * Measurement: the cost of process isolation (DESIGN.md §13, §15).
 *
 * For each benchmark, builds one tuner per isolation mode from
 * identical options — in-process (--isolation=none), a fresh one-job
 * worker per evaluation (--isolation=fork: fork + prepare + reap per
 * attempt) and persistent pre-forked workers fed over shared-memory
 * rings (--isolation=pool) — and times direct evaluateClusterConfig calls
 * over the benchmark's distinct executables: every level combination
 * of the clusters that bind a runtime knob, the others at double. A
 * search measures each executable once (configurations that differ
 * only in cold clusters share the measurement), so a campaign forks
 * only a handful of times and its wall time no longer shows the fork
 * tax; direct calls do. The none and fork calls run in alternating
 * pairs (none then fork, then fork then none) so machine drift lands
 * on both sides. All three modes are fault-free and must agree on
 * every executable's verdict. Two headline checks:
 *  - fork overhead: at reps >= 3 on application benchmarks, the
 *    summed fork wall time stays under 10% above in-process — the
 *    fork tax is paid once per evaluation while the program runs reps
 *    times;
 *  - spawn amortization: pool dispatch stays at or under half the
 *    fork spawn cost per evaluation.
 * --budget N sets the none/fork pairs per benchmark (rounded up to
 * whole rounds over the executables).
 *
 * Extra flag beyond the common set:
 *   --json F   write the full result document to F
 *              (default BENCH_worker_pool.json)
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "search/driver.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/timer.h"

namespace {

using namespace hpcmixp;

struct IsolationRun {
    std::string benchmark;
    std::size_t executables = 0; ///< distinct executables timed
    std::size_t pairs = 0;     ///< none/fork pairs (= pool calls)
    double noneSeconds = 0.0;  ///< summed in-process evaluation time
    double forkSeconds = 0.0;  ///< summed fork-isolated evaluation time
    double overheadPct = 0.0;  ///< fork over none, percent
    double forkSpawnMs = 0.0;  ///< mean fork+reap overhead per eval
    double poolSpawnMs = 0.0;  ///< mean ring-dispatch overhead per eval
    double ratio = 0.0;        ///< pool / fork (lower is better)
    std::size_t poolForks = 0; ///< actual fork() calls under the pool
    bool verdictsMatch = true; ///< all three modes agree per executable
};

/** One configuration per distinct executable of @p tuner: every level
 *  up to @p maxLevel over its hot clusters, cold clusters at double. */
std::vector<search::Config>
distinctExecutables(const core::BenchmarkTuner& tuner,
                    std::uint8_t maxLevel)
{
    std::vector<search::Config> out{search::Config(tuner.clusterCount())};
    for (std::size_t c = 0; c < tuner.clusterCount(); ++c) {
        if (!tuner.hotClusters()[c])
            continue;
        const std::size_t base = out.size();
        for (std::uint8_t level = 1; level <= maxLevel; ++level) {
            for (std::size_t i = 0; i < base; ++i) {
                search::Config cfg = out[i];
                cfg.setLevel(c, level);
                out.push_back(std::move(cfg));
            }
        }
    }
    return out;
}

double
rate(std::size_t count, double seconds)
{
    return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hpcmixp;
    auto options = benchutil::parseOptions(argc, argv, 300);
    support::CommandLine cl(argc, argv);
    std::string jsonPath =
        cl.getString("json", "BENCH_worker_pool.json");

    // Application benchmarks, not microkernels: per-evaluation
    // runtime must dwarf the ~ms fork tax for the overhead number to
    // mean anything — a kernel finishing in 2 ms under-reps would
    // show 100% overhead for 2 ms of absolute cost.
    std::vector<std::string> names{"kmeans", "hotspot", "lavamd"};
    if (support::quickMode())
        names = {"kmeans"};

    support::Table table({"benchmark", "executables", "pairs",
                          "ev/s none", "ev/s fork", "fork overhead %",
                          "fork spawn ms", "pool dispatch ms",
                          "pool/fork", "pool forks", "verdicts match"});
    std::vector<IsolationRun> runs;

    for (const std::string& name : names) {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create(name);

        // One tuner per mode: isolation is fixed at construction.
        auto tunerFor = [&](support::IsolationMode isolation) {
            core::TunerOptions modeOptions = options.tuner;
            modeOptions.isolation = isolation;
            return std::make_unique<core::BenchmarkTuner>(*benchmark,
                                                          modeOptions);
        };
        auto none = tunerFor(support::IsolationMode::None);
        auto forked = tunerFor(support::IsolationMode::Fork);
        auto pooled = tunerFor(support::IsolationMode::Pool);
        const std::vector<search::Config> executables =
            distinctExecutables(*none, static_cast<std::uint8_t>(
                                           options.tuner.ladder.maxLevel()));
        const std::size_t reps = options.tuner.searchReps;
        const std::size_t budget = std::max<std::size_t>(
            options.tuner.budget.maxEvaluations, 1);
        const std::size_t rounds =
            (budget + executables.size() - 1) / executables.size();

        IsolationRun run;
        run.benchmark = name;
        run.executables = executables.size();
        auto timed = [&](core::BenchmarkTuner& tuner,
                         const search::Config& cfg, double& seconds) {
            support::WallTimer timer;
            search::Evaluation eval = tuner.evaluateClusterConfig(cfg, reps);
            seconds += timer.seconds();
            return eval.status;
        };
        // Pool calls only feed the dispatch-overhead statistics.
        double poolSeconds = 0.0;
        for (std::size_t round = 0; round < rounds; ++round) {
            for (const search::Config& cfg : executables) {
                search::EvalStatus inProcess, inFork;
                if (run.pairs % 2 == 0) {
                    inProcess = timed(*none, cfg, run.noneSeconds);
                    inFork = timed(*forked, cfg, run.forkSeconds);
                } else {
                    inFork = timed(*forked, cfg, run.forkSeconds);
                    inProcess = timed(*none, cfg, run.noneSeconds);
                }
                search::EvalStatus inPool = timed(*pooled, cfg, poolSeconds);
                run.verdictsMatch = run.verdictsMatch &&
                                    inProcess == inFork && inFork == inPool;
                ++run.pairs;
            }
        }

        const core::SandboxStats forkStats = forked->sandboxStats();
        const core::SandboxStats poolStats = pooled->sandboxStats();
        run.overheadPct =
            run.noneSeconds > 0.0
                ? (run.forkSeconds / run.noneSeconds - 1.0) * 100.0
                : 0.0;
        run.forkSpawnMs = forkStats.spawnOverheadMeanSeconds * 1e3;
        run.poolSpawnMs = poolStats.spawnOverheadMeanSeconds * 1e3;
        run.ratio = run.forkSpawnMs > 0.0
                        ? run.poolSpawnMs / run.forkSpawnMs
                        : 0.0;
        run.poolForks = poolStats.forks;
        runs.push_back(run);

        table.addRow(
            {name,
             support::Table::cell(static_cast<long>(run.executables)),
             support::Table::cell(static_cast<long>(run.pairs)),
             support::Table::cell(rate(run.pairs, run.noneSeconds), 1),
             support::Table::cell(rate(run.pairs, run.forkSeconds), 1),
             support::Table::cell(run.overheadPct, 1),
             support::Table::cell(run.forkSpawnMs, 3),
             support::Table::cell(run.poolSpawnMs, 3),
             support::Table::cell(run.ratio, 3),
             support::Table::cell(static_cast<long>(run.poolForks)),
             run.verdictsMatch ? "yes" : "NO"});
    }

    std::cout << "Isolation cost, alternating none/fork evaluations "
                 "over each benchmark's distinct executables (reps "
              << options.tuner.searchReps << ")\n";
    benchutil::emit(table, options);

    // ---- JSON -------------------------------------------------------

    using support::json::Value;
    Value doc = Value::object();
    doc.set("reps",
            Value::number(
                static_cast<double>(options.tuner.searchReps)));
    Value rows = Value::array();
    for (const IsolationRun& run : runs) {
        Value row = Value::object();
        row.set("benchmark", Value::string(run.benchmark));
        row.set("executables",
                Value::number(static_cast<double>(run.executables)));
        row.set("pairs", Value::number(static_cast<double>(run.pairs)));
        row.set("none_seconds", Value::number(run.noneSeconds));
        row.set("fork_seconds", Value::number(run.forkSeconds));
        row.set("fork_overhead_pct", Value::number(run.overheadPct));
        row.set("fork_spawn_ms", Value::number(run.forkSpawnMs));
        row.set("pool_dispatch_ms", Value::number(run.poolSpawnMs));
        row.set("pool_over_fork", Value::number(run.ratio));
        row.set("pool_forks",
                Value::number(static_cast<double>(run.poolForks)));
        row.set("verdicts_match", Value::boolean(run.verdictsMatch));
        rows.push(std::move(row));
    }
    doc.set("kernels", std::move(rows));

    std::ofstream out(jsonPath);
    if (!out)
        support::fatal("cannot open --json output file");
    out << doc.dump(2) << '\n';
    return 0;
}
