/**
 * @file
 * Measurement: the persistent memo-cache and the cache-racing
 * portfolio.
 *
 * For every benchmark and strategy, tunes twice from one baseline with
 * a fresh on-disk memo store — a cold campaign that executes and
 * publishes everything, then a warm campaign over the reopened store —
 * and reports EV and evaluation throughput for both. The warm column
 * is the headline: a warm rerun must re-execute *nothing* (EV 0, all
 * memo hits). Then all strategies race as a portfolio against one
 * shared cold store; the portfolio is honest when its wall clock beats
 * the slowest solo strategy while its winner's configuration is no
 * worse than the best solo one.
 *
 * Extra flag beyond the common set:
 *   --json F   write the full result document to F
 *              (default BENCH_memo_cache.json)
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "support/json.h"
#include "support/logging.h"

namespace {

using namespace hpcmixp;

/** Cold/warm measurement of one strategy on one benchmark. */
struct MemoRun {
    std::string benchmark;
    std::string strategy;
    std::size_t evCold = 0;
    double coldSeconds = 0.0;
    double coldEvalsPerSec = 0.0;
    std::size_t evWarm = 0;
    std::size_t warmMemoHits = 0;
    double warmSeconds = 0.0;
    double warmQueriesPerSec = 0.0;
    double speedup = 1.0; ///< cold winner, final protocol
};

/** Portfolio-vs-singles measurement on one benchmark. */
struct PortfolioRun {
    std::string benchmark;
    std::string winner;           ///< best-at-budget winner strategy
    double bestWallSeconds = 0.0; ///< best-at-budget portfolio wall
    double raceWallSeconds = 0.0; ///< first-to-finish portfolio wall
    double winnerSpeedup = 1.0;   ///< winner config, final protocol
    double bestSingleSpeedup = 1.0; ///< best solo, final protocol
    double slowestSingleSeconds = 0.0;
    bool beatsSlowest = false;  ///< race wall < slowest solo search
    bool configNoWorse = false; ///< winner config ≥ best solo config
};

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
        cl.getString("json", "BENCH_memo_cache.json");

    // Kernels with enough search space that a solo campaign takes
    // meaningful wall-clock time; on tiny spaces (e.g. iccg, TC = 2)
    // every strategy finishes in single-digit milliseconds and the
    // portfolio-vs-solo wall comparison is decided by timer jitter.
    std::vector<std::string> names{"tridiag", "eos", "innerprod"};
    std::vector<std::string> strategies{"CB", "CM", "DD",
                                        "GA", "HR", "HC"};
    if (support::quickMode()) {
        names = {"tridiag"};
        strategies = {"CB", "DD", "GA"};
    }

    namespace fs = std::filesystem;
    fs::path storeRoot =
        fs::temp_directory_path() / "hpcmixp_bench_memo_cache";
    fs::remove_all(storeRoot);

    std::vector<MemoRun> runs;
    std::vector<PortfolioRun> portfolios;
    support::Table table({"benchmark", "strategy", "EV cold",
                          "ev/s cold", "EV warm", "memo", "q/s warm",
                          "speedup"});

    for (const std::string& name : names) {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create(name);
        // A tuner times each executable once, so every cold campaign
        // gets a fresh one: a tuner that already ran another strategy
        // would answer its configurations without executing them.
        auto freshTuner = [&] {
            return std::make_unique<core::BenchmarkTuner>(*benchmark,
                                                          options.tuner);
        };

        // Solo cold/warm pairs, one private store per strategy so no
        // strategy inherits another's published evaluations.
        double slowestSingle = 0.0;
        // Until a solo final speedup beats 1.0, the best solo answer
        // is the all-double program (set from the first tuner).
        double bestSingleFinal = 1.0;
        search::Config bestSingleConfig;
        for (const std::string& code : strategies) {
            fs::path dir = storeRoot / name / code;
            MemoRun run;
            run.benchmark = name;
            run.strategy = code;

            auto tuner = freshTuner();
            if (bestSingleConfig.size() == 0)
                bestSingleConfig = search::Config(tuner->clusterCount());
            tuner->setMemoStore(
                std::make_shared<search::MemoStore>(dir.string()));
            core::TuneOutcome cold = tuner->tune(code);
            run.evCold = cold.search.evaluated;
            run.coldSeconds = cold.search.searchSeconds;
            run.coldEvalsPerSec = rate(run.evCold, run.coldSeconds);
            run.speedup = cold.finalSpeedup;

            // Reopen the store from disk, as a later process would.
            tuner->setMemoStore(
                std::make_shared<search::MemoStore>(dir.string()));
            core::TuneOutcome warm = tuner->tune(code);
            run.evWarm = warm.search.evaluated;
            run.warmMemoHits = warm.search.memoHits;
            run.warmSeconds = warm.search.searchSeconds;
            run.warmQueriesPerSec =
                rate(run.warmMemoHits + run.evWarm, run.warmSeconds);

            slowestSingle =
                std::max(slowestSingle, run.coldSeconds);
            if (cold.finalSpeedup > bestSingleFinal) {
                bestSingleFinal = cold.finalSpeedup;
                bestSingleConfig = cold.clusterConfig;
            }
            runs.push_back(run);
            table.addRow(
                {name, code,
                 support::Table::cell(static_cast<long>(run.evCold)),
                 support::Table::cell(run.coldEvalsPerSec, 1),
                 support::Table::cell(static_cast<long>(run.evWarm)),
                 support::Table::cell(
                     static_cast<long>(run.warmMemoHits)),
                 support::Table::cell(run.warmQueriesPerSec, 1),
                 support::Table::cell(run.speedup, 2)});
        }

        // Best-at-budget portfolio: all strategies run to completion
        // concurrently against one shared cold store, so every
        // execution any entrant performs is a memo hit for the rest.
        // The quality claim comes from this mode, judged by the final
        // serial protocol — speedups measured *during* the race are
        // contention-inflated and only rank configs against each
        // other.
        fs::path bestDir = storeRoot / name / "portfolio-best";
        auto tuner = freshTuner();
        tuner->setMemoStore(
            std::make_shared<search::MemoStore>(bestDir.string()));
        core::PortfolioOutcome best = tuner->tunePortfolio(
            strategies, search::PortfolioMode::Best);

        // First-to-finish portfolio on another cold store: the
        // latency claim.
        fs::path raceDir = storeRoot / name / "portfolio-race";
        auto raceTuner = freshTuner();
        raceTuner->setMemoStore(
            std::make_shared<search::MemoStore>(raceDir.string()));
        core::PortfolioOutcome race = raceTuner->tunePortfolio(
            strategies, search::PortfolioMode::Race);

        PortfolioRun pf;
        pf.benchmark = name;
        pf.winner = best.winnerCode;
        pf.bestWallSeconds = best.portfolio.wallSeconds;
        pf.raceWallSeconds = race.portfolio.wallSeconds;
        pf.winnerSpeedup = best.finalSpeedup;
        pf.bestSingleSpeedup = bestSingleFinal;
        pf.slowestSingleSeconds = slowestSingle;
        pf.beatsSlowest = pf.raceWallSeconds < slowestSingle;
        // "No worse": the same configuration wins outright. Different
        // configurations are judged on a *paired* re-measurement —
        // the solo number above is the max over six separate sessions,
        // which timing noise inflates, so comparing it against the
        // portfolio's single session would be biased. Back-to-back
        // final-protocol runs of both configs put them on one clock.
        pf.configNoWorse =
            best.clusterConfig == bestSingleConfig;
        if (!pf.configNoWorse) {
            search::Evaluation winnerEval =
                tuner->finalMeasure(best.clusterConfig);
            search::Evaluation soloEval =
                tuner->finalMeasure(bestSingleConfig);
            pf.winnerSpeedup = winnerEval.speedup;
            pf.bestSingleSpeedup = soloEval.speedup;
            pf.configNoWorse =
                pf.winnerSpeedup >= 0.95 * pf.bestSingleSpeedup;
        }
        portfolios.push_back(pf);
    }

    std::cout << "Memo-cache cold/warm campaigns (budget "
              << options.tuner.budget.maxEvaluations << ")\n";
    benchutil::emit(table, options);

    support::Table pfTable({"benchmark", "winner", "best wall s",
                            "race wall s", "slowest solo s", "beats",
                            "speedup", "best solo", "no worse"});
    for (const PortfolioRun& pf : portfolios)
        pfTable.addRow(
            {pf.benchmark, pf.winner,
             support::Table::cell(pf.bestWallSeconds, 3),
             support::Table::cell(pf.raceWallSeconds, 3),
             support::Table::cell(pf.slowestSingleSeconds, 3),
             pf.beatsSlowest ? "yes" : "NO",
             support::Table::cell(pf.winnerSpeedup, 2),
             support::Table::cell(pf.bestSingleSpeedup, 2),
             pf.configNoWorse ? "yes" : "NO"});
    std::cout << "\nPortfolio race vs solo strategies\n";
    benchutil::emit(pfTable, options);

    using support::json::Value;
    Value doc = Value::object();
    doc.set("budget",
            Value::number(static_cast<double>(
                options.tuner.budget.maxEvaluations)));
    Value rows = Value::array();
    for (const MemoRun& run : runs) {
        Value row = Value::object();
        row.set("benchmark", Value::string(run.benchmark));
        row.set("strategy", Value::string(run.strategy));
        row.set("ev_cold",
                Value::number(static_cast<double>(run.evCold)));
        row.set("cold_seconds", Value::number(run.coldSeconds));
        row.set("cold_evals_per_sec",
                Value::number(run.coldEvalsPerSec));
        row.set("ev_warm",
                Value::number(static_cast<double>(run.evWarm)));
        row.set("warm_memo_hits",
                Value::number(static_cast<double>(run.warmMemoHits)));
        row.set("warm_seconds", Value::number(run.warmSeconds));
        row.set("warm_queries_per_sec",
                Value::number(run.warmQueriesPerSec));
        row.set("speedup", Value::number(run.speedup));
        rows.push(std::move(row));
    }
    doc.set("strategies", std::move(rows));
    Value pfRows = Value::array();
    for (const PortfolioRun& pf : portfolios) {
        Value row = Value::object();
        row.set("benchmark", Value::string(pf.benchmark));
        row.set("winner", Value::string(pf.winner));
        row.set("best_wall_seconds",
                Value::number(pf.bestWallSeconds));
        row.set("race_wall_seconds",
                Value::number(pf.raceWallSeconds));
        row.set("slowest_single_seconds",
                Value::number(pf.slowestSingleSeconds));
        row.set("beats_slowest", Value::boolean(pf.beatsSlowest));
        row.set("winner_speedup", Value::number(pf.winnerSpeedup));
        row.set("best_single_speedup",
                Value::number(pf.bestSingleSpeedup));
        row.set("config_no_worse", Value::boolean(pf.configNoWorse));
        pfRows.push(std::move(row));
    }
    doc.set("portfolio", std::move(pfRows));
    std::ofstream out(jsonPath);
    if (!out)
        support::fatal("cannot open --json output file");
    out << doc.dump(2) << '\n';

    fs::remove_all(storeRoot);
    return 0;
}
