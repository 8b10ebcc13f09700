/**
 * @file
 * Regenerates the paper's evaluation (Section IV) from one grid of
 * benchmark x algorithm x threshold searches, and checks its claims.
 *
 * Every grid cell is tuned once, on a fresh BenchmarkTuner (a cold
 * campaign), and every table and figure is a view of those cells:
 *
 *   Table II   TV/TC of every benchmark (analysis only)
 *   Table III  kernels x {CB,CM,DD,HR,HC,GA} @ 1e-8
 *   Table IV   applications, whole program in single precision
 *   Table V    applications x {CM,DD,HR,HC,GA} x {1e-3,1e-6,1e-8}
 *   Fig 2a/2b  Table V's DD and GA cells: clusters vs EV / speedup
 *   Fig 3      Table V's cells: speedup vs configurations tested
 *   Insight 1  DD over clusters (Table V's DD @ 1e-8) vs raw variables
 *   Insight 3  GA population x generations sweep @ 1e-6 (the paper's
 *              6 x 8 point is Table V's GA cell)
 *
 * Each verdict-only claim -- one that depends on EV, compile failures,
 * pass/fail or exact quality, never on a timing -- is a named check.
 * The binary prints PASS/FAIL per claim and exits 1 if any fails. A
 * claim that holds only at full problem size is reported SKIP under
 * HPCMIXP_QUICK=1. Flags as in bench_util.h.
 */

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "bench/bench_util.h"
#include "search/delta_debug.h"
#include "search/genetic.h"
#include "support/stats.h"
#include "support/timer.h"

namespace {

using namespace hpcmixp;

const double kThresholds[] = {1e-3, 1e-6, 1e-8};
const std::vector<std::string> kKernelAlgorithms = {"CB", "CM", "DD",
                                                    "HR", "HC", "GA"};
const std::vector<std::string> kAppAlgorithms = {"CM", "DD", "HR", "HC",
                                                 "GA"};

/** One grid cell: a fresh tuner's campaign with one strategy. */
struct Cell {
    std::size_t clusters = 0;
    std::size_t gaBound = 0; ///< population x generations (GA only)
    core::TuneOutcome outcome;

    const search::SearchResult& search() const { return outcome.search; }

    /** The paper's gray box: no result within the time limit. */
    bool noResult() const
    {
        return search().timedOut && !search().foundImprovement;
    }
};

/** The benchmark x algorithm x threshold grid; each cell tunes once. */
class Grid {
  public:
    explicit Grid(core::TunerOptions options) : options_(options) {}

    /** The cell, tuned on first use. GA cells also key on their
     *  population and generations. */
    const Cell& at(const std::string& name, const std::string& algorithm,
                   double threshold, search::GaOptions ga = {})
    {
        auto key = std::make_tuple(name, algorithm, threshold,
                                   ga.population, ga.generations);
        auto [it, fresh] = cells_.try_emplace(key);
        Cell& cell = it->second;
        if (!fresh)
            return cell;
        auto bench = benchmarks::BenchmarkRegistry::instance().create(name);
        core::BenchmarkTuner tuner(*bench, options(threshold));
        cell.clusters = tuner.clusterCount();
        if (algorithm == "GA") {
            search::GeneticSearch strategy(ga);
            cell.gaBound = ga.population * ga.generations;
            cell.outcome = tuner.tune(strategy);
        } else {
            cell.outcome = tuner.tune(algorithm);
        }
        return cell;
    }

    core::TunerOptions options(double threshold) const
    {
        core::TunerOptions options = options_;
        options.threshold = threshold;
        return options;
    }

    std::size_t searches() const { return cells_.size(); }

    template <typename F> void forEach(F f) const
    {
        for (const auto& [key, cell] : cells_)
            f(std::get<1>(key), cell);
    }

  private:
    using Key = std::tuple<std::string, std::string, double, std::size_t,
                           std::size_t>;
    core::TunerOptions options_;
    std::map<Key, Cell> cells_;
};

/** Named verdict-only claims, printed as PASS/FAIL/SKIP lines. */
class Claims {
  public:
    void check(const std::string& name, const std::string& statement,
               bool holds, bool fullSizeOnly = false)
    {
        const char* verdict = "PASS";
        if (fullSizeOnly && support::quickMode())
            verdict = "SKIP";
        else if (!holds) {
            verdict = "FAIL";
            ++failed_;
        }
        lines_.push_back(std::string(verdict) + " " + name + ": " +
                         statement);
    }

    /** Print every verdict; the process exit code. */
    int report() const
    {
        std::cout << "\nClaims (verdict-only; SKIP = full size only)\n";
        for (const auto& line : lines_)
            std::cout << line << "\n";
        std::cout << failed_ << " of " << lines_.size()
                  << " claims failed\n";
        return failed_ == 0 ? 0 : 1;
    }

  private:
    std::vector<std::string> lines_;
    std::size_t failed_ = 0;
};

std::string
count(std::size_t n)
{
    return support::Table::cell(static_cast<long>(n));
}

std::string
speedupCell(const Cell& cell)
{
    return support::Table::cell(cell.outcome.finalSpeedup, 2);
}

/** EV with compile failures (+Ncf) and truncation (*) marks. */
std::string
evCell(const Cell& cell)
{
    std::string s = count(cell.search().evaluated);
    if (cell.search().compileFailures > 0)
        s += " (+" + std::to_string(cell.search().compileFailures) + "cf)";
    return cell.search().timedOut ? s + "*" : s;
}

template <typename F>
bool
all(const std::vector<std::string>& names, F f)
{
    return std::all_of(names.begin(), names.end(), f);
}

} // namespace

int
main(int argc, char** argv)
{
    auto options = benchutil::parseOptions(argc, argv);
    const core::TunerOptions& base = options.tuner;
    std::cout << "HPC-MixPBench paper evaluation: budget "
              << base.budget.maxEvaluations << " evaluations / "
              << base.budget.maxSeconds << " s per search, "
              << base.searchReps << " search reps, " << base.finalReps
              << " final reps, "
              << (support::quickMode() ? "quick" : "full") << " size\n";

    support::WallTimer wall;
    auto& registry = benchmarks::BenchmarkRegistry::instance();
    const auto kernels = registry.kernelNames();
    const auto apps = registry.applicationNames();
    Grid grid(base);
    Claims claims;

    // Table II: analysis only.
    std::cout << "\nTable II: benchmark analysis complexity\n";
    support::Table table2({"benchmark", "kind", "TV", "TC", "reduction"});
    bool tcWithinTv = true;
    bool blackscholesUnclustered = false;
    for (const auto& name : registry.names()) {
        auto bench = registry.create(name);
        auto row = typeforge::complexity(bench->programModel());
        tcWithinTv = tcWithinTv && row.totalClusters <= row.totalVariables;
        if (name == "blackscholes")
            blackscholesUnclustered =
                row.totalClusters == row.totalVariables;
        table2.addRow({name, bench->isKernel() ? "kernel" : "app",
                       count(row.totalVariables), count(row.totalClusters),
                       support::Table::cell(
                           static_cast<double>(row.totalVariables) /
                               static_cast<double>(row.totalClusters),
                           2)});
    }
    benchutil::emit(table2, options);
    claims.check("table2.clustering",
                 "TC <= TV for every benchmark, and blackscholes TC == TV",
                 tcWithinTv && blackscholesUnclustered);

    // The Table III/V blocks: a row per benchmark, a column per
    // algorithm; "-" marks the paper's gray boxes.
    using CellFormat = std::function<std::string(const Cell&)>;
    auto printBlocks = [&](const std::string& table,
                           const std::string& rowHeader,
                           const std::vector<std::string>& names,
                           const std::vector<std::string>& algorithms,
                           double threshold, const std::string& quality,
                           const CellFormat& qualityCell) {
        const std::pair<std::string, CellFormat> blocks[] = {
            {"Speedup", speedupCell},
            {"Evaluated Configs", evCell},
            {quality, qualityCell}};
        for (const auto& [title, format] : blocks) {
            std::cout << "\n" << table << " — " << title << " (threshold "
                      << support::sciCompact(threshold) << ")\n";
            std::vector<std::string> headers{rowHeader};
            headers.insert(headers.end(), algorithms.begin(),
                           algorithms.end());
            support::Table block(headers);
            for (const auto& name : names) {
                std::vector<std::string> row{name};
                for (const auto& algorithm : algorithms) {
                    const Cell& cell = grid.at(name, algorithm, threshold);
                    row.push_back(cell.noResult() ? "-" : format(cell));
                }
                block.addRow(row);
            }
            benchutil::emit(block, options);
        }
    };
    auto ev = [&](const std::string& name, const char* algorithm,
                  double threshold) {
        return grid.at(name, algorithm, threshold).search().evaluated;
    };
    const char* legend = "(- = no result within budget; * = truncated;"
                         " +Ncf = N compile failures)\n";

    printBlocks("Table III", "kernel", kernels, kKernelAlgorithms, 1e-8,
                "Quality (1e-9 units)", [](const Cell& c) {
                    return benchutil::qualityNano(c.outcome.finalQualityLoss);
                });
    std::cout << legend;
    claims.check("table3.ev1",
                 "DD/HR/HC EV = 1 on every kernel except planckian DD",
                 all(kernels, [&](const std::string& k) {
                     return (k == "planckian" || ev(k, "DD", 1e-8) == 1) &&
                            ev(k, "HR", 1e-8) == 1 &&
                            ev(k, "HC", 1e-8) == 1;
                 }));

    // Table IV: profile the all-single configuration, no search.
    std::cout << "\nTable IV: application speedup and quality loss,"
                 " single vs double precision\n";
    support::Table table4(
        {"application", "speedup", "metric", "quality-loss"});
    std::map<std::string, double> singleLoss;
    for (const auto& name : apps) {
        auto bench = registry.create(name);
        core::BenchmarkTuner profiler(*bench, base);
        auto eval = profiler.finalMeasure(
            search::Config::allLowered(profiler.clusterCount()));
        singleLoss[name] = eval.qualityLoss;
        table4.addRow({name, support::Table::cell(eval.speedup, 2),
                       bench->qualityMetric(),
                       support::Table::cellSci(eval.qualityLoss)});
    }
    benchutil::emit(table4, options);
    claims.check("table4.srad-nan",
                 "srad's all-single quality is NaN",
                 std::isnan(singleLoss["srad"]));
    claims.check("table4.kmeans-mcr0", "kmeans' all-single MCR is 0",
                 singleLoss["kmeans"] == 0.0);

    for (double threshold : kThresholds)
        printBlocks("Table V", "application", apps, kAppAlgorithms,
                    threshold, "Quality", [](const Cell& c) {
                        return support::Table::cellSci(
                            c.outcome.finalQualityLoss);
                    });
    std::cout << legend;
    claims.check("table5.ev1-at-1e-3",
                 "DD/HR/HC EV = 1 at 1e-3 on every application except srad",
                 all(apps, [&](const std::string& a) {
                     return a == "srad" ||
                            (ev(a, "DD", 1e-3) == 1 &&
                             ev(a, "HR", 1e-3) == 1 &&
                             ev(a, "HC", 1e-3) == 1);
                 }));
    claims.check(
        "table5.cm-truncated",
        "CM is truncated at the budget on >= 4 of 7 applications at "
        "each threshold",
        std::all_of(std::begin(kThresholds), std::end(kThresholds),
                    [&](double t) {
                        return std::count_if(
                                   apps.begin(), apps.end(),
                                   [&](const std::string& a) {
                                       return grid.at(a, "CM", t)
                                           .search()
                                           .timedOut;
                                   }) >= 4;
                    }));
    claims.check("table5.dd-ev-monotone",
                 "DD EV is non-decreasing from 1e-3 to 1e-6 to 1e-8 on "
                 "every application",
                 all(apps, [&](const std::string& a) {
                     return ev(a, "DD", 1e-3) <= ev(a, "DD", 1e-6) &&
                            ev(a, "DD", 1e-6) <= ev(a, "DD", 1e-8);
                 }));
    auto hrFails = [&](const std::string& a) {
        return grid.at(a, "HR", 1e-8).search().compileFailures > 0;
    };
    claims.check("table5.hr-compile-failures",
                 "HR @ 1e-8 has compile failures on cfd, lavamd and srad, "
                 "none on blackscholes, hotspot or kmeans",
                 all(apps, [&](const std::string& a) {
                     if (a == "cfd" || a == "lavamd" || a == "srad")
                         return hrFails(a);
                     return a == "hpccg" || !hrFails(a);
                 }));
    claims.check("table5.hr-compile-failures-hpccg",
                 "HR @ 1e-8 has compile failures on hpccg", hrFails("hpccg"),
                 true);
    claims.check("table5.dd-ga-always-result",
                 "DD and GA produce a result for every application and "
                 "threshold",
                 all(apps, [&](const std::string& a) {
                     return std::none_of(
                         std::begin(kThresholds), std::end(kThresholds),
                         [&](double t) {
                             return grid.at(a, "DD", t).noResult() ||
                                    grid.at(a, "GA", t).noResult();
                         });
                 }));

    // Fig 2a/2b: DD vs GA views of Table V.
    auto printFig2 = [&](const std::string& title,
                         const std::string& column, auto format) {
        std::cout << "\n" << title << "\n";
        support::Table table(
            {"application", "clusters", "threshold", "algorithm", column});
        for (const auto& name : apps)
            for (double threshold : kThresholds)
                for (const char* algorithm : {"DD", "GA"}) {
                    const Cell& cell = grid.at(name, algorithm, threshold);
                    table.addRow({name, count(cell.clusters),
                                  support::sciCompact(threshold), algorithm,
                                  format(cell)});
                }
        benchutil::emit(table, options);
    };
    printFig2("Figure 2a: clusters vs evaluated configurations (DD vs GA)",
              "evaluated",
              [](const Cell& c) { return count(c.search().evaluated); });
    printFig2("Figure 2b: clusters vs speedup (DD vs GA)", "speedup",
              speedupCell);

    // Fig 3: every Table V cell.
    std::cout << "\nFigure 3: speedup vs configurations tested"
                 " (all search scenarios)\n";
    support::Table fig3({"application", "algorithm", "threshold",
                         "evaluated", "search-seconds", "speedup"});
    std::vector<double> speedups;
    for (const auto& name : apps)
        for (const auto& algorithm : kAppAlgorithms)
            for (double threshold : kThresholds) {
                const Cell& cell = grid.at(name, algorithm, threshold);
                speedups.push_back(cell.outcome.finalSpeedup);
                fig3.addRow(
                    {name, algorithm, support::sciCompact(threshold),
                     count(cell.search().evaluated),
                     support::Table::cell(cell.search().searchSeconds, 2),
                     speedupCell(cell)});
            }
    benchutil::emit(fig3, options);
    auto stats = support::summarize(speedups);
    std::cout << "\nscenarios in the 1.0-1.2x band: "
              << std::count_if(speedups.begin(), speedups.end(),
                               [](double s) { return s >= 1.0 && s <= 1.2; })
              << "/" << speedups.size() << "\n"
              << "speedup distribution: median "
              << support::Table::cell(stats.median, 2) << ", mean "
              << support::Table::cell(stats.mean, 2) << " +- "
              << support::Table::cell(stats.stddev, 2) << ", max "
              << support::Table::cell(stats.max, 2) << "\n";

    // Insight 1: the clusters row is Table V's DD @ 1e-8 cell; raw
    // variables are the only problem on which DD can split a cluster.
    std::cout << "\nAblation: DD with vs without cluster information"
                 " (threshold 1e-8)\n";
    support::Table clustering({"application", "mode", "sites", "evaluated",
                               "compile-fails", "speedup"});
    bool clustersCompile = true;
    std::map<std::string, std::size_t> variableFails;
    for (const auto& name : apps) {
        const Cell& clustered = grid.at(name, "DD", 1e-8);
        clustersCompile =
            clustersCompile && clustered.search().compileFailures == 0;
        clustering.addRow(
            {name, "clusters", count(clustered.clusters),
             count(clustered.search().evaluated),
             count(clustered.search().compileFailures),
             speedupCell(clustered)});

        auto bench = registry.create(name);
        core::BenchmarkTuner variables(*bench, grid.options(1e-8));
        search::DeltaDebugSearch dd;
        auto raw = search::runSearch(variables.variableProblem(), dd,
                                     base.budget);
        double speedup = 1.0;
        if (raw.foundImprovement)
            speedup = variables
                          .finalMeasure(variables.toClusterConfig(raw.best))
                          .speedup;
        variableFails[name] = raw.compileFailures;
        clustering.addRow({name, "variables",
                           count(variables.variableCount()),
                           count(raw.evaluated), count(raw.compileFailures),
                           support::Table::cell(speedup, 2)});
    }
    benchutil::emit(clustering, options);
    claims.check("ablation.clusters-compile",
                 "DD over clusters has 0 compile failures everywhere",
                 clustersCompile);
    claims.check("ablation.variables-compile-failures",
                 "DD over raw variables has compile failures on cfd, "
                 "lavamd and srad",
                 variableFails["cfd"] > 0 && variableFails["lavamd"] > 0 &&
                     variableFails["srad"] > 0);
    claims.check("ablation.variables-compile-failures-hpccg",
                 "DD over raw variables has compile failures on hpccg",
                 variableFails["hpccg"] > 0, true);

    // Insight 3: GA sweep through tuner.tune().
    std::cout << "\nAblation: GA population/generation sweep"
                 " (threshold 1e-6)\n";
    support::Table gaSweep({"application", "population", "generations",
                            "evaluated", "speedup"});
    for (const char* name : {"hotspot", "lavamd"})
        for (std::size_t population : {4, 6, 10})
            for (std::size_t generations : {2, 4, 8}) {
                search::GaOptions ga;
                ga.population = population;
                ga.generations = generations;
                const Cell& cell = grid.at(name, "GA", 1e-6, ga);
                gaSweep.addRow(
                    {name, count(population), count(generations),
                     count(cell.search().evaluated), speedupCell(cell)});
            }
    benchutil::emit(gaSweep, options);
    bool gaBounded = true;
    grid.forEach([&](const std::string& algorithm, const Cell& cell) {
        if (algorithm == "GA")
            gaBounded = gaBounded && cell.search().evaluated <= cell.gaBound;
    });
    claims.check("ga.ev-bounded",
                 "GA EV <= population x generations in every GA cell",
                 gaBounded);

    std::cout << "\ngrid: " << grid.searches() + apps.size()
              << " searches and " << apps.size()
              << " all-single profiles in "
              << support::Table::cell(wall.seconds(), 1) << " s\n";
    return claims.report();
}
