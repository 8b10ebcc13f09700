#include "harness/analysis.h"

#include "search/delta_debug.h"
#include "search/genetic.h"
#include "support/logging.h"
#include "support/string_util.h"

namespace hpcmixp::harness {

using support::fatal;
using support::strCat;
using support::toLower;

std::string
FloatsmithAnalysis::algorithmCode(const std::string& spelling)
{
    std::string s = toLower(spelling);
    if (s == "cb" || s == "combinational" || s == "brute")
        return "CB";
    if (s == "cm" || s == "compositional")
        return "CM";
    if (s == "dd" || s == "ddebug" || s == "delta-debugging" ||
        s == "delta_debug")
        return "DD";
    if (s == "hr" || s == "hierarchical")
        return "HR";
    if (s == "hc" || s == "hierarchical-compositional" ||
        s == "hier_comp")
        return "HC";
    if (s == "ga" || s == "genetic")
        return "GA";
    fatal(strCat("unknown search algorithm '", spelling, "'"));
}

namespace {

/** Parse a positive integer extra-arg, keeping @p fallback if absent. */
std::size_t
sizeArg(const ExtraArgs& args, const char* name, std::size_t fallback)
{
    auto it = args.find(name);
    if (it == args.end())
        return fallback;
    long v = support::parseLong(it->second, name);
    if (v <= 0)
        fatal(strCat("analysis: '", name, "' must be positive"));
    return static_cast<std::size_t>(v);
}

/** Copy the per-search accounting into an analysis result. */
void
fillSearchCounters(AnalysisResult& result,
                   const search::SearchResult& searchResult)
{
    result.evaluated = searchResult.evaluated;
    result.compileFailures = searchResult.compileFailures;
    result.cacheHits = searchResult.cacheHits;
    result.memoHits = searchResult.memoHits;
    result.retries = searchResult.retries;
    result.deadlineMisses = searchResult.deadlineMisses;
    result.quarantined = searchResult.quarantined;
    result.steals = searchResult.steals;
    result.timedOut = searchResult.timedOut;
}

/** Copy the tuner's executable count and sandbox accounting into an
 *  analysis result. */
void
fillTunerStats(AnalysisResult& result, const core::BenchmarkTuner& tuner)
{
    result.executables = tuner.executableCount();
    const core::SandboxStats stats = tuner.sandboxStats();
    result.childForks = stats.forks;
    result.childKills = stats.killedOnDeadline;
    result.childNonZeroExits = stats.nonZeroExits;
    result.childSignaled = stats.signaled;
    result.childArenaCorrupt = stats.arenaCorrupt;
    result.childRespawns = stats.workerRespawns;
    result.childSpawnMeanSeconds = stats.spawnOverheadMeanSeconds;
}

} // namespace

AnalysisResult
FloatsmithAnalysis::analyze(const benchmarks::Benchmark& benchmark,
                            const core::TunerOptions& options,
                            const ExtraArgs& args)
{
    std::string spelling = "ddebug";
    if (auto it = args.find("algorithm"); it != args.end())
        spelling = it->second;
    std::string code = algorithmCode(spelling);

    core::BenchmarkTuner tuner(benchmark, options);

    core::TuneOutcome outcome;
    if (code == "GA") {
        // The GA's knobs are tunable from the configuration file,
        // like CRAFT's strategy options; its seed follows the
        // campaign seed unless the configuration pins one.
        search::GaOptions gaOptions;
        gaOptions.population =
            sizeArg(args, "population", gaOptions.population);
        gaOptions.generations =
            sizeArg(args, "generations", gaOptions.generations);
        gaOptions.seed = sizeArg(
            args, "seed", static_cast<std::size_t>(options.seed));
        search::GeneticSearch ga(gaOptions);
        outcome = tuner.tune(ga);
    } else {
        outcome = tuner.tune(code);
    }

    AnalysisResult result;
    result.analysis = name();
    result.detail = code;
    result.speedup = outcome.finalSpeedup;
    result.qualityLoss = outcome.finalQualityLoss;
    fillSearchCounters(result, outcome.search);
    fillTunerStats(result, tuner);
    result.configuration = outcome.clusterConfig.toString();
    return result;
}

AnalysisResult
SinglePrecisionAnalysis::analyze(const benchmarks::Benchmark& benchmark,
                                 const core::TunerOptions& options,
                                 const ExtraArgs& /*args*/)
{
    core::BenchmarkTuner tuner(benchmark, options);
    search::Config all = search::Config::allLowered(tuner.clusterCount());
    search::Evaluation eval = tuner.finalMeasure(all);

    AnalysisResult result;
    result.analysis = name();
    result.detail = "all-binary32";
    result.speedup = eval.speedup;
    result.qualityLoss = eval.qualityLoss;
    result.evaluated = 1;
    result.configuration = all.toString();
    return result;
}

AnalysisResult
PrecimoniousAnalysis::analyze(const benchmarks::Benchmark& benchmark,
                              const core::TunerOptions& options,
                              const ExtraArgs& /*args*/)
{
    core::BenchmarkTuner tuner(benchmark, options);
    search::DeltaDebugSearch dd;
    search::SearchResult searchResult =
        search::runSearch(tuner.searchVariableProblem(), dd,
                          options.budget,
                          tuner.runOptionsFor(
                              search::Granularity::Variable));

    AnalysisResult result;
    result.analysis = name();
    result.detail = "DD/variables";
    fillSearchCounters(result, searchResult);
    fillTunerStats(result, tuner);
    if (searchResult.foundImprovement) {
        search::Config clusterCfg =
            tuner.toClusterConfig(searchResult.best);
        auto eval = tuner.finalMeasure(clusterCfg);
        result.speedup = eval.speedup;
        result.qualityLoss = eval.qualityLoss;
        result.configuration = clusterCfg.toString();
    } else {
        result.configuration =
            search::Config(tuner.clusterCount()).toString();
    }
    return result;
}

AnalysisResult
PortfolioAnalysis::analyze(const benchmarks::Benchmark& benchmark,
                           const core::TunerOptions& options,
                           const ExtraArgs& args)
{
    std::vector<std::string> codes;
    if (auto it = args.find("strategies"); it != args.end()) {
        for (const std::string& spelling :
             support::split(it->second, ','))
            codes.push_back(
                FloatsmithAnalysis::algorithmCode(spelling));
    }

    search::PortfolioMode mode = search::PortfolioMode::Best;
    if (auto it = args.find("mode"); it != args.end()) {
        std::string m = toLower(it->second);
        if (m == "race")
            mode = search::PortfolioMode::Race;
        else if (m != "best")
            fatal(strCat("portfolio: unknown mode '", it->second,
                         "' (expected best or race)"));
    }
    std::size_t workers = 0; // 0 = one worker per entrant
    if (auto it = args.find("workers"); it != args.end()) {
        long v = support::parseLong(it->second, "workers");
        if (v < 0)
            fatal("portfolio: 'workers' must be non-negative");
        workers = static_cast<std::size_t>(v);
    }

    core::BenchmarkTuner tuner(benchmark, options);
    core::PortfolioOutcome outcome =
        tuner.tunePortfolio(codes, mode, workers);
    const search::SearchResult& winner =
        outcome.portfolio.results[outcome.portfolio.winner];

    AnalysisResult result;
    result.analysis = name();
    result.detail = strCat("winner:", outcome.winnerCode);
    result.speedup = outcome.finalSpeedup;
    result.qualityLoss = outcome.finalQualityLoss;
    // Portfolio-wide accounting; the per-entrant breakdown lives in
    // the portfolio result, the table shows the campaign totals.
    result.evaluated = outcome.totalEvaluated;
    result.cacheHits = outcome.totalCacheHits;
    result.memoHits = outcome.totalMemoHits;
    for (const auto& entrant : outcome.portfolio.results) {
        result.compileFailures += entrant.compileFailures;
        result.retries += entrant.retries;
        result.deadlineMisses += entrant.deadlineMisses;
        result.quarantined += entrant.quarantined;
    }
    result.timedOut = winner.timedOut;
    fillTunerStats(result, tuner);
    result.configuration = outcome.clusterConfig.toString();
    return result;
}

AnalysisRegistry::AnalysisRegistry()
{
    add("floatsmith",
        [] { return std::make_unique<FloatsmithAnalysis>(); });
    add("singleprecision",
        [] { return std::make_unique<SinglePrecisionAnalysis>(); });
    add("precimonious",
        [] { return std::make_unique<PrecimoniousAnalysis>(); });
    add("portfolio",
        [] { return std::make_unique<PortfolioAnalysis>(); });
}

AnalysisRegistry&
AnalysisRegistry::instance()
{
    static AnalysisRegistry registry;
    return registry;
}

void
AnalysisRegistry::add(const std::string& name, Factory factory)
{
    if (has(name))
        fatal(strCat("analysis '", name, "' already registered"));
    factories_.emplace_back(toLower(name), std::move(factory));
}

std::unique_ptr<Analysis>
AnalysisRegistry::create(const std::string& name) const
{
    std::string wanted = toLower(name);
    for (const auto& [key, factory] : factories_)
        if (key == wanted)
            return factory();
    fatal(strCat("unknown analysis '", name, "'"));
}

bool
AnalysisRegistry::has(const std::string& name) const
{
    std::string wanted = toLower(name);
    for (const auto& [key, factory] : factories_)
        if (key == wanted)
            return true;
    return false;
}

std::vector<std::string>
AnalysisRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [key, factory] : factories_)
        out.push_back(key);
    return out;
}

} // namespace hpcmixp::harness
