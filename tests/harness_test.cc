/**
 * @file
 * Tests for the YAML-driven harness: configuration parsing against the
 * Listing-4 schema, the analysis plugin registry, and job execution.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "harness/harness.h"
#include "search/context.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/memo_log.h"

namespace {

using namespace hpcmixp;
using namespace hpcmixp::harness;
using hpcmixp::support::FatalError;

const char* kGoodConfig = R"(
kmeans:
  build_dir: 'kmeans'
  build: ['make']
  clean: ['make clean']
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MCR'
  bin: 'kmeans'
  copy: ['kmeans', 'kdd_bin']
  args: '-i kdd_bin -k 5 -n 5'
tridiag:
  threshold: 1e-3
  analysis:
    ga:
      name: 'floatsmith'
      extra_args:
        algorithm: 'genetic'
)";

TEST(HarnessConfig, ParsesListing4Schema)
{
    auto jobs = parseConfig(support::yaml::parse(kGoodConfig));
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].benchmark, "kmeans");
    EXPECT_EQ(jobs[0].analysis, "floatSmith");
    EXPECT_EQ(jobs[0].metric, "MCR");
    EXPECT_EQ(jobs[0].extraArgs.at("algorithm"), "ddebug");
    EXPECT_DOUBLE_EQ(jobs[0].threshold, 1e-6); // default
    EXPECT_EQ(jobs[1].benchmark, "tridiag");
    EXPECT_DOUBLE_EQ(jobs[1].threshold, 1e-3);
    EXPECT_EQ(jobs[1].extraArgs.at("algorithm"), "genetic");
}

TEST(HarnessConfig, RejectsUnknownBenchmark)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "nosuch:\n  analysis:\n    a:\n      name: 'x'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsUnknownClause)
{
    EXPECT_THROW(
        parseConfig(support::yaml::parse(
            "tridiag:\n  bogus: 1\n  analysis:\n    a:\n"
            "      name: 'floatsmith'\n")),
        FatalError);
}

TEST(HarnessConfig, RejectsMissingAnalysis)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  metric: 'MAE'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsUnknownMetricAndAnalysis)
{
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  metric: 'BOGUS'\n  analysis:\n"
                     "    a:\n      name: 'floatsmith'\n")),
                 FatalError);
    EXPECT_THROW(parseConfig(support::yaml::parse(
                     "tridiag:\n  analysis:\n    a:\n"
                     "      name: 'nosuch'\n")),
                 FatalError);
}

TEST(HarnessConfig, RejectsEmptyDocument)
{
    EXPECT_THROW(parseConfig(support::yaml::parse("")), FatalError);
}

TEST(AnalysisRegistryTest, BuiltinsPresent)
{
    auto& reg = AnalysisRegistry::instance();
    EXPECT_TRUE(reg.has("floatsmith"));
    EXPECT_TRUE(reg.has("FloatSmith")); // case-insensitive
    EXPECT_TRUE(reg.has("singleprecision"));
    EXPECT_THROW(reg.create("nosuch"), FatalError);
}

TEST(AnalysisRegistryTest, AlgorithmSpellings)
{
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("ddebug"), "DD");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("DD"), "DD");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("genetic"), "GA");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("combinational"),
              "CB");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("compositional"),
              "CM");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode("hierarchical"), "HR");
    EXPECT_EQ(FloatsmithAnalysis::algorithmCode(
                  "hierarchical-compositional"),
              "HC");
    EXPECT_THROW(FloatsmithAnalysis::algorithmCode("bogus"),
                 FatalError);
}

TEST(HarnessRun, ExecutesJobsAndPrintsResults)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"
        "iccg:\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_GT(r.result.speedup, 0.0);
    }
    EXPECT_EQ(results[0].result.detail, "DD");
    EXPECT_EQ(results[1].result.analysis, "singleprecision");
    EXPECT_EQ(results[1].result.evaluated, 1u);

    std::ostringstream os;
    printResults(os, results);
    EXPECT_NE(os.str().find("tridiag"), std::string::npos);
    EXPECT_NE(os.str().find("singleprecision"), std::string::npos);
}

TEST(HarnessRun, ParallelJobsProduceSameStructure)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    a:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    b:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.jobs = 2;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].spec.benchmark, "tridiag");
    EXPECT_EQ(results[1].spec.benchmark, "iccg");
    for (const auto& r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;
}


TEST(HarnessRun, GaParametersFlowFromExtraArgs)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    ga:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n        population: '4'\n"
        "        generations: '2'\n        seed: '7'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    // population 4 x generations 2 caps the evaluations.
    EXPECT_LE(results[0].result.evaluated, 8u);
}

TEST(HarnessRun, BadGaParameterIsReportedAsJobError)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  analysis:\n    ga:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'genetic'\n        population: '-3'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(HarnessRun, JsonReportContainsEveryJob)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    auto results = runJobs(jobs, options);
    auto json = resultsToJson(results);
    ASSERT_EQ(json.items().size(), 1u);
    const auto& entry = json.items()[0];
    EXPECT_EQ(entry.at("benchmark").asString(), "tridiag");
    EXPECT_EQ(entry.at("algorithm").asString(), "all-binary32");
    EXPECT_FALSE(entry.has("error"));
    // The dump parses back (interchange round trip).
    auto reparsed = support::json::parse(json.dump(2));
    EXPECT_EQ(reparsed.items().size(), 1u);
}


/** Analysis that throws something that is not a std::exception. */
class ThrowIntAnalysis : public Analysis {
  public:
    std::string name() const override { return "throwint"; }
    AnalysisResult
    analyze(const benchmarks::Benchmark&, const core::TunerOptions&,
            const ExtraArgs&) override
    {
        throw 42;
    }
};

TEST(HarnessRun, NonStandardExceptionIsContainedInJobError)
{
    if (!AnalysisRegistry::instance().has("throwint"))
        AnalysisRegistry::instance().add("throwint", [] {
            return std::make_unique<ThrowIntAnalysis>();
        });
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    boom:\n"
        "      name: 'throwint'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.jobs = 2; // the pool must survive the rogue job
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].error,
              "job failed with a non-standard exception");
    EXPECT_TRUE(results[1].error.empty()) << results[1].error;
    EXPECT_GT(results[1].result.speedup, 0.0);
}

/** A fresh (removed) scratch directory under gtest's temporary one. */
std::string
scratchDir(const char* name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** The job-journal files in memo directory @p dir. */
std::vector<std::filesystem::path>
journals(const std::string& dir)
{
    std::vector<std::filesystem::path> found;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind("jobs-", 0) == 0)
            found.push_back(entry.path());
    return found;
}

/** Analysis whose every result has a NaN quality loss. */
class NanQualityAnalysis : public Analysis {
  public:
    std::string name() const override { return "nanquality"; }
    AnalysisResult
    analyze(const benchmarks::Benchmark&, const core::TunerOptions&,
            const ExtraArgs&) override
    {
        AnalysisResult r;
        r.analysis = name();
        r.detail = "nan";
        r.qualityLoss = std::nan("");
        return r;
    }
};

TEST(HarnessRun, NaNQualityLossIsNullInJsonAndNaNInTheJournal)
{
    if (!AnalysisRegistry::instance().has("nanquality"))
        AnalysisRegistry::instance().add("nanquality", [] {
            return std::make_unique<NanQualityAnalysis>();
        });
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    n:\n"
        "      name: 'nanquality'\n"));
    HarnessOptions options;
    options.memoCacheDir = scratchDir("hpcmixp_nan_quality_memo");
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;

    // JSON has no NaN: --json writes null.
    auto reparsed =
        support::json::parse(resultsToJson(results).dump(2));
    EXPECT_TRUE(reparsed.items()[0].at("quality_loss").isNull());

    // The journal stores that same entry; reading it back restores
    // the NaN.
    HarnessOptions resume = options;
    resume.resume = true;
    auto restored = runJobs(jobs, resume);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_TRUE(restored[0].restored);
    EXPECT_TRUE(std::isnan(restored[0].result.qualityLoss));
    std::filesystem::remove_all(options.memoCacheDir);
}

/** Analysis whose winner lowers only clusters that bind no knob. */
class BaselineExecutableAnalysis : public Analysis {
  public:
    std::string name() const override { return "f64winner"; }
    AnalysisResult
    analyze(const benchmarks::Benchmark&, const core::TunerOptions&,
            const ExtraArgs&) override
    {
        AnalysisResult r;
        r.analysis = name();
        r.detail = "DD";
        r.configuration = "0011";
        r.baselineExecutable = true;
        return r;
    }
};

/** The table printResults() renders for @p results. */
std::string
tableOf(const std::vector<JobResult>& results)
{
    std::ostringstream os;
    printResults(os, results);
    return os.str();
}

TEST(HarnessRun, BaselineExecutableWinnerIsMarkedAndResumes)
{
    if (!AnalysisRegistry::instance().has("f64winner"))
        AnalysisRegistry::instance().add("f64winner", [] {
            return std::make_unique<BaselineExecutableAnalysis>();
        });
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    w:\n"
        "      name: 'f64winner'\n"));
    HarnessOptions options;
    options.memoCacheDir = scratchDir("hpcmixp_f64_winner_memo");
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_NE(tableOf(results).find("ok (f64 executable)"),
              std::string::npos);
    auto entry = support::json::parse(resultsToJson(results).dump(2))
                     .items()[0];
    EXPECT_TRUE(entry.at("baseline_executable").asBool());

    HarnessOptions resume = options;
    resume.resume = true;
    auto restored = runJobs(jobs, resume);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_TRUE(restored[0].restored);
    EXPECT_TRUE(restored[0].result.baselineExecutable);
    EXPECT_NE(tableOf(restored).find("restored (f64 executable)"),
              std::string::npos);

    // A journal written before the key existed still resumes; its job
    // reads as tuned. Each record line is "<fnv1a32> <record>".
    auto files = journals(options.memoCacheDir);
    ASSERT_EQ(files.size(), 1u);
    std::vector<std::string> lines;
    {
        std::ifstream in(files[0]);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 2u);
    const std::string key = ",\"baseline_executable\":true";
    std::string record = lines[1].substr(9);
    const std::size_t at = record.find(key);
    ASSERT_NE(at, std::string::npos);
    record.erase(at, key.size());
    char checksum[9];
    std::snprintf(checksum, sizeof checksum, "%08x",
                  static_cast<unsigned>(support::fnv1a64(record) &
                                        0xffffffffu));
    {
        std::ofstream out(files[0], std::ios::trunc);
        out << lines[0] << '\n' << checksum << ' ' << record << '\n';
    }
    auto legacy = runJobs(jobs, resume);
    ASSERT_EQ(legacy.size(), 1u);
    EXPECT_TRUE(legacy[0].restored);
    EXPECT_FALSE(legacy[0].result.baselineExecutable);
    EXPECT_EQ(legacy[0].result.configuration, "0011");
    EXPECT_EQ(tableOf(legacy).find("f64 executable"), std::string::npos);
    std::filesystem::remove_all(options.memoCacheDir);
}

TEST(HarnessCheckpoint, CampaignCheckpointRestoresCompletedJobs)
{
    const char* kTwoJobs =
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n";
    auto jobs = parseConfig(support::yaml::parse(kTwoJobs));
    std::string dir = scratchDir("hpcmixp_campaign_memo");

    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.memoCacheDir = dir;
    auto first = runJobs(jobs, options);
    ASSERT_EQ(first.size(), 2u);
    for (const auto& r : first) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        EXPECT_FALSE(r.restored);
    }

    // One journal: a header line plus one record per completed job.
    auto files = journals(dir);
    ASSERT_EQ(files.size(), 1u);
    std::ifstream in(files[0]);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        ++lines;
    EXPECT_EQ(lines, 3u);

    // Resuming re-runs nothing and reproduces the results table.
    HarnessOptions resumeOptions = options;
    resumeOptions.resume = true;
    auto second = runJobs(jobs, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    for (std::size_t i = 0; i < second.size(); ++i) {
        EXPECT_TRUE(second[i].restored);
        EXPECT_DOUBLE_EQ(second[i].result.speedup,
                         first[i].result.speedup);
        EXPECT_EQ(second[i].result.configuration,
                  first[i].result.configuration);
    }
    std::filesystem::remove_all(dir);
}

TEST(HarnessCheckpoint, PartialResumeRunsOnlyUnfinishedJobs)
{
    std::string dir = scratchDir("hpcmixp_partial_memo");
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.memoCacheDir = dir;

    // Phase 1: a campaign that only got through its first job.
    auto shortJobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    auto first = runJobs(shortJobs, options);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_TRUE(first[0].error.empty()) << first[0].error;

    // Phase 2: the full campaign resumes; job 0 is restored, the
    // newly added job runs fresh.
    auto fullJobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"
        "iccg:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions resumeOptions = options;
    resumeOptions.resume = true;
    auto second = runJobs(fullJobs, resumeOptions);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].restored);
    EXPECT_DOUBLE_EQ(second[0].result.speedup,
                     first[0].result.speedup);
    EXPECT_FALSE(second[1].restored);
    EXPECT_TRUE(second[1].error.empty()) << second[1].error;
    std::filesystem::remove_all(dir);
}

TEST(HarnessCheckpoint, PartialSearchCacheResumesWithCacheHits)
{
    // Fabricate the memo directory of a campaign that was killed
    // while searching tridiag: no journalled job, but the memo table
    // already holds evaluations DD is certain to query again.
    std::string dir = scratchDir("hpcmixp_killed_search_memo");
    {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create("tridiag");
        core::TunerOptions tunerOptions;
        tunerOptions.searchReps = 1;
        tunerOptions.finalReps = 3;
        tunerOptions.threshold = 1e-3;
        tunerOptions.memoStore = std::make_shared<search::MemoStore>(dir);
        core::BenchmarkTuner tuner(*benchmark, tunerOptions);
        search::SearchContext ctx(tuner.searchClusterProblem(),
                                  {1000, 0.0});
        ctx.setMemo(tuner.runOptionsFor(search::Granularity::Cluster)
                        .memo);
        ctx.evaluate(search::Config(tuner.clusterCount()));
        ctx.evaluate(search::Config::allLowered(tuner.clusterCount()));
    }

    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {1000, 0.0};
    options.memoCacheDir = dir;
    options.resume = true;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_FALSE(results[0].restored); // resumed, not restored whole
    EXPECT_GT(results[0].result.memoHits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(HarnessCheckpoint, ResumeNeedsAnExistingMemoDirectory)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    sp:\n"
        "      name: 'singleprecision'\n"));
    HarnessOptions options;
    options.resume = true;
    EXPECT_THROW(runJobs(jobs, options), FatalError);
    options.memoCacheDir = scratchDir("hpcmixp_missing_memo");
    EXPECT_THROW(runJobs(jobs, options), FatalError);
}

TEST(HarnessMemo, WarmCampaignRerunExecutesNothing)
{
    std::string dir = ::testing::TempDir() + "harness_memo_store";
    std::filesystem::remove_all(dir);

    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    options.memoCacheDir = dir;

    auto cold = runJobs(jobs, options);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_TRUE(cold[0].error.empty()) << cold[0].error;
    EXPECT_GT(cold[0].result.evaluated, 0u);
    EXPECT_EQ(cold[0].result.memoHits, 0u);

    // Same campaign, new process (new store handle over the same
    // directory): every search query is a cross-run memo hit.
    auto warm = runJobs(jobs, options);
    ASSERT_TRUE(warm[0].error.empty()) << warm[0].error;
    EXPECT_EQ(warm[0].result.evaluated, 0u);
    EXPECT_EQ(warm[0].result.memoHits, cold[0].result.evaluated);
    EXPECT_EQ(warm[0].result.configuration,
              cold[0].result.configuration);

    // The two hit kinds land in separate table columns and JSON keys.
    std::ostringstream os;
    printResults(os, warm);
    EXPECT_NE(os.str().find("memo"), std::string::npos);
    auto json = resultsToJson(warm);
    ASSERT_EQ(json.items().size(), 1u);
    const auto& entry = json.items()[0];
    EXPECT_EQ(entry.at("memo_hits").asLong(),
              static_cast<long>(warm[0].result.memoHits));
    EXPECT_TRUE(entry.has("cache_hits"));
    std::filesystem::remove_all(dir);
}

TEST(HarnessPortfolio, OverrideRacesStrategiesPerBenchmark)
{
    std::string dir = ::testing::TempDir() + "harness_portfolio_store";
    std::filesystem::remove_all(dir);

    // The configured analysis is ignored under --portfolio; the memo
    // store dedups the entrants against each other.
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    fs:\n"
        "      name: 'floatsmith'\n      extra_args:\n"
        "        algorithm: 'ddebug'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    options.memoCacheDir = dir;
    options.portfolio = true;
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "portfolio");
    EXPECT_NE(results[0].result.detail.find("winner:"),
              std::string::npos);
    EXPECT_GT(results[0].result.evaluated, 0u);
    std::filesystem::remove_all(dir);
}

TEST(HarnessPortfolio, AnalysisIsDirectlyConfigurable)
{
    auto jobs = parseConfig(support::yaml::parse(
        "tridiag:\n  threshold: 1e-3\n  analysis:\n    pf:\n"
        "      name: 'portfolio'\n      extra_args:\n"
        "        strategies: 'ddebug,genetic'\n"
        "        mode: 'race'\n"
        "        workers: '2'\n"));
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].analysis, "portfolio");
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {100, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "portfolio");
}

TEST(HarnessRun, PrecimoniousAnalysisReportsCompileFailures)
{
    auto jobs = parseConfig(support::yaml::parse(
        "lavamd:\n  threshold: 1e-8\n  analysis:\n    prec:\n"
        "      name: 'precimonious'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    auto results = runJobs(jobs, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.empty()) << results[0].error;
    EXPECT_EQ(results[0].result.analysis, "precimonious");
    // Cluster-blind DD must waste attempts on invalid configurations.
    EXPECT_GT(results[0].result.compileFailures, 0u);
}

TEST(HarnessRun, PrecimoniousUsesVariableLevelMemoAndPrior)
{
    // lavamd has more variables than clusters, so a memo table or
    // prior sized for clusters would not fit the variable problem.
    std::string dir = scratchDir("hpcmixp_precimonious_memo");
    auto jobs = parseConfig(support::yaml::parse(
        "lavamd:\n  threshold: 1e-8\n  analysis:\n    prec:\n"
        "      name: 'precimonious'\n"));
    HarnessOptions options;
    options.tuner.searchReps = 1;
    options.tuner.finalReps = 3;
    options.tuner.budget = {200, 0.0};
    options.tuner.staticPrior = search::PriorMode::On;
    options.memoCacheDir = dir;

    auto cold = runJobs(jobs, options);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_TRUE(cold[0].error.empty()) << cold[0].error;
    EXPECT_GT(cold[0].result.evaluated, 0u);

    auto warm = runJobs(jobs, options);
    ASSERT_TRUE(warm[0].error.empty()) << warm[0].error;
    EXPECT_EQ(warm[0].result.evaluated, 0u);
    EXPECT_GT(warm[0].result.memoHits, 0u);
    EXPECT_EQ(warm[0].result.configuration,
              cold[0].result.configuration);
    std::filesystem::remove_all(dir);
}

} // namespace
