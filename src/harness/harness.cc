#include "harness/harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "benchmarks/registry.h"
#include "search/prior.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/string_util.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "verify/metrics.h"

namespace hpcmixp::harness {

using support::fatal;
using support::strCat;
using support::json::Value;

namespace {

/** Clauses of the Listing-4 schema we accept. */
bool
isKnownClause(const std::string& key)
{
    static const char* kKnown[] = {"build_dir", "build", "clean",
                                   "analysis",  "output", "metric",
                                   "bin",       "copy",   "args",
                                   "threshold"};
    for (const char* k : kKnown)
        if (key == k)
            return true;
    return false;
}

JobSpec
parseEntry(const std::string& benchmarkName,
           const support::yaml::Node& entry)
{
    if (!entry.isMapping())
        fatal(strCat("harness: entry '", benchmarkName,
                     "' must be a mapping"));
    if (!benchmarks::BenchmarkRegistry::instance().has(benchmarkName))
        fatal(strCat("harness: unknown benchmark '", benchmarkName,
                     "'"));
    for (const auto& key : entry.keys())
        if (!isKnownClause(key))
            fatal(strCat("harness: unknown clause '", key, "' in '",
                         benchmarkName, "'"));

    JobSpec spec;
    spec.benchmark = benchmarkName;
    spec.metric = entry.getString("metric", "");
    if (!spec.metric.empty() &&
        !verify::MetricRegistry::instance().has(spec.metric))
        fatal(strCat("harness: unknown metric '", spec.metric, "'"));
    spec.threshold = entry.getDouble("threshold", 1e-6);

    const auto* analysis = entry.find("analysis");
    if (!analysis || !analysis->isMapping() ||
        analysis->keys().empty())
        fatal(strCat("harness: '", benchmarkName,
                     "' is missing an analysis clause"));
    // The clause is keyed by an identifier; `name` selects the class.
    const std::string& id = analysis->keys().front();
    const auto& body = analysis->at(id);
    spec.analysis = body.getString("name", id);
    if (!AnalysisRegistry::instance().has(spec.analysis))
        fatal(strCat("harness: unknown analysis '", spec.analysis,
                     "'"));
    if (const auto* extra = body.find("extra_args");
        extra && extra->isMapping()) {
        for (const auto& key : extra->keys())
            spec.extraArgs[key] = extra->at(key).asString();
    }
    return spec;
}

/** Journal identity of job @p index: every field of its spec. */
std::string
jobKey(const JobSpec& spec, std::size_t index)
{
    Value args = Value::object();
    for (const auto& [name, value] : spec.extraArgs)
        args.set(name, Value::string(value));
    Value key = Value::object();
    key.set("index", Value::number(static_cast<double>(index)));
    key.set("benchmark", Value::string(spec.benchmark));
    key.set("analysis", Value::string(support::toLower(spec.analysis)));
    key.set("extra_args", std::move(args));
    key.set("metric", Value::string(spec.metric));
    key.set("threshold", Value::number(spec.threshold));
    return key.dump();
}

Value
analysisResultToJson(const AnalysisResult& r)
{
    Value v = Value::object();
    v.set("analysis", Value::string(r.analysis));
    v.set("detail", Value::string(r.detail));
    v.set("speedup", Value::number(r.speedup));
    v.set("quality_loss", Value::number(r.qualityLoss));
    v.set("evaluated", Value::number(static_cast<double>(r.evaluated)));
    v.set("executables",
          Value::number(static_cast<double>(r.executables)));
    v.set("compile_failures",
          Value::number(static_cast<double>(r.compileFailures)));
    v.set("cache_hits",
          Value::number(static_cast<double>(r.cacheHits)));
    v.set("memo_hits",
          Value::number(static_cast<double>(r.memoHits)));
    v.set("retries", Value::number(static_cast<double>(r.retries)));
    v.set("deadline_misses",
          Value::number(static_cast<double>(r.deadlineMisses)));
    v.set("quarantined",
          Value::number(static_cast<double>(r.quarantined)));
    v.set("steals", Value::number(static_cast<double>(r.steals)));
    v.set("timed_out", Value::boolean(r.timedOut));
    v.set("configuration", Value::string(r.configuration));
    v.set("child_forks",
          Value::number(static_cast<double>(r.childForks)));
    v.set("child_kills",
          Value::number(static_cast<double>(r.childKills)));
    v.set("child_nonzero_exits",
          Value::number(static_cast<double>(r.childNonZeroExits)));
    v.set("child_signaled",
          Value::number(static_cast<double>(r.childSignaled)));
    v.set("child_arena_corrupt",
          Value::number(static_cast<double>(r.childArenaCorrupt)));
    v.set("child_respawns",
          Value::number(static_cast<double>(r.childRespawns)));
    v.set("child_spawn_mean_seconds",
          Value::number(r.childSpawnMeanSeconds));
    return v;
}

AnalysisResult
analysisResultFromJson(const Value& v)
{
    auto count = [&](const char* key) {
        return static_cast<std::size_t>(v.at(key).asLong());
    };
    AnalysisResult r;
    r.analysis = v.at("analysis").asString();
    r.detail = v.at("detail").asString();
    r.speedup = v.at("speedup").asNumber();
    // NaN quality losses serialize as null (JSON has no NaN).
    r.qualityLoss = v.at("quality_loss").isNull()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : v.at("quality_loss").asNumber();
    r.evaluated = count("evaluated");
    r.executables = count("executables");
    r.compileFailures = count("compile_failures");
    r.cacheHits = count("cache_hits");
    r.memoHits = count("memo_hits");
    r.retries = count("retries");
    r.deadlineMisses = count("deadline_misses");
    r.quarantined = count("quarantined");
    r.steals = count("steals");
    r.timedOut = v.at("timed_out").asBool();
    r.configuration = v.at("configuration").asString();
    r.childForks = count("child_forks");
    r.childKills = count("child_kills");
    r.childNonZeroExits = count("child_nonzero_exits");
    r.childSignaled = count("child_signaled");
    r.childArenaCorrupt = count("child_arena_corrupt");
    r.childRespawns = count("child_respawns");
    r.childSpawnMeanSeconds = v.at("child_spawn_mean_seconds").asNumber();
    return r;
}

/** The campaign-wide settings that change a job's result. */
std::string
journalHeader(const HarnessOptions& options)
{
    const core::TunerOptions& t = options.tuner;
    const search::FaultPlan& f = t.faultPlan;
    return strCat("mixpbench-harness jobs: seed=", t.seed,
                  " budget=", t.budget.maxEvaluations, "/",
                  t.budget.maxSeconds, " reps=", t.searchReps, "/",
                  t.finalReps, " ladder=", t.ladder.describe(),
                  t.refine ? "+ir" : "", " static-prior=",
                  search::priorModeName(t.staticPrior),
                  " certified-caps=", t.certifiedCaps ? "on" : "off",
                  " portfolio=",
                  options.portfolio ? options.portfolioMode : "off",
                  " attempts=", t.resilience.maxAttempts,
                  " deadline=", t.resilience.deadlineSeconds,
                  " faults=", f.crashRate, "/", f.hangRate, "/",
                  f.nanRate, "/", f.rawCrashRate, "/", f.rawHangRate,
                  "/", f.rawSegvRate, "@", f.seed);
}

/**
 * Completed-jobs journal of a memo directory: one {job, result}
 * record per successfully completed job, in `jobs-<hash>.log` named
 * after the campaign header the way MemoStore names memo segments.
 * AppendLog does no locking, so concurrent jobs append through one
 * mutex here.
 */
class JobJournal {
  public:
    JobJournal(const std::string& dir, const std::string& header)
        : log_(journalPath(dir, header), header)
    {
    }

    /** Journalled results by job key; a later record wins. */
    std::map<std::string, AnalysisResult>
    completed() const
    {
        std::map<std::string, AnalysisResult> done;
        for (const std::string& text : log_.records()) {
            try {
                Value record = support::json::parse(text);
                done[record.at("job").asString()] =
                    analysisResultFromJson(record.at("result"));
            } catch (const support::FatalError& e) {
                support::warn(strCat("harness: skipping malformed job "
                                     "journal record: ",
                                     e.what()));
            }
        }
        return done;
    }

    void
    append(const std::string& key, const AnalysisResult& result)
    {
        Value record = Value::object();
        record.set("job", Value::string(key));
        record.set("result", analysisResultToJson(result));
        std::lock_guard<std::mutex> lock(mutex_);
        log_.append(record.dump());
    }

  private:
    static std::string
    journalPath(const std::string& dir, const std::string& header)
    {
        char name[32];
        std::snprintf(name, sizeof(name), "jobs-%016llx.log",
                      static_cast<unsigned long long>(
                          support::fnv1a64(header)));
        return (std::filesystem::path(dir) / name).string();
    }

    std::mutex mutex_;
    support::AppendLog log_;
};

JobResult
runJob(const JobSpec& spec, const HarnessOptions& options)
{
    JobResult out;
    out.spec = spec;
    try {
        auto benchmark =
            benchmarks::BenchmarkRegistry::instance().create(
                spec.benchmark);
        core::TunerOptions tunerOptions = options.tuner;
        tunerOptions.threshold = spec.threshold;
        tunerOptions.metric = spec.metric;
        auto analysis =
            AnalysisRegistry::instance().create(spec.analysis);
        out.result =
            analysis->analyze(*benchmark, tunerOptions, spec.extraArgs);
    } catch (const std::exception& e) {
        out.error = e.what();
    } catch (...) {
        // A job must never tear down the pool or the other jobs,
        // whatever it throws.
        out.error = "job failed with a non-standard exception";
    }
    return out;
}

} // namespace

std::vector<JobSpec>
parseConfig(const support::yaml::Node& doc)
{
    if (!doc.isMapping())
        fatal("harness: configuration root must be a mapping");
    std::vector<JobSpec> jobs;
    for (const auto& key : doc.keys())
        jobs.push_back(parseEntry(key, doc.at(key)));
    if (jobs.empty())
        fatal("harness: configuration declares no benchmarks");
    return jobs;
}

std::vector<JobSpec>
parseConfigFile(const std::string& path)
{
    return parseConfig(support::yaml::parseFile(path));
}

std::vector<JobResult>
runJobs(const std::vector<JobSpec>& jobs, const HarnessOptions& opts)
{
    std::vector<JobResult> results(jobs.size());

    // Nested-parallelism guard: `jobs` analysis workers each running
    // `searchJobs` in-search evaluators would oversubscribe the
    // machine multiplicatively, so clamp the product to the hardware.
    HarnessOptions options = opts;
    std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 0 && options.jobs > 1 && options.tuner.searchJobs > 1 &&
        options.jobs * options.tuner.searchJobs > hw) {
        std::size_t clamped =
            std::max<std::size_t>(1, hw / options.jobs);
        support::warn(strCat(
            "harness: ", options.jobs, " jobs x ",
            options.tuner.searchJobs, " search jobs oversubscribes ",
            hw, " hardware threads; clamping search jobs to ",
            clamped));
        options.tuner.searchJobs = clamped;
    }

    if (options.resume &&
        !std::filesystem::is_directory(options.memoCacheDir))
        fatal(strCat("harness: --resume: no memo directory '",
                     options.memoCacheDir, "'"));

    // One store for the whole campaign: jobs sharing a benchmark and
    // threshold share a table, everything else just shares the
    // directory.
    std::unique_ptr<JobJournal> journal;
    std::map<std::string, AnalysisResult> completed;
    if (!options.memoCacheDir.empty()) {
        options.tuner.memoStore =
            std::make_shared<search::MemoStore>(options.memoCacheDir);
        journal = std::make_unique<JobJournal>(options.memoCacheDir,
                                               journalHeader(options));
        if (options.resume)
            completed = journal->completed();
    }

    auto runOne = [&](std::size_t i) {
        JobSpec spec = jobs[i];
        // --portfolio swaps the configured analysis for the racing
        // portfolio; the key follows so journal records of the two
        // setups never alias.
        if (options.portfolio) {
            spec.analysis = "portfolio";
            spec.extraArgs["mode"] = options.portfolioMode;
        }
        std::string key = jobKey(spec, i);

        if (auto it = completed.find(key); it != completed.end()) {
            results[i].spec = spec;
            results[i].result = it->second;
            results[i].restored = true;
            support::inform(strCat("harness: restored job ", i, " (",
                                   spec.benchmark, ") from the journal"));
            return;
        }
        // An interrupted job re-runs its strategy from the start;
        // every evaluation the earlier run finished is a memo hit.
        results[i] = runJob(spec, options);
        // Failed jobs stay out of the journal so a resumed campaign
        // retries them.
        if (journal && results[i].error.empty())
            journal->append(key, results[i].result);
    };

    if (options.jobs <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runOne(i);
        return results;
    }
    support::ThreadPool pool(options.jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        futures.push_back(pool.submit([&runOne, i] { runOne(i); }));
    for (auto& f : futures)
        f.get();
    return results;
}

support::json::Value
resultsToJson(const std::vector<JobResult>& results)
{
    using support::json::Value;
    Value root = Value::array();
    for (const auto& r : results) {
        Value entry = Value::object();
        entry.set("benchmark", Value::string(r.spec.benchmark));
        entry.set("analysis", Value::string(r.spec.analysis));
        entry.set("threshold", Value::number(r.spec.threshold));
        if (!r.error.empty()) {
            entry.set("error", Value::string(r.error));
            root.push(std::move(entry));
            continue;
        }
        entry.set("algorithm", Value::string(r.result.detail));
        entry.set("speedup", Value::number(r.result.speedup));
        entry.set("quality_loss",
                  Value::number(r.result.qualityLoss));
        entry.set("evaluated_configurations",
                  Value::number(
                      static_cast<double>(r.result.evaluated)));
        entry.set("executables",
                  Value::number(
                      static_cast<double>(r.result.executables)));
        entry.set("compile_failures",
                  Value::number(static_cast<double>(
                      r.result.compileFailures)));
        entry.set("cache_hits",
                  Value::number(
                      static_cast<double>(r.result.cacheHits)));
        entry.set("memo_hits",
                  Value::number(
                      static_cast<double>(r.result.memoHits)));
        entry.set("retries",
                  Value::number(
                      static_cast<double>(r.result.retries)));
        entry.set("deadline_misses",
                  Value::number(static_cast<double>(
                      r.result.deadlineMisses)));
        entry.set("quarantined",
                  Value::number(
                      static_cast<double>(r.result.quarantined)));
        entry.set("steals",
                  Value::number(
                      static_cast<double>(r.result.steals)));
        entry.set("timed_out", Value::boolean(r.result.timedOut));
        entry.set("restored", Value::boolean(r.restored));
        entry.set("configuration",
                  Value::string(r.result.configuration));
        // Sandbox breakdown (--isolation=fork|pool): quarantines by
        // child exit class plus the mean fork+reap (fork) or dispatch
        // (pool) overhead per clean child.
        Value sandbox = Value::object();
        sandbox.set("forks",
                    Value::number(
                        static_cast<double>(r.result.childForks)));
        sandbox.set("kills",
                    Value::number(
                        static_cast<double>(r.result.childKills)));
        sandbox.set("nonzero_exits",
                    Value::number(static_cast<double>(
                        r.result.childNonZeroExits)));
        sandbox.set("signaled",
                    Value::number(
                        static_cast<double>(r.result.childSignaled)));
        sandbox.set("arena_corrupt",
                    Value::number(static_cast<double>(
                        r.result.childArenaCorrupt)));
        sandbox.set("respawns",
                    Value::number(static_cast<double>(
                        r.result.childRespawns)));
        sandbox.set("spawn_overhead_mean_seconds",
                    Value::number(r.result.childSpawnMeanSeconds));
        entry.set("sandbox", std::move(sandbox));
        root.push(std::move(entry));
    }
    return root;
}

void
printResults(std::ostream& os, const std::vector<JobResult>& results)
{
    support::Table table({"benchmark", "analysis", "algorithm",
                          "speedup", "quality", "EV", "cache", "memo",
                          "retries", "steals", "kills", "spawn_ms",
                          "status"});
    for (const auto& r : results) {
        if (!r.error.empty()) {
            table.addRow({r.spec.benchmark, r.spec.analysis, "-", "-",
                          "-", "-", "-", "-", "-", "-", "-", "-",
                          strCat("error: ", r.error)});
            continue;
        }
        const char* status = r.result.timedOut ? "timeout"
                             : r.restored      ? "restored"
                                               : "ok";
        table.addRow({r.spec.benchmark, r.result.analysis,
                      r.result.detail,
                      support::Table::cell(r.result.speedup, 2),
                      support::Table::cellSci(r.result.qualityLoss),
                      support::Table::cell(
                          static_cast<long>(r.result.evaluated)),
                      support::Table::cell(
                          static_cast<long>(r.result.cacheHits)),
                      support::Table::cell(
                          static_cast<long>(r.result.memoHits)),
                      support::Table::cell(
                          static_cast<long>(r.result.retries)),
                      support::Table::cell(
                          static_cast<long>(r.result.steals)),
                      support::Table::cell(
                          static_cast<long>(r.result.childKills)),
                      support::Table::cell(
                          r.result.childSpawnMeanSeconds * 1e3, 2),
                      status});
    }
    table.print(os);
}

} // namespace hpcmixp::harness
