#include "harness/harness.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "benchmarks/registry.h"
#include "search/counters.h"
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

/** Report names of the SandboxStats counts, in the `sandbox` block;
 *  spawnOverheadMeanSeconds goes beside them. */
struct SandboxField {
    std::size_t core::SandboxStats::*member;
    const char* key;
};

constexpr SandboxField kSandboxFields[] = {
    {&core::SandboxStats::forks, "forks"},
    {&core::SandboxStats::killedOnDeadline, "kills"},
    {&core::SandboxStats::nonZeroExits, "nonzero_exits"},
    {&core::SandboxStats::signaled, "signaled"},
    {&core::SandboxStats::arenaCorrupt, "arena_corrupt"},
    {&core::SandboxStats::workerRespawns, "respawns"},
    {&core::SandboxStats::cleanExits, "clean_exits"},
    {&core::SandboxStats::spawnFailed, "spawn_failed"},
    {&core::SandboxStats::fastFailed, "fast_failed"},
    {&core::SandboxStats::poolDispatches, "pool_dispatches"},
};
static_assert(std::size(kSandboxFields) * sizeof(std::size_t) +
                      sizeof(double) ==
                  sizeof(core::SandboxStats),
              "every SandboxStats count needs a kSandboxFields entry");

/**
 * The report entry of one job: the object --json writes for it, and
 * the record the job journal stores for a completed job.
 */
Value
resultToJson(const JobResult& job)
{
    Value entry = Value::object();
    entry.set("benchmark", Value::string(job.spec.benchmark));
    entry.set("analysis", Value::string(job.spec.analysis));
    entry.set("threshold", Value::number(job.spec.threshold));
    if (!job.error.empty()) {
        entry.set("error", Value::string(job.error));
        return entry;
    }
    const AnalysisResult& r = job.result;
    entry.set("algorithm", Value::string(r.detail));
    entry.set("speedup", Value::number(r.speedup));
    entry.set("quality_loss", Value::number(r.qualityLoss));
    search::writeCounters(entry, r);
    entry.set("executables",
              Value::number(static_cast<double>(r.executables)));
    entry.set("timed_out", Value::boolean(r.timedOut));
    entry.set("restored", Value::boolean(job.restored));
    entry.set("configuration", Value::string(r.configuration));
    entry.set("baseline_executable", Value::boolean(r.baselineExecutable));
    // Sandbox breakdown (--isolation=fork|pool): quarantines by
    // child exit class plus the mean fork+reap (fork) or dispatch
    // (pool) overhead per clean child.
    Value sandbox = Value::object();
    for (const SandboxField& f : kSandboxFields)
        sandbox.set(f.key, Value::number(static_cast<double>(
                               r.sandbox.*f.member)));
    sandbox.set("spawn_overhead_mean_seconds",
                Value::number(r.sandbox.spawnOverheadMeanSeconds));
    entry.set("sandbox", std::move(sandbox));
    return entry;
}

/** The result resultToJson() wrote for a successful job; fatal()s on
 *  a missing key. */
AnalysisResult
resultFromJson(const Value& entry)
{
    AnalysisResult r;
    static_cast<search::SearchCounters&>(r) = search::readCounters(entry);
    // The registry matches names case-insensitively and every
    // analysis reports its lower-case registry name.
    r.analysis = support::toLower(entry.at("analysis").asString());
    r.detail = entry.at("algorithm").asString();
    r.speedup = entry.at("speedup").asNumber();
    // NaN quality losses serialize as null (JSON has no NaN).
    r.qualityLoss = entry.at("quality_loss").isNull()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : entry.at("quality_loss").asNumber();
    r.executables =
        static_cast<std::size_t>(entry.at("executables").asLong());
    r.timedOut = entry.at("timed_out").asBool();
    r.configuration = entry.at("configuration").asString();
    // Journals written before the key existed resume as tuned.
    r.baselineExecutable = entry.has("baseline_executable") &&
                           entry.at("baseline_executable").asBool();
    const Value& sandbox = entry.at("sandbox");
    for (const SandboxField& f : kSandboxFields)
        r.sandbox.*f.member =
            static_cast<std::size_t>(sandbox.at(f.key).asLong());
    r.sandbox.spawnOverheadMeanSeconds =
        sandbox.at("spawn_overhead_mean_seconds").asNumber();
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
 * record per successfully completed job, the result being the job's
 * --json entry (resultToJson), in `jobs-<hash>.log` named
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
                    resultFromJson(record.at("result"));
            } catch (const support::FatalError& e) {
                support::warn(strCat("harness: skipping malformed job "
                                     "journal record: ",
                                     e.what()));
            }
        }
        return done;
    }

    void
    append(const std::string& key, const JobResult& job)
    {
        Value record = Value::object();
        record.set("job", Value::string(key));
        record.set("result", resultToJson(job));
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
            journal->append(key, results[i]);
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
    Value root = Value::array();
    for (const auto& r : results)
        root.push(resultToJson(r));
    return root;
}

void
printResults(std::ostream& os, const std::vector<JobResult>& results)
{
    std::vector<std::string> headers = {"benchmark", "analysis",
                                        "algorithm", "speedup",
                                        "quality"};
    for (const search::CounterField& f : search::kCounterFields)
        if (f.column)
            headers.push_back(f.column);
    headers.insert(headers.end(), {"kills", "spawn_ms", "status"});
    support::Table table(headers);
    for (const auto& r : results) {
        if (!r.error.empty()) {
            std::vector<std::string> row(headers.size(), "-");
            row[0] = r.spec.benchmark;
            row[1] = r.spec.analysis;
            row.back() = strCat("error: ", r.error);
            table.addRow(std::move(row));
            continue;
        }
        std::string status = r.result.timedOut ? "timeout"
                             : r.restored      ? "restored"
                                               : "ok";
        // The winner changes no executed precision: its speedup is the
        // baseline's own, not a tuned configuration's.
        if (r.result.baselineExecutable)
            status += " (f64 executable)";
        std::vector<std::string> row = {
            r.spec.benchmark, r.result.analysis, r.result.detail,
            support::Table::cell(r.result.speedup, 2),
            support::Table::cellSci(r.result.qualityLoss)};
        for (const search::CounterField& f : search::kCounterFields)
            if (f.column)
                row.push_back(support::Table::cell(
                    static_cast<long>(r.result.*f.member)));
        row.push_back(support::Table::cell(
            static_cast<long>(r.result.sandbox.killedOnDeadline)));
        row.push_back(support::Table::cell(
            r.result.sandbox.spawnOverheadMeanSeconds * 1e3, 2));
        row.push_back(std::move(status));
        table.addRow(std::move(row));
    }
    table.print(os);
}

} // namespace hpcmixp::harness
