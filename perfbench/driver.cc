/**
 * @file
 * Layered campaign benchmark driver.
 *
 * Runs one workload of tuning campaigns — a fixed list of
 * (benchmark, strategy) jobs — through the public calls the harness's
 * floatsmith analysis makes: construct core::BenchmarkTuner, then
 * tune(). One campaign runs at a time. Only strategies whose
 * trajectory depends on pass/fail verdicts alone (CB, CM, DD) are
 * accepted and no wall-clock budget is set, so the work done is the
 * same on every run and only its speed can vary.
 *
 *   perfbench_driver --workloads FILE --workload NAME --seed N
 *                    --seconds S --trace 0|1 --out FILE
 *                    --scratch DIR [--trace-out FILE]
 *
 * --trace 0 repeats whole passes of the workload until S seconds are
 * spent and records per-job setup and campaign times. --trace 1
 * alternates untraced and traced passes, wraps the search problem in
 * a timing decorator, replays each layer's public functions (L0
 * prepare/execute/verify per rung, typeforge analysis, static prior,
 * memo publish/lookup) and writes Chrome trace-event JSON. The raw
 * record goes to --out; run.py checks it and reduces it to metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "search/memo_store.h"
#include "search/strategy.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/stats.h"
#include "trace.h"
#include "typeforge/clustering.h"

namespace {

using namespace hpcmixp;
using perfbench::Clock;
using perfbench::Tracer;
using support::json::Value;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

Value
num(double v)
{
    return Value::number(v);
}

Value
count(std::size_t v)
{
    return Value::number(static_cast<double>(v));
}

/** A per-layer metric: {"value", "unit"}. */
void
put(Value& layers, const std::string& name, double value, const char* unit)
{
    Value m = Value::object();
    m.set("value", num(value));
    m.set("unit", Value::string(unit));
    layers.set(name, std::move(m));
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One (benchmark, strategy) campaign of a workload. */
struct Job {
    std::string benchmark;
    std::string strategy;
};

/** A workload as read from workloads.json. */
struct Workload {
    std::string name;
    std::vector<Job> jobs;
    core::TunerOptions options;
    /// Run the job list twice per pass against a fresh memo
    /// directory: cold (publishes), then warm (lookups).
    bool memoColdWarm = false;
};

/**
 * Read and validate one workload. Every field is required. Quality
 * threshold (1e-6), final reps (10), evaluation cap (2000), certified
 * caps (on) and serial search keep the TunerOptions defaults the
 * harness uses; a pool then has one worker.
 */
Workload
loadWorkload(const std::string& path, const std::string& name,
             std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        support::fatal("cannot read workload file '" + path + "'");
    std::stringstream text;
    text << in.rdbuf();
    Value root = support::json::parse(text.str());
    if (!root.isObject() || !root.has(name))
        support::fatal("unknown workload '" + name + "'");
    const Value& w = root.at(name);

    Workload workload;
    workload.name = name;
    core::TunerOptions& o = workload.options;
    o.seed = seed;
    long reps = w.at("reps").asLong();
    if (reps < 1)
        support::fatal("workload field 'reps' must be at least 1");
    o.searchReps = static_cast<std::size_t>(reps);
    o.ladder = runtime::PrecisionLadder::parse(w.at("ladder").asString());
    o.isolation = support::parseIsolationMode(w.at("isolation").asString());
    o.staticPrior = search::parsePriorMode(w.at("static_prior").asString());
    workload.memoColdWarm = w.at("memo_cold_warm").asBool();

    static const std::set<std::string> kFixedWork{"CB", "CM", "DD"};
    auto& benchmarks = benchmarks::BenchmarkRegistry::instance();
    for (const Value& j : w.at("jobs").items()) {
        Job job{j.items().at(0).asString(), j.items().at(1).asString()};
        if (!benchmarks.has(job.benchmark))
            support::fatal("unknown benchmark '" + job.benchmark + "'");
        // GA, HR and the portfolio rank candidates by measured speedup,
        // so their EV and verdicts vary with timing noise.
        if (!kFixedWork.count(job.strategy))
            support::fatal("strategy '" + job.strategy +
                           "' does not do fixed work; use CB, CM or DD");
        workload.jobs.push_back(job);
    }
    if (workload.jobs.empty())
        support::fatal("workload '" + name + "' has no jobs");

    return workload;
}

/** Refuse any option that would make a campaign's work vary. */
void
requireFixedWork(const core::TunerOptions& options)
{
    if (options.budget.maxSeconds != 0.0 || options.searchJobs != 1 ||
        options.faultPlan.enabled())
        support::fatal("campaign options allow timing-dependent work");
}

/**
 * Delegates to a registered strategy. Stamps when the search starts —
 * the end of set-up — and digests the (config key, verdict) pairs the
 * search left in its context.
 */
class RecordingStrategy final : public search::SearchStrategy {
  public:
    RecordingStrategy(const std::string& code, Tracer* tracer,
                      std::int64_t job)
        : inner_(search::StrategyRegistry::instance().create(code)),
          tracer_(tracer), job_(job)
    {
    }

    std::string name() const override { return inner_->name(); }
    std::string code() const override { return inner_->code(); }
    search::Granularity granularity() const override
    {
        return inner_->granularity();
    }

    void
    run(search::SearchContext& ctx) override
    {
        start_ = Clock::now();
        try {
            inner_->run(ctx);
        } catch (const search::BudgetExhausted&) {
            record(ctx);
            throw;
        }
        record(ctx);
    }

    Clock::time_point start() const { return start_; }
    double recordSeconds() const { return recordSeconds_; }
    std::uint64_t digest() const { return digest_; }
    std::size_t passing() const { return passing_; }
    std::size_t entries() const { return entries_; }

  private:
    void
    record(const search::SearchContext& ctx)
    {
        Clock::time_point t0 = Clock::now();
        std::unique_ptr<Tracer::Scope> span;
        if (tracer_)
            span = std::make_unique<Tracer::Scope>(*tracer_, "digest", job_);
        Value cache = ctx.exportCache();
        std::vector<std::string> lines;
        for (const Value& e : cache.at("evaluations").items()) {
            const std::string& status = e.at("status").asString();
            passing_ += status == "pass";
            lines.push_back(e.at("config").asString() + "=" + status);
        }
        std::sort(lines.begin(), lines.end());
        std::string text;
        for (const std::string& line : lines)
            text += line + "\n";
        digest_ = support::fnv1a64(text);
        entries_ = lines.size();
        span.reset();
        recordSeconds_ = seconds(t0, Clock::now());
    }

    std::unique_ptr<search::SearchStrategy> inner_;
    Tracer* tracer_;
    std::int64_t job_;
    Clock::time_point start_ = Clock::now();
    double recordSeconds_ = 0.0;
    std::uint64_t digest_ = 0;
    std::size_t passing_ = 0;
    std::size_t entries_ = 0;
};

/** An executed evaluation seen by TimedProblem. */
struct EvalSample {
    std::string key;
    search::Evaluation eval;
    double ms = 0.0;
};

/** Times every evaluation of the problem it wraps (traced run). */
class TimedProblem final : public search::SearchProblem {
  public:
    TimedProblem(search::SearchProblem& inner, Tracer& tracer,
                 std::int64_t job)
        : inner_(inner), tracer_(tracer), job_(job)
    {
    }

    std::size_t siteCount() const override { return inner_.siteCount(); }
    std::size_t maxLevel() const override { return inner_.maxLevel(); }
    const search::StructureNode* structure() const override
    {
        return inner_.structure();
    }

    search::Evaluation
    evaluate(const search::Config& config) override
    {
        Tracer::Scope span(tracer_, "evaluate", job_);
        search::Evaluation eval = inner_.evaluate(config);
        double ms = span.elapsedSeconds() * 1e3;
        std::string key = config.toString();
        span.arg("config", Value::string(key));
        span.arg("status", Value::string(search::evalStatusName(eval.status)));
        if (eval.ran())
            samples_.push_back({std::move(key), eval, ms});
        return eval;
    }

    const std::vector<EvalSample>& samples() const { return samples_; }

  private:
    search::SearchProblem& inner_;
    Tracer& tracer_;
    std::int64_t job_;
    std::vector<EvalSample> samples_;
};

/** Everything one job reports; the same fields traced or not. */
struct JobRecord {
    Job job;
    std::string phase; ///< "cold"/"warm" under memo_cold_warm, else ""
    double setupS = 0.0;
    double campaignS = 0.0;
    search::SearchResult search;
    std::uint64_t digest = 0;
    std::size_t passing = 0; ///< configurations that passed
    std::size_t entries = 0; ///< configurations in the search cache
    bool finalPass = true;
    double finalLoss = 0.0;
    core::SandboxStats sandbox;

    Value
    toJson() const
    {
        Value v = Value::object();
        v.set("benchmark", Value::string(job.benchmark));
        v.set("strategy", Value::string(job.strategy));
        v.set("phase", Value::string(phase));
        v.set("setup_s", num(setupS));
        v.set("campaign_s", num(campaignS));
        v.set("ev", count(search.evaluated));
        v.set("passing", count(passing));
        v.set("entries", count(entries));
        v.set("digest", Value::string(hex64(digest)));
        v.set("timed_out", Value::boolean(search.timedOut));
        v.set("final_pass", Value::boolean(finalPass));
        v.set("final_loss", num(finalLoss));
        v.set("cache_hits", count(search.cacheHits));
        v.set("memo_hits", count(search.memoHits));
        v.set("compile_failures", count(search.compileFailures));
        v.set("retries", count(search.retries));
        v.set("quarantined", count(search.quarantined));
        v.set("crashed_children", count(sandbox.crashedChildren()));
        return v;
    }
};

void
fillRecord(JobRecord& rec, const RecordingStrategy& strategy,
           const core::BenchmarkTuner& tuner, double threshold)
{
    rec.digest = strategy.digest();
    rec.passing = strategy.passing();
    rec.entries = strategy.entries();
    rec.sandbox = tuner.sandboxStats();
    // The winner's final measurement must pass at the job threshold;
    // without an improvement the winner is the baseline itself.
    rec.finalPass =
        !rec.search.foundImprovement ||
        (std::isfinite(rec.finalLoss) && rec.finalLoss <= threshold);
}

/** One job exactly as FloatsmithAnalysis::analyze runs it. */
JobRecord
runJob(const Job& job, const core::TunerOptions& options)
{
    JobRecord rec;
    rec.job = job;
    Clock::time_point t0 = Clock::now();
    auto bench =
        benchmarks::BenchmarkRegistry::instance().create(job.benchmark);
    core::BenchmarkTuner tuner(*bench, options);
    RecordingStrategy strategy(job.strategy, nullptr, -1);
    core::TuneOutcome outcome = tuner.tune(strategy);
    Clock::time_point t1 = Clock::now();
    rec.setupS = seconds(t0, strategy.start());
    rec.campaignS = seconds(strategy.start(), t1) - strategy.recordSeconds();
    rec.search = outcome.search;
    rec.finalLoss = outcome.finalQualityLoss;
    fillRecord(rec, strategy, tuner, options.threshold);
    return rec;
}

/** What the traced run gathers beyond the job records. */
struct TraceData {
    std::vector<double> evalMs; ///< executed evaluations only
    double analyzeS = 0.0;
    double priorS = 0.0;
    double digestS = 0.0;
    std::size_t passing = 0; ///< executed evaluations that passed
    std::size_t tracedPasses = 0;
    /// Executed (key, evaluation) pairs per memo fingerprint, for the
    /// memo publish/lookup replay.
    std::map<std::string, std::pair<search::MemoFingerprint,
                                    std::map<std::string, search::Evaluation>>>
        keys;
};

double
medianSeconds(std::size_t reps, const std::function<void()>& fn)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < reps; ++i) {
        Clock::time_point t0 = Clock::now();
        fn();
        samples.push_back(seconds(t0, Clock::now()));
    }
    return support::median(std::move(samples));
}

/**
 * The same job with each step tune() takes called separately, so a
 * span can be put around it, and the search problem wrapped in
 * TimedProblem.
 */
JobRecord
runJobTraced(const Job& job, const core::TunerOptions& options,
             Tracer& tracer, std::int64_t id, TraceData& data)
{
    JobRecord rec;
    rec.job = job;
    std::unique_ptr<benchmarks::Benchmark> bench;
    std::unique_ptr<core::BenchmarkTuner> tuner;
    RecordingStrategy strategy(job.strategy, &tracer, id);
    search::Granularity granularity = strategy.granularity();
    bool variableLevel = granularity == search::Granularity::Variable;
    search::SearchRunOptions run;
    std::unique_ptr<TimedProblem> problem;
    Clock::time_point t0, searchStart, t1;
    {
        // Covers exactly what setup_s + campaign_s cover, so the
        // self-times of the spans below add up to them.
        Tracer::Scope jobSpan(tracer, "job", id);
        jobSpan.arg("benchmark", Value::string(job.benchmark));
        jobSpan.arg("strategy", Value::string(job.strategy));
        t0 = Clock::now();
        {
            Tracer::Scope span(tracer, "construct", id);
            bench = benchmarks::BenchmarkRegistry::instance().create(
                job.benchmark);
            tuner = std::make_unique<core::BenchmarkTuner>(*bench, options);
        }
        {
            Tracer::Scope span(tracer, "prior", id);
            run = tuner->runOptionsFor(granularity);
        }
        problem = std::make_unique<TimedProblem>(
            variableLevel ? tuner->searchVariableProblem()
                          : tuner->searchClusterProblem(),
            tracer, id);
        searchStart = Clock::now();
        {
            Tracer::Scope span(tracer, "search", id);
            rec.search =
                search::runSearch(*problem, strategy, options.budget, run);
        }
        if (rec.search.foundImprovement) {
            Tracer::Scope span(tracer, "final", id);
            search::Config winner =
                variableLevel ? tuner->toClusterConfig(rec.search.best)
                              : rec.search.best;
            rec.finalLoss = tuner->finalMeasure(winner).qualityLoss;
        }
        t1 = Clock::now();
    }
    rec.setupS = seconds(t0, searchStart);
    rec.campaignS = seconds(searchStart, t1) - strategy.recordSeconds();
    data.digestS += strategy.recordSeconds();

    search::MemoFingerprint fp = tuner->fingerprint(granularity);
    auto& [fingerprint, keys] = data.keys[fp.describe()];
    fingerprint = fp;
    for (const EvalSample& s : problem->samples()) {
        data.evalMs.push_back(s.ms);
        data.passing += s.eval.passed();
        keys.emplace(s.key, s.eval);
    }
    fillRecord(rec, strategy, *tuner, options.threshold);

    // Layer replays outside the job span: the Typeforge clustering the
    // constructor ran and the static prior runOptionsFor() built.
    {
        Tracer::Scope span(tracer, "replay.analyze", id);
        data.analyzeS += medianSeconds(
            5, [&] { (void)typeforge::analyze(bench->programModel()); });
    }
    {
        Tracer::Scope span(tracer, "replay.prior", id);
        data.priorS += medianSeconds(
            3, [&] { (void)tuner->staticPrior(granularity); });
    }
    return rec;
}

/** Records of one pass over the workload's job list. */
struct Pass {
    std::vector<JobRecord> jobs;
    bool traced = false;

    double
    total(double JobRecord::*field) const
    {
        double sum = 0.0;
        for (const JobRecord& r : jobs)
            sum += r.*field;
        return sum;
    }

    Value
    toJson() const
    {
        Value v = Value::object();
        v.set("traced", Value::boolean(traced));
        v.set("setup_s", num(total(&JobRecord::setupS)));
        v.set("campaign_s", num(total(&JobRecord::campaignS)));
        Value jobs = Value::array();
        for (const JobRecord& r : this->jobs)
            jobs.push(r.toJson());
        v.set("jobs", std::move(jobs));
        return v;
    }
};

/** Run the job list once (twice, cold then warm, for memo workloads). */
Pass
runPass(const Workload& w, const std::string& scratch, Tracer* tracer,
        TraceData* data, std::int64_t& nextJobId)
{
    Pass pass;
    pass.traced = tracer != nullptr;
    std::unique_ptr<Tracer::Scope> span;
    if (tracer)
        span = std::make_unique<Tracer::Scope>(*tracer, "workload", -1);

    std::vector<std::string> phases{""};
    std::string memoDir;
    if (w.memoColdWarm) {
        phases = {"cold", "warm"};
        memoDir = scratch + "/memo-" + std::to_string(nextJobId);
        std::filesystem::remove_all(memoDir);
    }
    for (const std::string& phase : phases) {
        core::TunerOptions options = w.options;
        // A new store per phase: the warm phase reads what the cold
        // phase published back from disk, as a later run would.
        if (!memoDir.empty())
            options.memoStore = std::make_shared<search::MemoStore>(memoDir);
        requireFixedWork(options);
        for (const Job& job : w.jobs) {
            std::int64_t id = nextJobId++;
            JobRecord rec = tracer ? runJobTraced(job, options, *tracer,
                                                  id, *data)
                                   : runJob(job, options);
            rec.phase = phase;
            pass.jobs.push_back(std::move(rec));
        }
    }
    if (!memoDir.empty())
        std::filesystem::remove_all(memoDir);
    if (data)
        ++data->tracedPasses;
    return pass;
}

/** Every site of @p bench at precision @p p. */
benchmarks::PrecisionMap
uniformMap(const benchmarks::Benchmark& bench, runtime::Precision p)
{
    benchmarks::PrecisionMap pm;
    pm.setOwner(bench.name());
    if (p == runtime::Precision::Float64)
        return pm;
    const auto& program = bench.programModel();
    for (model::VarId v : program.realVariables()) {
        const std::string& key = program.variable(v).bindKey;
        if (!key.empty())
            pm.set(key, p);
    }
    return pm;
}

/** Repetitions that fill ~@p budget seconds, 1 to 200. */
std::size_t
repsFor(double onceSeconds, double budget)
{
    double reps = onceSeconds > 0.0 ? budget / onceSeconds : 200.0;
    return static_cast<std::size_t>(std::clamp(reps, 1.0, 200.0));
}

/**
 * L0 table: prepare, execute and verify of every benchmark of the
 * workload with every site at each rung. Sums over benchmarks go into
 * @p layers.
 */
Value
replayL0(const Workload& w, Tracer& tracer, Value& layers)
{
    const std::vector<std::pair<runtime::Precision, std::string>> rungs{
        {runtime::Precision::Float64, "f64"},
        {runtime::Precision::Float32, "f32"},
        {runtime::Precision::Float16, "f16"},
        {runtime::Precision::BFloat16, "bf16"}};
    std::vector<std::string> names;
    for (const Job& job : w.jobs)
        if (std::find(names.begin(), names.end(), job.benchmark) == names.end())
            names.push_back(job.benchmark);

    std::map<std::string, double> prepareMs, executeMs;
    double verifyMs = 0.0;
    Value table = Value::array();
    runtime::RunWorkspace ws;
    for (const std::string& name : names) {
        auto bench = benchmarks::BenchmarkRegistry::instance().create(name);
        std::string metric = w.options.metric.empty() ? bench->qualityMetric()
                                                      : w.options.metric;
        verify::OutputComparator comparator(metric, w.options.threshold);
        std::vector<double> reference;
        for (const auto& [precision, rung] : rungs) {
            benchmarks::PrecisionMap pm = uniformMap(*bench, precision);
            // The first prepare at a rung converts the inputs; every
            // job pays it once on its own benchmark instance.
            Clock::time_point t0 = Clock::now();
            benchmarks::RunPlan plan = bench->prepare(pm);
            Clock::time_point t1 = Clock::now();
            benchmarks::RunOutput out = bench->execute(plan, ws);
            double first = seconds(t0, t1);
            std::size_t reps = repsFor(seconds(t1, Clock::now()), 0.2);

            Value row = Value::object();
            row.set("benchmark", Value::string(name));
            row.set("rung", Value::string(rung));
            row.set("elements", count(out.values.size()));
            row.set("reps", count(reps));
            double prep, exec;
            {
                Tracer::Scope span(tracer, "replay.prepare", -1);
                span.arg("benchmark", Value::string(name));
                span.arg("rung", Value::string(rung));
                prep = medianSeconds(reps, [&] { (void)bench->prepare(pm); });
            }
            {
                Tracer::Scope span(tracer, "replay.execute", -1);
                span.arg("benchmark", Value::string(name));
                span.arg("rung", Value::string(rung));
                exec = medianSeconds(
                    reps, [&] { out = bench->execute(plan, ws); });
            }
            if (precision == runtime::Precision::Float64)
                reference = out.values;
            verify::Verdict verdict;
            double ver;
            {
                Tracer::Scope span(tracer, "replay.verify", -1);
                span.arg("benchmark", Value::string(name));
                span.arg("rung", Value::string(rung));
                ver = medianSeconds(std::max<std::size_t>(reps, 20), [&] {
                    verdict = comparator.verify(reference, out.values);
                });
            }
            row.set("prepare_first_ms", num(first * 1e3));
            row.set("prepare_ms", num(prep * 1e3));
            row.set("execute_ms", num(exec * 1e3));
            row.set("verify_ms", num(ver * 1e3));
            row.set("loss", num(verdict.loss));
            table.push(std::move(row));
            prepareMs[rung] += first * 1e3;
            executeMs[rung] += exec * 1e3;
            if (precision == runtime::Precision::Float32)
                verifyMs += ver * 1e3;
        }
    }
    for (const auto& [precision, rung] : rungs) {
        put(layers, "benchmarks.execute_ms." + rung, executeMs[rung], "ms");
        put(layers, "benchmarks.prepare_ms." + rung, prepareMs[rung], "ms");
    }
    put(layers, "verify.verify_ms", verifyMs, "ms");
    return table;
}

/** Publish then look up every executed key through a fresh memo store. */
void
replayMemo(const TraceData& data, const std::string& scratch,
           Tracer& tracer, Value& layers)
{
    std::string dir = scratch + "/memo-replay";
    std::filesystem::remove_all(dir);
    double publishS = 0.0, lookupS = 0.0;
    std::size_t ops = 0;
    {
        Tracer::Scope span(tracer, "replay.memo", -1);
        search::MemoStore store(dir);
        for (const auto& [describe, entry] : data.keys) {
            const auto& [fp, keys] = entry;
            auto table = store.table(fp);
            Clock::time_point t0 = Clock::now();
            for (const auto& [key, eval] : keys)
                table->publish(key, eval);
            Clock::time_point t1 = Clock::now();
            std::size_t found = 0;
            for (const auto& [key, eval] : keys)
                found += table->lookup(key).has_value();
            Clock::time_point t2 = Clock::now();
            if (found != keys.size())
                support::fatal("memo replay lost published keys");
            publishS += seconds(t0, t1);
            lookupS += seconds(t1, t2);
            ops += keys.size();
        }
    }
    std::filesystem::remove_all(dir);
    double n = static_cast<double>(std::max<std::size_t>(ops, 1));
    put(layers, "search.memo_publish_us", publishS * 1e6 / n, "us");
    put(layers, "search.memo_lookup_us", lookupS * 1e6 / n, "us");
}

/** Nearest-rank percentile of @p v (sorted in place). */
double
percentile(std::vector<double>& v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Per-layer metrics from the traced passes, per pass. */
Value
layerMetrics(const Workload& w, const std::vector<Pass>& passes,
             TraceData& data, const Tracer& tracer)
{
    Value layers = Value::object();
    double n =
        static_cast<double>(std::max<std::size_t>(data.tracedPasses, 1));

    std::size_t ev = 0, cacheHits = 0, memoHits = 0, compileFails = 0,
                retries = 0, quarantined = 0, forks = 0, dispatches = 0,
                respawns = 0, cleanChildren = 0;
    double searchS = 0.0, constructS = 0.0, finalS = 0.0, evaluateS = 0.0;
    double spawnS = 0.0;
    double tracedS = 0.0, untracedS = 0.0;
    std::size_t untracedPasses = 0;
    for (const Pass& pass : passes) {
        double total = pass.total(&JobRecord::setupS) +
                       pass.total(&JobRecord::campaignS);
        if (!pass.traced) {
            untracedS += total;
            ++untracedPasses;
            continue;
        }
        tracedS += total;
        for (const JobRecord& r : pass.jobs) {
            ev += r.search.evaluated;
            cacheHits += r.search.cacheHits;
            memoHits += r.search.memoHits;
            compileFails += r.search.compileFailures;
            retries += r.search.retries;
            quarantined += r.search.quarantined;
            forks += r.sandbox.forks;
            dispatches += r.sandbox.poolDispatches;
            respawns += r.sandbox.workerRespawns;
            std::size_t clean = w.options.isolation ==
                                        support::IsolationMode::Pool
                                    ? r.sandbox.poolDispatches
                                    : r.sandbox.cleanExits;
            spawnS += r.sandbox.spawnOverheadMeanSeconds *
                      static_cast<double>(clean);
            cleanChildren += clean;
        }
    }
    for (const perfbench::Span& span : tracer.spans()) {
        if (span.name == "search")
            searchS += span.durUs * 1e-6;
        else if (span.name == "construct")
            constructS += span.durUs * 1e-6;
        else if (span.name == "final")
            finalS += span.durUs * 1e-6;
        else if (span.name == "evaluate")
            evaluateS += span.durUs * 1e-6;
    }

    put(layers, "typeforge.analyze_s", data.analyzeS / n, "s");
    put(layers, "typeforge.prior_s", data.priorS / n, "s");
    put(layers, "core.construct_s", constructS / n, "s");
    put(layers, "core.final_s", finalS / n, "s");
    // Percentiles over executed evaluations; compile failures never run.
    std::size_t executed = data.evalMs.size();
    put(layers, "core.eval_ms.p50", percentile(data.evalMs, 50), "ms");
    put(layers, "core.eval_ms.p90", percentile(data.evalMs, 90), "ms");
    put(layers, "core.eval_busy_s", evaluateS / n, "s");
    put(layers, "search.overhead_us_per_eval",
        (searchS - evaluateS - data.digestS) * 1e6 /
            static_cast<double>(std::max<std::size_t>(ev, 1)),
        "us");
    put(layers, "search.pass_ratio",
        executed ? static_cast<double>(data.passing) /
                       static_cast<double>(executed)
                 : 0.0,
        "ratio");
    put(layers, "search.cache_hits", cacheHits / n, "count");
    put(layers, "search.memo_hits", memoHits / n, "count");
    put(layers, "search.compile_failures", compileFails / n, "count");
    put(layers, "search.retries", retries / n, "count");
    put(layers, "search.quarantined", quarantined / n, "count");
    double spawnMs = cleanChildren ? spawnS * 1e3 / cleanChildren : 0.0;
    bool pool = w.options.isolation == support::IsolationMode::Pool;
    bool fork = w.options.isolation == support::IsolationMode::Fork;
    put(layers, "support.fork_spawn_ms", fork ? spawnMs : 0.0, "ms");
    put(layers, "support.pool_dispatch_ms", pool ? spawnMs : 0.0, "ms");
    put(layers, "support.child_forks", forks / n, "count");
    put(layers, "support.pool_dispatches", dispatches / n, "count");
    put(layers, "support.respawns", respawns / n, "count");

    // Tracing overhead: traced minus untraced set-up + campaign time,
    // per pass. The self-times below sum to the traced figure (digest
    // spans, the benchmark's own work, are children of search and so
    // drop out of every self-time); the job's self-time is what no
    // named layer accounts for.
    double traced = tracedS / n;
    double untraced = untracedS / std::max<std::size_t>(untracedPasses, 1);
    put(layers, "trace.untraced_s", untraced, "s");
    put(layers, "trace.traced_s", traced, "s");
    put(layers, "trace.overhead_s", traced - untraced, "s");
    std::map<std::string, double> self = tracer.selfSeconds();
    for (const char* name :
         {"job", "construct", "prior", "search", "evaluate", "final"})
        put(layers, std::string("trace.self_s.") + name, self[name] / n, "s");
    return layers;
}

/** Machine fingerprint known to the binary; run.py adds the rest. */
Value
buildInfo()
{
    Value v = Value::object();
    v.set("nproc", num(static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))));
    v.set("compiler", Value::string(PERFBENCH_COMPILER));
    v.set("flags", Value::string(PERFBENCH_FLAGS));
    v.set("build_type", Value::string(PERFBENCH_BUILD_TYPE));
    return v;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
run(int argc, char** argv)
{
    support::CommandLine cl(argc, argv);
    std::string outPath = cl.getString("out", "");
    std::string scratch = cl.getString("scratch", "");
    if (outPath.empty() || scratch.empty())
        support::fatal("--out and --scratch are required");
    long seed = cl.getLong("seed", 1);
    double budget = cl.getDouble("seconds", 10.0);
    bool trace = cl.getLong("trace", 0) != 0;
    Workload w = loadWorkload(cl.getString("workloads", ""),
                              cl.getString("workload", ""),
                              static_cast<std::uint64_t>(seed));
    std::filesystem::create_directories(scratch);

    Tracer tracer;
    TraceData data;
    std::vector<Pass> passes;
    std::int64_t nextJobId = 0;
    double peakRss = 0.0;
    Clock::time_point start = Clock::now();
    // Whole passes only, so every pass does the same work. Trace mode
    // alternates untraced and traced passes, and takes up to four
    // traced passes to collect the 100 executed evaluations a p90 with
    // ten samples beyond it needs.
    while (true) {
        bool traced = trace && passes.size() % 2 == 1;
        Clock::time_point t0 = Clock::now();
        passes.push_back(runPass(w, scratch, traced ? &tracer : nullptr,
                                 traced ? &data : nullptr, nextJobId));
        double passS = seconds(t0, Clock::now());
        // One campaign's footprint; later passes only add heap
        // fragmentation, and their number depends on machine speed.
        if (passes.size() == 1)
            peakRss = peakRssMb();
        double elapsed = seconds(start, Clock::now());
        bool pairDone = !trace || passes.size() % 2 == 0;
        bool enough =
            !trace || data.evalMs.size() >= 100 || data.tracedPasses >= 4;
        // Stop when another pass would end more than half a pass past
        // the budget; in trace mode, when another pair would end past it.
        double next = trace ? 2.0 * passS : 0.5 * passS;
        if (pairDone && enough && elapsed + next >= budget)
            break;
    }

    Value out = Value::object();
    out.set("workload", Value::string(w.name));
    out.set("seed", Value::number(static_cast<double>(seed)));
    out.set("trace", Value::boolean(trace));
    out.set("build", buildInfo());
    Value passJson = Value::array();
    for (const Pass& p : passes)
        passJson.push(p.toJson());
    out.set("passes", std::move(passJson));
    out.set("peak_rss_mb", num(peakRss));
    out.set("measured_s", num(seconds(start, Clock::now())));
    if (trace) {
        Value layers = layerMetrics(w, passes, data, tracer);
        Value table;
        {
            Tracer::Scope span(tracer, "replay", -1);
            table = replayL0(w, tracer, layers);
            replayMemo(data, scratch, tracer, layers);
        }
        out.set("layers", std::move(layers));
        out.set("executed_evaluations", count(data.evalMs.size()));
        out.set("l0", std::move(table));
        std::string tracePath = cl.getString("trace-out", "");
        if (!tracePath.empty()) {
            Value meta = Value::object();
            meta.set("workload", Value::string(w.name));
            meta.set("build", buildInfo());
            std::ofstream(tracePath)
                << tracer.chromeTrace(std::move(meta)).dump();
        }
    }
    std::ofstream file(outPath);
    file << out.dump(1) << "\n";
    if (!file)
        support::fatal("cannot write '" + outPath + "'");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 2;
    }
}
