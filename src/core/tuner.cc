#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "runtime/workspace.h"
#include "search/genetic.h"
#include "support/logging.h"
#include "support/memo_log.h"
#include "support/timer.h"
#include "support/worker_pool.h"
#include "typeforge/lint.h"

namespace hpcmixp::core {

using benchmarks::PrecisionMap;
using search::Config;
using search::EvalStatus;
using search::Evaluation;
using search::StructureNode;

/** Cluster-granularity problem: one site per Typeforge cluster. */
class BenchmarkTuner::ClusterProblem final : public search::SearchProblem {
  public:
    explicit ClusterProblem(BenchmarkTuner& tuner) : tuner_(tuner) {}

    std::size_t siteCount() const override
    {
        return tuner_.clusterCount();
    }

    std::size_t maxLevel() const override
    {
        return tuner_.options_.ladder.maxLevel();
    }

    Evaluation
    evaluate(const Config& config) override
    {
        return tuner_.evaluateSearchConfig(config);
    }

  private:
    BenchmarkTuner& tuner_;
};

/**
 * Variable-granularity problem: one site per Real variable. Splitting
 * a cluster is a compile failure (Typeforge would refuse to emit the
 * transformed source), which costs search effort but never runs.
 */
class BenchmarkTuner::VariableProblem final
    : public search::SearchProblem {
  public:
    explicit VariableProblem(BenchmarkTuner& tuner) : tuner_(tuner) {}

    std::size_t siteCount() const override
    {
        return tuner_.variableCount();
    }

    std::size_t maxLevel() const override
    {
        return tuner_.options_.ladder.maxLevel();
    }

    Evaluation
    evaluate(const Config& config) override
    {
        // Compile check: every cluster must be uniformly typed — under
        // a ladder, uniform in *level*, not merely lowered-or-not.
        const auto& clusters = tuner_.clusters_;
        for (std::size_t c = 0; c < clusters.clusterCount(); ++c) {
            const auto& members = clusters.members(c);
            std::uint8_t first =
                tuner_.varLevel(config, members.front());
            for (model::VarId v : members) {
                if (tuner_.varLevel(config, v) != first) {
                    Evaluation eval;
                    eval.status = EvalStatus::CompileFail;
                    return eval;
                }
            }
        }
        return tuner_.evaluateSearchConfig(tuner_.toClusterConfig(config));
    }

    const StructureNode* structure() const override
    {
        return &tuner_.structure_;
    }

  private:
    BenchmarkTuner& tuner_;
};

namespace {

/** Position of @p var within the ascending real-variable site list. */
std::size_t
siteIndexOf(const std::vector<model::VarId>& variables, model::VarId var)
{
    auto it = std::lower_bound(variables.begin(), variables.end(), var);
    HPCMIXP_ASSERT(it != variables.end() && *it == var,
                   "variable is not a search site");
    return static_cast<std::size_t>(it - variables.begin());
}

/**
 * Reusable per-thread execution arena. One workspace per evaluation
 * thread keeps executes allocation-free across reps and configurations
 * while composing with --search-jobs (each worker thread gets its own
 * arena, so concurrent evaluations never share scratch buffers).
 */
runtime::RunWorkspace&
evalWorkspace()
{
    thread_local runtime::RunWorkspace workspace;
    return workspace;
}

/**
 * Fixed header of a pool job record: [PoolJobHeader][config chars].
 * The configuration crosses as its digit-per-site toString() image —
 * the same canonical key the memo layer uses — so the wire format is
 * independent of Config's in-memory layout.
 */
struct PoolJobHeader {
    std::uint32_t reps = 0;
    std::uint32_t rawFault = 0;  ///< search::RawFault drawn in the parent
    std::uint32_t keyLength = 0; ///< config chars following the header
    std::uint32_t pad = 0;
};

/** Reps of each side of a final measurement; zero means one. */
std::size_t
finalRepCount(const TunerOptions& options)
{
    return std::max<std::size_t>(options.finalReps, 1);
}

} // namespace

/**
 * Fixed-size result of one measured evaluation. POD only: under
 * isolation a sandbox worker hands it back as raw bytes.
 */
struct BenchmarkTuner::SandboxPayload {
    double runtimeSeconds = 0.0;   ///< trimmed mean over timed reps
    double childWallSeconds = 0.0; ///< worker-side wall clock
    std::uint32_t passed = 0;
    std::uint32_t pad = 0;
    double loss = 0.0;
};

std::uint8_t
BenchmarkTuner::varLevel(const Config& varCfg, model::VarId var) const
{
    return varCfg.level(siteIndexOf(variables_, var));
}

bool
BenchmarkTuner::useRefinement(const Config& cfg) const
{
    // The baseline must stay a plain execute: it anchors the reference
    // output and every speedup ratio. Benchmarks without a residual
    // hook simply never refine.
    return options_.refine && !cfg.isBaseline() &&
           benchmark_.supportsRefinement();
}

benchmarks::RunOutput
BenchmarkTuner::executeForConfig(const benchmarks::RunPlan& plan,
                                 runtime::RunWorkspace& ws,
                                 bool refined) const
{
    if (refined) {
        benchmarks::RefineControl control;
        // Drive the residual comfortably below the quality threshold;
        // the floor keeps well-conditioned problems at (near) the
        // reference answer.
        control.targetResidual =
            std::min(control.targetResidual,
                     comparator_.threshold() * 1e-2);
        return benchmark_.executeRefined(plan, ws, control);
    }
    return benchmark_.execute(plan, ws);
}

BenchmarkTuner::BenchmarkTuner(const benchmarks::Benchmark& benchmark,
                               TunerOptions options)
    : benchmark_(benchmark),
      options_(std::move(options)),
      clusters_(typeforge::analyze(benchmark.programModel())),
      variables_(benchmark.programModel().realVariables()),
      comparator_(options_.metric.empty() ? benchmark.qualityMetric()
                                          : options_.metric,
                  options_.threshold)
{
    // Sandbox configuration sanity, checked before any evaluation
    // runs: raw fault injection is only survivable in forked children
    // (FaultyProblem re-checks via the sandboxed flag), and a raw hang
    // spins forever unless a deadline arms the parent's SIGKILL. The
    // comparisons are written so that NaN fails them: a NaN deadline
    // never arms the kill, and a NaN rate silently disables injection.
    options_.faultPlan.sandboxed =
        options_.isolation == support::IsolationMode::Fork ||
        options_.isolation == support::IsolationMode::Pool;
    const double deadline = options_.resilience.deadlineSeconds;
    if (!(deadline >= 0.0))
        support::fatal(support::strCat(
            "--deadline must be a non-negative number of seconds, got ",
            deadline));
    const search::FaultPlan& plan = options_.faultPlan;
    for (auto [rate, flag] :
         {std::pair{plan.crashRate, "--fault-rate"},
          std::pair{plan.hangRate, "--fault-hang-rate"},
          std::pair{plan.nanRate, "--fault-nan-rate"},
          std::pair{plan.rawCrashRate, "--fault-raw-crash-rate"},
          std::pair{plan.rawHangRate, "--fault-raw-hang-rate"},
          std::pair{plan.rawSegvRate, "--fault-raw-segv-rate"}})
        if (!(rate >= 0.0 && rate <= 1.0))
            support::fatal(support::strCat(
                flag, " must be a probability in [0, 1], got ", rate));
    if (plan.rawHangRate > 0.0 && !(deadline > 0.0))
        support::fatal(
            "raw hang injection (--fault-raw-hang-rate) spins until "
            "the parent kills it; it requires a positive --deadline");
    // Zero reps would leave the baseline without a sample.
    if (options_.searchReps == 0)
        support::fatal("--reps must be at least 1 timed rep per search "
                       "evaluation, got 0");

    // Each bind key must live in exactly one cluster, otherwise the
    // cluster -> knob mapping would be ambiguous. That also makes the
    // hot-cluster projection exact: two configurations that agree on
    // every hot cluster bind every knob to the same precision.
    std::map<std::string, std::size_t> keyCluster;
    hotClusters_.assign(clusterCount(), false);
    const auto& program = benchmark_.programModel();
    for (model::VarId v : variables_) {
        const auto& var = program.variable(v);
        if (var.bindKey.empty())
            continue;
        std::size_t c = clusters_.clusterOf(v);
        hotClusters_[c] = true;
        auto [it, inserted] = keyCluster.emplace(var.bindKey, c);
        HPCMIXP_ASSERT(inserted || it->second == c,
                       support::strCat("bind key '", var.bindKey,
                                       "' spans multiple clusters in ",
                                       benchmark_.name()));
    }

    buildStructure();
    runBaseline();
    clusterProblem_ = std::make_unique<ClusterProblem>(*this);
    variableProblem_ = std::make_unique<VariableProblem>(*this);
    if (options_.faultPlan.enabled()) {
        faultyCluster_ = std::make_unique<search::FaultyProblem>(
            *clusterProblem_, options_.faultPlan);
        faultyVariable_ = std::make_unique<search::FaultyProblem>(
            *variableProblem_, options_.faultPlan);
    }

    // Set up the sandbox now, after runBaseline(): every worker
    // inherits the reference output through the fork, and the
    // per-campaign fd budget (rings + doorbells) is paid once here —
    // the count stays constant through the whole campaign, respawns
    // included. Pool workers fork here and serve the whole campaign,
    // converting inputs themselves; fork isolation forks a one-job
    // worker per attempt, with a slot for every evaluation thread the
    // machine runs (portfolio entrants evaluate concurrently), and
    // converts nothing here: evaluateClusterConfig() converts in the
    // parent just before each dispatch.
    if (options_.isolation != support::IsolationMode::None) {
        const bool pool = options_.isolation == support::IsolationMode::Pool;
        std::size_t workers = std::max<std::size_t>(options_.searchJobs, 1);
        if (pool && options_.poolWorkers > 0)
            workers = options_.poolWorkers;
        if (!pool)
            workers = std::max<std::size_t>(
                workers, std::thread::hardware_concurrency());
        workerPool_ = std::make_unique<support::WorkerPool>(
            workers, sizeof(PoolJobHeader) + clusterCount(),
            sizeof(SandboxPayload),
            [this](const void* job, std::size_t jobSize, void* result,
                   std::size_t resultCapacity) {
                return serveJob(job, jobSize, result, resultCapacity);
            },
            pool ? support::WorkerLifetime::Persistent
                 : support::WorkerLifetime::OneJob);
    }
}

BenchmarkTuner::~BenchmarkTuner() = default;

void
BenchmarkTuner::buildStructure()
{
    const auto& program = benchmark_.programModel();
    structure_ = StructureNode{};
    structure_.name = program.name();

    auto leafFor = [&](model::VarId v) {
        StructureNode leaf;
        leaf.name = program.variable(v).name;
        leaf.sites = {siteIndexOf(variables_, v)};
        return leaf;
    };

    for (const auto& mod : program.modules()) {
        StructureNode modNode;
        modNode.name = mod.name;
        for (model::VarId g : mod.globals) {
            if (program.variable(g).type.base != model::BaseType::Real)
                continue;
            modNode.children.push_back(leafFor(g));
            modNode.sites.push_back(siteIndexOf(variables_, g));
        }
        for (model::FunctionId f : mod.functions) {
            const auto& fn = program.function(f);
            StructureNode fnNode;
            fnNode.name = fn.name;
            for (model::VarId v : fn.variables) {
                if (program.variable(v).type.base !=
                    model::BaseType::Real)
                    continue;
                fnNode.children.push_back(leafFor(v));
                fnNode.sites.push_back(siteIndexOf(variables_, v));
            }
            if (fnNode.sites.empty())
                continue;
            modNode.sites.insert(modNode.sites.end(),
                                 fnNode.sites.begin(),
                                 fnNode.sites.end());
            modNode.children.push_back(std::move(fnNode));
        }
        if (modNode.sites.empty())
            continue;
        structure_.sites.insert(structure_.sites.end(),
                                modNode.sites.begin(),
                                modNode.sites.end());
        structure_.children.push_back(std::move(modNode));
    }
}

void
BenchmarkTuner::runBaseline()
{
    // The baseline runtime only divides search-time speedups, and every
    // search decision compares two speedups over that one divisor, so
    // it is timed like any search evaluation: searchReps reps, once per
    // memo store. Reported speedups divide by finalMeasure()'s own
    // interleaved baseline reps. Rep 1's output is the reference, which
    // also identifies the inputs the baseline table is keyed by; a hit
    // stops there. Without a store, or on a miss, that output is freed
    // before the remaining reps are timed, the last rep's output
    // becomes the reference (execute determinism makes it the same),
    // and the trimmed mean of all the reps is published. The first
    // publisher wins, so every tuner on one store divides by the same
    // baseline.
    const Config baseline(clusterCount());
    benchmarks::RunPlan plan = benchmark_.prepare(precisionMapFor(baseline));
    std::vector<double> samples;
    benchmarks::RunOutput output;
    timeExecutes(plan, false, 1, samples, &output);
    reference_ = std::move(output.values);
    if (reference_.empty())
        support::fatal(support::strCat("benchmark ", benchmark_.name(),
                                       " produced no output"));

    std::shared_ptr<search::MemoTable> table;
    if (options_.memoStore)
        table = options_.memoStore->table(baselineFingerprint());
    const std::string key = baseline.toString();
    std::optional<Evaluation> stored =
        table ? table->lookup(key) : std::nullopt;
    const bool measured = !stored;
    if (measured) {
        if (options_.searchReps > 1) {
            reference_ = std::vector<double>();
            timeExecutes(plan, false, options_.searchReps - 1, samples,
                         &output);
            reference_ = std::move(output.values);
        }
        Evaluation eval;
        eval.status = EvalStatus::Pass;
        eval.runtimeSeconds = support::trimmedMean(std::move(samples));
        eval.speedup = 1.0;
        stored = eval;
        if (table && !table->publish(key, eval))
            stored = table->lookup(key);
    }
    baselineSeconds_ = stored->runtimeSeconds;
    support::inform(support::strCat(
        benchmark_.name(), ": f64 baseline ", baselineSeconds_ * 1e3,
        " ms ",
        measured ? support::strCat("measured over ", options_.searchReps,
                                   " reps")
                 : std::string("read from the memo store")));
}

std::uint64_t
BenchmarkTuner::inputSignature() const
{
    std::call_once(inputSignatureOnce_, [this] {
        inputSignature_ = support::xxh64(
            reference_.data(), reference_.size() * sizeof(double));
    });
    return inputSignature_;
}

PrecisionMap
BenchmarkTuner::precisionMapFor(const Config& clusterCfg) const
{
    HPCMIXP_ASSERT(clusterCfg.size() == clusterCount(),
                   "cluster config size mismatch");
    PrecisionMap pm;
    pm.setOwner(benchmark_.name());
    const auto& program = benchmark_.programModel();
    for (std::size_t c = 0; c < clusterCount(); ++c) {
        std::uint8_t level = clusterCfg.level(c);
        if (level == 0)
            continue;
        // Level L binds the cluster to rung L of the campaign ladder
        // (level 1 on the default ladder is Float32, as of old).
        runtime::Precision p = options_.ladder.at(level);
        for (model::VarId v : clusters_.members(c)) {
            const auto& var = program.variable(v);
            if (!var.bindKey.empty())
                pm.set(var.bindKey, p);
        }
    }
    return pm;
}

Config
BenchmarkTuner::toClusterConfig(const Config& varCfg) const
{
    Config out(clusterCount());
    for (std::size_t c = 0; c < clusterCount(); ++c)
        out.setLevel(c, varLevel(varCfg, clusters_.members(c).front()));
    return out;
}

/**
 * Time @p reps pure executes of @p plan, appending each rep's wall
 * time to @p samples, and leave the last rep's output in @p output
 * when it is non-null. Every rep yields the same values. An output
 * kept alive while a later rep is timed makes that rep page-fault a
 * fresh heap block inside its timed region, so runBaseline() and
 * measure() free their kept output first and finalMeasure() keeps its
 * last rep's. This is the tuner's one timed-rep loop
 * (baseline, search evaluations and final measurement), so every rep
 * frees its output outside the timed region. The timed region
 * includes the refinement sweeps: recovery is only a win when the
 * corrected run is still faster than the baseline. A diverging
 * refinement (RefineDiverged; never a hang, the iteration count is
 * bounded) throws.
 */
void
BenchmarkTuner::timeExecutes(const benchmarks::RunPlan& plan, bool refined,
                             std::size_t reps, std::vector<double>& samples,
                             benchmarks::RunOutput* output) const
{
    runtime::RunWorkspace& ws = evalWorkspace();
    for (std::size_t i = 0; i < reps; ++i) {
        support::WallTimer timer;
        benchmarks::RunOutput repOutput = executeForConfig(plan, ws, refined);
        samples.push_back(timer.seconds());
        if (i + 1 == reps && output)
            *output = std::move(repOutput);
    }
}

/**
 * One search evaluation's measurement: prepare @p cfg, time one
 * execute of it and verify that rep's output against the reference,
 * then, only when it passes, time the remaining @p reps - 1 executes.
 * A failing configuration's runtime is that single sample: no
 * decision reads it (the best pick, HR's groups and the portfolio
 * pool rank passing configurations only, GA ranks failing ones by
 * loss), and the determinism contract makes the verdict and loss
 * those of any later rep. Prepare runs once per configuration, so
 * precision resolution and input conversion stay outside the timed
 * region, and the verification output is a timed rep's, not a
 * separate untimed run's. Runs in this process or inside a sandbox
 * worker; a failing prepare throws, as timeExecutes() does.
 */
BenchmarkTuner::SandboxPayload
BenchmarkTuner::measure(const Config& cfg, std::size_t reps) const
{
    benchmarks::RunPlan plan = benchmark_.prepare(precisionMapFor(cfg));
    const bool refined = useRefinement(cfg);
    std::vector<double> samples;
    SandboxPayload payload;
    {
        benchmarks::RunOutput output;
        timeExecutes(plan, refined, 1, samples, &output);
        verify::Verdict verdict =
            comparator_.verify(reference_, output.values);
        payload.passed = verdict.passed ? 1 : 0;
        payload.loss = verdict.loss;
    } // rep 1's output is freed before rep 2 is timed
    if (payload.passed && reps > 1)
        timeExecutes(plan, refined, reps - 1, samples, nullptr);
    payload.runtimeSeconds = support::trimmedMean(std::move(samples));
    return payload;
}

Evaluation
BenchmarkTuner::evaluateClusterConfig(const Config& cfg,
                                      std::size_t reps)
{
    SandboxPayload payload;
    support::PoolOutcome outcome;
    if (!workerPool_) {
        // In process, a thrown exception is reported exactly as a
        // sandboxed job that threw.
        try {
            payload = measure(cfg, reps);
            outcome.resultValid = true;
        } catch (const std::exception&) {
            outcome.exit = support::ChildExit::NonZeroExit;
            outcome.detail = support::kChildBodyThrew;
        }
        return classify(outcome, payload);
    }

    // A raw fault drawn by FaultyProblem on this thread detonates
    // inside the worker, never in the parent.
    const search::RawFault rawFault = search::takePendingRawFault();
    if (crashLoopCutoffReached())
        return classify(std::nullopt, payload);

    // A one-job worker prepares from the parent's input caches as of
    // its dispatch and throws its own conversions away on exit, so the
    // parent converts the inputs this configuration reads first: each
    // input is converted once per process, and only at the rungs some
    // dispatched configuration reads. A failing prepare is left to the
    // worker, which reports it as a job that threw.
    if (options_.isolation == support::IsolationMode::Fork) {
        try {
            (void)benchmark_.prepare(precisionMapFor(cfg));
        } catch (const std::exception&) {
        }
    }

    const std::string key = cfg.toString();
    PoolJobHeader header;
    header.reps = static_cast<std::uint32_t>(reps);
    header.rawFault = static_cast<std::uint32_t>(rawFault);
    header.keyLength = static_cast<std::uint32_t>(key.size());
    std::vector<unsigned char> job(sizeof header + key.size());
    std::memcpy(job.data(), &header, sizeof header);
    std::memcpy(job.data() + sizeof header, key.data(), key.size());
    outcome = workerPool_->run(job.data(), job.size(), &payload,
                               sizeof payload,
                               options_.resilience.deadlineSeconds);
    return classify(outcome, payload);
}

/** @p cfg with every cold cluster at double: its precision map. */
Config
BenchmarkTuner::hotProjection(const Config& cfg) const
{
    Config hot(cfg.size());
    for (std::size_t c = 0; c < cfg.size(); ++c)
        if (hotClusters_[c])
            hot.setLevel(c, cfg.level(c));
    return hot;
}

/**
 * The executable @p cfg runs: its precision map, which only hot
 * clusters reach, plus whether it executes refined. The refinement
 * flag is needed because useRefinement() asks the *unprojected*
 * configuration: one that lowers only cold clusters runs refined on
 * the all-double map, unlike the baseline itself.
 */
std::string
BenchmarkTuner::executableKey(const Config& cfg) const
{
    std::string key = hotProjection(cfg).toString();
    if (useRefinement(cfg))
        key += "+ir";
    return key;
}

/**
 * A search evaluation: served from the executable table when another
 * configuration already timed and verified the same executable,
 * answered from the baseline when it runs the all-double executable,
 * measured by evaluateClusterConfig() otherwise. Only clean Pass and
 * QualityFail results are stored; runtime failures, deadline kills
 * and crash-loop cutoffs stay per-attempt. An attempt carrying a
 * pending raw fault always reaches a worker and is never stored, so
 * the fault detonates in exactly the attempt that drew it. Concurrent
 * misses on one key may both measure; the first store wins, and the
 * execute determinism contract makes their verdicts identical.
 */
Evaluation
BenchmarkTuner::evaluateSearchConfig(const Config& cfg)
{
    if (search::pendingRawFault() != search::RawFault::None)
        return evaluateClusterConfig(cfg, options_.searchReps);
    const std::string key = executableKey(cfg);
    {
        std::lock_guard<std::mutex> lock(executablesMutex_);
        auto it = executables_.find(key);
        if (it != executables_.end())
            return it->second;
    }
    Evaluation eval = runsBaselineExecutable(cfg)
                          ? baselineEvaluation()
                          : evaluateClusterConfig(cfg, options_.searchReps);
    if (eval.status == EvalStatus::Pass ||
        eval.status == EvalStatus::QualityFail) {
        std::lock_guard<std::mutex> lock(executablesMutex_);
        executables_.emplace(key, eval);
    }
    return eval;
}

std::size_t
BenchmarkTuner::executableCount() const
{
    std::lock_guard<std::mutex> lock(executablesMutex_);
    return executables_.size();
}

/**
 * Sandbox job handler: runs inside a worker child, one-job (isolation
 * = fork) or persistent (isolation = pool).
 *
 * prepare() happens here, in the worker: a persistent worker forked at
 * construction cannot see a RunPlan prepared later in the parent. It
 * keeps CachedInput and the thread_local workspace warm across every
 * job it serves; a one-job worker inherits the inputs the parent
 * converted for its configuration just before dispatch.
 *
 * Exceptions (prepare failures, RefineDiverged) propagate out into the
 * WorkerPool trampoline, which reports kChildBodyThrew.
 */
std::size_t
BenchmarkTuner::serveJob(const void* job, std::size_t jobSize,
                         void* result, std::size_t resultCapacity) const
{
    HPCMIXP_ASSERT(resultCapacity >= sizeof(SandboxPayload),
                   "sandbox result ring smaller than the payload");
    PoolJobHeader header;
    HPCMIXP_ASSERT(jobSize >= sizeof header, "torn sandbox job header");
    std::memcpy(&header, job, sizeof header);
    HPCMIXP_ASSERT(jobSize == sizeof header + header.keyLength,
                   "sandbox job length mismatch");
    const std::string key(
        static_cast<const char*>(job) + sizeof header, header.keyLength);

    support::WallTimer childTimer;
    search::executeRawFault(
        static_cast<search::RawFault>(header.rawFault));
    SandboxPayload payload = measure(Config::fromString(key), header.reps);
    payload.childWallSeconds = childTimer.seconds();
    std::memcpy(result, &payload, sizeof payload);
    return sizeof payload;
}

/** True once crashed children reach --isolation-max-crashes. */
bool
BenchmarkTuner::crashLoopCutoffReached() const
{
    if (options_.isolationMaxCrashes == 0)
        return false;
    std::lock_guard<std::mutex> lock(sandboxMutex_);
    return sandbox_.crashedChildren() >= options_.isolationMaxCrashes;
}

/**
 * The one place an evaluation outcome becomes an Evaluation, in every
 * isolation mode, and the one place SandboxStats are counted (only
 * under isolation). @p outcome is empty when the crash-loop cutoff
 * refused to dispatch the attempt.
 *
 * Anything but a clean, checksum-valid result maps to RuntimeFail for
 * the ordinary retry/quarantine machinery (DESIGN.md §13). A job that
 * threw is the failure the in-process path catches, so it stays
 * memoizable for trajectory (and memo-content) identity across
 * isolation modes; a crashed, killed, torn or cut-off attempt is never
 * published to the memo. A deadline kill reports one deadline miss,
 * exactly as a simulated straggler does.
 */
Evaluation
BenchmarkTuner::classify(const std::optional<support::PoolOutcome>& outcome,
                         const SandboxPayload& payload)
{
    using support::ChildExit;
    const bool clean = outcome && outcome->exit == ChildExit::Clean &&
                       outcome->resultValid;
    if (workerPool_) {
        std::lock_guard<std::mutex> lock(sandboxMutex_);
        if (!outcome) {
            ++sandbox_.fastFailed;
            if (!crashLoopWarned_) {
                crashLoopWarned_ = true;
                support::warn(support::strCat(
                    benchmark_.name(), ": ", sandbox_.crashedChildren(),
                    " crashed children reached --isolation-max-crashes; "
                    "failing further sandboxed attempts without forking"));
            }
        } else {
            switch (outcome->exit) {
              case ChildExit::Clean:
                if (clean) {
                    ++sandbox_.cleanExits;
                    spawnOverheadSum_ += std::max(
                        0.0,
                        outcome->wallSeconds - payload.childWallSeconds);
                } else {
                    // Answered without a checksum-valid result record:
                    // untrustworthy.
                    ++sandbox_.arenaCorrupt;
                }
                break;
              case ChildExit::NonZeroExit:
                ++sandbox_.nonZeroExits;
                break;
              case ChildExit::Signaled:
                ++sandbox_.signaled;
                break;
              case ChildExit::KilledOnDeadline:
                ++sandbox_.killedOnDeadline;
                break;
              case ChildExit::SpawnFailed:
                ++sandbox_.spawnFailed;
                break;
            }
        }
    }

    Evaluation eval;
    if (clean) {
        eval.runtimeSeconds = payload.runtimeSeconds;
        eval.speedup = baselineSeconds_ / payload.runtimeSeconds;
        eval.qualityLoss = payload.loss;
        eval.status = payload.passed != 0 ? EvalStatus::Pass
                                          : EvalStatus::QualityFail;
        return eval;
    }
    eval.status = EvalStatus::RuntimeFail;
    eval.qualityLoss = std::numeric_limits<double>::quiet_NaN();
    eval.memoizable = outcome && outcome->exit == ChildExit::NonZeroExit &&
                      outcome->detail == support::kChildBodyThrew;
    eval.deadlineMiss =
        outcome && outcome->exit == ChildExit::KilledOnDeadline;
    return eval;
}

std::vector<pid_t>
BenchmarkTuner::poolWorkerPids() const
{
    return workerPool_ ? workerPool_->workerPids()
                       : std::vector<pid_t>{};
}

SandboxStats
BenchmarkTuner::sandboxStats() const
{
    std::lock_guard<std::mutex> lock(sandboxMutex_);
    SandboxStats stats = sandbox_;
    stats.spawnOverheadMeanSeconds =
        stats.cleanExits > 0
            ? spawnOverheadSum_ / static_cast<double>(stats.cleanExits)
            : 0.0;
    if (workerPool_) {
        // Fork bookkeeping lives in the pool itself; fold it in so
        // `forks` means "fork() calls" in both sandboxed modes.
        support::WorkerPoolStats pool = workerPool_->stats();
        stats.forks = pool.forks;
        if (options_.isolation == support::IsolationMode::Pool) {
            stats.poolDispatches = pool.dispatched;
            stats.workerRespawns = pool.respawns;
        }
    }
    return stats;
}

/**
 * The all-double executable's result, with no execute: it is the
 * baseline itself, so execute determinism makes its output the
 * reference, its runtime the baseline's and its speedup 1.
 */
Evaluation
BenchmarkTuner::baselineEvaluation() const
{
    Evaluation eval;
    eval.status = EvalStatus::Pass;
    eval.runtimeSeconds = baselineSeconds_;
    eval.speedup = 1.0;
    eval.qualityLoss = comparator_.verify(reference_, reference_).loss;
    return eval;
}

/**
 * The final measurement of one executable, shared through the memo
 * store's finals table: keyed by the hot projection (one digit per
 * cluster, as the table loader requires) in the table of the
 * executable's refinement flag. The all-double executable is not
 * timed (baselineEvaluation()).
 */
Evaluation
BenchmarkTuner::finalMeasure(const Config& cfg)
{
    const bool refined = useRefinement(cfg);
    const std::string prefix =
        support::strCat(benchmark_.name(), ": final ", cfg.toString());
    if (runsBaselineExecutable(cfg)) {
        support::inform(
            prefix + " runs the baseline executable: speedup 1");
        return baselineEvaluation();
    }

    std::shared_ptr<search::MemoTable> table;
    if (options_.memoStore)
        table = options_.memoStore->table(finalsFingerprint(refined));
    const std::string key = hotProjection(cfg).toString();
    std::optional<Evaluation> stored =
        table ? table->lookup(key) : std::nullopt;
    const bool measured = !stored;
    if (measured) {
        stored = measureFinal(cfg, refined);
        if (stored->status == EvalStatus::RuntimeFail) {
            support::inform(prefix + " failed at runtime");
            return *stored;
        }
        // The first publisher wins; a tuner that lost the race reports
        // the stored measurement, as runBaseline() does.
        if (table && !table->publish(key, *stored))
            stored = table->lookup(key);
    }
    support::inform(support::strCat(
        prefix, " ", search::evalStatusName(stored->status),
        " at speedup ", stored->speedup, " ",
        measured ? support::strCat("measured over ",
                                   finalRepCount(options_), " pairs")
                 : std::string("read from the memo store")));
    return *stored;
}

bool
BenchmarkTuner::runsBaselineExecutable(const Config& cfg) const
{
    return !useRefinement(cfg) && hotProjection(cfg).isBaseline();
}

/**
 * The paper's final protocol, unchanged for the one measurement a
 * finals-table miss takes: finalReps baseline and configuration
 * executes, interleaved, and the ratio of their trimmed means. A
 * thrown prepare or execute is a RuntimeFail.
 */
Evaluation
BenchmarkTuner::measureFinal(const Config& cfg, bool refined) const
{
    Evaluation eval;
    PrecisionMap pm = precisionMapFor(cfg);
    PrecisionMap allDouble;
    allDouble.setOwner(benchmark_.name());

    // Both versions are prepared once and interleaved as pure executes;
    // the verification output comes from the last timed tuned rep,
    // so no kept output outlives a timed rep (see timeExecutes()).
    benchmarks::RunOutput output;
    const std::size_t reps = finalRepCount(options_);
    std::vector<double> baseSamples;
    std::vector<double> cfgSamples;
    try {
        benchmarks::RunPlan cfgPlan = benchmark_.prepare(pm);
        benchmarks::RunPlan basePlan = benchmark_.prepare(allDouble);
        for (std::size_t i = 0; i < reps; ++i) {
            timeExecutes(basePlan, false, 1, baseSamples, nullptr);
            timeExecutes(cfgPlan, refined, 1, cfgSamples,
                         i + 1 == reps ? &output : nullptr);
        }
    } catch (const std::exception&) {
        eval.status = EvalStatus::RuntimeFail;
        eval.qualityLoss = std::numeric_limits<double>::quiet_NaN();
        return eval;
    }
    verify::Verdict verdict =
        comparator_.verify(reference_, output.values);

    double baseMean = support::trimmedMean(baseSamples);
    double cfgMean = support::trimmedMean(cfgSamples);

    eval.runtimeSeconds = cfgMean;
    eval.speedup = baseMean / cfgMean;
    eval.qualityLoss = verdict.loss;
    eval.status =
        verdict.passed ? EvalStatus::Pass : EvalStatus::QualityFail;
    return eval;
}

search::StaticPrior
BenchmarkTuner::staticPrior(search::Granularity granularity) const
{
    if (options_.staticPrior == search::PriorMode::Off)
        return {};

    // Lint under the campaign's own ladder and quality threshold so
    // the certified caps speak about the rungs this search will
    // actually propose.
    typeforge::AbsintOptions absOptions;
    absOptions.ladder = options_.ladder;
    absOptions.threshold = options_.threshold;
    typeforge::SensitivityReport report = typeforge::lint(
        benchmark_.programModel(), clusters_, absOptions);

    // Per-cluster verdicts, indexed by cluster.
    std::vector<typeforge::Sensitivity> verdict(
        clusterCount(), typeforge::Sensitivity::Unknown);
    std::vector<int> clusterScore(clusterCount(), 0);
    std::vector<std::uint8_t> certifiedCap(clusterCount(),
                                           typeforge::kNoCap);
    for (const auto& cv : report.clusters) {
        verdict[cv.cluster] = cv.sensitivity;
        clusterScore[cv.cluster] = cv.score;
        certifiedCap[cv.cluster] = cv.certifiedCap;
    }

    bool variableLevel = granularity == search::Granularity::Variable;
    std::size_t sites = variableLevel ? variableCount() : clusterCount();
    std::vector<std::uint8_t> caps(sites, 0);
    std::vector<bool> narrow(sites, false);
    std::vector<int> scores(sites, 0);
    for (std::size_t i = 0; i < sites; ++i) {
        // A variable site inherits the verdict of its cluster: pinning
        // (or narrowing) part of a cluster would split it, which the
        // variable-level problem rejects as a compile failure anyway.
        // Each verdict maps to a per-rung floor: KeepDouble pins the
        // site (cap 0), Unknown allows float but nothing deeper
        // (cap 1), SafeToNarrow may take any rung. On the default
        // two-rung ladder caps 1 and unbounded are indistinguishable,
        // which is exactly the historical pinned/free split.
        std::size_t c =
            variableLevel ? clusters_.clusterOf(variables_[i]) : i;
        switch (verdict[c]) {
        case typeforge::Sensitivity::KeepDouble:
            caps[i] = 0;
            break;
        case typeforge::Sensitivity::SafeToNarrow:
            caps[i] = search::StaticPrior::kUnbounded;
            narrow[i] = true;
            break;
        default:
            caps[i] = 1;
            break;
        }
        // Certified absint caps only tighten: a rung with a proof of
        // overflow or budget blowout is excluded even for a cluster
        // the heuristics called safe; they never deepen a heuristic
        // floor, so the search space shrinks or stays put.
        if (options_.certifiedCaps)
            caps[i] = std::min(caps[i], certifiedCap[c]);
        scores[i] = clusterScore[c];
    }
    return search::StaticPrior::withCaps(
        options_.staticPrior, std::move(caps), std::move(narrow),
        std::move(scores));
}

search::SearchProblem&
BenchmarkTuner::clusterProblem()
{
    return *clusterProblem_;
}

search::SearchProblem&
BenchmarkTuner::variableProblem()
{
    return *variableProblem_;
}

search::SearchProblem&
BenchmarkTuner::searchClusterProblem()
{
    if (faultyCluster_)
        return *faultyCluster_;
    return *clusterProblem_;
}

search::SearchProblem&
BenchmarkTuner::searchVariableProblem()
{
    if (faultyVariable_)
        return *faultyVariable_;
    return *variableProblem_;
}

search::MemoFingerprint
BenchmarkTuner::fingerprint(search::Granularity granularity) const
{
    search::MemoFingerprint fp;
    fp.benchmark = benchmark_.name();
    // The benchmark's inputs are seeded and deterministic, so the
    // reference output identifies them: any input change shows up in
    // the baseline values and retires every stale memo entry.
    fp.inputSignature = inputSignature();
    fp.metric = comparator_.metric().name();
    fp.threshold = comparator_.threshold();
    fp.sites = granularity == search::Granularity::Variable
                   ? variableCount()
                   : clusterCount();
    // The ladder decides what a level digit *means*, and refinement
    // changes what an evaluation measures; either difference makes
    // cached entries incomparable. The default ladder without
    // refinement renders as "f64:f32" — the historical fingerprint —
    // so pre-ladder memo segments stay loadable.
    fp.ladder = options_.ladder.describe();
    if (options_.refine)
        fp.ladder += "+ir";
    return fp;
}

search::MemoFingerprint
BenchmarkTuner::baselineFingerprint() const
{
    search::MemoFingerprint fp;
    fp.benchmark = benchmark_.name();
    fp.inputSignature = inputSignature();
    fp.metric = "runtime";
    fp.threshold = 0.0;
    fp.sites = clusterCount();
    fp.ladder = "f64";
    return fp;
}

search::MemoFingerprint
BenchmarkTuner::finalsFingerprint(bool refined) const
{
    search::MemoFingerprint fp = fingerprint(search::Granularity::Cluster);
    // The stored verdict depends on metric and threshold, the key's
    // digits on the ladder, and the speedup on the rep count.
    fp.ladder = support::strCat(
        options_.ladder.describe(), refined ? "+ir" : "", "/final",
        finalRepCount(options_));
    return fp;
}

search::SearchRunOptions
BenchmarkTuner::runOptionsFor(search::Granularity granularity)
{
    search::SearchRunOptions run;
    run.resilience = options_.resilience;
    run.searchJobs = options_.searchJobs;
    run.prior = staticPrior(granularity);
    if (options_.memoStore)
        run.memo = options_.memoStore->table(fingerprint(granularity));
    return run;
}

TuneOutcome
BenchmarkTuner::tune(const std::string& strategyCode)
{
    auto strategy =
        search::StrategyRegistry::instance().create(strategyCode);
    return tune(*strategy);
}

TuneOutcome
BenchmarkTuner::tune(search::SearchStrategy& strategy)
{
    bool variableLevel =
        strategy.granularity() == search::Granularity::Variable;
    search::SearchProblem& problem = variableLevel
                                         ? searchVariableProblem()
                                         : searchClusterProblem();

    search::SearchRunOptions run = runOptionsFor(strategy.granularity());

    TuneOutcome outcome;
    outcome.search = search::runSearch(problem, strategy,
                                       options_.budget, run);

    outcome.clusterConfig =
        variableLevel ? toClusterConfig(outcome.search.best)
                      : outcome.search.best;

    if (outcome.search.foundImprovement) {
        Evaluation final = finalMeasure(outcome.clusterConfig);
        outcome.finalSpeedup = final.speedup;
        outcome.finalQualityLoss = final.qualityLoss;
        outcome.baselineExecutable =
            runsBaselineExecutable(outcome.clusterConfig);
    } else {
        outcome.finalSpeedup = 1.0;
        outcome.finalQualityLoss = 0.0;
    }
    return outcome;
}

PortfolioOutcome
BenchmarkTuner::tunePortfolio(
    const std::vector<std::string>& strategyCodes,
    search::PortfolioMode mode, std::size_t workers)
{
    std::vector<std::string> codes = strategyCodes;
    if (codes.empty())
        codes = search::StrategyRegistry::instance().codes();
    HPCMIXP_ASSERT(!codes.empty(), "portfolio with no strategies");

    std::vector<search::PortfolioEntrant> entrants;
    entrants.reserve(codes.size());
    for (const std::string& code : codes) {
        search::PortfolioEntrant entrant;
        entrant.code = code;
        if (code == "GA") {
            // The registry default GA carries the paper's fixed seed;
            // follow the campaign seed like FloatsmithAnalysis does.
            search::GaOptions gaOptions;
            gaOptions.seed = options_.seed;
            entrant.strategy =
                std::make_shared<search::GeneticSearch>(gaOptions);
        } else {
            entrant.strategy =
                search::StrategyRegistry::instance().create(code);
        }
        bool variableLevel = entrant.strategy->granularity() ==
                             search::Granularity::Variable;
        entrant.problem = variableLevel ? &searchVariableProblem()
                                        : &searchClusterProblem();
        entrant.run = runOptionsFor(entrant.strategy->granularity());
        entrants.push_back(std::move(entrant));
    }

    search::PortfolioOptions portfolioOptions;
    portfolioOptions.mode = mode;
    portfolioOptions.workers = workers;
    portfolioOptions.budget = options_.budget;

    PortfolioOutcome outcome;
    outcome.portfolio = search::runPortfolio(entrants, portfolioOptions);
    for (const auto& result : outcome.portfolio.results)
        outcome.total += result;

    // Speedups measured *during* the race are contention-inflated
    // (entrants time-share the machine with each other), so they only
    // rank configs within the race. The authoritative winner is picked
    // by re-measuring each entrant's best executable with the serial
    // final protocol; ties break deterministically on the smaller
    // bitmask, then entrant order. Configurations of one executable
    // share one final measurement, and the one with the fewest lowered
    // sites, then the smaller key, represents them: timing them again
    // would only pick among equals by noise.
    struct Candidate {
        std::size_t entrant;
        std::string executable;
        search::Config cluster;
        Evaluation final;
    };
    std::vector<Candidate> candidates;
    // True when @p cluster runs an executable no candidate runs yet,
    // which is then final-measured.
    auto admit = [&](std::size_t entrant, search::Config cluster) {
        std::string executable = executableKey(cluster);
        for (Candidate& seen : candidates) {
            if (seen.executable != executable)
                continue;
            if (std::pair(cluster.count(), cluster.toString()) <
                std::pair(seen.cluster.count(), seen.cluster.toString())) {
                seen.entrant = entrant;
                seen.cluster = std::move(cluster);
            }
            return false;
        }
        Evaluation final = finalMeasure(cluster);
        candidates.push_back(
            {entrant, std::move(executable), std::move(cluster), final});
        return true;
    };
    for (std::size_t i = 0; i < entrants.size(); ++i) {
        const search::SearchResult& result =
            outcome.portfolio.results[i];
        if (!result.foundImprovement)
            continue;
        bool variableLevel = entrants[i].strategy->granularity() ==
                             search::Granularity::Variable;
        admit(i, variableLevel ? toClusterConfig(result.best)
                               : result.best);
    }

    // The entrant bests alone can miss the true optimum: under
    // contention an entrant may rank a mediocre configuration above
    // the genuinely best one it executed. The shared cluster table
    // holds every configuration any cluster-level entrant ran, so the
    // top few passing entries join the candidate set. (The variable
    // table is skipped: its bitmasks only reduce to cluster configs
    // when cluster-uniform.) Entrant bests precede pool entries, so a
    // pool entry of a new executable only wins on a strictly better
    // re-measurement. The
    // cap bounds the number of extra executables final-measured; it is
    // sized to cover a small cluster space outright, because the
    // in-race ranking that orders the pool is itself noisy.
    constexpr std::size_t kPoolCandidates = 6;
    if (options_.memoStore) {
        auto pool = options_.memoStore
                        ->table(fingerprint(
                            search::Granularity::Cluster))
                        ->entries();
        std::sort(pool.begin(), pool.end(),
                  [](const auto& a, const auto& b) {
                      if (a.second.speedup != b.second.speedup)
                          return a.second.speedup > b.second.speedup;
                      return a.first < b.first;
                  });
        std::size_t taken = 0;
        for (const auto& [key, eval] : pool) {
            if (taken == kPoolCandidates)
                break;
            // Pass/fail is the only in-race signal worth trusting:
            // in-race runtimes are contention-inflated against the
            // clean baseline, so even the true optimum can carry a
            // sub-1.0 stored speedup.
            if (eval.passed() && key.size() == clusterCount() &&
                admit(entrants.size(), search::Config::fromString(key)))
                ++taken;
        }
    }

    const Candidate* chosen = nullptr;
    for (const Candidate& candidate : candidates) {
        if (!chosen) {
            chosen = &candidate;
            continue;
        }
        if (candidate.final.passed() != chosen->final.passed()) {
            if (candidate.final.passed())
                chosen = &candidate;
            continue;
        }
        if (candidate.final.speedup != chosen->final.speedup) {
            if (candidate.final.speedup > chosen->final.speedup)
                chosen = &candidate;
            continue;
        }
        if (candidate.cluster.toString() <
            chosen->cluster.toString())
            chosen = &candidate;
    }

    if (chosen) {
        outcome.winnerCode = chosen->entrant < entrants.size()
                                 ? entrants[chosen->entrant].code
                                 : "pool";
        outcome.clusterConfig = chosen->cluster;
        outcome.finalSpeedup = chosen->final.speedup;
        outcome.finalQualityLoss = chosen->final.qualityLoss;
        outcome.baselineExecutable = runsBaselineExecutable(chosen->cluster);
    } else {
        // Nobody improved on the baseline.
        const search::SearchResult& raceWinner =
            outcome.portfolio.results[outcome.portfolio.winner];
        outcome.winnerCode = raceWinner.strategyCode;
        outcome.clusterConfig = search::Config(clusterCount());
    }
    return outcome;
}

} // namespace hpcmixp::core
