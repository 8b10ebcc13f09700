#ifndef HPCMIXP_CORE_TUNER_H_
#define HPCMIXP_CORE_TUNER_H_

/**
 * @file
 * BenchmarkTuner — the FloatSmith-analogue driver.
 *
 * Given a benchmark, the tuner:
 *  1. runs the Typeforge analysis over the benchmark's program model
 *     to obtain the variable clusters,
 *  2. executes the all-double baseline once, untimed, to capture the
 *     reference output, and times its runtime like a search
 *     evaluation (searchReps reps, once per memo store): it only
 *     divides search-time speedups,
 *  3. exposes the program as a cluster-level and a variable-level
 *     search::SearchProblem (CM/HR/HC search variables and pay compile
 *     failures for cluster-splitting choices; CB/DD/GA search
 *     clusters),
 *  4. runs any registered strategy and re-times the winning
 *     configuration's executable with the paper's 10-run trimmed-mean
 *     protocol, once per memo store.
 */

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "benchmarks/benchmark.h"
#include "runtime/ladder.h"
#include "search/driver.h"
#include "search/fault.h"
#include "search/memo_store.h"
#include "search/portfolio.h"
#include "search/problem.h"
#include "support/worker_pool.h"
#include "typeforge/clustering.h"
#include "verify/comparator.h"

namespace hpcmixp::core {

/** Tuning options: quality bound, timing protocol, search budget. */
struct TunerOptions {
    std::string metric;      ///< empty = the benchmark's default
    double threshold = 1e-6; ///< max acceptable quality loss
    std::size_t searchReps = 3; ///< timing reps per search evaluation
                                ///< and for the search-time baseline
    std::size_t finalReps = 10; ///< reps for the final measurement
    search::SearchBudget budget{2000, 0.0};

    /** Campaign seed, shared by the GA and the fault injector. */
    std::uint64_t seed = 2020;

    /**
     * The precision ladder (harness --ladder). A site at config level
     * L runs at rung L of this ladder; the default two-rung
     * double->float ladder reproduces the pre-ladder binary campaign
     * bit-for-bit (property-pinned trajectories).
     */
    runtime::PrecisionLadder ladder;

    /**
     * Iterative-refinement recovery (harness --refine). When on,
     * every non-baseline evaluation of a benchmark that exposes a
     * residual hook runs through Benchmark::executeRefined(): the
     * low-precision execute is followed by high-precision residual
     * correction, letting aggressive half/bfloat16 configurations
     * pass thresholds they would otherwise fail. A diverging
     * refinement throws RefineDiverged, which the evaluation layer
     * reports as RuntimeFail. The fingerprint carries a "+ir" marker
     * so refined and unrefined results never share a memo table.
     */
    bool refine = false;

    /** Retry/deadline/backoff policy for every search evaluation. */
    search::ResiliencePolicy resilience;

    /** Fault-injection plan; all-zero rates disable injection. */
    search::FaultPlan faultPlan;

    /** Worker threads for in-search batch evaluation; 1 = serial. */
    std::size_t searchJobs = 1;

    /** mixp-lint static prior mode (harness --static-prior). Off
     *  reproduces the uninstrumented trajectories bit-for-bit. */
    search::PriorMode staticPrior = search::PriorMode::Off;

    /**
     * Fold the abstract interpreter's certified per-rung level caps
     * into the static prior (harness --certified-caps). Certificates
     * only ever *tighten* the heuristic caps — a rung proven to
     * overflow or to blow the error budget is excluded before any
     * evaluation runs — so turning this off recovers the PR 5
     * heuristic prior exactly. No effect when staticPrior is Off.
     */
    bool certifiedCaps = true;

    /**
     * Persistent cross-run memo-cache (harness --memo-cache). When
     * set, every search consults the benchmark-fingerprinted table
     * before executing a configuration and publishes what it ran, and
     * the baseline runtime and each executable's final measurement
     * are read from (or published to) their own tables; null keeps
     * evaluation purely in-process.
     */
    std::shared_ptr<search::MemoStore> memoStore;

    /**
     * Where each search evaluation attempt executes (harness
     * --isolation): in this process, or on a support::WorkerPool
     * worker so a configuration that SIGSEGVs, aborts or hangs is
     * contained and quarantined instead of killing the tuner. Fork
     * runs each attempt on a fresh worker that serves that one job
     * (DESIGN.md §13); Pool runs it on a persistent pre-forked worker
     * that amortizes the spawn cost across the whole campaign
     * (DESIGN.md §15). Final measurements always run in-process —
     * only configurations that already survived the sandbox reach
     * them.
     */
    support::IsolationMode isolation = support::IsolationMode::None;

    /**
     * Crash-loop cutoff (harness --isolation-max-crashes): once this
     * many children have crashed or been killed, further sandboxed
     * attempts fail fast without being dispatched to a worker (so
     * without forking one under isolation = Fork). 0 = unlimited.
     */
    std::size_t isolationMaxCrashes = 0;

    /**
     * Worker processes under isolation = Pool (harness
     * --pool-workers); 0 sizes the pool to searchJobs, so each batch
     * evaluation thread has a sandbox worker to itself.
     */
    std::size_t poolWorkers = 0;
};

/**
 * Sandboxed-evaluation accounting (isolation = Fork or Pool); all
 * zero under in-process evaluation. Child deaths are classified by
 * exit class — each nonzero-exit / signaled / killed / corrupt child
 * surfaced to the search layer as a RuntimeFail and fed the ordinary
 * retry-then-quarantine machinery.
 */
struct SandboxStats {
    std::size_t forks = 0;            ///< fork() calls (spawn + respawn)
    std::size_t cleanExits = 0;       ///< jobs with a valid result
    std::size_t nonZeroExits = 0;     ///< exited with a nonzero code
    std::size_t signaled = 0;         ///< died by signal (SIGSEGV, abort)
    std::size_t killedOnDeadline = 0; ///< SIGKILLed by the parent
    std::size_t arenaCorrupt = 0;     ///< answered with a torn result
    std::size_t spawnFailed = 0;      ///< fork() itself failed
    std::size_t fastFailed = 0;       ///< crash-loop cutoff short-circuits

    /// Pool-mode extras (isolation = Pool); zero otherwise. Under the
    /// pool, `forks` counts the initial spawns plus respawns while
    /// dispatches counts jobs served over the rings; under Fork every
    /// job has a worker to itself, so `forks` counts the jobs.
    std::size_t poolDispatches = 0;   ///< jobs handed to pool workers
    std::size_t workerRespawns = 0;   ///< workers re-forked after a death

    /** Mean sandbox overhead per clean job: parent wall clock minus
     *  the worker-side wall clock of the job. Under isolation = Fork
     *  that is fork + dispatch + reap; under isolation = Pool it is
     *  the per-job dispatch overhead (ring write + doorbell + result
     *  read). The spawn-amortization bench gates their ratio. */
    double spawnOverheadMeanSeconds = 0.0;

    /** Children that produced no usable result. */
    std::size_t crashedChildren() const
    {
        return nonZeroExits + signaled + killedOnDeadline +
               arenaCorrupt + spawnFailed;
    }

    bool operator==(const SandboxStats&) const = default;
};

/** Result of a full tuning run with one strategy. */
struct TuneOutcome {
    search::SearchResult search;    ///< raw search statistics
    search::Config clusterConfig;   ///< winner at cluster granularity
    double finalSpeedup = 1.0;      ///< 10-run protocol measurement
    double finalQualityLoss = 0.0;  ///< loss of the winner
    /// The winner runs the all-double executable (it lowers only cold
    /// clusters), so its final speedup is exactly 1 and timed nothing.
    bool baselineExecutable = false;
};

/**
 * Result of racing several strategies against the shared memo store.
 *
 * `portfolio.winner` is the in-race winner under the deterministic
 * portfolio rule, judged on speedups measured *while* the entrants
 * contend for the machine. `winnerCode`/`clusterConfig` may differ:
 * they are picked by re-measuring every improving entrant's best
 * configuration — plus the top passing entries of the shared
 * cluster-level memo table, which catch optima an entrant executed
 * but misranked under contention — with the serial final protocol,
 * the authoritative comparison, once per executable. Among
 * configurations of one executable the one with the fewest lowered
 * sites, then the smaller key, is returned. `winnerCode` is "pool"
 * when the returned configuration came from the shared table rather
 * than any entrant's pick.
 */
struct PortfolioOutcome {
    search::PortfolioResult portfolio; ///< per-strategy results + winner
    std::string winnerCode;            ///< strategy code of the winner
    search::Config clusterConfig;      ///< winner at cluster granularity
    double finalSpeedup = 1.0;         ///< 10-run protocol measurement
    double finalQualityLoss = 0.0;     ///< loss of the winner
    bool baselineExecutable = false;   ///< as TuneOutcome's
    search::SearchCounters total;      ///< summed over the entrants
};

/** Drives mixed-precision tuning of one benchmark. */
class BenchmarkTuner {
  public:
    BenchmarkTuner(const benchmarks::Benchmark& benchmark,
                   TunerOptions options);
    ~BenchmarkTuner();

    BenchmarkTuner(const BenchmarkTuner&) = delete;
    BenchmarkTuner& operator=(const BenchmarkTuner&) = delete;

    /** The Typeforge clustering of the benchmark's model. */
    const typeforge::ClusterSet& clusters() const { return clusters_; }

    /** Sites of the cluster-level problem. */
    std::size_t clusterCount() const { return clusters_.clusterCount(); }

    /** Per cluster: true when some member binds a runtime knob. The
     *  other ("cold") clusters never change the executable. */
    const std::vector<bool>& hotClusters() const { return hotClusters_; }

    /** Sites of the variable-level problem. */
    std::size_t variableCount() const { return variables_.size(); }

    /** Baseline (all-double) runtime in seconds, the divisor of
     *  search-time speedups: the trimmed mean of searchReps reps
     *  timed by this tuner, or read from the memo store's baseline
     *  table. Final speedups time their own baseline reps. */
    double baselineSeconds() const { return baselineSeconds_; }

    /** Cluster-level search problem (CB, DD, GA). */
    search::SearchProblem& clusterProblem();

    /** Variable-level search problem with structure info (CM, HR, HC). */
    search::SearchProblem& variableProblem();

    /** clusterProblem() wrapped in the configured fault plan
     *  (the plain problem when injection is disabled). */
    search::SearchProblem& searchClusterProblem();

    /** variableProblem() wrapped in the configured fault plan. */
    search::SearchProblem& searchVariableProblem();

    /**
     * Run the strategy registered under @p strategyCode at its own
     * granularity, then re-time the winner with the final protocol.
     */
    TuneOutcome tune(const std::string& strategyCode);

    /** As above for an externally configured strategy instance. */
    TuneOutcome tune(search::SearchStrategy& strategy);

    /**
     * Race @p strategyCodes (empty = all registered strategies)
     * concurrently against the shared memo store and re-time the
     * deterministic winner with the final protocol. Without a memo
     * store the entrants still race, just without cross-strategy
     * deduplication.
     */
    PortfolioOutcome
    tunePortfolio(const std::vector<std::string>& strategyCodes = {},
                  search::PortfolioMode mode =
                      search::PortfolioMode::Best,
                  std::size_t workers = 0);

    /**
     * The evaluation-function fingerprint of this tuner at one search
     * granularity: benchmark name, input signature (support::xxh64
     * of the baseline reference output), metric, threshold, site
     * count and precision ladder. Addresses the memo-cache. Stores
     * written by builds that hashed the signature with fnv1a64 miss
     * once, under new segment names, and are re-measured.
     */
    search::MemoFingerprint
    fingerprint(search::Granularity granularity) const;

    /**
     * The fingerprint of the memo store's baseline table: benchmark
     * name and input signature, metric "runtime", threshold 0, ladder
     * "f64" and one site per cluster. Its one record, keyed by the
     * all-double configuration, holds the baseline runtime, so tuners
     * that differ only in metric, threshold or ladder share it.
     */
    search::MemoFingerprint baselineFingerprint() const;

    /**
     * The fingerprint of the memo store's finals table for executables
     * that run refined (@p refined) or plain: the cluster-level
     * fingerprint with the ladder field extended by the refinement
     * flag and the final protocol's rep count ("f64:f32/final10",
     * "f64:f32+ir/final10"). Its records are keyed by the hot-cluster
     * projection alone, so every key has one digit per cluster.
     */
    search::MemoFingerprint finalsFingerprint(bool refined) const;

    /**
     * Search-run wiring for one granularity: resilience, parallelism,
     * the static prior and, when a memo store is configured, the
     * fingerprinted memo table.
     */
    search::SearchRunOptions
    runOptionsFor(search::Granularity granularity);

    /** Evaluate one cluster configuration with @p reps timing reps.
     *  Runs on a sandbox worker under isolation = Fork or Pool, and
     *  measures afresh on every call: only the search problems share
     *  measurements through the executable table. */
    search::Evaluation evaluateClusterConfig(const search::Config& cfg,
                                             std::size_t reps);

    /**
     * Distinct executables this tuner's search problems have timed and
     * verified (the size of the executable table). Configurations that
     * differ only in clusters without a bind key run the same
     * executable, so this is often far below the evaluated
     * configurations (hotspot CB: 511 configurations, 4 executables).
     */
    std::size_t executableCount() const;

    /** Snapshot of the sandbox accounting (all zero when
     *  isolation = None). */
    SandboxStats sandboxStats() const;

    /** Pids of the sandbox workers by slot; -1 for a slot with no
     *  live worker (every slot between jobs under isolation = Fork),
     *  empty under isolation = None. Exposed so tests can kill a pool
     *  worker mid-campaign and watch the pool recover. */
    std::vector<pid_t> poolWorkerPids() const;

    /**
     * Final measurement of the executable @p cfg runs: interleaves
     * finalReps baseline runs with finalReps configuration runs
     * (alternating) and reports the ratio of trimmed means.
     * Interleaving cancels the clock drift a one-shot baseline
     * measurement would bake into every speedup. With a memo store,
     * the finals table (finalsFingerprint()) is read first and a hit
     * times nothing; a clean Pass or QualityFail measurement is
     * published, and the first publisher wins. A configuration whose
     * executable is the all-double baseline's is not timed: Pass at
     * speedup 1 and loss 0, runtime baselineSeconds().
     */
    search::Evaluation finalMeasure(const search::Config& cfg);

    /** True when @p cfg runs the all-double executable: it lowers only
     *  cold clusters and does not run refined. finalMeasure() times no
     *  such configuration. */
    bool runsBaselineExecutable(const search::Config& cfg) const;

    /** Derive the runtime precision map of a cluster configuration. */
    benchmarks::PrecisionMap
    precisionMapFor(const search::Config& clusterCfg) const;

    /**
     * Build the mixp-lint static prior for one search granularity: a
     * cluster site (CB/DD/GA) carries its own verdict, a variable site
     * (CM/HR/HC) inherits its cluster's. Returns a disabled prior when
     * options.staticPrior is Off.
     */
    search::StaticPrior
    staticPrior(search::Granularity granularity) const;

    /** Switch the static-prior mode between tune() calls, so one
     *  tuner (one baseline) can A/B a strategy with and without the
     *  prior. */
    void setStaticPriorMode(search::PriorMode mode)
    {
        options_.staticPrior = mode;
    }

    /** Toggle certified absint caps between tune() calls, so one
     *  tuner can A/B the certified prior against the heuristic one. */
    void setCertifiedCaps(bool on) { options_.certifiedCaps = on; }

    /** Swap the memo store between tune() calls, so one tuner (one
     *  baseline) can A/B cold and warm campaigns. Null detaches. The
     *  baseline was timed at construction, so a store attached here
     *  neither supplies nor records it. */
    void setMemoStore(std::shared_ptr<search::MemoStore> store)
    {
        options_.memoStore = std::move(store);
    }

    /** Reduce a variable-level config to its cluster-level equivalent
     *  (requires cluster uniformity; panics otherwise). */
    search::Config toClusterConfig(const search::Config& varCfg) const;

    /** The verification routine in use. */
    const verify::OutputComparator& comparator() const
    {
        return comparator_;
    }

  private:
    class ClusterProblem;
    class VariableProblem;
    struct SandboxPayload;

    void buildStructure();
    void runBaseline();
    std::uint64_t inputSignature() const;
    std::uint8_t varLevel(const search::Config& varCfg,
                          model::VarId var) const;
    bool useRefinement(const search::Config& cfg) const;
    search::Config hotProjection(const search::Config& cfg) const;
    std::string executableKey(const search::Config& cfg) const;
    search::Evaluation measureFinal(const search::Config& cfg,
                                    bool refined) const;
    search::Evaluation evaluateSearchConfig(const search::Config& cfg);
    benchmarks::RunOutput executeForConfig(
        const benchmarks::RunPlan& plan, runtime::RunWorkspace& ws,
        bool refined) const;
    void timeExecutes(const benchmarks::RunPlan& plan, bool refined,
                      std::size_t reps, std::vector<double>& samples,
                      benchmarks::RunOutput* output) const;
    SandboxPayload measure(const search::Config& cfg,
                           std::size_t reps) const;
    /** WorkerPool job handler; runs inside a sandbox worker child. */
    std::size_t serveJob(const void* job, std::size_t jobSize,
                         void* result, std::size_t resultCapacity) const;
    bool crashLoopCutoffReached() const;
    search::Evaluation
    classify(const std::optional<support::PoolOutcome>& outcome,
             const SandboxPayload& payload);

    const benchmarks::Benchmark& benchmark_;
    TunerOptions options_;
    typeforge::ClusterSet clusters_;
    std::vector<model::VarId> variables_;
    verify::OutputComparator comparator_;
    std::vector<double> reference_;
    /// xxh64 of reference_, computed on first use: a run without a
    /// memo store never needs it, and it costs ~0.2 ms per 200k doubles.
    mutable std::once_flag inputSignatureOnce_;
    mutable std::uint64_t inputSignature_ = 0;
    double baselineSeconds_ = 0.0;
    search::StructureNode structure_;
    std::unique_ptr<ClusterProblem> clusterProblem_;
    std::unique_ptr<VariableProblem> variableProblem_;
    std::unique_ptr<search::FaultyProblem> faultyCluster_;
    std::unique_ptr<search::FaultyProblem> faultyVariable_;

    std::vector<bool> hotClusters_;

    /// Executable table: clean search measurements by executableKey(),
    /// shared by every search evaluation of this tuner.
    mutable std::mutex executablesMutex_;
    std::unordered_map<std::string, search::Evaluation> executables_;

    /// Sandbox accounting; the mutex also serializes the crash-loop
    /// cutoff decision across evaluateBatch workers.
    mutable std::mutex sandboxMutex_;
    SandboxStats sandbox_;
    double spawnOverheadSum_ = 0.0;
    bool crashLoopWarned_ = false;

    /// Sandbox workers (isolation = Fork or Pool; null under None).
    /// Created in the constructor — after the baseline, so workers
    /// inherit the reference output and warmed input caches — and held
    /// for the tuner's lifetime, so the process fd count is
    /// campaign-constant.
    std::unique_ptr<support::WorkerPool> workerPool_;
};

} // namespace hpcmixp::core

#endif // HPCMIXP_CORE_TUNER_H_
