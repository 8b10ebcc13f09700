#ifndef HPCMIXP_SEARCH_CONTEXT_H_
#define HPCMIXP_SEARCH_CONTEXT_H_

/**
 * @file
 * Metered, cached evaluation context shared by all strategies.
 *
 * The context implements the paper's accounting:
 *  - EV ("Evaluated Configurations") counts configurations actually
 *    executed — cache hits and compile failures are tracked separately;
 *  - a SearchBudget caps executed configurations and wall-clock time,
 *    standing in for the paper's 24-hour per-search limit;
 *  - the best *passing* configuration seen so far (highest measured
 *    speedup) is tracked so a strategy interrupted by the budget still
 *    reports its best-so-far.
 *
 * It also implements the resilience policy real tuning campaigns rely
 * on: a transient RuntimeFail is retried with exponential backoff up
 * to a bounded number of attempts, an attempt that outlives the
 * per-evaluation deadline is discarded as a straggler, and a
 * configuration that exhausts its retries is quarantined — recorded
 * as failed so the search continues instead of aborting.
 *
 * evaluateBatch() hides evaluation latency the way the paper's SLURM
 * campaigns do: a set of independent candidates is evaluated
 * concurrently on a thread pool, but the results are *committed in
 * submission order*, so EV accounting, budget exhaustion, cache
 * population, memo publication order and best-so-far tracking are
 * bit-identical to the serial loop (DESIGN.md, Section 9). All shared
 * state is mutex-guarded, so the context is safe to query while a
 * batch is in flight.
 */

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "search/config.h"
#include "search/counters.h"
#include "search/memo_store.h"
#include "search/prior.h"
#include "search/problem.h"
#include "support/json.h"
#include "support/retry.h"
#include "support/rng.h"
#include "support/timer.h"

namespace hpcmixp::support {
class ThreadPool;
} // namespace hpcmixp::support

namespace hpcmixp::search {

/** Limits on one search run. */
struct SearchBudget {
    std::size_t maxEvaluations = 10000; ///< executed-config cap
    double maxSeconds = 0.0;            ///< wall-clock cap; 0 = none
};

/** Thrown by SearchContext when the budget is exhausted. */
class BudgetExhausted : public std::runtime_error {
  public:
    BudgetExhausted() : std::runtime_error("search budget exhausted") {}
};

/** Per-evaluation resilience policy (retries, deadline, backoff). */
struct ResiliencePolicy {
    std::size_t maxAttempts = 1;  ///< total attempts per configuration
    double deadlineSeconds = 0.0; ///< per-attempt deadline; 0 = none
    support::BackoffPolicy backoff; ///< delay schedule between retries
    bool sleepBetweenRetries = true; ///< disable to keep tests fast
    std::uint64_t seed = 2020;    ///< backoff-jitter stream seed
};

/** Evaluation front-end with caching, metering and best tracking. */
class SearchContext {
  public:
    SearchContext(SearchProblem& problem, SearchBudget budget,
                  ResiliencePolicy resilience = {});
    ~SearchContext();

    SearchContext(const SearchContext&) = delete;
    SearchContext& operator=(const SearchContext&) = delete;

    /** Number of sites in the underlying problem. */
    std::size_t siteCount() const { return problem_.siteCount(); }

    /** Deepest ladder level a site may take (1 = binary campaign). */
    std::size_t maxLevel() const { return problem_.maxLevel(); }

    /** Structure tree of the underlying problem (may be nullptr). */
    const StructureNode* structure() const { return problem_.structure(); }

    /**
     * Evaluate @p config, consulting the cache first.
     * @throws BudgetExhausted once the budget is exceeded.
     */
    const Evaluation& evaluate(const Config& config);

    /**
     * Evaluate a set of *independent* candidates, returning their
     * evaluations in submission order. With searchJobs() > 1 the fresh
     * (uncached, first-occurrence) candidates run concurrently on a
     * thread pool; results are then committed strictly in submission
     * order, so the cache contents, EV/cache-hit/retry/quarantine
     * counters, memo publication order and the point at which
     * BudgetExhausted fires are identical to calling evaluate() in a
     * loop. Candidates past the budget are evaluated speculatively but
     * never committed.
     *
     * The problem's evaluate() must tolerate concurrent calls when
     * searchJobs() > 1 (every built-in problem and FaultyProblem do).
     *
     * @throws BudgetExhausted after committing the prefix that fits.
     */
    std::vector<Evaluation> evaluateBatch(std::span<const Config> configs);

    /**
     * Degree of intra-search parallelism used by evaluateBatch();
     * 1 (the default) evaluates batches serially, 0 auto-detects the
     * hardware concurrency. The worker pool is created lazily on the
     * first parallel batch.
     */
    void setSearchJobs(std::size_t jobs);
    std::size_t searchJobs() const;

    /** Scheduling mode of the evaluateBatch thread pool. */
    enum class BatchScheduling {
        Fifo,  ///< static round-robin dealing, no stealing
        Steal, ///< same dealing plus work stealing (default)
    };

    /**
     * Select the batch scheduler. Trajectories are bit-identical
     * either way — results commit in submission order regardless of
     * execution order — so this is a performance knob (and the lever
     * the equivalence tests pull). Takes effect at the next batch.
     */
    void setBatchScheduling(BatchScheduling scheduling);
    BatchScheduling batchScheduling() const;

    /**
     * Install a static sensitivity prior (DESIGN.md Section 11).
     * Strategies consult prior() to prune, seed and order their
     * candidate generation; in Strict mode the context additionally
     * records any configuration violating a pin as a compile failure
     * without executing it. Must be installed before the search runs.
     */
    void setPrior(StaticPrior prior);

    /** The installed prior, or nullptr when absent/Off. */
    const StaticPrior* prior() const;

    /**
     * Attach a persistent memo table (DESIGN.md Section 12). Cache
     * misses consult the table before executing — a memo hit commits
     * the stored evaluation without running, without consuming budget
     * and without counting as EV — and freshly executed evaluations
     * are published back. The table's fingerprint site count must
     * match the problem.
     */
    void setMemo(std::shared_ptr<MemoTable> memo);

    /** The attached memo table, or nullptr. */
    const std::shared_ptr<MemoTable>& memo() const { return memo_; }

    /**
     * Install a cooperative cancellation flag: once it reads true the
     * next budget check throws BudgetExhausted, so a portfolio can
     * stop the remaining strategies after a winner finishes. Cache and
     * memo hits still resolve after cancellation.
     */
    void setCancelFlag(std::shared_ptr<const std::atomic<bool>> flag);

    /** True when @p config has already been evaluated. */
    bool isCached(const Config& config) const;

    /** Best passing configuration so far, if any. */
    bool hasBest() const;
    const Config& bestConfig() const;
    const Evaluation& bestEvaluation() const;

    /**
     * Snapshot of the counters: EV, compile failures, in-run cache
     * hits, cross-run memo hits and the resilience events of every
     * committed evaluation, plus the batch evaluations a pool worker
     * stole from another (always 0 under Fifo).
     */
    SearchCounters counters() const;

    /** Seconds since the context was created. */
    double elapsedSeconds() const { return timer_.seconds(); }

    /** True once a budget limit has been hit. */
    bool exhausted() const;

    /**
     * Read-only snapshot of every committed evaluation:
     * `{sites, evaluations: [{config, status, runtime_seconds,
     * speedup, quality_loss}]}`, entries in unspecified order.
     */
    support::json::Value exportCache() const;

  private:
    void checkBudgetLocked();
    void noteBestLocked(const Config& config, const Evaluation& eval);
    const Evaluation& commitLocked(std::string key, const Config& config,
                                   Evaluation eval,
                                   const SearchCounters& task);
    const Evaluation& commitMemoHitLocked(std::string key,
                                          const Config& config,
                                          Evaluation eval);
    Evaluation evaluateResilient(const Config& config,
                                 SearchCounters& task,
                                 support::Pcg32& jitterRng);

    SearchProblem& problem_;
    SearchBudget budget_;
    ResiliencePolicy resilience_;
    StaticPrior prior_; ///< set before the search; read-only after
    /// Installed before the search, immutable after; MemoTable is
    /// internally synchronized, so no context lock is needed to use it.
    std::shared_ptr<MemoTable> memo_;
    std::shared_ptr<const std::atomic<bool>> cancel_;
    support::Pcg32 retryRng_;
    support::WallTimer timer_;

    mutable std::mutex mutex_; ///< guards everything below
    std::unordered_map<std::string, Evaluation> cache_;
    std::optional<std::pair<Config, Evaluation>> best_;
    /// Committed counts and the steals of retired pools; counters()
    /// adds the live pool_'s steals.
    SearchCounters counters_;
    bool exhausted_ = false;

    std::size_t searchJobs_ = 1;
    BatchScheduling scheduling_ = BatchScheduling::Steal;
    std::unique_ptr<support::ThreadPool> pool_;
};

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_CONTEXT_H_
