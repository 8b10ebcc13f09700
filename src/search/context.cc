#include "search/context.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "support/logging.h"
#include "support/thread_pool.h"

namespace hpcmixp::search {

namespace {

/** FNV-1a over the config key: seeds the per-task jitter stream so
 *  backoff jitter is independent of worker scheduling order. */
std::uint64_t
keyHash(const std::string& key)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

SearchContext::SearchContext(SearchProblem& problem, SearchBudget budget,
                             ResiliencePolicy resilience)
    : problem_(problem),
      budget_(budget),
      resilience_(resilience),
      retryRng_(resilience.seed, /*stream=*/0x7e51) // jitter stream
{
}

SearchContext::~SearchContext() = default;

void
SearchContext::setPrior(StaticPrior prior)
{
    HPCMIXP_ASSERT(!prior.enabled() ||
                       prior.siteCount() == problem_.siteCount(),
                   "static prior site count does not match problem");
    prior_ = std::move(prior);
}

const StaticPrior*
SearchContext::prior() const
{
    // prior_ is installed before the search starts and immutable
    // afterwards, so strategies may read it without the lock.
    return prior_.enabled() ? &prior_ : nullptr;
}

void
SearchContext::setMemo(std::shared_ptr<MemoTable> memo)
{
    HPCMIXP_ASSERT(!memo ||
                       memo->fingerprint().sites ==
                           problem_.siteCount(),
                   "memo table site count does not match problem");
    memo_ = std::move(memo);
}

void
SearchContext::setCancelFlag(
    std::shared_ptr<const std::atomic<bool>> flag)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cancel_ = std::move(flag);
}

void
SearchContext::setSearchJobs(std::size_t jobs)
{
    if (jobs == 0) {
        // 0 means "use the machine": auto-detect instead of silently
        // degrading to a serial search. Callers that need the nested-
        // parallelism clamp (jobs × searchJobs ≤ hardware) apply it on
        // top, as the harness does.
        jobs = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    searchJobs_ = jobs;
}

std::size_t
SearchContext::searchJobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return searchJobs_;
}

void
SearchContext::setBatchScheduling(BatchScheduling scheduling)
{
    std::lock_guard<std::mutex> lock(mutex_);
    scheduling_ = scheduling;
}

SearchContext::BatchScheduling
SearchContext::batchScheduling() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return scheduling_;
}

SearchCounters
SearchContext::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SearchCounters counters = counters_;
    if (pool_)
        counters.steals += pool_->stealCount();
    return counters;
}

void
SearchContext::checkBudgetLocked()
{
    bool overEvals = counters_.evaluated >= budget_.maxEvaluations;
    bool overTime = budget_.maxSeconds > 0.0 &&
                    timer_.seconds() >= budget_.maxSeconds;
    bool cancelled =
        cancel_ && cancel_->load(std::memory_order_relaxed);
    if (overEvals || overTime || cancelled) {
        exhausted_ = true;
        throw BudgetExhausted();
    }
}

void
SearchContext::noteBestLocked(const Config& config, const Evaluation& eval)
{
    // A passing non-baseline configuration competes for "best".
    if (eval.passed() && !config.isBaseline()) {
        if (!best_ || eval.speedup > best_->second.speedup)
            best_ = {config, eval};
    }
}

/**
 * One evaluation under the resilience policy: bounded retries with
 * backoff for transient RuntimeFails, and a per-attempt deadline that
 * discards stragglers the way SLURM kills an overdue task.
 *
 * Side-effect-free with respect to the context: resilience events land
 * in @p task and are merged into the shared totals only when the
 * result commits, so speculative batch evaluations that get discarded
 * by the budget leave no trace.
 */
Evaluation
SearchContext::evaluateResilient(const Config& config,
                                 SearchCounters& task,
                                 support::Pcg32& jitterRng)
{
    // Strict prior mode: a configuration that lowers a pinned site is
    // rejected like an uncompilable one, without executing anything.
    // Batch evaluation reaches this point without passing through
    // evaluate(), so the check lives here rather than there.
    if (prior_.strict() && prior_.violates(config)) {
        Evaluation rejected;
        rejected.status = EvalStatus::CompileFail;
        return rejected;
    }
    std::size_t maxAttempts =
        resilience_.maxAttempts > 0 ? resilience_.maxAttempts : 1;
    Evaluation eval;
    for (std::size_t attempt = 1;; ++attempt) {
        support::WallTimer attemptTimer;
        eval = problem_.evaluate(config);
        // A sandboxed attempt reports its own kill-on-deadline; an
        // in-process straggler is caught post-hoc by the attempt
        // timer. Both count as exactly one deadline miss and feed the
        // same retry/backoff path, so counters are identical between
        // simulated and forked hangs.
        bool missedDeadline = eval.deadlineMiss;
        if (!missedDeadline && resilience_.deadlineSeconds > 0.0 &&
            attemptTimer.seconds() > resilience_.deadlineSeconds &&
            eval.status != EvalStatus::CompileFail) {
            // The result arrived after the deadline: discard it.
            missedDeadline = true;
        }
        if (missedDeadline) {
            ++task.deadlineMisses;
            const bool memoizable = eval.memoizable;
            eval = Evaluation{};
            eval.status = EvalStatus::RuntimeFail;
            eval.qualityLoss =
                std::numeric_limits<double>::quiet_NaN();
            eval.deadlineMiss = true;
            // A killed child yielded no measurement worth sharing; a
            // post-hoc-discarded in-process result keeps publishing
            // as before.
            eval.memoizable = memoizable;
        }
        if (eval.status != EvalStatus::RuntimeFail ||
            attempt >= maxAttempts)
            break;
        ++task.retries;
        if (resilience_.sleepBetweenRetries)
            support::sleepForSeconds(support::backoffDelaySeconds(
                resilience_.backoff, attempt - 1, jitterRng));
    }
    // Retries exhausted: quarantine the configuration — it is cached
    // as failed and the search moves on rather than aborting.
    if (eval.status == EvalStatus::RuntimeFail && maxAttempts > 1)
        ++task.quarantined;
    return eval;
}

/**
 * Record one freshly evaluated configuration: merge its resilience
 * counters, meter it, update best-so-far, publish it to the memo and
 * populate the cache. Caller holds the lock and has already passed the
 * budget check.
 */
const Evaluation&
SearchContext::commitLocked(std::string key, const Config& config,
                            Evaluation eval,
                            const SearchCounters& task)
{
    counters_ += task;
    bool ran = eval.status != EvalStatus::CompileFail;
    if (ran)
        ++counters_.evaluated;
    else
        ++counters_.compileFailures;
    noteBestLocked(config, eval);
    // Publish to the persistent memo before caching locally, so no
    // other context can observe the local commit yet miss the memo.
    // Results flagged non-memoizable (killed/crashed sandbox children)
    // stay private to this run.
    if (ran && memo_ && eval.memoizable)
        memo_->publish(key, eval);
    return cache_.emplace(std::move(key), std::move(eval)).first->second;
}

/**
 * Commit a cross-run memo hit: the stored evaluation enters the local
 * cache and competes for best-so-far, but nothing executed — no EV, no
 * budget consumption, no memo publication. Caller holds the lock.
 */
const Evaluation&
SearchContext::commitMemoHitLocked(std::string key,
                                   const Config& config,
                                   Evaluation eval)
{
    ++counters_.memoHits;
    noteBestLocked(config, eval);
    return cache_.emplace(std::move(key), std::move(eval))
        .first->second;
}

const Evaluation&
SearchContext::evaluate(const Config& config)
{
    HPCMIXP_ASSERT(config.size() == problem_.siteCount(),
                   "config size does not match problem site count");
    std::string key = config.toString();
    // Strict prior mode rejects pinned configurations without
    // executing; the rejection must also bypass the memo, whose
    // entries may come from runs with a different prior mode.
    bool strictReject = prior_.strict() && prior_.violates(config);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++counters_.cacheHits;
            noteBestLocked(config, it->second);
            return it->second;
        }
        if (memo_ && !strictReject) {
            if (auto hit = memo_->lookup(key))
                return commitMemoHitLocked(std::move(key), config,
                                           std::move(*hit));
        }
        checkBudgetLocked();
    }

    // Evaluate outside the lock; the serial path shares one jitter
    // stream, exactly as before batching existed.
    SearchCounters task;
    Evaluation eval = evaluateResilient(config, task, retryRng_);

    std::lock_guard<std::mutex> lock(mutex_);
    return commitLocked(std::move(key), config, std::move(eval), task);
}

std::vector<Evaluation>
SearchContext::evaluateBatch(std::span<const Config> configs)
{
    if (configs.empty())
        return {};
    std::size_t jobs = searchJobs();
    if (jobs <= 1 || configs.size() == 1) {
        // Serial fallback: literally the serial loop.
        std::vector<Evaluation> out;
        out.reserve(configs.size());
        for (const auto& config : configs)
            out.push_back(evaluate(config));
        return out;
    }

    // Plan: classify each candidate against the cache, the persistent
    // memo and earlier batch entries. Only first occurrences of
    // uncached, unmemoized configurations ("fresh") get an evaluation
    // task; memo hits commit the stored evaluation without a task, and
    // repeats become cache hits at commit time, exactly as in the
    // serial loop.
    enum class Kind { Hit, Duplicate, Memo, Fresh };
    struct Slot {
        std::string key;
        Kind kind = Kind::Fresh;
        std::size_t fresh = 0; ///< task index when kind == Fresh
        Evaluation memoEval;   ///< payload when kind == Kind::Memo
    };
    std::vector<Slot> plan;
    plan.reserve(configs.size());
    std::size_t freshCount = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Keys already claimed by an earlier slot of this batch —
        // fresh tasks and memo commits alike; repeats of either are
        // in-run cache hits once the first occurrence commits.
        std::unordered_map<std::string, std::size_t> claimed;
        for (const auto& config : configs) {
            HPCMIXP_ASSERT(config.size() == problem_.siteCount(),
                           "config size does not match problem site count");
            Slot slot;
            slot.key = config.toString();
            bool strictReject =
                prior_.strict() && prior_.violates(config);
            std::optional<Evaluation> memoHit;
            if (cache_.count(slot.key) > 0) {
                slot.kind = Kind::Hit;
            } else if (claimed.count(slot.key) > 0) {
                slot.kind = Kind::Duplicate;
            } else if (memo_ && !strictReject &&
                       (memoHit = memo_->lookup(slot.key))) {
                slot.kind = Kind::Memo;
                slot.memoEval = std::move(*memoHit);
                claimed.emplace(slot.key, plan.size());
            } else {
                slot.kind = Kind::Fresh;
                slot.fresh = freshCount++;
                claimed.emplace(slot.key, plan.size());
            }
            plan.push_back(std::move(slot));
        }
    }

    // Evaluate: fresh candidates run concurrently. Each task gets its
    // own jitter stream seeded from the config key, so backoff timing
    // never depends on worker scheduling. Candidates that turn out to
    // lie past the budget are evaluated speculatively here and
    // discarded below.
    std::vector<Evaluation> results(freshCount);
    std::vector<SearchCounters> tasks(freshCount);
    if (freshCount > 0) {
        const support::ThreadPool::Scheduling mode =
            batchScheduling() == BatchScheduling::Fifo
                ? support::ThreadPool::Scheduling::Fifo
                : support::ThreadPool::Scheduling::Steal;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (pool_ && (pool_->workerCount() != jobs ||
                          pool_->scheduling() != mode)) {
                counters_.steals += pool_->stealCount();
                pool_.reset();
            }
            if (!pool_)
                pool_ = std::make_unique<support::ThreadPool>(jobs,
                                                              mode);
        }
        std::vector<std::future<void>> futures;
        futures.reserve(freshCount);
        for (std::size_t i = 0; i < plan.size(); ++i) {
            if (plan[i].kind != Kind::Fresh)
                continue;
            const Config& config = configs[i];
            std::size_t task = plan[i].fresh;
            std::uint64_t jitterSeed =
                resilience_.seed ^ keyHash(plan[i].key);
            futures.push_back(pool_->submit(
                [this, &config, task, jitterSeed, &results, &tasks] {
                    support::Pcg32 rng(jitterSeed, /*stream=*/0x7e51);
                    results[task] = evaluateResilient(
                        config, tasks[task], rng);
                }));
        }
        for (auto& fut : futures)
            fut.wait();
        for (auto& fut : futures)
            fut.get(); // propagate any task exception
    }

    // Commit in submission order under one critical section, so the
    // observable trajectory (counters, cache, best, budget throw
    // point, memo publication order) is bit-identical to the serial
    // loop. A budget hit throws and discards the uncommitted tail.
    std::vector<Evaluation> out(configs.size());
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Slot& slot = plan[i];
        if (slot.kind == Kind::Fresh) {
            checkBudgetLocked();
            out[i] = commitLocked(std::move(slot.key), configs[i],
                                  std::move(results[slot.fresh]),
                                  tasks[slot.fresh]);
        } else if (slot.kind == Kind::Memo) {
            // As in the serial path: a memo hit commits without a
            // budget check, EV increment or memo publication.
            out[i] = commitMemoHitLocked(std::move(slot.key),
                                         configs[i],
                                         std::move(slot.memoEval));
        } else {
            // Hit on the pre-batch cache, or repeat of a fresh entry
            // committed earlier in this loop.
            auto it = cache_.find(slot.key);
            HPCMIXP_ASSERT(it != cache_.end(),
                           "batch commit: cache entry vanished");
            ++counters_.cacheHits;
            noteBestLocked(configs[i], it->second);
            out[i] = it->second;
        }
    }
    return out;
}

bool
SearchContext::isCached(const Config& config) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.count(config.toString()) > 0;
}

bool
SearchContext::hasBest() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return best_.has_value();
}

bool
SearchContext::exhausted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return exhausted_;
}

support::json::Value
SearchContext::exportCache() const
{
    using support::json::Value;
    Value root = Value::object();
    root.set("sites", Value::number(static_cast<double>(
                          problem_.siteCount())));
    Value entries = Value::array();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, eval] : cache_) {
        Value e = Value::object();
        e.set("config", Value::string(key));
        e.set("status", Value::string(evalStatusName(eval.status)));
        e.set("runtime_seconds", Value::number(eval.runtimeSeconds));
        e.set("speedup", Value::number(eval.speedup));
        e.set("quality_loss", Value::number(eval.qualityLoss));
        entries.push(std::move(e));
    }
    root.set("evaluations", std::move(entries));
    return root;
}

const Config&
SearchContext::bestConfig() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HPCMIXP_ASSERT(best_.has_value(), "bestConfig() with no best yet");
    return best_->first;
}

const Evaluation&
SearchContext::bestEvaluation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HPCMIXP_ASSERT(best_.has_value(),
                   "bestEvaluation() with no best yet");
    return best_->second;
}

} // namespace hpcmixp::search
