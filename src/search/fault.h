#ifndef HPCMIXP_SEARCH_FAULT_H_
#define HPCMIXP_SEARCH_FAULT_H_

/**
 * @file
 * Deterministic fault injection for stress-testing the search layer.
 *
 * The paper's campaigns run under a 24-hour SLURM budget where node
 * crashes, stragglers and flaky evaluations are routine. FaultyProblem
 * decorates any SearchProblem with seeded, reproducible injection of
 * those failure modes so every strategy can be exercised against them
 * unmodified; the ResiliencePolicy in SearchContext (retries, backoff,
 * per-evaluation deadline) is the machinery that recovers from them.
 *
 * Fault decisions are a pure function of (seed, configuration key,
 * attempt index): a given attempt on a given configuration always
 * draws the same fault, so failure scenarios replay exactly, while a
 * *retry* of the same configuration re-draws — injected crashes and
 * hangs are transient, like the real thing.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "search/problem.h"

namespace hpcmixp::search {

/** Per-attempt fault probabilities; all-zero disables injection. */
struct FaultPlan {
    double crashRate = 0.0;    ///< injected transient crash (RuntimeFail)
    double hangRate = 0.0;     ///< straggler stall before evaluating
    double nanRate = 0.0;      ///< destroyed (NaN-quality) output
    double hangSeconds = 0.02; ///< stall duration of a Hang fault
    std::uint64_t seed = 2020; ///< decision-stream seed

    /**
     * Raw (process-killing) fault rates. Unlike the simulated kinds
     * above, these make the evaluation attempt genuinely abort(),
     * spin forever, or write through a wild pointer — they are only
     * legal when evaluations run in sandbox workers (sandboxed below),
     * where the parent contains and classifies the death.
     */
    double rawCrashRate = 0.0; ///< child abort()
    double rawHangRate = 0.0;  ///< child spins until killed on deadline
    double rawSegvRate = 0.0;  ///< child SIGSEGV via wild store

    /**
     * Set by the tuner when evaluations execute under
     * --isolation=fork or --isolation=pool. Constructing a FaultyProblem with raw rates
     * but without this flag is a recoverable configuration error.
     */
    bool sandboxed = false;

    bool rawEnabled() const
    {
        return rawCrashRate > 0.0 || rawHangRate > 0.0 ||
               rawSegvRate > 0.0;
    }

    bool enabled() const
    {
        return crashRate > 0.0 || hangRate > 0.0 || nanRate > 0.0 ||
               rawEnabled();
    }
};

/** The fault drawn for one evaluation attempt. */
enum class FaultKind { None, Crash, Hang, Nan, RawCrash, RawHang, RawSegv };

/** A raw fault pending execution inside a sandboxed child. */
enum class RawFault { None, Crash, Hang, Segv };

/**
 * Hand a drawn raw fault to the downstream sandbox executor. The
 * channel is thread-local: FaultyProblem sets it just before calling
 * the inner problem on the same thread, and the tuner's sandboxed
 * evaluation path takes it and executes it inside the forked child.
 */
void setPendingRawFault(RawFault fault);

/** Consume (and clear) the pending raw fault of this thread. */
RawFault takePendingRawFault();

/**
 * Execute @p fault: Crash abort()s, Hang spins forever (until the
 * parent's deadline SIGKILL), Segv stores through a wild pointer.
 * Returns only for RawFault::None. Must only ever run inside a
 * sandboxed child.
 */
void executeRawFault(RawFault fault);

/**
 * Seeded decision stream: (configuration key, attempt) -> FaultKind.
 * The draw itself is stateless (a pure function of its inputs), so
 * concurrent batch evaluations draw exactly the faults a serial run
 * would; the injection counters are atomic.
 */
class FaultInjector {
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

    /** Draw the fault for @p attempt (0-based) on @p configKey. */
    FaultKind draw(const std::string& configKey, std::uint64_t attempt);

    const FaultPlan& plan() const { return plan_; }

    /** Injection counters, by kind. */
    std::size_t crashesInjected() const { return crashes_; }
    std::size_t hangsInjected() const { return hangs_; }
    std::size_t nansInjected() const { return nans_; }
    std::size_t rawCrashesInjected() const { return rawCrashes_; }
    std::size_t rawHangsInjected() const { return rawHangs_; }
    std::size_t rawSegvsInjected() const { return rawSegvs_; }

  private:
    FaultPlan plan_;
    std::atomic<std::size_t> crashes_{0};
    std::atomic<std::size_t> hangs_{0};
    std::atomic<std::size_t> nans_{0};
    std::atomic<std::size_t> rawCrashes_{0};
    std::atomic<std::size_t> rawHangs_{0};
    std::atomic<std::size_t> rawSegvs_{0};
};

/**
 * SearchProblem decorator injecting faults per the plan. Crashes
 * return RuntimeFail without running the inner problem (the node
 * died); hangs stall for hangSeconds and then evaluate normally (a
 * straggler the deadline policy converts into a RuntimeFail); NaN
 * faults run the inner problem and destroy the quality of a run that
 * completed. Compile failures pass through untouched — a
 * configuration that never runs cannot crash.
 *
 * Raw kinds (RawCrash/RawHang/RawSegv) are posted on the thread-local
 * pending channel for the sandboxed executor to detonate inside the
 * forked child; constructing a plan with raw rates outside a sandbox
 * throws FatalError (recoverable) instead of letting the process die.
 */
class FaultyProblem final : public SearchProblem {
  public:
    /** Throws FatalError when @p plan has raw rates but is not
     *  sandboxed. */
    FaultyProblem(SearchProblem& inner, FaultPlan plan);

    std::size_t siteCount() const override { return inner_.siteCount(); }

    std::size_t maxLevel() const override { return inner_.maxLevel(); }

    const StructureNode* structure() const override
    {
        return inner_.structure();
    }

    Evaluation evaluate(const Config& config) override;

    const FaultInjector& injector() const { return injector_; }

  private:
    SearchProblem& inner_;
    FaultInjector injector_;
    std::mutex mutex_; ///< guards attempts_ under batch evaluation
    std::unordered_map<std::string, std::uint64_t> attempts_;
};

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_FAULT_H_
