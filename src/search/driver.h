#ifndef HPCMIXP_SEARCH_DRIVER_H_
#define HPCMIXP_SEARCH_DRIVER_H_

/**
 * @file
 * One-shot search execution with uniform result reporting.
 */

#include <string>

#include "search/context.h"
#include "search/strategy.h"

namespace hpcmixp::search {

/** Uniform summary of one completed (or budget-cut) search: its
 *  counters plus the answer. */
struct SearchResult : SearchCounters {
    std::string strategyCode;       ///< e.g. "DD"
    bool foundImprovement = false;  ///< a passing non-baseline config
    Config best;                    ///< best config (baseline if none)
    Evaluation bestEvaluation;      ///< its evaluation
    bool timedOut = false;          ///< budget exhausted mid-search
    double searchSeconds = 0.0;
};

/**
 * Resilience/memo wiring for one search run. Defaults leave every
 * knob off, reproducing a plain uninstrumented search.
 */
struct SearchRunOptions {
    ResiliencePolicy resilience;      ///< retry/deadline/backoff policy
    std::size_t searchJobs = 1;       ///< intra-search batch parallelism
    StaticPrior prior;                ///< static sensitivity prior (Off = none)
    std::shared_ptr<MemoTable> memo;  ///< persistent memo-cache table
    /// Cooperative cancellation (portfolio mode); null = never.
    std::shared_ptr<const std::atomic<bool>> cancel;
};

/**
 * Run @p strategy against @p problem under @p budget, with the
 * resilience and memo wiring of @p run.
 *
 * BudgetExhausted is caught here: a truncated search still reports its
 * best-so-far with timedOut set, matching the paper's treatment of the
 * 24-hour limit.
 */
SearchResult runSearch(SearchProblem& problem, SearchStrategy& strategy,
                       const SearchBudget& budget,
                       const SearchRunOptions& run = {});

/** Convenience: look up the strategy by code and run it. */
SearchResult runSearch(SearchProblem& problem,
                       const std::string& strategyCode,
                       const SearchBudget& budget,
                       const SearchRunOptions& run = {});

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_DRIVER_H_
