#ifndef HPCMIXP_SEARCH_PORTFOLIO_H_
#define HPCMIXP_SEARCH_PORTFOLIO_H_

/**
 * @file
 * Portfolio search: race several strategies against one memo store.
 *
 * The paper evaluates its six strategies one campaign at a time; with
 * the persistent memo-cache (DESIGN.md Section 12) racing them becomes
 * affordable, because every configuration any entrant executes is
 * published to the shared store and costs every other entrant a memo
 * hit instead of an execution. runPortfolio() runs each entrant in its
 * own SearchContext on a thread pool and picks a winner
 * deterministically:
 *
 *  - Best mode (default): every entrant runs to completion or budget;
 *    the winner is chosen by bestResult() — an improvement beats none,
 *    higher best speedup beats lower, ties break on the
 *    lexicographically smaller config bitmask and finally on entrant
 *    order. Given identical per-entrant results the winner is
 *    reproducible, whatever the thread scheduling did.
 *  - Race mode: additionally, the first entrant to *finish* (not
 *    budget-cut) with an improvement raises a shared cancel flag;
 *    the others stop at their next budget check and report
 *    best-so-far. First-to-finish wall clock, same deterministic
 *    winner rule over whatever results the race produced.
 */

#include <memory>
#include <string>
#include <vector>

#include "search/driver.h"
#include "search/strategy.h"

namespace hpcmixp::search {

/** One strategy entered into the portfolio. */
struct PortfolioEntrant {
    std::string code; ///< strategy code; used when strategy is null
    /// Pre-configured instance (e.g. a seeded GA); null = create from
    /// the registry by code.
    std::shared_ptr<SearchStrategy> strategy;
    /// Granularity-matched problem this entrant searches.
    SearchProblem* problem = nullptr;
    /// Per-entrant wiring: prior, memo table, parallelism.
    SearchRunOptions run;
};

/** How the portfolio treats the first finisher. */
enum class PortfolioMode {
    Best, ///< run everyone to budget, pick the best result
    Race, ///< first clean finisher with an improvement cancels the rest
};

struct PortfolioOptions {
    PortfolioMode mode = PortfolioMode::Best;
    /// Worker threads; 0 = one per entrant.
    std::size_t workers = 0;
    /// Per-entrant budget (each entrant gets its own context).
    SearchBudget budget;
};

/** Outcome of one portfolio run. */
struct PortfolioResult {
    std::size_t winner = 0;            ///< index into results
    std::vector<SearchResult> results; ///< per entrant, entrant order
    double wallSeconds = 0.0;          ///< whole-portfolio wall clock
};

/** True when @p a beats @p b under the deterministic winner rule. */
bool betterSearchResult(const SearchResult& a, const SearchResult& b);

/**
 * Run every entrant concurrently and pick the winner. Entrants sharing
 * a MemoTable deduplicate executions against each other on the fly.
 */
PortfolioResult runPortfolio(const std::vector<PortfolioEntrant>& entrants,
                             const PortfolioOptions& options);

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_PORTFOLIO_H_
