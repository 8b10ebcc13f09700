#ifndef HPCMIXP_SEARCH_COUNTERS_H_
#define HPCMIXP_SEARCH_COUNTERS_H_

/**
 * @file
 * The search counters and the one table that names them in reports.
 *
 * A SearchContext counts into one SearchCounters value as results
 * commit. The value then travels whole — SearchResult, the summed
 * PortfolioOutcome::total, the harness's AnalysisResult — to the
 * harness table, its --json report and its job journal, all of which
 * take a counter's report name from kCounterFields (DESIGN.md,
 * Section 8).
 */

#include <cstddef>
#include <iterator>

#include "support/json.h"

namespace hpcmixp::search {

/** What one search, or a sum of searches, counted. */
struct SearchCounters {
    std::size_t evaluated = 0;       ///< EV: configurations executed
    std::size_t compileFailures = 0; ///< rejected without executing
    std::size_t cacheHits = 0;       ///< in-run repeat queries
    std::size_t memoHits = 0;        ///< cross-run memo-cache hits
    std::size_t retries = 0;         ///< transient-failure re-attempts
    std::size_t deadlineMisses = 0;  ///< attempts discarded as stragglers
    std::size_t quarantined = 0;     ///< configs failed after retries
    /// Batch evaluations run by a stealing worker; depends on
    /// scheduling, so equivalence checks leave it out.
    std::size_t steals = 0;

    SearchCounters& operator+=(const SearchCounters& other);
    bool operator==(const SearchCounters&) const = default;
};

/** The report names of one counter. */
struct CounterField {
    std::size_t SearchCounters::*member;
    const char* key;    ///< JSON key: --json and the job journal
    const char* column; ///< harness table header; nullptr = not shown
};

inline constexpr CounterField kCounterFields[] = {
    {&SearchCounters::evaluated, "evaluated_configurations", "EV"},
    {&SearchCounters::compileFailures, "compile_failures", nullptr},
    {&SearchCounters::cacheHits, "cache_hits", "cache"},
    {&SearchCounters::memoHits, "memo_hits", "memo"},
    {&SearchCounters::retries, "retries", "retries"},
    {&SearchCounters::deadlineMisses, "deadline_misses", nullptr},
    {&SearchCounters::quarantined, "quarantined", nullptr},
    {&SearchCounters::steals, "steals", "steals"},
};
static_assert(std::size(kCounterFields) * sizeof(std::size_t) ==
                  sizeof(SearchCounters),
              "every SearchCounters field needs a kCounterFields entry");

/** Set every counter on JSON object @p into under its key. */
void writeCounters(support::json::Value& into,
                   const SearchCounters& counters);

/** Read what writeCounters() wrote; fatal()s on a missing key. */
SearchCounters readCounters(const support::json::Value& from);

} // namespace hpcmixp::search

#endif // HPCMIXP_SEARCH_COUNTERS_H_
