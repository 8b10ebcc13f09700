#ifndef HPCMIXP_BENCH_BENCH_UTIL_H_
#define HPCMIXP_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared scaffolding for the bench binaries.
 *
 * Every bench accepts:
 *   --budget N    max evaluated configurations per search
 *                 (stands in for the paper's 24-hour limit)
 *   --seconds S   wall-clock cap per search (0 = none)
 *   --reps R      timing repetitions per search evaluation
 *   --csv         emit CSV instead of an aligned table
 * and honours HPCMIXP_QUICK=1 for smoke runs.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "core/mixpbench.h"
#include "support/cli.h"
#include "support/env.h"
#include "support/string_util.h"
#include "support/table.h"

namespace hpcmixp::benchutil {

/** Options common to all bench binaries. */
struct BenchOptions {
    core::TunerOptions tuner;
    bool csv = false;
};

/** Parse common flags; quick mode shrinks the budget automatically. */
inline BenchOptions
parseOptions(int argc, char** argv, std::size_t defaultBudget = 300)
{
    support::CommandLine cl(argc, argv);
    BenchOptions options;
    if (support::quickMode())
        defaultBudget = std::min<std::size_t>(defaultBudget, 60);
    options.tuner.budget.maxEvaluations = static_cast<std::size_t>(
        cl.getLong("budget", static_cast<long>(defaultBudget)));
    options.tuner.budget.maxSeconds = cl.getDouble("seconds", 120.0);
    options.tuner.searchReps = support::timingReps(
        static_cast<std::size_t>(cl.getLong("reps", 3)));
    options.tuner.finalReps = 10;
    options.csv = cl.getBool("csv", false);
    return options;
}

/** Print a table either aligned or as CSV. */
inline void
emit(const support::Table& table, const BenchOptions& options)
{
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

/** Quality formatted in units of 1e-9, as in the paper's Table III. */
inline std::string
qualityNano(double loss)
{
    if (std::isnan(loss))
        return "NaN";
    return support::Table::cell(loss * 1e9, 2);
}

} // namespace hpcmixp::benchutil

#endif // HPCMIXP_BENCH_BENCH_UTIL_H_
