#ifndef HPCMIXP_CORE_INTERCHANGE_H_
#define HPCMIXP_CORE_INTERCHANGE_H_

/**
 * @file
 * JSON interchange format.
 *
 * FloatSmith integrates tools through a JSON-based interchange format
 * (paper Section I). This module renders the suite's analysis outputs
 * in that spirit so external tools can consume them, and accepts
 * externally produced precision configurations:
 *
 *  - clusteringToJson: the Typeforge partitioning of a program
 *    (variables, clusters, bind keys);
 *  - outcomeToJson: one completed tuning run (strategy, the search
 *    counters under their kCounterFields keys, winning
 *    configuration, final speedup/quality);
 *  - configToJson / configFromJson: a precision configuration as
 *    {"sites": N, "lowered": [indices...]}.
 */

#include <string>

#include "core/tuner.h"
#include "model/program_model.h"
#include "search/config.h"
#include "support/json.h"
#include "typeforge/clustering.h"

namespace hpcmixp::core {

/** Render a Typeforge partitioning as JSON. */
support::json::Value
clusteringToJson(const model::ProgramModel& program,
                 const typeforge::ClusterSet& clusters);

/** Render one tuning outcome as JSON. */
support::json::Value outcomeToJson(const std::string& benchmark,
                                   const std::string& strategy,
                                   double threshold,
                                   const TuneOutcome& outcome);

/** Render a configuration as {"sites": N, "lowered": [...]}. */
support::json::Value configToJson(const search::Config& config);

/**
 * Parse a configuration produced by configToJson (or an external
 * tool). fatal()s when the document is malformed, the site count
 * disagrees with @p expectedSites, or an index is out of range.
 */
search::Config configFromJson(const support::json::Value& value,
                              std::size_t expectedSites);

} // namespace hpcmixp::core

#endif // HPCMIXP_CORE_INTERCHANGE_H_
