#ifndef HPCMIXP_HARNESS_HARNESS_H_
#define HPCMIXP_HARNESS_HARNESS_H_

/**
 * @file
 * The YAML-driven harness (paper Section III-A.c).
 *
 * A configuration document names one or more benchmarks, each with an
 * analysis clause and quality settings, following the schema of the
 * paper's Listing 4:
 *
 *   kmeans:
 *     analysis:
 *       floatsmith:
 *         name: 'floatsmith'
 *         extra_args:
 *           algorithm: 'ddebug'
 *     metric: 'MCR'
 *     threshold: 1e-6
 *
 * The build/clean/bin/copy/args clauses of the original schema are
 * accepted (the parser validates them) but have no effect here: the
 * benchmarks are compiled into the suite rather than built via make.
 * Jobs are scheduled onto a thread pool (`jobs` > 1), substituting for
 * the paper's SLURM cluster.
 */

#include <ostream>
#include <string>
#include <vector>

#include "harness/analysis.h"
#include "support/json.h"
#include "support/yaml.h"

namespace hpcmixp::harness {

/** One parsed benchmark entry of the configuration document. */
struct JobSpec {
    std::string benchmark;   ///< registry name (the YAML key)
    std::string analysis;    ///< analysis registry name
    ExtraArgs extraArgs;     ///< analysis-specific arguments
    std::string metric;      ///< quality metric (empty = default)
    double threshold = 1e-6; ///< quality threshold
};

/** Harness-wide execution settings. */
struct HarnessOptions {
    std::size_t jobs = 1;         ///< parallel analysis jobs
    core::TunerOptions tuner;     ///< metric/threshold overridden per job

    /**
     * Directory of the persistent cross-run memo-cache (--memo-cache).
     * Every job consults the benchmark-fingerprinted table before
     * executing a configuration and publishes what it ran, so a
     * repeated campaign re-executes nothing. Each successfully
     * completed job is also appended to the directory's job journal.
     * Empty disables both.
     */
    std::string memoCacheDir;

    /**
     * Restore the jobs memoCacheDir's journal records as completed
     * under this campaign's settings (--resume). Jobs without a record
     * run again; every evaluation an interrupted run finished is a
     * memo hit. fatal()s when memoCacheDir is empty or missing.
     */
    bool resume = false;

    /** Run every job through the portfolio analysis (--portfolio),
     *  racing the strategies against the shared memo store instead of
     *  the analysis the configuration names. */
    bool portfolio = false;

    /** Portfolio finisher policy: "best" or "race". */
    std::string portfolioMode = "best";
};

/** One completed job. */
struct JobResult {
    JobSpec spec;
    AnalysisResult result;
    std::string error;     ///< non-empty when the job failed
    bool restored = false; ///< satisfied from the job journal
};

/** Parse a configuration document into job specs; fatal()s on schema
 *  violations (unknown benchmark, missing analysis clause, ...). */
std::vector<JobSpec> parseConfig(const support::yaml::Node& doc);

/** Parse a configuration file. */
std::vector<JobSpec> parseConfigFile(const std::string& path);

/** Execute all jobs and collect results in job order. */
std::vector<JobResult> runJobs(const std::vector<JobSpec>& jobs,
                               const HarnessOptions& options);

/** Render results as an aligned table. */
void printResults(std::ostream& os,
                  const std::vector<JobResult>& results);

/** Render results in the JSON interchange format (one entry per job);
 *  the job journal stores these same entries. */
support::json::Value resultsToJson(const std::vector<JobResult>& results);

} // namespace hpcmixp::harness

#endif // HPCMIXP_HARNESS_HARNESS_H_
