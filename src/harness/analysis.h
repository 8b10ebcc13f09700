#ifndef HPCMIXP_HARNESS_ANALYSIS_H_
#define HPCMIXP_HARNESS_ANALYSIS_H_

/**
 * @file
 * The harness's pluggable analysis interface.
 *
 * The paper's harness invokes a user-selected analysis class on each
 * deployed application (Section III-A.c); implementing a new analysis
 * technique means subclassing a base class whose analyze() entry point
 * the harness calls. This is the C++ rendering of that plugin
 * interface. Two analyses are built in:
 *
 *  - "floatsmith": FloatSmith-style mixed-precision search with a
 *    configurable algorithm (the paper's main workload);
 *  - "singleprecision": converts everything to binary32 and profiles
 *    speedup and quality loss (the Table IV experiment).
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tuner.h"

namespace hpcmixp::harness {

/** Free-form key/value arguments from the YAML `extra_args` clause. */
using ExtraArgs = std::map<std::string, std::string>;

/** Uniform result of one analysis run. */
struct AnalysisResult {
    std::string analysis;        ///< analysis name
    std::string detail;          ///< e.g. the algorithm used
    double speedup = 1.0;        ///< final measured speedup
    double qualityLoss = 0.0;    ///< final quality loss
    std::size_t evaluated = 0;   ///< configurations evaluated (EV)
    std::size_t executables = 0; ///< distinct executables timed
    std::size_t compileFailures = 0;
    std::size_t cacheHits = 0;   ///< in-run repeat queries
    std::size_t memoHits = 0;    ///< cross-run memo-cache hits
    std::size_t retries = 0;     ///< transient-failure re-attempts
    std::size_t deadlineMisses = 0; ///< attempts discarded as stragglers
    std::size_t quarantined = 0; ///< configs failed after retries
    std::size_t steals = 0;      ///< batch evals run by a stealing worker
    bool timedOut = false;
    std::string configuration;   ///< winning cluster config bits

    /// Sandbox accounting (--isolation=fork|pool); all zero otherwise.
    std::size_t childForks = 0;       ///< forked evaluation children
    std::size_t childKills = 0;       ///< SIGKILLed on deadline
    std::size_t childNonZeroExits = 0; ///< quarantined: nonzero exit
    std::size_t childSignaled = 0;    ///< quarantined: died by signal
    std::size_t childArenaCorrupt = 0; ///< quarantined: torn result arena
    std::size_t childRespawns = 0;    ///< pool workers re-forked after death
    double childSpawnMeanSeconds = 0.0; ///< mean fork+reap/dispatch overhead
};

/** Base class for harness analyses (the paper's plugin interface). */
class Analysis {
  public:
    virtual ~Analysis() = default;

    /** Registry name, e.g. "floatsmith". */
    virtual std::string name() const = 0;

    /**
     * Analyze @p benchmark under @p options, with analysis-specific
     * @p args (from the YAML `extra_args` clause).
     */
    virtual AnalysisResult analyze(const benchmarks::Benchmark& benchmark,
                                   const core::TunerOptions& options,
                                   const ExtraArgs& args) = 0;
};

/** FloatSmith-style search analysis; `algorithm` picks the strategy. */
class FloatsmithAnalysis : public Analysis {
  public:
    std::string name() const override { return "floatsmith"; }
    AnalysisResult analyze(const benchmarks::Benchmark& benchmark,
                           const core::TunerOptions& options,
                           const ExtraArgs& args) override;

    /** Map YAML algorithm spellings (ddebug, genetic, ...) to codes. */
    static std::string algorithmCode(const std::string& spelling);
};

/** Whole-program single-precision profiling (Table IV). */
class SinglePrecisionAnalysis : public Analysis {
  public:
    std::string name() const override { return "singleprecision"; }
    AnalysisResult analyze(const benchmarks::Benchmark& benchmark,
                           const core::TunerOptions& options,
                           const ExtraArgs& args) override;
};

/**
 * Precimonious-style analysis: delta debugging over raw variables with
 * no cluster information. The paper compares against Precimonious and
 * notes the cost of cluster-blind search (Sections II-A and V); this
 * plugin makes that comparison runnable from a harness configuration.
 */
class PrecimoniousAnalysis : public Analysis {
  public:
    std::string name() const override { return "precimonious"; }
    AnalysisResult analyze(const benchmarks::Benchmark& benchmark,
                           const core::TunerOptions& options,
                           const ExtraArgs& args) override;
};

/**
 * Portfolio analysis: race several strategies (default: all six)
 * concurrently against the shared memo store and report the
 * deterministic winner. Extra args: `strategies` (comma-separated
 * codes), `mode` (`best` or `race`), `workers` (thread count,
 * 0 = one per entrant).
 */
class PortfolioAnalysis : public Analysis {
  public:
    std::string name() const override { return "portfolio"; }
    AnalysisResult analyze(const benchmarks::Benchmark& benchmark,
                           const core::TunerOptions& options,
                           const ExtraArgs& args) override;
};

/** Registry of analyses by name. */
class AnalysisRegistry {
  public:
    using Factory = std::function<std::unique_ptr<Analysis>()>;

    /** Process-wide instance with the built-ins registered. */
    static AnalysisRegistry& instance();

    /** Register a factory; fatal()s on duplicates. */
    void add(const std::string& name, Factory factory);

    /** Instantiate; fatal()s for unknown names. */
    std::unique_ptr<Analysis> create(const std::string& name) const;

    /** True when @p name is registered. */
    bool has(const std::string& name) const;

    /** Registered names. */
    std::vector<std::string> names() const;

  private:
    AnalysisRegistry();
    std::vector<std::pair<std::string, Factory>> factories_;
};

} // namespace hpcmixp::harness

#endif // HPCMIXP_HARNESS_ANALYSIS_H_
