#ifndef HPCMIXP_VERIFY_COMPARATOR_H_
#define HPCMIXP_VERIFY_COMPARATOR_H_

/**
 * @file
 * Pass/fail verification of an approximated run against the reference.
 *
 * A comparator binds a quality metric to a user threshold. This is the
 * "verification routine" the paper's search algorithms consult for every
 * candidate configuration.
 */

#include <span>
#include <string>

#include "verify/metrics.h"

namespace hpcmixp::verify {

/** Outcome of verifying one approximated output. */
struct Verdict {
    bool passed = false; ///< loss <= threshold and loss is finite
    double loss = 0.0;   ///< uniform quality loss (NaN if destroyed)
};

/** Binds a metric and a threshold into a reusable verifier. */
class OutputComparator {
  public:
    /**
     * @param metricName  registry name, e.g. "MAE" or "MCR".
     * @param threshold   maximum acceptable quality loss (inclusive);
     *                    a negative or NaN threshold is fatal.
     */
    OutputComparator(const std::string& metricName, double threshold);

    /**
     * Verify @p test against @p reference: one Metric::loss() call, so
     * one pass of the bound metric over the outputs.
     */
    Verdict verify(std::span<const double> reference,
                   std::span<const double> test) const;

    /** The bound metric. */
    const Metric& metric() const { return *metric_; }

    /** The acceptance threshold. */
    double threshold() const { return threshold_; }

  private:
    const Metric* metric_;
    double threshold_;
};

} // namespace hpcmixp::verify

#endif // HPCMIXP_VERIFY_COMPARATOR_H_
