#include "verify/comparator.h"

#include <cmath>

#include "support/logging.h"

namespace hpcmixp::verify {

OutputComparator::OutputComparator(const std::string& metricName,
                                   double threshold)
    : metric_(&MetricRegistry::instance().get(metricName)),
      threshold_(threshold)
{
    // Written so NaN fails too; +inf stays a legal "accept anything
    // finite" threshold.
    if (!(threshold >= 0.0))
        support::fatal(
            "verification threshold must be a non-negative number");
}

Verdict
OutputComparator::verify(std::span<const double> reference,
                         std::span<const double> test) const
{
    Verdict verdict;
    verdict.loss = metric_->loss(reference, test);
    verdict.passed =
        std::isfinite(verdict.loss) && verdict.loss <= threshold_;
    return verdict;
}

} // namespace hpcmixp::verify
