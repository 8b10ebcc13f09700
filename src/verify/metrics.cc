#include "verify/metrics.h"

#include <cmath>

#include "support/logging.h"
#include "support/string_util.h"

namespace hpcmixp::verify {

namespace {

void
checkShapes(std::span<const double> reference, std::span<const double> test)
{
    using support::fatal;
    using support::strCat;
    if (reference.empty())
        fatal("metric: empty reference output");
    if (reference.size() != test.size())
        fatal(strCat("metric: output length mismatch (reference ",
                     reference.size(), ", test ", test.size(), ")"));
}

/**
 * The integer label std::llround() gives @p x (round half away from
 * zero), as a double and without the libm call: std::trunc() is one
 * instruction, and x - trunc(x) is exact. For every finite |x| < 2^63
 * the label equals llround(x) exactly (from 2^52 up x is an integer
 * already), so comparing labels compares llround() results. Beyond
 * that llround() is unspecified: glibc maps +-inf, NaN and
 * |x| >= 2^63 all to LLONG_MIN, so a +inf reference "matched" a -inf
 * output. Here such values keep their own label: +inf and -inf
 * differ, two different huge values differ, and NaN matches nothing.
 */
inline double
labelOf(double x)
{
    double t = std::trunc(x);
    double frac = x - t;
    return t + static_cast<double>(frac >= 0.5) -
           static_cast<double>(frac <= -0.5);
}

} // namespace

double
MeanAbsoluteError::compute(std::span<const double> reference,
                           std::span<const double> test) const
{
    checkShapes(reference, test);
    double sum = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i)
        sum += std::abs(reference[i] - test[i]);
    return sum / static_cast<double>(reference.size());
}

double
MeanSquareError::compute(std::span<const double> reference,
                         std::span<const double> test) const
{
    checkShapes(reference, test);
    double sum = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        double d = reference[i] - test[i];
        sum += d * d;
    }
    return sum / static_cast<double>(reference.size());
}

double
RootMeanSquareError::compute(std::span<const double> reference,
                             std::span<const double> test) const
{
    MeanSquareError mse;
    return std::sqrt(mse.compute(reference, test));
}

double
CoefficientOfDetermination::compute(std::span<const double> reference,
                                    std::span<const double> test) const
{
    checkShapes(reference, test);
    double mean = 0.0;
    for (double r : reference)
        mean += r;
    mean /= static_cast<double>(reference.size());

    double ssRes = 0.0;
    double ssTot = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        double res = reference[i] - test[i];
        double tot = reference[i] - mean;
        ssRes += res * res;
        ssTot += tot * tot;
    }
    if (ssTot == 0.0) {
        // A constant reference: perfect iff residuals vanish.
        return ssRes == 0.0 ? 1.0 : 0.0;
    }
    return 1.0 - ssRes / ssTot;
}

double
CoefficientOfDetermination::loss(std::span<const double> reference,
                                 std::span<const double> test) const
{
    return 1.0 - compute(reference, test);
}

double
MisclassificationRate::compute(std::span<const double> reference,
                               std::span<const double> test) const
{
    checkShapes(reference, test);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < reference.size(); ++i)
        mismatches += labelOf(reference[i]) != labelOf(test[i]);
    return static_cast<double>(mismatches) /
           static_cast<double>(reference.size());
}

MetricRegistry::MetricRegistry()
{
    add(std::make_unique<MeanAbsoluteError>());
    add(std::make_unique<MeanSquareError>());
    add(std::make_unique<RootMeanSquareError>());
    add(std::make_unique<CoefficientOfDetermination>());
    add(std::make_unique<MisclassificationRate>());
}

MetricRegistry&
MetricRegistry::instance()
{
    static MetricRegistry registry;
    return registry;
}

void
MetricRegistry::add(std::unique_ptr<Metric> metric)
{
    using support::fatal;
    using support::strCat;
    HPCMIXP_ASSERT(metric != nullptr, "null metric registered");
    if (has(metric->name()))
        fatal(strCat("metric '", metric->name(), "' already registered"));
    std::string lowered = support::toLower(metric->name());
    metrics_.emplace_back(std::move(lowered), std::move(metric));
}

const Metric&
MetricRegistry::get(const std::string& name) const
{
    std::string wanted = support::toLower(name);
    for (const auto& [lowered, metric] : metrics_)
        if (lowered == wanted)
            return *metric;
    support::fatal(support::strCat("unknown quality metric '", name, "'"));
}

bool
MetricRegistry::has(const std::string& name) const
{
    std::string wanted = support::toLower(name);
    for (const auto& [lowered, metric] : metrics_)
        if (lowered == wanted)
            return true;
    return false;
}

std::vector<std::string>
MetricRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(metrics_.size());
    for (const auto& [lowered, metric] : metrics_)
        out.push_back(metric->name());
    return out;
}

} // namespace hpcmixp::verify
