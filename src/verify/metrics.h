#ifndef HPCMIXP_VERIFY_METRICS_H_
#define HPCMIXP_VERIFY_METRICS_H_

/**
 * @file
 * Quality metrics of the HPC-MixPBench verification library.
 *
 * The paper's verification library quantifies the accuracy loss of an
 * approximated run against the exact (double-precision) run with five
 * metrics: Mean Absolute Error (MAE), Root Mean Square Error (RMSE),
 * Mean Square Error (MSE), coefficient of determination (R2), and
 * Misclassification Rate (MCR). New metrics can be registered at runtime
 * (Section III-A.b).
 *
 * Every metric exposes a uniform "quality loss" in which 0 is perfect
 * and larger is worse (for R2 the loss is 1 - R2), so search algorithms
 * can compare any metric against a single threshold.
 */

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hpcmixp::verify {

/** Interface for an output-quality metric. */
class Metric {
  public:
    virtual ~Metric() = default;

    /** Short upper-case identifier, e.g. "MAE". */
    virtual std::string name() const = 0;

    /**
     * Raw metric value between a reference and a test output.
     *
     * Both spans must have equal, non-zero length. NaNs in the test
     * output propagate into the result (a destroyed output never
     * passes verification).
     */
    virtual double compute(std::span<const double> reference,
                           std::span<const double> test) const = 0;

    /**
     * Uniform quality loss: 0 = identical, larger = worse.
     * Defaults to the raw value; R2 overrides with 1 - R2.
     * OutputComparator::verify() calls only this, once per candidate.
     */
    virtual double
    loss(std::span<const double> reference,
         std::span<const double> test) const
    {
        return compute(reference, test);
    }
};

/** Mean Absolute Error. */
class MeanAbsoluteError : public Metric {
  public:
    std::string name() const override { return "MAE"; }
    double compute(std::span<const double> reference,
                   std::span<const double> test) const override;
};

/** Mean Square Error. */
class MeanSquareError : public Metric {
  public:
    std::string name() const override { return "MSE"; }
    double compute(std::span<const double> reference,
                   std::span<const double> test) const override;
};

/** Root Mean Square Error. */
class RootMeanSquareError : public Metric {
  public:
    std::string name() const override { return "RMSE"; }
    double compute(std::span<const double> reference,
                   std::span<const double> test) const override;
};

/** Coefficient of determination; loss() is 1 - R2. */
class CoefficientOfDetermination : public Metric {
  public:
    std::string name() const override { return "R2"; }
    double compute(std::span<const double> reference,
                   std::span<const double> test) const override;
    double loss(std::span<const double> reference,
                std::span<const double> test) const override;
};

/**
 * Misclassification Rate: fraction of positions whose rounded integer
 * label differs. Used by K-means, whose output is a cluster assignment.
 */
class MisclassificationRate : public Metric {
  public:
    std::string name() const override { return "MCR"; }
    double compute(std::span<const double> reference,
                   std::span<const double> test) const override;
};

/**
 * Registry of metrics by name. The built-in five are pre-registered;
 * users can add their own (the paper's extension point).
 */
class MetricRegistry {
  public:
    /** The process-wide registry instance. */
    static MetricRegistry& instance();

    /** Register a metric under its name(); fatal()s on duplicates. */
    void add(std::unique_ptr<Metric> metric);

    /** Look up by case-insensitive name; fatal()s when unknown. */
    const Metric& get(const std::string& name) const;

    /** True when a metric with this name exists. */
    bool has(const std::string& name) const;

    /** Registered names in registration order. */
    std::vector<std::string> names() const;

  private:
    MetricRegistry();

    /** Lowered name cached at registration, paired with the metric. */
    std::vector<std::pair<std::string, std::unique_ptr<Metric>>>
        metrics_;
};

} // namespace hpcmixp::verify

#endif // HPCMIXP_VERIFY_METRICS_H_
