#ifndef HPCMIXP_RUNTIME_LADDER_H_
#define HPCMIXP_RUNTIME_LADDER_H_

/**
 * @file
 * The precision ladder a tuning campaign searches over.
 *
 * A ladder is an ordered list of precisions, strictly descending:
 * rung 0 is always Float64 (the reference/baseline tier), and each
 * later rung is strictly lower precision than the one before. A
 * `search::Config` stores one rung index ("level") per cluster, so
 * the classic two-tier campaign is simply the default ladder
 * {double, float} and a site's level doubles as the historical
 * narrow/keep bit.
 *
 * The ladder is part of the evaluation-cache identity: its
 * describe() string ("f64:f32:f16") feeds MemoFingerprint, so memo
 * segments recorded under one ladder live in a table of their own
 * and are never consulted under another.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/precision.h"

namespace hpcmixp::runtime {

/** An ordered, strictly descending list of precisions. */
class PrecisionLadder {
  public:
    /** The classic two-tier ladder {double, float}. */
    PrecisionLadder()
        : rungs_{Precision::Float64, Precision::Float32}
    {
    }

    /** Ladder with explicit rungs; fatal unless rung 0 is Float64 and
     *  every later rung is strictly lower precision. */
    explicit PrecisionLadder(std::vector<Precision> rungs);

    /**
     * Parse a comma-separated spec like "double,float,half". Accepted
     * rung names: double, float, half (fp16), bfloat16 (bf16). Fatal
     * on unknown names or an invalid ordering.
     */
    static PrecisionLadder parse(const std::string& spec);

    /** Number of rungs (>= 1). */
    std::size_t rungs() const { return rungs_.size(); }

    /** Precision bound to rung @p level (checked). */
    Precision at(std::size_t level) const;

    /** Deepest level a cluster can take (= rungs() - 1). */
    std::size_t maxLevel() const { return rungs_.size() - 1; }

    /** Compact identity string, e.g. "f64:f32" or "f64:f32:bf16".
     *  The default ladder's describe() matches the historical
     *  MemoFingerprint default, keeping two-tier caches valid. */
    std::string describe() const;

    bool operator==(const PrecisionLadder&) const = default;

  private:
    std::vector<Precision> rungs_;
};

} // namespace hpcmixp::runtime

#endif // HPCMIXP_RUNTIME_LADDER_H_
