#ifndef HPCMIXP_TESTS_CACHE_CAPTURE_H_
#define HPCMIXP_TESTS_CACHE_CAPTURE_H_

/**
 * @file
 * Test helper: a strategy wrapper that keeps the final evaluation
 * cache of the search it ran.
 */

#include <memory>
#include <string>
#include <utility>

#include "search/strategy.h"
#include "support/json.h"

namespace hpcmixp::test {

/**
 * Runs an inner strategy, then keeps SearchContext::exportCache() of
 * the context it ran in — also when the budget cut the search short.
 * Pass it to runSearch() or BenchmarkTuner::tune() like any strategy.
 */
class CacheCapture final : public search::SearchStrategy {
  public:
    explicit CacheCapture(std::unique_ptr<search::SearchStrategy> inner)
        : inner_(std::move(inner))
    {
    }

    explicit CacheCapture(const std::string& code)
        : CacheCapture(search::StrategyRegistry::instance().create(code))
    {
    }

    std::string name() const override { return inner_->name(); }
    std::string code() const override { return inner_->code(); }
    search::Granularity granularity() const override
    {
        return inner_->granularity();
    }

    void
    run(search::SearchContext& ctx) override
    {
        try {
            inner_->run(ctx);
        } catch (const search::BudgetExhausted&) {
            cache_ = ctx.exportCache();
            throw;
        }
        cache_ = ctx.exportCache();
    }

    /** The exportCache() document of the last run. */
    const support::json::Value& cache() const { return cache_; }

  private:
    std::unique_ptr<search::SearchStrategy> inner_;
    support::json::Value cache_;
};

} // namespace hpcmixp::test

#endif // HPCMIXP_TESTS_CACHE_CAPTURE_H_
