#include "benchmarks/benchmark.h"

#include "support/logging.h"

namespace hpcmixp::benchmarks {

runtime::Precision
PrecisionMap::get(const std::string& key) const
{
    return get(model::internBindKey(key));
}

runtime::Precision
PrecisionMap::get(model::BindKeyId key) const
{
    for (const auto& [id, p] : entries_)
        if (id == key)
            return p;
    // Unmentioned knobs default to double — but a key no model ever
    // declares can never be set by the tuner, so querying it is almost
    // certainly a typo'd knob name. Warn once per key. (The gate on
    // anyBindKeyDeclared keeps model-free unit tests silent.)
    if (model::anyBindKeyDeclared() && !model::bindKeyDeclared(key))
        model::warnUndeclaredBindKey(key, owner_);
    return runtime::Precision::Float64;
}

void
PrecisionMap::set(const std::string& key, runtime::Precision p)
{
    set(model::internBindKey(key), p);
}

void
PrecisionMap::set(model::BindKeyId key, runtime::Precision p)
{
    for (auto& [id, existing] : entries_) {
        if (id == key) {
            existing = p;
            return;
        }
    }
    entries_.emplace_back(key, p);
}

bool
PrecisionMap::allDouble() const
{
    for (const auto& [id, p] : entries_)
        if (p != runtime::Precision::Float64)
            return false;
    return true;
}

const runtime::Buffer&
CachedInput::view(runtime::Precision p) const
{
    switch (p) {
    case runtime::Precision::BFloat16:
        std::call_once(onceBf16_, [&] { bf16_ = convert(p); });
        return bf16_;
    case runtime::Precision::Float16:
        std::call_once(once16_, [&] { f16_ = convert(p); });
        return f16_;
    case runtime::Precision::Float32:
        std::call_once(once32_, [&] { f32_ = convert(p); });
        return f32_;
    case runtime::Precision::Float64:
        break;
    }
    return values_;
}

runtime::Buffer
CachedInput::convert(runtime::Precision p) const
{
    return runtime::Buffer::fromDoubles(doubles(), p);
}

void
RunPlan::setKnob(std::size_t slot, runtime::Precision p)
{
    if (knobs_.size() <= slot)
        knobs_.resize(slot + 1, runtime::Precision::Float64);
    knobs_[slot] = p;
}

runtime::Precision
RunPlan::knob(std::size_t slot) const
{
    HPCMIXP_ASSERT(slot < knobs_.size(), "run plan knob slot unset");
    return knobs_[slot];
}

void
RunPlan::bindInput(std::size_t slot, const runtime::Buffer& view)
{
    if (inputs_.size() <= slot)
        inputs_.resize(slot + 1, nullptr);
    inputs_[slot] = &view;
}

void
RunPlan::adoptInput(std::size_t slot, runtime::Buffer owned)
{
    owned_.push_back(std::move(owned));
    bindInput(slot, owned_.back());
}

const runtime::Buffer&
RunPlan::input(std::size_t slot) const
{
    HPCMIXP_ASSERT(slot < inputs_.size() && inputs_[slot] != nullptr,
                   "run plan input slot unbound");
    return *inputs_[slot];
}

RunOutput
Benchmark::run(const PrecisionMap& precisions) const
{
    runtime::RunWorkspace workspace;
    return execute(prepare(precisions), workspace);
}

RunPlan
Benchmark::prepare(const PrecisionMap& precisions,
                   const PrepareOptions&) const
{
    RunPlan plan;
    plan.fallbackMap_ = precisions;
    plan.fallbackOnly_ = true;
    return plan;
}

RunOutput
Benchmark::execute(const RunPlan& plan, runtime::RunWorkspace&) const
{
    // A run()-only benchmark reaches here through the tuner's
    // prepare/execute path; forward to its run(). (A benchmark class
    // overriding neither run() nor this pair is a bug — it would
    // recurse through the two defaults.)
    HPCMIXP_ASSERT(plan.fallbackOnly_,
                   "plan-aware benchmark is missing execute()");
    return run(plan.fallbackMap_);
}

RunOutput
Benchmark::executeRefined(const RunPlan&, runtime::RunWorkspace&,
                          const RefineControl&) const
{
    support::fatal(
        support::strCat("benchmark '", name(),
                        "' does not expose a residual hook; "
                        "supportsRefinement() must gate this call"));
}

} // namespace hpcmixp::benchmarks
