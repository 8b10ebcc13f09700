#include "trace.h"

#include <exception>

namespace perfbench {

using hpcmixp::support::json::Value;

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t job)
    : tracer_(tracer), index_(tracer.spans_.size()), start_(Clock::now())
{
    Span span;
    span.name = std::move(name);
    span.id = static_cast<std::int64_t>(index_);
    span.job = job;
    if (!tracer_.open_.empty())
        span.parent = static_cast<std::int64_t>(tracer_.open_.back());
    span.startUs = tracer_.sinceOriginUs(start_);
    tracer_.spans_.push_back(std::move(span));
    tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope()
{
    Span& span = tracer_.spans_[index_];
    span.durUs = tracer_.sinceOriginUs(Clock::now()) - span.startUs;
    // Scopes are stack objects on one thread, so they close in LIFO
    // order; anything else is a bug in the benchmark.
    if (tracer_.open_.empty() || tracer_.open_.back() != index_)
        std::terminate();
    tracer_.open_.pop_back();
}

void
Tracer::Scope::arg(const std::string& key, Value v)
{
    tracer_.spans_[index_].args.set(key, std::move(v));
}

double
Tracer::Scope::elapsedSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

double
Tracer::sinceOriginUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<double> childUs(spans_.size(), 0.0);
    for (const Span& span : spans_)
        if (span.parent >= 0)
            childUs[static_cast<std::size_t>(span.parent)] += span.durUs;
    std::map<std::string, double> self;
    for (const Span& span : spans_)
        self[span.name] +=
            (span.durUs - childUs[static_cast<std::size_t>(span.id)]) * 1e-6;
    return self;
}

Value
Tracer::chromeTrace(Value metadata) const
{
    Value events = Value::array();
    for (const Span& span : spans_) {
        Value args = span.args;
        args.set("id", Value::number(static_cast<double>(span.id)));
        args.set("parent", Value::number(static_cast<double>(span.parent)));
        args.set("job", Value::number(static_cast<double>(span.job)));
        Value e = Value::object();
        e.set("name", Value::string(span.name));
        e.set("cat", Value::string("perfbench"));
        e.set("ph", Value::string("X"));
        e.set("ts", Value::number(span.startUs));
        e.set("dur", Value::number(span.durUs));
        e.set("pid", Value::number(1));
        e.set("tid", Value::number(1));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Value root = Value::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", Value::string("ms"));
    root.set("otherData", std::move(metadata));
    return root;
}

} // namespace perfbench
