#include "search/counters.h"

namespace hpcmixp::search {

using support::json::Value;

SearchCounters&
SearchCounters::operator+=(const SearchCounters& other)
{
    for (const CounterField& f : kCounterFields)
        this->*f.member += other.*f.member;
    return *this;
}

void
writeCounters(Value& into, const SearchCounters& counters)
{
    for (const CounterField& f : kCounterFields)
        into.set(f.key,
                 Value::number(static_cast<double>(counters.*f.member)));
}

SearchCounters
readCounters(const Value& from)
{
    SearchCounters counters;
    for (const CounterField& f : kCounterFields)
        counters.*f.member =
            static_cast<std::size_t>(from.at(f.key).asLong());
    return counters;
}

} // namespace hpcmixp::search
