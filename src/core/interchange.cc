#include "core/interchange.h"

#include "support/logging.h"
#include "typeforge/report.h"

namespace hpcmixp::core {

using support::json::Value;

Value
clusteringToJson(const model::ProgramModel& program,
                 const typeforge::ClusterSet& clusters)
{
    Value root = Value::object();
    root.set("program", Value::string(program.name()));
    root.set("total_variables",
             Value::number(
                 static_cast<double>(clusters.variableCount())));
    root.set("total_clusters",
             Value::number(
                 static_cast<double>(clusters.clusterCount())));

    Value clusterArray = Value::array();
    for (std::size_t c = 0; c < clusters.clusterCount(); ++c) {
        Value entry = Value::object();
        entry.set("index", Value::number(static_cast<double>(c)));
        Value members = Value::array();
        Value bindKeys = Value::array();
        for (model::VarId v : clusters.members(c)) {
            members.push(Value::string(
                typeforge::qualifiedName(program, v)));
            const auto& var = program.variable(v);
            if (!var.bindKey.empty())
                bindKeys.push(Value::string(var.bindKey));
        }
        entry.set("members", std::move(members));
        entry.set("bind_keys", std::move(bindKeys));
        clusterArray.push(std::move(entry));
    }
    root.set("clusters", std::move(clusterArray));
    return root;
}

Value
configToJson(const search::Config& config)
{
    Value root = Value::object();
    root.set("sites",
             Value::number(static_cast<double>(config.size())));
    Value lowered = Value::array();
    for (std::size_t i : config.lowered())
        lowered.push(Value::number(static_cast<double>(i)));
    root.set("lowered", std::move(lowered));
    return root;
}

search::Config
configFromJson(const Value& value, std::size_t expectedSites)
{
    using support::fatal;
    using support::strCat;
    if (!value.isObject() || !value.has("sites") ||
        !value.has("lowered"))
        fatal("interchange: configuration must be an object with"
              " 'sites' and 'lowered'");
    auto sites = static_cast<std::size_t>(value.at("sites").asLong());
    if (sites != expectedSites)
        fatal(strCat("interchange: configuration has ", sites,
                     " sites, expected ", expectedSites));
    search::Config config(sites);
    for (const auto& item : value.at("lowered").items()) {
        long index = item.asLong();
        if (index < 0 || static_cast<std::size_t>(index) >= sites)
            fatal(strCat("interchange: site index ", index,
                         " out of range"));
        config.set(static_cast<std::size_t>(index));
    }
    return config;
}

Value
outcomeToJson(const std::string& benchmark, const std::string& strategy,
              double threshold, const TuneOutcome& outcome)
{
    Value root = Value::object();
    root.set("benchmark", Value::string(benchmark));
    root.set("strategy", Value::string(strategy));
    root.set("threshold", Value::number(threshold));
    search::writeCounters(root, outcome.search);
    root.set("timed_out", Value::boolean(outcome.search.timedOut));
    root.set("search_seconds",
             Value::number(outcome.search.searchSeconds));
    root.set("found_improvement",
             Value::boolean(outcome.search.foundImprovement));
    root.set("configuration", configToJson(outcome.clusterConfig));
    root.set("speedup", Value::number(outcome.finalSpeedup));
    root.set("quality_loss", Value::number(outcome.finalQualityLoss));
    return root;
}

} // namespace hpcmixp::core
