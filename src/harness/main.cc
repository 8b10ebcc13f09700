/**
 * @file
 * mixpbench-harness — command-line entry point.
 *
 *   mixpbench-harness --config suite.yaml [--jobs N]
 *                     [--search-jobs N] [--reps R]
 *                     [--budget E] [--seed S] [--retries N]
 *                     [--deadline S] [--fault-rate P]
 *                     [--fault-hang-rate P] [--fault-nan-rate P]
 *                     [--fault-seed S] [--fault-raw-crash-rate P]
 *                     [--fault-raw-hang-rate P]
 *                     [--fault-raw-segv-rate P]
 *                     [--isolation none|fork|pool]
 *                     [--isolation-max-crashes N] [--pool-workers N]
 *                     [--memo-cache DIR] [--resume DIR] [--portfolio]
 *                     [--portfolio-mode best|race]
 *                     [--static-prior on|off|strict]
 *                     [--certified-caps on|off]
 *                     [--ladder SPEC] [--refine on|off] [--verbose]
 *                     [--json FILE]
 *
 * Reads a Listing-4-style YAML configuration, runs every declared
 * analysis job, and prints a result table. The resilience flags
 * control the retry/deadline policy, deterministic fault injection,
 * and campaign resume from a memo directory (see README "Fault
 * tolerance").
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "harness/harness.h"
#include "support/cli.h"
#include "support/logging.h"

namespace {

/** A count flag; a negative value is a usage error, not a wrap to a
 *  huge std::size_t. */
std::size_t
countFlag(const hpcmixp::support::CommandLine& cl, const char* name,
          long fallback)
{
    long value = cl.getLong(name, fallback);
    if (value < 0)
        hpcmixp::support::fatal(hpcmixp::support::strCat(
            "--", name, " must be a non-negative integer, got ", value));
    return static_cast<std::size_t>(value);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hpcmixp;
    support::CommandLine cl(argc, argv);

    if (cl.has("help") || (!cl.has("config") && cl.positional().empty())) {
        std::cout
            << "usage: mixpbench-harness --config <file.yaml>"
               " [options]\n"
               "  --config      YAML configuration (Listing-4 schema)\n"
               "  --jobs        parallel analysis jobs (default 1)\n"
               "  --search-jobs parallel in-search evaluations per job"
               " (default 1; 0 = auto-detect hardware concurrency,"
               " clamped against --jobs)\n"
               "  --reps        timing repetitions per evaluation"
               " (default 3)\n"
               "  --budget      max evaluated configurations per search"
               " (default 2000)\n"
               "  --seed        campaign seed: GA + fault injection"
               " (default 2020)\n"
               "  --retries     max attempts per evaluation"
               " (default 3)\n"
               "  --deadline    per-evaluation deadline in seconds"
               " (default 0 = none)\n"
               "  --fault-rate  injected transient-crash probability"
               " (default 0)\n"
               "  --fault-hang-rate  injected straggler probability"
               " (default 0)\n"
               "  --fault-nan-rate   injected NaN-output probability"
               " (default 0)\n"
               "  --fault-seed  fault decision seed (default --seed)\n"
               "  --fault-raw-crash-rate  child abort() probability"
               " (fork/pool isolation only)\n"
               "  --fault-raw-hang-rate   child spin-hang probability"
               " (fork/pool isolation + --deadline)\n"
               "  --fault-raw-segv-rate   child SIGSEGV probability"
               " (fork/pool isolation only)\n"
               "  --isolation   evaluation sandbox: none, fork (one"
               " child per attempt) or pool (persistent pre-forked"
               " workers) (default none)\n"
               "  --isolation-max-crashes  fail fast after this many"
               " crashed children (default 0 = unlimited)\n"
               "  --pool-workers  persistent sandbox workers under"
               " --isolation=pool (default 0 = --search-jobs)\n"
               "  --memo-cache  persistent cross-run evaluation cache"
               " directory; also journals every completed job\n"
               "  --resume      --memo-cache DIR plus restoring the"
               " jobs its journal records as completed\n"
               "  --portfolio   race all strategies per benchmark"
               " instead of the configured analysis\n"
               "  --portfolio-mode  best (run all to budget) or race"
               " (first finisher cancels the rest)\n"
               "  --static-prior  mixp-lint search prior: on, off or"
               " strict (default off)\n"
               "  --certified-caps  fold certified absint level caps"
               " into the prior: on or off (default on; off recovers"
               " the heuristic-only prior)\n"
               "  --ladder      precision ladder, deepest last, e.g."
               " double,float,half or double,float,bf16"
               " (default double,float)\n"
               "  --refine      iterative-refinement recovery for"
               " benchmarks with a residual hook: on or off"
               " (default off)\n"
               "  --json        write a JSON report to this file\n"
               "  --verbose     log progress (per-job baseline source,"
               " restored jobs, ...) to stderr\n";
        return cl.has("help") ? 0 : 2;
    }

    if (cl.getBool("verbose", false))
        support::setLogLevel(support::LogLevel::Inform);

    std::string path = cl.getString(
        "config",
        cl.positional().empty() ? "" : cl.positional().front());

    try {
        auto jobs = harness::parseConfigFile(path);
        harness::HarnessOptions options;
        options.jobs = countFlag(cl, "jobs", 1);
        options.tuner.searchJobs = countFlag(cl, "search-jobs", 1);
        if (options.tuner.searchJobs == 0)
            options.tuner.searchJobs = std::max(
                1u, std::thread::hardware_concurrency());
        options.tuner.searchReps = countFlag(cl, "reps", 3);
        options.tuner.budget.maxEvaluations =
            countFlag(cl, "budget", 2000);

        long seed = cl.getLong("seed", 2020);
        options.tuner.seed = static_cast<std::uint64_t>(seed);
        options.tuner.resilience.maxAttempts =
            countFlag(cl, "retries", 3);
        options.tuner.resilience.deadlineSeconds =
            cl.getDouble("deadline", 0.0);
        options.tuner.resilience.seed = options.tuner.seed;
        options.tuner.faultPlan.crashRate =
            cl.getDouble("fault-rate", 0.0);
        options.tuner.faultPlan.hangRate =
            cl.getDouble("fault-hang-rate", 0.0);
        options.tuner.faultPlan.nanRate =
            cl.getDouble("fault-nan-rate", 0.0);
        options.tuner.faultPlan.seed =
            static_cast<std::uint64_t>(cl.getLong("fault-seed", seed));
        options.tuner.faultPlan.rawCrashRate =
            cl.getDouble("fault-raw-crash-rate", 0.0);
        options.tuner.faultPlan.rawHangRate =
            cl.getDouble("fault-raw-hang-rate", 0.0);
        options.tuner.faultPlan.rawSegvRate =
            cl.getDouble("fault-raw-segv-rate", 0.0);

        options.tuner.isolation = support::parseIsolationMode(
            cl.getString("isolation", "none"));
        options.tuner.isolationMaxCrashes =
            countFlag(cl, "isolation-max-crashes", 0);
        options.tuner.poolWorkers = countFlag(cl, "pool-workers", 0);

        options.tuner.staticPrior = search::parsePriorMode(
            cl.getString("static-prior", "off"));
        {
            std::string cc = cl.getString("certified-caps", "on");
            if (cc != "on" && cc != "off")
                support::fatal("--certified-caps expects on or off");
            options.tuner.certifiedCaps = cc == "on";
        }

        options.tuner.ladder = runtime::PrecisionLadder::parse(
            cl.getString("ladder", "double,float"));
        {
            std::string refine = cl.getString("refine", "off");
            if (refine != "on" && refine != "off")
                support::fatal("--refine expects on or off");
            options.tuner.refine = refine == "on";
        }

        options.memoCacheDir = cl.getString("memo-cache", "");
        if (cl.has("resume")) {
            std::string dir = cl.getString("resume", "");
            std::error_code ec;
            if (!options.memoCacheDir.empty() &&
                options.memoCacheDir != dir &&
                !std::filesystem::equivalent(options.memoCacheDir, dir,
                                             ec))
                support::fatal("--resume and --memo-cache name different"
                               " directories");
            options.memoCacheDir = dir;
            options.resume = true;
        }
        options.portfolio = cl.getBool("portfolio", false);
        options.portfolioMode =
            cl.getString("portfolio-mode", "best");

        auto results = harness::runJobs(jobs, options);
        harness::printResults(std::cout, results);
        if (cl.has("json")) {
            std::ofstream out(cl.getString("json", ""));
            if (!out)
                support::fatal("cannot open --json output file");
            out << harness::resultsToJson(results).dump(2) << '\n';
        }
        for (const auto& r : results)
            if (!r.error.empty())
                return 1;
        return 0;
    } catch (const support::FatalError& e) {
        std::cerr << "mixpbench-harness: " << e.what() << '\n';
        return 1;
    }
}
