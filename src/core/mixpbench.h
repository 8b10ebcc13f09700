#ifndef HPCMIXP_CORE_MIXPBENCH_H_
#define HPCMIXP_CORE_MIXPBENCH_H_

/**
 * @file
 * Umbrella header: the public API of HPC-MixPBench.
 *
 * Typical use:
 *
 *   #include "core/mixpbench.h"
 *   using namespace hpcmixp;
 *
 *   auto bench = benchmarks::BenchmarkRegistry::instance()
 *                    .create("hotspot");
 *   core::TunerOptions opt;
 *   opt.threshold = 1e-6;
 *   core::BenchmarkTuner tuner(*bench, opt);
 *   core::TuneOutcome out = tuner.tune("DD");
 *   // out.finalSpeedup, out.finalQualityLoss,
 *   // out.search.evaluated (EV), out.clusterConfig ...
 */

#include "benchmarks/benchmark.h"
#include "benchmarks/registry.h"
#include "core/tuner.h"
#include "model/program_model.h"
#include "runtime/buffer.h"
#include "runtime/mp_io.h"
#include "search/driver.h"
#include "search/strategy.h"
#include "typeforge/clustering.h"
#include "typeforge/frontend/parser.h"
#include "typeforge/report.h"
#include "verify/comparator.h"
#include "verify/metrics.h"

#endif // HPCMIXP_CORE_MIXPBENCH_H_
