#include "search/fault.h"

#include <cstdlib>
#include <limits>

#include "support/logging.h"
#include "support/memo_log.h"
#include "support/retry.h"
#include "support/rng.h"

namespace hpcmixp::search {

namespace {

/** Raw fault handed from FaultyProblem to the sandboxed executor on
 *  the same evaluation thread (see header). */
thread_local RawFault tlsPendingRawFault = RawFault::None;

} // namespace

FaultKind
FaultInjector::draw(const std::string& configKey, std::uint64_t attempt)
{
    if (!plan_.enabled())
        return FaultKind::None;
    // One SplitMix64 step over (seed, key, attempt) gives a stateless,
    // replayable decision per attempt.
    support::SplitMix64 mix(plan_.seed ^ support::fnv1a64(configKey) ^
                            (attempt * 0x9e3779b97f4a7c15ULL));
    double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
    if (u < plan_.crashRate) {
        ++crashes_;
        return FaultKind::Crash;
    }
    if (u < plan_.crashRate + plan_.hangRate) {
        ++hangs_;
        return FaultKind::Hang;
    }
    if (u < plan_.crashRate + plan_.hangRate + plan_.nanRate) {
        ++nans_;
        return FaultKind::Nan;
    }
    // Raw kinds share the decision stream with the simulated ones:
    // with a single nonzero rate r, both `hangRate = r` and
    // `rawHangRate = r` occupy the interval [0, r), so simulated and
    // forked hangs fire on exactly the same (key, attempt) draws for
    // the same seed.
    double cum = plan_.crashRate + plan_.hangRate + plan_.nanRate;
    if (u < cum + plan_.rawCrashRate) {
        ++rawCrashes_;
        return FaultKind::RawCrash;
    }
    cum += plan_.rawCrashRate;
    if (u < cum + plan_.rawHangRate) {
        ++rawHangs_;
        return FaultKind::RawHang;
    }
    cum += plan_.rawHangRate;
    if (u < cum + plan_.rawSegvRate) {
        ++rawSegvs_;
        return FaultKind::RawSegv;
    }
    return FaultKind::None;
}

void
setPendingRawFault(RawFault fault)
{
    tlsPendingRawFault = fault;
}

RawFault
takePendingRawFault()
{
    RawFault fault = tlsPendingRawFault;
    tlsPendingRawFault = RawFault::None;
    return fault;
}

RawFault
pendingRawFault()
{
    return tlsPendingRawFault;
}

void
executeRawFault(RawFault fault)
{
    switch (fault) {
      case RawFault::None:
        return;
      case RawFault::Crash:
        std::abort();
      case RawFault::Hang:
        for (volatile std::uint64_t spin = 0;;) spin = spin + 1;
      case RawFault::Segv: {
        // Aligned, unmapped low address; abort() as a backstop if the
        // store somehow fails to trap.
        volatile int* wild = reinterpret_cast<volatile int*>(0x28);
        *wild = 1;
        std::abort();
      }
    }
}

FaultyProblem::FaultyProblem(SearchProblem& inner, FaultPlan plan)
    : inner_(inner), injector_(plan)
{
    if (plan.rawEnabled() && !plan.sandboxed)
        support::fatal(
            "raw fault injection (--fault-raw-*) genuinely kills the "
            "evaluating process; it requires --isolation=fork or "
            "--isolation=pool");
}

Evaluation
FaultyProblem::evaluate(const Config& config)
{
    std::string key = config.toString();
    std::uint64_t attempt;
    {
        // Distinct configurations evaluate concurrently under
        // evaluateBatch; each key's attempt sequence stays private.
        std::lock_guard<std::mutex> lock(mutex_);
        attempt = attempts_[key]++;
    }
    const FaultKind kind = injector_.draw(key, attempt);
    switch (kind) {
      case FaultKind::Crash: {
        Evaluation eval;
        eval.status = EvalStatus::RuntimeFail;
        eval.qualityLoss = std::numeric_limits<double>::quiet_NaN();
        return eval;
      }
      case FaultKind::Hang:
        support::sleepForSeconds(injector_.plan().hangSeconds);
        return inner_.evaluate(config);
      case FaultKind::Nan: {
        Evaluation eval = inner_.evaluate(config);
        if (eval.status == EvalStatus::Pass ||
            eval.status == EvalStatus::QualityFail) {
            eval.status = EvalStatus::QualityFail;
            eval.qualityLoss =
                std::numeric_limits<double>::quiet_NaN();
        }
        return eval;
      }
      case FaultKind::RawCrash:
      case FaultKind::RawHang:
      case FaultKind::RawSegv: {
        // Post the fault for the sandboxed executor on this thread; it
        // detonates inside the forked child. Clear any leftover after
        // the call — an inner path that never forked (e.g. a compile
        // failure short-circuit) must not hand the fault to the next
        // evaluation on this thread.
        setPendingRawFault(kind == FaultKind::RawCrash ? RawFault::Crash
                           : kind == FaultKind::RawHang
                               ? RawFault::Hang
                               : RawFault::Segv);
        Evaluation eval = inner_.evaluate(config);
        takePendingRawFault();
        return eval;
      }
      case FaultKind::None:
        break;
    }
    return inner_.evaluate(config);
}

} // namespace hpcmixp::search
