#ifndef HPCMIXP_PERFBENCH_TRACE_H_
#define HPCMIXP_PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around the public
 * calls into each layer; nothing inside the libraries is instrumented.
 * Every span carries its own id, the id of the span open when it
 * started (its cause) and the job id it belongs to. The recorder is
 * single-threaded: the benchmark runs one campaign at a time and
 * sandboxed evaluations are timed from the parent.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One closed span; times are microseconds since the tracer origin. */
struct Span {
    std::string name;
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< enclosing span, -1 at the top
    std::int64_t job = -1;    ///< job id, -1 outside any job
    double startUs = 0.0;
    double durUs = 0.0;
    hpcmixp::support::json::Value args =
        hpcmixp::support::json::Value::object();
};

class Tracer {
  public:
    Tracer() : origin_(Clock::now()) {}

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** RAII handle of an open span; closes it on destruction. */
    class Scope {
      public:
        Scope(Tracer& tracer, std::string name, std::int64_t job);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /** Attach a tag shown with the span in a trace viewer. */
        void arg(const std::string& key, hpcmixp::support::json::Value v);

        /** Seconds since the span opened. */
        double elapsedSeconds() const;

      private:
        Tracer& tracer_;
        std::size_t index_; ///< slot in tracer_.spans_
        Clock::time_point start_;
    };

    const std::vector<Span>& spans() const { return spans_; }

    /**
     * Self time per span name in seconds: each span's duration minus
     * the part covered by its direct children, summed by name.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON (Perfetto, chrome://tracing). */
    hpcmixp::support::json::Value
    chromeTrace(hpcmixp::support::json::Value metadata) const;

  private:
    double sinceOriginUs(Clock::time_point t) const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_; ///< indices of spans still open
};

} // namespace perfbench

#endif // HPCMIXP_PERFBENCH_TRACE_H_
