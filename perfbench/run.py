#!/usr/bin/env python3
"""Layered campaign benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_driver (the repository's
libraries plus driver.cc) under $CARGO_TARGET_DIR, default .bench_build,
runs the workload for S seconds of whole passes, checks every job of
every pass against expected.json, writes the full report with the
machine fingerprint under <build dir>/perfbench/results/, and prints as
its last line {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run. See README.md in this directory.

--record rewrites this workload's entries in expected.json from the
run instead of checking them; use it only after a deliberate change to
a workload or to the search, and review the diff.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = os.path.join(HERE, "workloads.json")
RUN_LIMIT_S = 170  # the driver must finish well inside 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/; run from a checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=log, stderr=subprocess.STDOUT, check=False)
        jobs = str(min(4, os.cpu_count() or 1))
        done = subprocess.run(["cmake", "--build", out, "-j", jobs,
                               "--target", "perfbench_driver"],
                              stdout=log, stderr=subprocess.STDOUT,
                              check=False)
    driver = os.path.join(out, "perfbench_driver")
    if done.returncode != 0 or not os.path.isfile(driver):
        fail("build failed; see " + log_path)
    return driver


def run_driver(driver, args):
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    raw = os.path.join(scratch, "raw.json")
    trace_out = os.path.join(build_dir(), "results",
                             "trace-%s-s%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [driver, "--workloads", WORKLOADS, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", raw, "--scratch", scratch,
           "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, timeout=RUN_LIMIT_S, check=False,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_LIMIT_S)
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    with open(raw) as f:
        result = json.load(f)
    shutil.rmtree(scratch)
    return result


def job_key(job):
    phase = job["phase"] + "/" if job["phase"] else ""
    return "%s%s/%s" % (phase, job["benchmark"], job["strategy"])


# What must repeat exactly: the work done and the verdicts reached.
CHECKED = ("ev", "passing", "entries", "digest")


def check(result, expected):
    """(job runs, failed job runs, problems).

    A job run fails if it misses its expectation, its winner fails the
    final measurement, its budget cut it, a sandbox child crashed, or
    any of its evaluations was retried or quarantined.
    """
    attempted = failed = 0
    problems = []
    for index, run in enumerate(result["passes"]):
        for job in run["jobs"]:
            key = job_key(job)
            want = expected.get(key)
            wrong = [f for f in CHECKED if want is None or job[f] != want[f]]
            if not job["final_pass"]:
                wrong.append("final_pass")
            if job["timed_out"] or job["crashed_children"]:
                wrong.append("timed_out/crashed")
            if job["retries"] or job["quarantined"]:
                wrong.append("retries/quarantined")
            attempted += 1
            failed += bool(wrong)
            if wrong:
                problems.append(
                    "pass %d %s: %s" % (index, key, ",".join(wrong)))
    return attempted, failed, problems


def record(result, workload):
    entries = {}
    for run in result["passes"]:
        for job in run["jobs"]:
            got = {f: job[f] for f in CHECKED}
            if entries.setdefault(job_key(job), got) != got:
                fail("%s differs between passes; not recorded" % job_key(job))
    expected = {}
    if os.path.isfile(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    expected[workload] = entries
    blocks = []
    for name in sorted(expected):
        rows = ",\n".join(
            "  %s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
            for key, value in sorted(expected[name].items()))
        blocks.append(" %s: {\n%s\n }" % (json.dumps(name), rows))
    with open(EXPECTED, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


def fingerprint(build_info):
    """Where and from what the numbers came."""
    machine = dict(build_info)
    try:
        with open("/proc/cpuinfo") as f:
            models = [line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")]
        machine["cpu"] = models[0] if models else "unknown"
    except OSError:
        machine["cpu"] = "unknown"
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    machine["git_commit"] = commit
    # Identifies the measured code even where git is absent.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    machine["source_sha256"] = digest.hexdigest()
    return machine


def end_to_end(result, attempted, failed):
    runs = result["passes"]
    return {
        "campaign_s": (statistics.median(r["campaign_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ev": (statistics.median(sum(j["ev"] for j in r["jobs"])
                                 for r in runs), "count"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(result):
    return {name: (m["value"], m["unit"])
            for name, m in result["layers"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open(WORKLOADS) as f:
        if args.workload not in json.load(f):
            fail("unknown workload " + args.workload)
    driver = build()
    result = run_driver(driver, args)

    if args.record:
        record(result, args.workload)
    with open(EXPECTED) as f:
        expected = json.load(f).get(args.workload, {})
    attempted, failed, problems = check(result, expected)
    for problem in problems:
        print("perfbench: check failed: " + problem, file=sys.stderr)

    metrics = per_layer(result) if args.trace else end_to_end(
        result, attempted, failed)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": fingerprint(result["build"]),
        "problems": problems, "raw": result,
    }
    out = os.path.join(build_dir(), "results", "%s-s%d-t%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({"report": out, "machine": report["machine"]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
