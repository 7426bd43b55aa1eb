"""Benchmark for metaice: time to verdict, set-up time and peak memory of
three workloads, or their per-layer counters under tracing.

    python3 perfbench/run.py --workload {exchange,grid,crystal,all} \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it uses the sources under src/ next to this
directory and needs nothing beyond the standard library.

Each pass of a workload is a fresh single-threaded interpreter with
METAICE_WORKERS unset (perfbench/workload.py), so the enumeration and
crossing-weight caches start cold as in every metaice invocation.  One
caller makes the workload's calls back to back (a closed loop) and
checks every output: exit codes, verdicts, exact counts and SHA-256
digests of the exact results.

With --trace 0 the run first launches several set-up-only processes,
then full passes for as long as another one still ends within
--seconds, and reports medians:

    time_to_verdict_s  first call to last checked verdict, caches cold
    setup_s            interpreter start, import and input construction
    peak_rss_mb        peak resident set of the pass process

With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of perfbench/layers.json, plus the tracing overhead;
the traced pass writes its spans under .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failed checks over attempted
checks is the fail ratio; a run with a failed check exits 1.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("exchange", "grid", "crystal")
SETUP_PROBES = 9
# a pass still running this many seconds after its run began is killed
RUN_CAP_S = 150.0


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commit():
    """Commit hash of the checkout, or None when it is not a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit()}


def launch(workload, seed, deadline, *flags):
    """One pass in a fresh interpreter; returns its record, or a record
    of one failed check when the process fails or prints no result."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("METAICE_WORKERS", None)
    spawned = clock()
    argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
            "--seed", str(seed), "--spawned-at", repr(spawned), *flags]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "failures": ["pass timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"attempted": 1, "failed": 1,
                "failures": ["pass exited %d: %s" % (proc.returncode, tail[0])]}
    return json.loads(lines[-1])


def measure(workload, seed, seconds):
    """Set-up probes, then untraced passes while the next one can still
    end within `seconds`; at least one pass."""
    start = clock()
    deadline = start + RUN_CAP_S
    setups = [launch(workload, seed, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
    passes = []
    longest = 0.0
    while not passes or clock() - start + longest <= min(seconds, RUN_CAP_S):
        began = clock()
        passes.append(launch(workload, seed, deadline))
        longest = max(longest, clock() - began)
    records = setups + passes
    ok = [p for p in passes if not p["failed"]]
    metrics = {}
    if ok and all("setup_s" in r for r in records):
        metrics = {
            "time_to_verdict_s": statistics.median(p["time_to_verdict_s"] for p in ok),
            "setup_s": statistics.median(r["setup_s"] for r in records),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok),
        }
    note = "%d set-up probes, %d passes taking %s s" % (
        len(setups), len(passes),
        " ".join("%.3f" % p["time_to_verdict_s"] for p in ok))
    return records, metrics, note


def measure_traced(workload, seed):
    """One untraced and one traced pass; per-layer metrics and overhead."""
    deadline = clock() + RUN_CAP_S
    plain = launch(workload, seed, deadline)
    traced = launch(workload, seed, deadline, "--trace")
    metrics = {}
    if not plain["failed"] and not traced["failed"]:
        metrics = dict(traced["per_layer"])
        metrics["trace.time_to_verdict_s"] = traced["time_to_verdict_s"]
        metrics["trace.overhead_s"] = (traced["time_to_verdict_s"]
                                       - plain["time_to_verdict_s"])
    note = "spans in %s" % traced.get("trace_file", "(none)")
    return [plain, traced], metrics, note


def run_workload(workload, seed, seconds, trace, specs):
    if trace:
        records, measured, note = measure_traced(workload, seed)
    else:
        records, measured, note = measure(workload, seed, seconds)
    attempted = sum(r.get("attempted", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    print("perfbench %s seed=%d trace=%d: %s" % (workload, seed, trace, note))
    print(json.dumps({"env": environment()}, sort_keys=True))
    for record in records:
        for failure in record.get("failures", []):
            print("  FAIL %s" % failure)
    metrics = {}
    for spec in specs:
        if spec["name"] in measured:
            metrics[spec["name"]] = {"value": measured[spec["name"]], "unit": spec["unit"]}
            print("  %-40s %.6g %s" % (spec["name"], measured[spec["name"]], spec["unit"]))
    print("  %-40s %.6g (%d failed of %d checks)"
          % ("fail_ratio", failed / max(attempted, 1), failed, attempted))
    if len(metrics) != len(specs):
        failed = max(failed, 1)
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "metaice", "__init__.py")):
        print("perfbench: no metaice sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        done, bad, measured = run_workload(name, args.seed, seconds, args.trace, specs)
        attempted += done
        failed += bad
        for metric, value in measured.items():
            metrics[metric if len(names) == 1 else "%s.%s" % (name, metric)] = value
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
