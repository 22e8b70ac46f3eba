#!/usr/bin/env python3
"""Host-performance benchmark of the IANUS serving simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report
    python3 perfbench/run.py --selftest              # the benchmark's own tests

The script builds perfbench/ (a CMake package compiling the simulator from
src/) into .bench_build/, writes the workload's trace for --seed to a file,
and then, for --seconds seconds (at least three times), starts a fresh
process that loads the trace, builds a cold device pool, serves the trace
and prints the report. Every process audits its drain afterwards; the
per-request results of all repeats must hash to the same digest.

--trace 0 reports the end-to-end metrics (medians over the repeats).
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics (medians over the traced ones) plus the tracing
overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fleet_cold", "batched_decode", "million_sharded", "sessions_disagg"]

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_goodput_tok_s": "tok/s",
}

# Simulated TTFT percentiles: deterministic per seed like goodput, but at
# light load they sit on one prefill time for most seeds, so they are
# reported with the layers (and printed by every run) rather than bounded.
SIM_TTFT = {"sim_ttft_p50_ms": "ms", "sim_ttft_tail_ms": "ms"}

PER_LAYER = {
    **SIM_TTFT,
    "compiled_model.builds": "count",
    "compiled_model.hits": "count",
    "compiled_model.hit_ratio": "ratio",
    "compiled_model.entries": "count",
    "compiled_model.batch_evictions": "count",
    "compiled_model.lookups_per_req": "count",
    "compiler.build_ms": "ms",
    "execution_engine.run_ms": "ms",
    "serving_engine.submit_s": "s",
    "serving_engine.drain_cold_s": "s",
    "serving_engine.drain_warm_s": "s",
    "serving_engine.events": "count",
    "serving_engine.events_per_s": "1/s",
    "policy.calls": "count",
    "policy.s": "s",
    "router.calls": "count",
    "router.s": "s",
    "report.s": "s",
    "report.result_bytes": "bytes",
    "sharded_drain.s": "s",
    "sharded_drain.serial_s": "s",
    "sharded_drain.speedup": "ratio",
    "kv_manager.peak_pressure": "ratio",
    "kv_manager.shed": "count",
    "kv_manager.transfers": "count",
    "kv_manager.transfer_gb": "GB",
    "kv_manager.leaked_blocks": "count",
    "prefix.hit_rate": "ratio",
    "prefix.tokens_saved": "count",
    "trace_gen.load_s": "s",
    "device_pool.build_s": "s",
    "process.rss_after_setup_mb": "MB",
    "process.rss_after_drain_mb": "MB",
    "trace.overhead_s": "s",
}

MIN_REPEATS = 3          # untraced processes per run, whatever --seconds says
HARD_STOP_S = 150.0      # start no process that could end past this
CHILD_TIMEOUT_S = 170.0

ROOT = os.getcwd()
PACKAGE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "data")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the package; a no-op when up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "serving_engine.hh")):
        raise BenchError("simulator sources (src/) not found; run from the repository root")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", PACKAGE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD, "-j", jobs])


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError("build step failed: " + " ".join(cmd))


def child(args):
    """Run the benchmark binary once; return its last stdout line as JSON."""
    cmd = [os.path.join(BUILD, "perfbench")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(args))
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError("exit %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("no output: " + " ".join(args))
    return json.loads(lines[-1])


def measure(workload, seed, seconds, traced):
    """Repeat cold runs of one workload; return the run's result object."""
    os.makedirs(DATA, exist_ok=True)
    trace_file = os.path.join(DATA, "%s-%d.trace" % (workload, seed))
    spans_file = os.path.join(DATA, "%s-%d.spans.json" % (workload, seed))
    child(["gen", workload, str(seed), trace_file])

    plain, with_spans = [], []
    start = time.monotonic()
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            enough = elapsed >= seconds and len(plain) >= (1 if traced else MIN_REPEATS)
            if enough or (plain and elapsed + longest > HARD_STOP_S):
                break
            t0 = time.monotonic()
            pair = [(plain, ["run", workload, trace_file])]
            if traced:
                # Alternate which of the pair runs first, so neither side
                # always follows the trace generation or the other's run.
                spans_run = (with_spans, ["run", workload, trace_file, "--spans", spans_file])
                pair.insert(len(with_spans) % 2, spans_run)
            for runs, args in pair:
                runs.append(child(args))
            longest = max(longest, time.monotonic() - t0)
    finally:
        os.remove(trace_file)
    return summarize(workload, plain, with_spans)


def summarize(workload, plain, with_spans):
    samples = plain + with_spans
    digests = sorted({s["digest"] for s in samples})
    violations = sorted({s["violations"] for s in samples if s["violations"]})
    attempted = int(sum(s["offered"] for s in samples))
    failed = int(sum(s["failed"] for s in samples))
    correct = len(digests) == 1 and not violations and failed == 0

    def median(key, runs):
        return statistics.median(s[key] for s in runs)

    if with_spans:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = median("wall_s", with_spans) - median("wall_s", plain)
            elif name in SIM_TTFT:
                value = median(name, with_spans)
            else:
                value = statistics.median(s["layers"][name] for s in with_spans)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": median(name, plain), "unit": unit}
                   for name, unit in END_TO_END.items()}

    first = samples[0]
    print("%s: %d repeats (%d traced), digest %s, failed_frac %.6g (%d of %d offered)%s"
          % (workload, len(samples), len(with_spans), ",".join(digests),
             failed / attempted if attempted else 0.0, failed, attempted,
             "; audit: " + ";".join(violations) if violations else ""))
    print("  sim_ttft_p50_ms %.9g ms, sim_ttft_tail_ms (p%g) %.9g ms"
          % (first["sim_ttft_p50_ms"], first["tail_percentile"], first["sim_ttft_tail_ms"]))
    for name, m in metrics.items():
        print("  %-34s %18.9g %s" % (name, m["value"], m["unit"]))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        if args.selftest:
            return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
        else:
            parts = {w: measure(w, args.seed, args.seconds, args.trace == 1) for w in WORKLOADS}
            result = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {"%s.%s" % (w, name): m
                            for w, p in parts.items() for name, m in p["metrics"].items()},
            }
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
