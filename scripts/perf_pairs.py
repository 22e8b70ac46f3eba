#!/usr/bin/env python3
"""Judge a host-performance claim with paired perfbench runs.

    scripts/perf_pairs.py --base REV [--workload W|all] [--pairs N] [--seed S]
    scripts/perf_pairs.py --selftest

The base is commit REV; the change is the working tree this script sits
in. REV is exported with `git archive` into a temporary directory, which
is removed at exit. perfbench/ is built in Release from both trees: the
base's in the temporary directory, the change's in .bench_build/perfbench,
where perfbench/run.py builds it too. perfbench/ itself is not modified.
Each workload's trace is generated once, by the base's binary, and both
sides serve that same file.

The script then runs N pairs of single `perfbench run` processes per
workload, alternating base and change and swapping which side goes first
in each pair. For the end-to-end metrics of BENCHMARK.json, and for the
run process's minor page faults and system time (getrusage), it prints
both medians, the base's quartiles, how many pairs the change won, and a
verdict (ROADMAP.md, "How to judge a perf claim"):

  gain          the change is better in at least 90% of the pairs, and
                its median beats the base's by more than the base's
                interquartile range;
  worse         the change's median is worse than the base's by more
                than the metric's bound (relative, from BENCHMARK.json)
                and by more than the base's interquartile range;
  unresolved    neither, and either the median is worse by more than the
                bound but within the base's spread, or the spread itself
                is wider than the bound, so the set cannot tell (unless
                every change run is better than every base run);
  within bound  otherwise.

The fault and system-time rows have no bound: they are judged gain,
worse (the mirror image of gain) or unresolved.

Exit status: 0 when every run agrees; 1 when the two sides' per-request
digests or simulated metrics (goodput, TTFT p50 and tail) differ, or a
run fails its audit or exits non-zero; 2 on a usage error.
--selftest checks the verdict logic on fixed numbers and builds nothing.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHANGE_BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# Host-side rows measured around each run process (getrusage).
RUSAGE_ROWS = ["minor_faults", "sys_s"]
# Simulated metrics of a run, which a host-side change must keep bit for bit.
SIMULATED = ["sim_goodput_tok_s", "sim_ttft_p50_ms", "sim_ttft_tail_ms"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Verdict ------------------------------------------------------------------


def quartiles(values):
    """First and third quartiles (statistics.quantiles' default method)."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(base, change, better, bound):
    """Compare paired samples of one metric; return a summary dict.

    base[i] and change[i] come from pair i. better is "lower" or
    "higher"; bound is the relative bound, or None for a metric that
    has none.
    """
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("judge needs at least two pairs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    improvement = sign * (base_median - change_median)
    dominates = all(sign * (b - c) > 0 for b in base for c in change)
    clear = 0.9 * len(base)
    if wins >= clear and improvement > spread:
        verdict = "gain"
    elif bound is None:
        verdict = ("worse" if losses >= clear and -improvement > spread
                   else "unresolved")
    else:
        limit = bound * abs(base_median)
        if -improvement > limit:
            verdict = "worse" if -improvement > spread else "unresolved"
        elif spread > limit and not dominates:
            verdict = "unresolved"
        else:
            verdict = "within bound"
    return {"base_median": base_median, "base_q1": q1, "base_q3": q3,
            "change_median": change_median, "wins": wins,
            "pairs": len(base), "verdict": verdict}


def selftest():
    """Check judge() on fixed numbers; return the exit status."""
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]
    cases = [
        # (name, base, change, better, bound, verdict, wins)
        ("clear gain", base, [v - 2.0 for v in base], "lower", 0.25,
         "gain", 10),
        ("9 of 10 is enough", base,
         [v - 2.0 for v in base[:9]] + [base[9] + 1.0], "lower", 0.25,
         "gain", 9),
        ("8 of 10 is not", base,
         [v - 2.0 for v in base[:8]] + [v + 1.0 for v in base[8:]],
         "lower", 0.25, "within bound", 8),
        ("gap inside the spread", [1.0, 2.0, 3.0, 4.0, 5.0] * 2,
         [v - 0.5 for v in [1.0, 2.0, 3.0, 4.0, 5.0] * 2], "lower", 5.0,
         "within bound", 10),
        ("identical", base, list(base), "lower", 0.25, "within bound", 0),
        ("small loss", base, [v * 1.1 for v in base], "lower", 0.25,
         "within bound", 0),
        ("loss past the bound", base, [v * 1.5 for v in base], "lower",
         0.25, "worse", 0),
        ("loss past the bound, inside the spread",
         [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 1.0, 1.0, 3.0, 3.0],
         [2.6] * 10, "lower", 0.25, "unresolved", 5),
        ("spread wider than the bound",
         [0.14, 0.61, 0.2, 0.5, 0.3, 0.45, 0.16, 0.58, 0.25, 0.4],
         [0.15, 0.6, 0.22, 0.48, 0.31, 0.44, 0.17, 0.55, 0.26, 0.41],
         "lower", 0.25, "unresolved", 4),
        ("spread wider than the bound, every change run better",
         [0.14, 0.61, 0.2, 0.5, 0.3, 0.45, 0.16, 0.58, 0.25, 0.4],
         [0.1] * 10, "lower", 0.25, "within bound", 10),
        ("higher is better, gain", [100.0] * 10, [120.0] * 10, "higher",
         0.1, "gain", 10),
        ("higher is better, loss", [100.0] * 10, [80.0] * 10, "higher",
         0.1, "worse", 0),
        ("deterministic metric", [58.5] * 10, [58.5] * 10, "higher", 0.1,
         "within bound", 0),
        ("no bound, gain", [220.0e3 + i for i in range(10)],
         [178.0e3 + i for i in range(10)], "lower", None, "gain", 10),
        ("no bound, loss", [1.0] * 10, [1.2] * 10, "lower", None, "worse",
         0),
        ("no bound, no clear change", base, list(reversed(base)), "lower",
         None, "unresolved", 3),
    ]
    failed = 0
    for name, b, c, better, bound, want, want_wins in cases:
        got = judge(b, c, better, bound)
        if got["verdict"] != want or got["wins"] != want_wins:
            failed += 1
            print("FAIL %s: got %s with %d wins, want %s with %d"
                  % (name, got["verdict"], got["wins"], want, want_wins))
    q1, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    if (q1, q3) != (2.75, 8.25):
        failed += 1
        print("FAIL quartiles: got %r, want (2.75, 8.25)" % ((q1, q3),))
    if failed:
        print("perf_pairs selftest: %d of %d checks failed"
              % (failed, len(cases) + 1))
        return 1
    print("perf_pairs selftest: all %d checks passed" % (len(cases) + 1))
    return 0


# --- Building and running -----------------------------------------------------


class PairsError(Exception):
    pass


def step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise PairsError("failed: " + " ".join(cmd))
    return proc.stdout


def export_tree(rev, dest):
    """Write commit rev's files into dest; return the full commit id."""
    commit = step(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                   rev + "^{commit}"]).strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise PairsError("cannot export %s" % rev)
    return commit


def build_perfbench(tree, build_dir):
    """Build tree's perfbench/ in Release into build_dir; return the binary."""
    cmd = ["cmake", "-S", os.path.join(tree, "perfbench"), "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    step(cmd)
    step(["cmake", "--build", build_dir, "--target", "perfbench", "-j",
          str(min(4, os.cpu_count() or 1))])
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, trace_file):
    """One `perfbench run` process: its JSON line plus its rusage."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([binary, "run", workload, trace_file],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise PairsError("%s exited %d on %s" % (binary, proc.returncode, workload))
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["minor_faults"] = after.ru_minflt - before.ru_minflt
    sample["sys_s"] = after.ru_stime - before.ru_stime
    return sample


def compare(workload, binaries, data_dir, pairs, seed, metrics):
    """Run the pairs for one workload; print its table; return its result."""
    trace_file = os.path.join(data_dir, "%s-%d.trace" % (workload, seed))
    step([binaries["base"], "gen", workload, str(seed), trace_file])
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for side in order:
            runs[side].append(run_once(binaries[side], workload, trace_file))
        log("%s pair %d/%d: wall_s base %.3f change %.3f"
            % (workload, i + 1, pairs, runs["base"][-1]["wall_s"],
               runs["change"][-1]["wall_s"]))
    os.remove(trace_file)

    print("%s (seed %d, %d pairs; base quartiles q1-q3):" % (workload, seed, pairs))
    print("  %-20s %14s %27s %14s %7s  %s"
          % ("metric", "base median", "base q1-q3", "change median", "wins",
             "verdict"))
    table = {}
    for name, better, bound in metrics:
        j = judge([s[name] for s in runs["base"]],
                  [s[name] for s in runs["change"]], better, bound)
        table[name] = j
        print("  %-20s %14.6g %13.6g-%-13.6g %14.6g %3d/%-3d  %s"
              % (name, j["base_median"], j["base_q1"], j["base_q3"],
                 j["change_median"], j["wins"], j["pairs"], j["verdict"]))

    # The simulated results: the per-request digest and the simulated
    # metrics perfbench prints must be the same bits in every run.
    sims = {side: sorted({(s["digest"],) + tuple(s[k] for k in SIMULATED)
                          for s in runs[side]}) for side in runs}
    digests = {side: sorted({sim[0] for sim in sims[side]}) for side in runs}
    problems = []
    if sims["base"] != sims["change"] or len(sims["base"]) != 1:
        problems.append("simulated results differ: base %s, change %s"
                        % (sims["base"], sims["change"]))
    for side in runs:
        for s in runs[side]:
            if s["failed"] or s["violations"]:
                problems.append("%s run failed its audit: %d failed; %s"
                                % (side, s["failed"], s["violations"]))
                break
    print("  digest %s; %s" % (",".join(digests["change"]), ", ".join(
        "%s %.9g" % (k, runs["change"][0][k]) for k in SIMULATED)))
    for p in problems:
        print("  ERROR: %s" % p)
    return {"metrics": table, "digests": digests, "ok": not problems}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 2)[2])
    parser.add_argument("--base", metavar="REV",
                        help="commit to compare the working tree against")
    parser.add_argument("--workload", default="all",
                        help="a BENCHMARK.json workload, or all (default)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating base/change pairs (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed (default 1)")
    parser.add_argument("--selftest", action="store_true",
                        help="check the verdict logic and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if not args.base:
        parser.error("--base is required")
    if args.workload != "all" and args.workload not in workloads:
        parser.error("--workload must be one of %s or all" % ", ".join(workloads))
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, "lower", None) for name in RUSAGE_ROWS]
    chosen = workloads if args.workload == "all" else [args.workload]

    # SIGTERM unwinds like Ctrl-C, so the temporary tree is removed either way.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    workdir = tempfile.mkdtemp(prefix="perf_pairs-")
    try:
        tree = os.path.join(workdir, "base")
        commit = export_tree(args.base, tree)
        log("building base %s and the working tree" % commit[:12])
        binaries = {
            "base": build_perfbench(tree, os.path.join(workdir, "build")),
            "change": build_perfbench(ROOT, CHANGE_BUILD),
        }
        print("base %s, change: working tree of %s" % (commit[:12], ROOT))
        results = {w: compare(w, binaries, workdir, args.pairs, args.seed, metrics)
                   for w in chosen}
    except PairsError as e:
        log("perf_pairs: %s" % e)
        return 1
    except KeyboardInterrupt:
        log("perf_pairs: interrupted")
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"base": commit, "seed": args.seed, "pairs": args.pairs,
                      "workloads": results}))
    return 0 if all(r["ok"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
