#!/usr/bin/env python3
"""The repo benchmark: builds the driver from the sources of this checkout
and runs one workload, prints its result as the last line of stdout.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --steadiness [--seconds S] [--workloads a,b]

Run it from the root of the checkout. The build lives in .bench_build/.
BENCHMARK.json is the metric catalog: a run's metrics are checked against
it by name and unit, and the per-layer metrics a workload does not exercise
are reported as 0.
--self-test shows that the output checks catch a perturbed result.
--steadiness runs each workload in two interleaved sets of ten runs (each
run with its own seed) and prints, per end-to-end metric, each set's median
and quartiles and whether the two sets agree within the metric's bound.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUNS_PER_SET = 10
BASE_SEED = 1000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; all output to stderr."""
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        log("perfbench: the repmpi sources (CMakeLists.txt, src/) are not "
            "next to perfbench/; run from a full checkout")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", "3"])
    for cmd in steps:
        rc = subprocess.call(cmd, cwd=REPO, stdout=sys.stderr,
                             stderr=sys.stderr)
        if rc != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            sys.exit(1)


def run_driver(argv, capture):
    """Runs the driver from the checkout root. SIGINT/SIGTERM are passed on
    to it, and it is always waited for."""
    child = subprocess.Popen([DRIVER] + argv, cwd=REPO,
                             stdout=subprocess.PIPE if capture else None)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = child.communicate()
    finally:
        child.wait()
        for s, h in old.items():
            signal.signal(s, h)
    return child.returncode, out.decode() if capture else ""


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(bench, workload, seed, seconds, trace):
    """Runs one workload. Returns (exit code, result): the driver's result
    line checked against the BENCHMARK.json catalog, with the per-layer
    metrics the workload does not set filled with 0, in catalog order; None
    without a result."""
    rc, out = run_driver(["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", trace],
                         capture=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        return rc or 1, None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    catalog = bench["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in catalog}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            log("perfbench: metric %s with unit %s is not in BENCHMARK.json"
                % (name, m["unit"]))
            return 1, None
    for m in catalog:
        if m["name"] not in metrics:
            if trace == "0":
                log("perfbench: end-to-end metric %s unset" % m["name"])
                return 1, None
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in catalog}
    return 0, result


def steadiness(bench, args):
    workloads = ([w for w in args.workloads.split(",")] if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    results = {w: ([], []) for w in workloads}
    seed = BASE_SEED
    for i in range(RUNS_PER_SET):
        for which in (0, 1):
            for w in workloads:
                rc, res = run_workload(bench, w, seed, args.seconds, "0")
                seed += 1
                if res is None:
                    log("perfbench: %s run failed (exit %d)" % (w, rc))
                    sys.exit(1)
                results[w][which].append(res)
                log("set %s run %d %s: %s" % ("AB"[which], i, w, " ".join(
                    "%s=%.4g" % (m["name"], res["metrics"][m["name"]]["value"])
                    for m in metrics)))

    def stats(values):
        q1, med, q3 = statistics.quantiles(values, n=4)
        return med, q1, q3, (q3 - q1) / med

    all_ok = True
    print("%-18s %-12s %-34s %-34s %-8s %s" % (
        "workload", "metric", "set A median [q1, q3] spread",
        "set B median [q1, q3] spread", "bound", "agree"))
    for w in workloads:
        a_runs, b_runs = results[w]
        share = [sum(r["failed"] for r in runs) /
                 sum(r["attempted"] for r in runs) for runs in (a_runs, b_runs)]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = stats([r["metrics"][name]["value"] for r in a_runs])
            b = stats([r["metrics"][name]["value"] for r in b_runs])
            agree = (abs(b[0] - a[0]) / a[0] <= bound
                     and a[3] <= bound and b[3] <= bound)
            all_ok = all_ok and agree
            print("%-18s %-12s %-34s %-34s %-8g %s" % (
                w, name,
                "%.4g [%.4g, %.4g] %.1f%%" % (a[0], a[1], a[2], 100 * a[3]),
                "%.4g [%.4g, %.4g] %.1f%%" % (b[0], b[1], b[2], 100 * b[3]),
                bound, "yes" if agree else "NO"))
        both = [r["metrics"] for r in a_runs + b_runs]
        spreads = ", ".join(
            "%s %.1f%%" % (m["name"], 100 * stats(
                [x[m["name"]]["value"] for x in both])[3]) for m in metrics)
        same_share = share[0] == share[1]
        all_ok = all_ok and same_share
        print("%-18s all %d runs: spread %s; failed share %s / %s%s" % (
            w, len(both), spreads, share[0], share[1],
            "" if same_share else "  DIFFERS"))
    print("steadiness: " + ("ok" if all_ok else "NOT steady"))
    return 0 if all_ok else 3


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="measured seconds per run (default: run_seconds of "
                   "BENCHMARK.json)")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--workloads")
    args = p.parse_args()
    if not (args.self_test or args.steadiness or args.workload):
        p.error("one of --workload, --self-test, --steadiness is required")

    build()
    if args.self_test:
        return run_driver(["--self-test"], capture=False)[0]
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.steadiness:
        return steadiness(bench, args)
    rc, result = run_workload(bench, args.workload, args.seed, args.seconds,
                              args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
