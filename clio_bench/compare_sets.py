#!/usr/bin/env python3
"""Compares two sets of clio_bench results under BENCHMARK.json's bounds.

A set is a directory of BENCH_clio_<workload>.json reports from one or more
runs (searched recursively; clio_bench/run.sh --repeat writes one).  For
every workload in both sets and every end-to-end metric BENCHMARK.json
declares, the two sets' medians are compared:

  within bound  the new median is no worse than the base median by more
                than the metric's bound
  regression    it is worse by more than the bound
  better        it is better by more than the bound
  unresolved    the run-to-run spread of either set (quartile distance over
                median) exceeds the bound, so the sets cannot be told apart
                -- unless every new run beats every base run (better)

usage:
  compare_sets.py BASE NEW                   exit 1 if any metric regressed
  compare_sets.py --overhead UNTRACED TRACED tracing cost per metric
  compare_sets.py --self-test                check the verdict rules
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_set(path):
    """{workload: {metric: [value per run]}} from every report under path."""
    runs = {}
    pattern = os.path.join(path, "**", "BENCH_clio_*.json")
    for name in sorted(glob.glob(pattern, recursive=True)):
        with open(name) as f:
            report = json.load(f)
        workload = report["bench"][len("clio_"):]
        per_metric = runs.setdefault(workload, {})
        for metric, value in report["scenarios"][0]["metrics"].items():
            per_metric.setdefault(metric, []).append(value)
    return runs


def spread(values):
    """Distance between the first and third quartile, over the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def worsening(base, new, better):
    """Relative change of `new` against `base`; positive means worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base_values, new_values, better, bound):
    worse = worsening(statistics.median(base_values),
                      statistics.median(new_values), better)
    if max(spread(base_values), spread(new_values)) > bound:
        beats = (lambda n, b: n < b) if better == "lower" else \
                (lambda n, b: n > b)
        if all(beats(n, b) for n in new_values for b in base_values):
            return "better"
        return "unresolved"
    if worse > bound:
        return "regression"
    if -worse > bound:
        return "better"
    return "within bound"


def compare(base, new, metrics):
    """Rows of (workload, metric, base median, new median, change, verdict)."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            b = base[workload].get(m["name"])
            n = new[workload].get(m["name"])
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            rows.append((workload, m["name"], bm, nm, change,
                         verdict(b, n, m["better"], m["bound"])))
    return rows


def print_rows(rows, base_label, new_label):
    print(f"{'workload':15s} {'metric':10s} {base_label:>14s} "
          f"{new_label:>14s} {'change':>8s}  verdict")
    for workload, metric, bm, nm, change, v in rows:
        print(f"{workload:15s} {metric:10s} {bm:14.6g} {nm:14.6g} "
              f"{change:+8.1%}  {v}")


def self_test():
    metrics = [{"name": "cost_x", "better": "lower", "bound": 0.1},
               {"name": "ops_per_s", "better": "higher", "bound": 0.1}]
    base = {"w": {"cost_x": [1.00, 1.01, 0.99], "ops_per_s": [100, 101, 99]}}

    def verdicts(new):
        return {m: v for _, m, _, _, _, v in compare(base, new, metrics)}

    assert verdicts(base) == {"cost_x": "within bound",
                              "ops_per_s": "within bound"}
    slower = {"w": {"cost_x": [1.5, 1.52, 1.49], "ops_per_s": [70, 71, 69]}}
    assert verdicts(slower) == {"cost_x": "regression",
                                "ops_per_s": "regression"}
    faster = {"w": {"cost_x": [0.5, 0.52, 0.49], "ops_per_s": [150, 149, 151]}}
    assert verdicts(faster) == {"cost_x": "better", "ops_per_s": "better"}
    noisy = {"w": {"cost_x": [0.6, 1.5, 1.0, 2.0], "ops_per_s": [99, 100, 101]}}
    assert verdicts(noisy) == {"cost_x": "unresolved",
                               "ops_per_s": "within bound"}
    assert verdict([1.0, 2.0, 3.0, 4.0], [0.1, 0.2], "lower", 0.1) == "better"
    print("compare_sets self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC,
                        help="BENCHMARK.json to read metrics and bounds from")
    parser.add_argument("--overhead", action="store_true",
                        help="BASE is untraced, NEW traced: report the cost")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("need BASE and NEW set directories")
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load_set(args.base), load_set(args.new)
    if not set(base) & set(new):
        print("compare_sets: the sets share no workload", file=sys.stderr)
        return 2
    if args.overhead:
        timed = [m for m in metrics if m["name"] != "setup_s"]
        rows = compare(base, new, timed)
        print_rows(rows, "untraced", "traced")
        return 0
    rows = compare(base, new, metrics)
    print_rows(rows, "base", "new")
    regressions = [r for r in rows if r[5] == "regression"]
    print(f"{len(rows)} comparisons, {len(regressions)} regressions, "
          f"{sum(r[5] == 'unresolved' for r in rows)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
