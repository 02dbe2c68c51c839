#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit with runs of a change.

    python3 dualclock/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of untraced runs
(`--trace 0`), one file per run, named `*.out`. Runs pair up in sorted
file-name order, so name them by pair index (e.g. `03-long_context.out`)
and alternate which side runs first.

Every run carries a host stamp (`record {...}` line). Results whose stamps
differ in anything but the commit are refused: a different core count,
thread setting, SIMD path or target CPU changes host time without any code
change.

Per workload and end-to-end metric the script prints each side's median and
quartiles and a verdict, using the bounds in BENCHMARK.json:
  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              inter-quartile distance
  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run
  same        none of the above
"""

import json
import statistics
import sys
from pathlib import Path


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        record = next((l for l in lines if l.startswith("record ")), None)
        if record is None or not lines:
            sys.exit(f"{path}: no `record` line; not a benchmark run")
        rec = json.loads(record[len("record "):])
        result = json.loads(lines[-1])
        if rec["trace"]:
            continue
        if not result["correct"]:
            sys.exit(f"{path}: the run failed its correctness checks")
        runs.append((path, rec))
    if not runs:
        sys.exit(f"{directory}: no untraced runs")
    return runs


def host(stamp):
    return {k: v for k, v in stamp.items() if k != "commit"}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > pq3 - pq1:
        return "gain"
    if sign * (cm - pm) < -bound * abs(pm):
        return "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and (pq3 - pq1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    ref_path, ref = parent[0]
    for path, rec in parent + change:
        if host(rec["stamp"]) != host(ref["stamp"]):
            sys.exit(
                f"refusing to compare: host stamp of {path}\n  {host(rec['stamp'])}\n"
                f"differs from {ref_path}\n  {host(ref['stamp'])}"
            )
    print(f"host: {host(ref['stamp'])}")
    print(f"{'workload':15} {'metric':20} {'parent med [q1, q3]':>36} "
          f"{'change med [q1, q3]':>36} {'delta':>8}  verdict")
    worst = 0
    for workload in sorted({rec["workload"] for _, rec in parent}):
        side = lambda runs: [r for _, r in runs if r["workload"] == workload]
        p_runs, c_runs = side(parent), side(change)
        if not c_runs:
            print(f"{workload:15} (no change runs)")
            worst = max(worst, 1)
            continue
        for name, meta in bounds.items():
            value = lambda r: next(m["value"] for m in r["metrics"] if m["name"] == name)
            p = [value(r) for r in p_runs]
            c = [value(r) for r in c_runs]
            v = verdict(p, c, meta["better"], meta["bound"])
            pm, cm = statistics.median(p), statistics.median(c)
            fmt = lambda m, xs: "{:.5g} [{:.5g}, {:.5g}]".format(m, *quartiles(xs))
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:15} {name:20} {fmt(pm, p):>36} {fmt(cm, c):>36} "
                  f"{delta:>+8.2%}  {v}")
            if v == "regression":
                worst = 1
    sys.exit(worst)


if __name__ == "__main__":
    main()
