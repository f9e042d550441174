"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py --out FILE`` appended, one run a
line.  For every (metric, workload) pair the command prints each side's run
count, median and quartiles, the change of the medians relative to BASE
(positive is worse), the share of run pairs that NEW wins, and a verdict
that uses the bounds in BENCHMARK.json:

- worse / better: the median moved the wrong / right way by more than the
  bound, and either both spreads (quartile distance over median) are within
  the bound or every NEW run is on that side of every BASE run;
- unresolved: a spread exceeds the bound and neither of the above holds;
- same: otherwise, the medians are within the bound of each other.

Runs are paired by seed when both files hold the same seeds (parent and
change run alternately on each seed), else every BASE run is paired with
every NEW run.  A gain smaller than the bound needs the win share of
alternately run pairs: at least nine tenths, with the medians further apart
than the BASE quartile spread.  Per-layer metrics have no bound; they get
the verdict "-".
The share of failed operations is printed per workload.  The exit code is 1
when any verdict is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(fname):
    with open(fname) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group(runs):
    """{(metric, workload): {seed: value}} and {workload: [attempted, failed]}."""
    values, ops = {}, {}
    for run in runs:
        wl = run["workload"]
        res = run["result"]
        tally = ops.setdefault(wl, [0, 0])
        tally[0] += res["attempted"]
        tally[1] += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault((name, wl), []).append((run["seed"], float(m["value"])))
    return values, ops


def win_share(base, new, sign):
    """Share of (BASE, NEW) pairs in which NEW is better; base and new are
    lists of (seed, value)."""
    if sorted(s for s, _ in base) == sorted(s for s, _ in new) == sorted(
            {s for s, _ in base}):
        by_seed = dict(new)
        pairs = [(b, by_seed[s]) for s, b in base]
    else:
        pairs = [(b, n) for _, b in base for _, n in new]
    return sum(sign * (b - n) > 0 for b, n in pairs) / len(pairs)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, better, bound):
    """(relative change of the median, positive is worse; verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    bad_b = [sign * v for v in base]             # larger is worse
    bad_n = [sign * v for v in new]
    change = (statistics.median(bad_n) - statistics.median(bad_b)) / abs(
        statistics.median(base))
    wide = max(spread(base), spread(new)) > bound
    if change > bound and (not wide or min(bad_n) > max(bad_b)):
        return change, "worse"
    if -change > bound and (not wide or max(bad_n) < min(bad_b)):
        return change, "better"
    if wide:
        return change, "unresolved"
    return change, "same"


def compare(base_file, new_file, spec_file=ROOT / "BENCHMARK.json", out=sys.stdout):
    spec = json.loads(Path(spec_file).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    base, base_ops = group(load_runs(base_file))
    new, new_ops = group(load_runs(new_file))
    worse = False
    print(f"{'metric':40s} {'workload':14s} {'n':>3s} {'base median [q1, q3]':>40s} "
          f"{'n':>3s} {'new median [q1, q3]':>40s} {'change':>8s} {'wins':>5s}  verdict",
          file=out)
    keys = sorted(set(base) & set(new),
                  key=lambda k: (order.index(k[0]) if k[0] in order else len(order), k))
    for name, wl in keys:
        b, n = [v for _, v in base[(name, wl)]], [v for _, v in new[(name, wl)]]
        qb, qn = quartiles(b), quartiles(n)
        if name in bounds:
            better = bounds[name]["better"]
            change, word = verdict(b, n, better, bounds[name]["bound"])
            worse |= word == "worse"
            wins = win_share(base[(name, wl)], new[(name, wl)],
                             1.0 if better == "lower" else -1.0)
            change_txt, wins_txt = f"{100 * change:+7.2f}%", f"{wins:5.2f}"
        else:
            change_txt, wins_txt, word = "", "", "-"
        fmt = "{1:.6g} [{0:.6g}, {2:.6g}]"
        print(f"{name:40s} {wl:14s} {len(b):3d} {fmt.format(*qb):>40s} "
              f"{len(n):3d} {fmt.format(*qn):>40s} {change_txt:>8s} {wins_txt:>5s}  {word}",
              file=out)
    for wl in sorted(set(base_ops) | set(new_ops)):
        a = base_ops.get(wl, [0, 0])
        c = new_ops.get(wl, [0, 0])
        print(f"failed operations {wl}: base {a[1]}/{a[0]}, new {c[1]}/{c[0]}", file=out)
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
