"""Run one workload of the stochbgk benchmark and print its metrics.

    python3 benchmarks/run.py --workload simulate-1d --seed 1 --seconds 30 --trace 0

The program is taken from ``src/`` of the checkout that holds this file.
Rounds of the workload repeat until ``--seconds`` have passed; every round's
outputs are checked.  With ``--trace 0`` the end-to-end metrics are printed,
with ``--trace 1`` the per-layer metrics from a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each run also appends a record, stamped with the environment, to ``--out``.
``--workload all`` runs every workload in turn and prefixes each metric
with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, self_time_by_name, subtree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_caches():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return caches


def environment(seed):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cpu_caches": _cpu_caches(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def setup_seconds(name, seed):
    """Import of stochbgk plus input construction, timed in a fresh interpreter."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Round:
    """Runs rounds of one workload, counting operations and check failures."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures = []      # check failures: outputs that are wrong
        self.errors = []        # rounds whose operations raised

    def __call__(self, tracer=None):
        """One round; returns its wall and CPU seconds, checks excluded.
        With a tracer, the round is the root span "round"."""
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcomes = self.wl.run_round()
            else:
                with tracer.span("round"):
                    outcomes = self.wl.run_round(tracer)
        except Exception:
            outcomes = [False] * self.wl.ops_per_round
            self.errors.append(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        self.attempted += len(outcomes)
        self.failed += outcomes.count(False)
        if all(outcomes):
            try:
                self.failures += self.wl.check()
            except Exception:
                self.failures.append("check raised: " + traceback.format_exc(limit=3))
        return wall, cpu


def layer_metrics(spans, cpu_s):
    """Per-layer numbers of one traced round from its spans' self times."""
    sub = subtree(spans, 0)
    by = self_time_by_name(sub)
    wall = sub[0]["end"] - sub[0]["start"]
    if abs(sum(by.values()) - wall) > 1e-6 * max(1.0, wall):
        raise RuntimeError(f"self times add up to {sum(by.values())}, not {wall}")

    def s(name):
        return by.get(name, 0.0)

    return {
        "config.validate_s": sum(v for k, v in by.items() if k.startswith("config.")),
        "brownian.sample_path_s": s("brownian.sample_path"),
        "bgk.run_simulation_s": s("bgk.run_simulation"),
        "bgk.picard_solve_s": s("bgk.picard_solve"),
        "counterexample.bv_growth_experiment_s": s("counterexample.bv_growth_experiment"),
        "counterexample.stochastic_counterpart_s": s("counterexample.stochastic_counterpart"),
        "audit.run_standard_audit_s": s("audit.run_standard_audit"),
        "csvio.write_trajectory_csv_s": s("csvio.write_trajectory_csv"),
        "csvio.read_trajectory_csv_s": s("csvio.read_trajectory_csv"),
        "csvio.manifest_s": s("csvio.write_manifest") + s("csvio.check_manifest"),
        "cli.audit_s": sum((x["end"] - x["start"] for x in sub if x["name"] == "cli.audit"),
                           0.0),
        "process.cpu_s": cpu_s,
        "trace.unattributed_s": s("round"),
        "trace.wall_s": wall,
    }


def run_workload(name, seed, seconds, trace, units):
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    work = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl.prepare(str(work))
        rounds = Round(wl)
        walls, traced_walls, layers, spans, setup = [], [], [], [], []
        if trace:
            transport_bytes = workloads.transport_peak_bytes(*wl.replay_case())
            rounds()   # first-round page faults and lazy imports fall on neither side
        start = time.perf_counter()
        while True:
            # set-up probes are spread over the run, one before a round at most
            due = len(setup) * seconds / SETUP_PROBES
            if not trace and len(setup) < SETUP_PROBES and time.perf_counter() - start >= due:
                setup.append(setup_seconds(name, seed))
            walls.append(rounds()[0])
            if trace:
                tracer = Tracer()
                wall, cpu = rounds(tracer)
                traced_walls.append(wall)
                row = layer_metrics(tracer.spans, cpu)
                row.update(wl.layer_numbers(tracer))
                row.update(workloads.replay_substeps(*wl.replay_case()))
                row["bgk.transport_bytes_per_step"] = transport_bytes
                layers.append(row)
                spans.append(tracer.spans)
            if time.perf_counter() - start >= seconds:
                break
        while not trace and len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(name, seed))
        if trace:
            values = {k: statistics.median([r[k] for r in layers]) for k in layers[0]}
            values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        else:
            wall = statistics.median(walls)
            values = {"wall_s": wall, "setup_s": statistics.median(setup),
                      "cell_updates_per_s": wl.cell_updates() / wall,
                      "peak_rss_mb": peak_rss_mb()}
    finally:
        shutil.rmtree(work)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json "
                           f"{sorted(units)}")
    result = {
        "correct": not rounds.failures,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(seed), "result": result,
              "round_wall_s": walls, "traced_round_wall_s": traced_walls,
              "setup_s": setup, "reference": wl.reference,
              "failures": rounds.failures[:20], "errors": rounds.errors[:5]}
    if trace:
        record["spans"] = spans
    for msg in rounds.failures[:20]:
        print(f"{name}: check failed: {msg}", file=sys.stderr)
    for msg in rounds.errors[:5]:
        print(f"{name}: round raised: {msg}", file=sys.stderr)
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT_DIR / "runs.jsonl"),
                        help="file that each run's record is appended to")
    args = parser.parse_args(argv)

    if not (SRC / "stochbgk" / "__init__.py").is_file():
        print(f"error: no stochbgk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    results = {}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, args.trace, units)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
