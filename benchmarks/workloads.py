"""The benchmark's workloads: inputs made from a seed, one timed round of the
program's work, and the correctness checks of that round's outputs.

A round makes the same calls a user makes: the CLI commands through
``stochbgk.cli.main`` where a command exists, the public solver functions
where none does (no command reaches ``picard_solve``).  With a tracer, the
round records a span around each call into the package; for CLI commands
the names ``stochbgk.cli`` imported are wrapped for the length of the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import tracemalloc
import warnings

import numpy as np

from stochbgk import bgk, brownian, cli, config, counterexample, fields, grids

import checks

# names in stochbgk.cli whose calls get a span in a traced round
CLI_CALLS = (
    "cmd_simulate", "cmd_audit", "cmd_counterexample",
    "load_config", "validate_run_config", "build_spec", "build_bgk_config",
    "sample_path", "run_simulation", "run_standard_audit",
    "bv_growth_experiment", "stochastic_counterpart",
    "write_trajectory_csv", "write_defect_csv", "write_audit_csv", "write_rows",
    "write_manifest", "check_manifest", "read_trajectory_csv", "discrete_bv",
)

REPLAY_STEPS = 16


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _write_json(fname, doc):
    with open(fname, "w") as fh:
        json.dump(doc, fh, indent=2)


def _dir_bytes(*dirs):
    return sum(os.path.getsize(os.path.join(d, f)) for d in dirs for f in os.listdir(d))


class Workload:
    """One seeded workload.  Constructing it only computes its inputs'
    description; ``prepare`` writes files and computes references."""

    name = ""
    ops_per_round = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = {}      # figures measured outside the timed rounds

    def prepare(self, work_dir):
        """Write the round's files under work_dir; compute references."""

    def build_inputs(self):
        """Config validation, ProblemSpec, BGKConfig and the seeded paths."""
        raise NotImplementedError

    def cell_updates(self) -> int:
        """Kinetic cell updates of one round: n^d n_v steps, over solves and paths."""
        raise NotImplementedError

    def run_round(self, tracer=None) -> list:
        """Run the workload once; one success flag per operation."""
        raise NotImplementedError

    def check(self) -> list:
        """Failure messages for the last round's outputs (empty: correct)."""
        raise NotImplementedError

    def replay_case(self):
        """(spec, BGKConfig, path) on which the public substeps are replayed."""
        raise NotImplementedError

    def layer_numbers(self, tracer) -> dict:
        """Per-layer counts of the last round, and numbers measured beside it."""
        return {"bgk.cell_updates": self.cell_updates(), "bgk.picard_iterations": 0,
                "csvio.bytes_written": 0, "counterexample.path_solve_s": 0.0}

    def _cli(self, argv, label, tracer):
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli.main(argv)
            with tracer.instrument(cli, [n for n in CLI_CALLS if hasattr(cli, n)]):
                with tracer.span(label):
                    return cli.main(argv)


class Simulate1D(Workload):
    """`stochbgk simulate` on 1D Burgers with constant b and plateau data,
    then `stochbgk audit` on the bundle it wrote.

    The box is wide enough that the support, shifted by B(t), stays inside
    with probability above 1 - 1e-6 for any seed (|B| < 5 sqrt(T) needed),
    so mass is conserved to round-off on every seed.
    """

    name = "simulate-1d"
    ops_per_round = 2
    N, HALF_WIDTH, N_V, STEPS, STRIDE = 2048, 6.0, 32, 512, 8
    # over 191 seeds the entropy residual's quadrature error reached -0.016
    # and the L1 error to the exact solution 0.021-0.024
    ENTROPY_TOL = 0.05
    L1_TOL = 0.04
    AUDIT_CHECKS = ("max_principle", "l1_growth", "bv_nonincrease",
                    "defect_structure", "energy_defect", "entropy_residual")
    REAUDIT_CHECKS = ("max_principle", "bv_nonincrease")

    def __init__(self, seed):
        super().__init__(seed)
        h = 2.0 * self.HALF_WIDTH / self.N
        dt = h / 4
        self.doc = {
            "experiment": "simulate",
            "spec": {"flux": "burgers", "field": {"preset": "constant", "c": [1.0]},
                     "initial": {"preset": "plateau", "height": 1.0, "a": -1.0, "b": 0.0}},
            "grid": {"dim": 1, "half_width": self.HALF_WIDTH, "n": self.N, "n_v": self.N_V},
            "bgk": {"epsilon": dt, "dt": dt, "horizon": self.STEPS * dt,
                    "snapshot_stride": self.STRIDE},
            "audit": {"entropy_tol": self.ENTROPY_TOL},
            "monte_carlo": {"master_seed": seed},
        }

    def prepare(self, work_dir):
        self.cfg_file = os.path.join(work_dir, "simulate.json")
        self.audit_file = os.path.join(work_dir, "audit.json")
        self.bundle = os.path.join(work_dir, "bundle")
        self.reaudit = os.path.join(work_dir, "reaudit")
        _write_json(self.cfg_file, self.doc)
        _write_json(self.audit_file, {"experiment": "audit",
                                      "monte_carlo": {"master_seed": self.seed}})

    def build_inputs(self):
        resolved = config.validate_run_config(self.doc)
        spec = config.build_spec(resolved)
        cfg = config.build_bgk_config(resolved)
        return spec, cfg, brownian.sample_path(self.seed, cfg.dt, cfg.horizon, dim=1)

    def cell_updates(self):
        return self.N * self.N_V * self.STEPS

    def run_round(self, tracer=None):
        seed = str(self.seed)
        rc_sim = self._cli(["simulate", "--config", self.cfg_file, "--seed", seed,
                            "--out", self.bundle], "cli.simulate", tracer)
        rc_audit = self._cli(["audit", "--config", self.audit_file, "--bundle",
                              self.bundle, "--out", self.reaudit], "cli.audit", tracer)
        return [rc_sim == 0, rc_audit == 0]

    def check(self):
        fails = checks.check_verdicts(os.path.join(self.bundle, "audit.csv"),
                                      self.AUDIT_CHECKS)
        fails += checks.check_verdicts(os.path.join(self.reaudit, "reaudit.csv"),
                                       self.REAUDIT_CHECKS)
        fails += checks.check_manifest_hashes(
            self.bundle, ["trajectory.csv", "defect.csv", "audit.csv",
                          "config_resolved.json"])
        fails += checks.check_manifest_hashes(
            self.reaudit, ["reaudit.csv", "config_resolved.json"])
        table = np.loadtxt(os.path.join(self.bundle, "trajectory.csv"),
                           delimiter=",", skiprows=1)
        times = np.unique(table[:, 0])
        n_snap = self.STEPS // self.STRIDE + 1
        if len(times) != n_snap or len(table) != n_snap * self.N:
            return fails + [f"trajectory has {len(times)} snapshots, expected {n_snap}"]
        order = np.lexsort((table[:, 1], table[:, 0]))
        rho = table[order, 2].reshape(n_snap, self.N)
        h = 2.0 * self.HALF_WIDTH / self.N
        x = -self.HALF_WIDTH + h * (np.arange(self.N) + 0.5)
        dt = self.doc["bgk"]["dt"]
        path = brownian.sample_path(self.seed, dt, self.STEPS * dt, dim=1)
        shift = float(path.values_at_nodes()[-1, 0])
        fails += checks.check_mass(times, rho, h)
        fails += checks.check_burgers_final(x, rho[-1], times[-1], shift, h, self.L1_TOL)
        return fails

    def layer_numbers(self, tracer):
        return {**super().layer_numbers(tracer),
                "csvio.bytes_written": _dir_bytes(self.bundle, self.reaudit)}

    def replay_case(self):
        return self.build_inputs()


class CuspMonteCarlo2D(Workload):
    """`stochbgk counterexample`: the closed-form BV ladder for the cusp and
    smooth data, and the transport-noise Monte Carlo on the cusp flow."""

    name = "cusp-mc-2d"
    ops_per_round = 1
    T = 1.0
    RESOLUTIONS = (128, 256, 512, 1024)
    MC_RESOLUTIONS = (64, 128)
    PATHS, N_V, WORKERS = 4, 8, 2

    def __init__(self, seed):
        super().__init__(seed)
        self.doc = self._doc(self.WORKERS)

    def _doc(self, workers):
        return {
            "experiment": "counterexample",
            "counterexample": {"t": self.T, "resolutions": list(self.RESOLUTIONS),
                               "stochastic_resolutions": list(self.MC_RESOLUTIONS),
                               "paths": self.PATHS, "n_v": self.N_V},
            "monte_carlo": {"master_seed": self.seed, "workers": workers},
        }

    def prepare(self, work_dir):
        """Writes the configs and makes the workers = 1 reference run."""
        self.cfg_file = os.path.join(work_dir, "counterexample.json")
        self.bundle = os.path.join(work_dir, "bundle")
        _write_json(self.cfg_file, self.doc)
        serial_cfg = os.path.join(work_dir, "counterexample_serial.json")
        serial_out = os.path.join(work_dir, "serial")
        _write_json(serial_cfg, self._doc(1))
        start = time.perf_counter()
        rc = self._cli(["counterexample", "--config", serial_cfg, "--seed",
                        str(self.seed), "--out", serial_out], "", None)
        # the first command of the process: includes lazy imports
        self.reference["workers_1_first_round_s"] = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"workers = 1 reference run exited {rc}")
        with open(os.path.join(serial_out, "stochastic_bv.csv"), "rb") as fh:
            self.serial_bytes = fh.read()
        self.tv_exact = sum(checks.cusp_exact_tv(self.T))

    def _mc_config(self, n):
        """The BGKConfig stochastic_counterpart builds for resolution n."""
        h = 2.0 * 3.0 / n
        steps = max(1, int(round(self.T / h)))
        dt = self.T / steps
        return bgk.BGKConfig(epsilon=2.0 * dt, dt=dt, horizon=self.T, half_width=3.0,
                             n=n, n_v=self.N_V, snapshot_stride=steps)

    def build_inputs(self):
        config.validate_run_config(self.doc)
        spec = counterexample.cusp_flow_spec(counterexample.cusp_data())
        cfgs = [self._mc_config(n) for n in self.MC_RESOLUTIONS]
        paths = [brownian.sample_path(self.seed, c.dt, self.T, dim=2, path_index=k)
                 for c in cfgs for k in range(self.PATHS)]
        return spec, cfgs, paths

    def cell_updates(self):
        return sum(self.PATHS * n * n * self.N_V * self._mc_config(n).n_steps
                   for n in self.MC_RESOLUTIONS)

    def run_round(self, tracer=None):
        rc = self._cli(["counterexample", "--config", self.cfg_file, "--seed",
                        str(self.seed), "--out", self.bundle],
                       "cli.counterexample", tracer)
        return [rc == 0]

    def check(self):
        _, det = checks.read_csv_table(os.path.join(self.bundle, "deterministic_bv.csv"))
        fails = []
        for label, check in (("cusp", None), ("smooth", checks.check_smooth_flat)):
            rows = [r for r in det if r[0] == label]
            ns = [int(r[1]) for r in rows]
            if ns != list(self.RESOLUTIONS):
                fails.append(f"{label} ladder at n = {ns}, expected {list(self.RESOLUTIONS)}")
                continue
            bv_t = [float(r[4]) for r in rows]
            bv_0 = [float(r[5]) for r in rows]
            if check is None:
                fails += checks.check_cusp_ladder(ns, bv_t, bv_0, self.tv_exact)
            else:
                fails += check(ns, bv_t, bv_0)
        sfile = os.path.join(self.bundle, "stochastic_bv.csv")
        header, srows = checks.read_csv_table(sfile)
        fails += checks.check_stochastic_rows([dict(zip(header, r)) for r in srows],
                                              self.MC_RESOLUTIONS, self.PATHS)
        with open(sfile, "rb") as fh:
            if fh.read() != self.serial_bytes:
                fails.append("stochastic_bv.csv differs from the workers = 1 run")
        fails += checks.check_manifest_hashes(
            self.bundle, ["deterministic_bv.csv", "stochastic_bv.csv", "figure_bv.csv",
                          "figure_bv.gp", "config_resolved.json"])
        return fails


    def replay_case(self):
        spec = counterexample.cusp_flow_spec(counterexample.cusp_data())
        cfg = self._mc_config(self.MC_RESOLUTIONS[-1])
        return spec, cfg, brownian.sample_path(self.seed, cfg.dt, self.T, dim=2)

    def layer_numbers(self, tracer):
        """Adds one Monte Carlo path at the finest resolution, solved serially."""
        spec, cfg, _ = self.replay_case()
        start = time.perf_counter()
        with tracer.span("counterexample.path_solve"):
            path = tracer.call("brownian.sample_path", brownian.sample_path,
                               self.seed, cfg.dt, self.T, dim=2, path_index=0)
            tracer.call("bgk.run_simulation", bgk.run_simulation, spec, cfg, path)
        return {**super().layer_numbers(tracer),
                "csvio.bytes_written": _dir_bytes(self.bundle),
                "counterexample.path_solve_s": time.perf_counter() - start}


class PicardWindow(Workload):
    """The criterion-9 ladder: picard_solve on one window beside
    run_simulation on the same path, at three refinements."""

    name = "picard-window"
    T = 0.2
    RUNGS = ((256, 8), (512, 16), (1024, 32))
    N_V = 16
    MAX_ITERS = 200
    ops_per_round = 2 * len(RUNGS)

    def __init__(self, seed):
        super().__init__(seed)
        self.docs = []
        for n, steps in self.RUNGS:
            dt = self.T / steps
            self.docs.append({
                "experiment": "simulate",
                "spec": {"flux": "burgers", "field": {"preset": "constant", "c": [1.0]},
                         "initial": {"preset": "bump", "center": -0.5, "width": 1.5,
                                     "amplitude": 0.8}},
                "grid": {"dim": 1, "half_width": 3.0, "n": n, "n_v": self.N_V},
                "bgk": {"epsilon": 4 * dt, "dt": dt, "horizon": self.T,
                        "snapshot_stride": max(1, steps // 8), "window": self.T,
                        "picard_tol": 1e-12, "picard_max_iters": self.MAX_ITERS},
                "monte_carlo": {"master_seed": seed},
            })
        self.results = []

    def _inputs(self, doc, tracer):
        resolved = _call(tracer, "config.validate_run_config",
                         config.validate_run_config, doc)
        spec = _call(tracer, "config.build_spec", config.build_spec, resolved)
        cfg = _call(tracer, "config.build_bgk_config", config.build_bgk_config, resolved)
        path = _call(tracer, "brownian.sample_path", brownian.sample_path,
                     self.seed, cfg.dt, cfg.horizon, dim=1)
        return spec, cfg, path

    def build_inputs(self):
        return [self._inputs(doc, None) for doc in self.docs]

    def cell_updates(self):
        """Each solve counted once, whatever the number of Picard iterations."""
        return sum(2 * n * self.N_V * steps for n, steps in self.RUNGS)

    def run_round(self, tracer=None):
        self.results = []
        for doc in self.docs:
            spec, cfg, path = self._inputs(doc, tracer)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pic = _call(tracer, "bgk.picard_solve", bgk.picard_solve, spec, cfg, path)
            spl = _call(tracer, "bgk.run_simulation", bgk.run_simulation, spec, cfg, path)
            capped = [str(w.message) for w in caught if "max_iters" in str(w.message)]
            self.results.append((pic, spl, capped))
        return [True] * self.ops_per_round

    def layer_numbers(self, tracer):
        """Adds the Picard iterations of the last round (one window per solve)."""
        return {**super().layer_numbers(tracer), "bgk.picard_iterations":
                sum(len(pic.picard_ratios) + 1 for pic, _, _ in self.results)}

    def check(self):
        fails = []
        gaps = []
        for (n, _), (pic, spl, capped) in zip(self.RUNGS, self.results):
            if capped or len(pic.picard_ratios) + 1 >= self.MAX_ITERS:
                fails.append(f"n={n}: picard window did not reach picard_tol")
            fails += checks.check_picard_contraction(pic.picard_ratios, pic.picard_bound)
            if not np.array_equal(pic.times, spl.times):
                fails.append(f"n={n}: picard and splitting snapshot times differ")
                continue
            h = pic.sgrid.h
            gaps.append(max(float(np.abs(a - b).sum() * h) for a, b in zip(pic.rho, spl.rho)))
        if len(gaps) == len(self.RUNGS):
            fails += checks.check_gap_halving(gaps)
        return fails

    def replay_case(self):
        return self._inputs(self.docs[-1], None)


WORKLOADS = {w.name: w for w in (Simulate1D, CuspMonteCarlo2D, PicardWindow)}


def _lifted_start(spec, cfg):
    sgrid = grids.SpatialGrid(dim=spec.dim, half_width=cfg.half_width, n=cfg.n)
    rho0 = spec.initial_field(sgrid)
    vgrid = grids.VelocityGrid.for_density_bound(
        cfg.v_bound if cfg.v_bound is not None else rho0.linf(), cfg.n_v)
    return fields.lift_density(rho0, vgrid)


def replay_substeps(spec, cfg, path, steps=REPLAY_STEPS):
    """Median ms per call of the public substeps, stepped from the lifted data."""
    u = _lifted_start(spec, cfg)
    times = {"transport": [], "relax": [], "defect": []}
    for k in range(min(steps, cfg.n_steps)):
        t0 = time.perf_counter()
        u_tilde = bgk.transport_substep(u, k * cfg.dt, cfg.dt, path, spec)
        t1 = time.perf_counter()
        u_next = bgk.relax_substep(u_tilde, cfg.epsilon, cfg.dt)
        t2 = time.perf_counter()
        bgk.accumulate_defect(u_tilde, u_next, cfg.epsilon, cfg.dt)
        t3 = time.perf_counter()
        times["transport"].append(t1 - t0)
        times["relax"].append(t2 - t1)
        times["defect"].append(t3 - t2)
        u = u_next
    return {
        "bgk.transport_substep_ms": 1e3 * statistics.median(times["transport"]),
        "bgk.relax_substep_ms": 1e3 * statistics.median(times["relax"]),
        "bgk.accumulate_defect_ms": 1e3 * statistics.median(times["defect"]),
    }


def transport_peak_bytes(spec, cfg, path):
    """Peak bytes of arrays held during one public transport substep, input
    excluded, as tracemalloc counts them from allocation sizes."""
    u = _lifted_start(spec, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bgk.transport_substep(u, 0.0, cfg.dt, path, spec)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
