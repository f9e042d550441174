"""Command-line experiment driver.

Subcommands: simulate, convergence, counterexample, audit, paths.  Each takes
--config PATH plus optional --seed and --out overrides.  Exit codes: 0 all
checks pass, 1 audit failure, 2 configuration error, 3 numerical abort,
4 internal error (a broken solver invariant or a bug, never an audit verdict).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .audit import (AuditReport, check_bv_nonincrease, check_max_principle,
                    run_standard_audit)
from .bgk import run_simulation
from .brownian import levy_modulus_statistic, sample_path, sample_paths
from .config import (EXPERIMENTS, audit_entropy_tol, build_bgk_config, build_convergence_params,
                     build_counterexample_params, build_paths_params, build_spec,
                     load_config, output_dir, validate_run_config)
from .counterexample import (bv_growth_experiment, cusp_data,
                             smooth_control_data, stochastic_counterpart)
from .csvio import (check_manifest, read_trajectory_csv, write_audit_csv,
                    write_defect_csv, write_manifest, write_rows,
                    write_trajectory_csv)
from .errors import ConfigurationError, NumericalAbortError
from .grids import SpatialGrid
from .oracles import shift_reduction_oracle


def _finish_bundle(out, resolved, seed, files):
    with open(os.path.join(out, "config_resolved.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files = files + [os.path.join(out, "config_resolved.json")]
    write_manifest(out, resolved, seed, files)


def cmd_simulate(cfg, seed, out) -> int:
    spec = build_spec(cfg)
    bgk_cfg = build_bgk_config(cfg)
    path = sample_path(seed, bgk_cfg.dt, bgk_cfg.horizon, dim=spec.dim)
    traj = run_simulation(spec, bgk_cfg, path)
    report = run_standard_audit(traj, entropy_tol=audit_entropy_tol(cfg))
    files = [os.path.join(out, name) for name in ("trajectory.csv", "defect.csv", "audit.csv")]
    write_trajectory_csv(traj, files[0])
    write_defect_csv(traj, files[1])
    write_audit_csv(report, files[2])
    _finish_bundle(out, cfg, seed, files)
    print(report.table())
    return 0 if report.passed() else 1


def convergence_ladder(params, seed):
    """The L1 error of the BGK engine against the shift-reduction oracle,
    averaged over the snapshots in [T/2, T], on each level of the refinement
    ladder.  Returns the rows of convergence.csv, (level, n, h, dt, epsilon,
    l1_error), and the fitted rate -slope of log2 error over level."""
    spec, base, c, horizon = params.spec, params.base, params.c, params.base.horizon
    rows = []
    for lvl in range(params.levels):
        n = base.n * (2 ** lvl)
        h = 2.0 * base.half_width / n
        n_steps = max(1, int(round(horizon / (params.dt_over_h * h))))
        dt = horizon / n_steps
        eps = params.eps_over_dt * dt
        path = sample_path(seed, dt, horizon, dim=1)
        traj = run_simulation(spec, replace(base, n=n, dt=dt, epsilon=eps,
                                            snapshot_stride=max(1, n_steps // 8)), path)
        _, oracle = shift_reduction_oracle(lambda r: c * spec.f(r), traj.initial(), path,
                                           horizon, abs(c) * spec.f_prime_sup(traj.vgrid.bound))
        errs = [float(np.sum(np.abs(traj.rho[i] - oracle[int(round(t / path.dt))])) * h)
                for i, t in enumerate(traj.times) if t >= horizon / 2]
        rows.append((lvl, n, h, dt, eps, float(np.mean(errs))))
    rate = float(-np.polyfit(np.arange(params.levels), np.log2([r[-1] for r in rows]), 1)[0])
    return rows, rate


def cmd_convergence(cfg, seed, out) -> int:
    rows, rate = convergence_ladder(build_convergence_params(cfg), seed)
    for lvl, n, h, dt, eps, err in rows:
        print(f"level {lvl}: n={n} h={h:.5g} dt={dt:.5g} eps={eps:.5g} L1={err:.6g}")
    print(f"fitted rate: {rate:.3f}")
    files = [os.path.join(out, "convergence.csv"), os.path.join(out, "convergence_summary.csv")]
    write_rows(files[0], ["level", "n", "h", "dt", "epsilon", "l1_error"], rows)
    write_rows(files[1], ["fitted_rate", "finest_error"], [(rate, rows[-1][-1])])
    _finish_bundle(out, cfg, seed, files)
    return 0


def cmd_counterexample(cfg, seed, out) -> int:
    """Closed-form BV ladders of the cusp and smooth data, and the BV of the
    cusp flow under transport noise.

    Both halves run on one pool of ``monte_carlo.workers`` threads: the
    ladder is the first task, then every (resolution, path) solve.  The
    first failed task cancels the tasks not yet started.  Rows are written
    in a fixed order, so output bytes do not depend on the worker count.
    """
    from concurrent.futures import ThreadPoolExecutor

    params = build_counterexample_params(cfg)
    t = params.t
    with ThreadPoolExecutor(max_workers=params.workers) as pool:
        ladder = pool.submit(bv_growth_experiment, (cusp_data(), smooth_control_data()), t,
                             params.resolutions)
        stochastic = stochastic_counterpart(cusp_data(), t, params.stochastic_resolutions,
                                            params.paths, seed, n_v=params.n_v, pool=pool,
                                            watch=(ladder,))
        ladders = ladder.result()

    labels = [label for label in ("cusp", "smooth") for _ in params.resolutions]
    rows = []
    for label, (n, h, bv_t, bv_0) in zip(labels, ladders):
        rows.append((label, n, h, t, bv_t, bv_0))
        print(f"{label:7s} n={n:5d} BV(t)={bv_t:.5f} BV(0)={bv_0:.5f}")
    files = [os.path.join(out, "deterministic_bv.csv")]
    write_rows(files[0], ["experiment", "n", "h", "t", "bv", "bv_initial"], rows)

    srows = []
    if params.stochastic_resolutions:
        for n, h, mean_bv, std_bv, m in stochastic:
            srows.append(("stochastic", n, h, t, mean_bv, std_bv, m))
            print(f"stochastic n={n:5d} mean BV={mean_bv:.5f} std={std_bv:.5f} M={m}")
        files.append(os.path.join(out, "stochastic_bv.csv"))
        write_rows(files[-1], ["experiment", "n", "h", "t", "mean_bv", "std_bv", "paths"], srows)
    files.extend(_write_figure_pair(out, rows, srows))
    _finish_bundle(out, cfg, seed, files)
    return 0


def _write_figure_pair(out, det_rows, sto_rows):
    """Plot-ready long table plus a gnuplot script for the BV figure."""
    fig = os.path.join(out, "figure_bv.csv")
    long_rows = [(lab, n, h, bv, 0.0) for lab, n, h, _, bv, _ in det_rows]
    long_rows += [(lab, n, h, bv, std) for lab, n, h, _, bv, std, _ in sto_rows]
    write_rows(fig, ["series", "n", "h", "bv", "std"], long_rows)
    gp = os.path.join(out, "figure_bv.gp")
    with open(gp, "w") as fh:
        fh.write(
            'set datafile separator ","\n'
            'set logscale x 2\n'
            'set xlabel "cells per axis n"\n'
            'set ylabel "discrete BV on the study box"\n'
            'set key left top\n'
            'plot "figure_bv.csv" using 2:(strcol(1) eq "cusp" ? $4 : 1/0) '
            'with linespoints title "deterministic, cusp data", \\\n'
            '     "" using 2:(strcol(1) eq "smooth" ? $4 : 1/0) '
            'with linespoints title "deterministic, smooth control", \\\n'
            '     "" using 2:(strcol(1) eq "stochastic" ? $4 : 1/0):5 '
            'with yerrorlines title "transport noise, mean over paths"\n'
        )
    return [fig, gp]


def cmd_audit(cfg, seed, out, bundle_dir) -> int:
    """Re-run the live audit's checks that stored snapshots support."""
    manifest = check_manifest(bundle_dir)
    traj_file = os.path.join(bundle_dir, "trajectory.csv")
    if "trajectory.csv" not in manifest["files"]:
        raise ConfigurationError(f"{traj_file}: the bundle has no trajectory")
    _, rho, _ = read_trajectory_csv(traj_file)
    spec = build_spec(manifest["config"])
    bgk_cfg = build_bgk_config(manifest["config"])
    grid = SpatialGrid(dim=spec.dim, half_width=bgk_cfg.half_width, n=bgk_cfg.n)
    if rho.shape[1:] != grid.shape:
        raise ConfigurationError(f"{traj_file}: snapshots of shape {rho.shape[1:]}, but the "
                                 f"config has grid.dim {grid.dim} and grid.n {grid.n}")
    report = AuditReport([check_max_principle(rho),
                          check_bv_nonincrease(rho, grid, spec)])
    files = [os.path.join(out, "reaudit.csv")]
    write_audit_csv(report, files[0])
    _finish_bundle(out, cfg, seed, files)
    print(report.table())
    return 0 if report.passed() else 1


def cmd_paths(cfg, seed, out) -> int:
    params = build_paths_params(cfg)
    rows = []
    for dim in params.dims:
        paths = sample_paths(seed, params.delta, params.horizon, dim, params.count)
        stat = levy_modulus_statistic(paths, params.delta)
        inc = np.concatenate([p.increments for p in paths])
        var = float(np.mean(inc * inc))
        rows.append((dim, params.delta, params.count, stat, stat / math.sqrt(dim), var))
        print(f"d={dim}: levy statistic={stat:.4f} (/sqrt d = {stat / math.sqrt(dim):.4f}), "
              f"increment var={var:.3e} (dt={params.delta:.3e})")
    files = [os.path.join(out, "paths.csv")]
    write_rows(files[0], ["dim", "delta", "paths", "levy_statistic",
                          "levy_over_sqrt_d", "increment_variance"], rows)
    _finish_bundle(out, cfg, seed, files)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stochbgk", description="BGK laboratory for scalar conservation laws with "
                                     "Brownian transport noise")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "audit":
            p.add_argument("--bundle", required=True,
                           help="directory holding a previous run's outputs")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        resolved = validate_run_config(cfg)
        if resolved["experiment"] != args.command:
            raise ConfigurationError(f"field 'experiment' is '{resolved['experiment']}' "
                                     f"but the command is '{args.command}'")
        seed = args.seed if args.seed is not None else resolved["monte_carlo"]["master_seed"]
        resolved["monte_carlo"]["master_seed"] = seed
        out = args.out or output_dir(resolved)
        os.makedirs(out, exist_ok=True)
        if args.command == "audit":
            return cmd_audit(resolved, seed, out, args.bundle)
        commands = {"simulate": cmd_simulate, "convergence": cmd_convergence,
                    "counterexample": cmd_counterexample, "paths": cmd_paths}
        return commands[args.command](resolved, seed, out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not bad input or a failed audit: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
