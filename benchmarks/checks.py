"""Correctness checks of the workloads' outputs.

Every check compares an output with an independent computation or with a
property the method must have, never with a stored copy of earlier output.
Each check returns a list of failure messages; an empty list is a pass.
The reference solutions here share no code with the solver: they are
written out from their closed forms.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.special import lambertw


# ---------------------------------------------------------------------------
# simulate-1d: Burgers plateau under a constant field and transport noise

def burgers_plateau_exact(x, t, shift, a=-1.0, b=0.0):
    """Entropy solution of rho_t + (rho^2/2)_x + rho_x o dB = 0 at time t.

    The data are the indicator of [a, b].  With constant b = 1 the noise only
    translates the deterministic solution, rho(t, x) = w(t, x - B(t)); w is
    the rarefaction fan from a followed by the plateau and the speed-1/2
    shock from b, valid until the fan reaches the shock at t = 2 (b - a).
    """
    if not 0.0 < t < 2.0 * (b - a):
        raise ValueError(f"closed form holds for 0 < t < {2.0 * (b - a)}")
    y = np.asarray(x, dtype=float) - shift
    out = np.zeros_like(y)
    fan = (y > a) & (y < a + t)
    out[fan] = (y[fan] - a) / t
    out[(y >= a + t) & (y <= b + 0.5 * t)] = 1.0
    return out


def check_mass(times, rho, h, rel_tol=1e-11):
    """Every snapshot holds the initial mass to round-off."""
    mass = rho.sum(axis=1) * h
    drift = np.abs(mass - mass[0])
    worst = int(np.argmax(drift))
    if drift[worst] > rel_tol * max(1.0, abs(mass[0])):
        return [f"mass drifts by {drift[worst]:.3e} at t = {times[worst]:.6g}"]
    return []


def check_burgers_final(x, rho_final, t, shift, h, tol):
    """L1 distance of the final density to the exact solution is below tol."""
    err = float(np.abs(rho_final - burgers_plateau_exact(x, t, shift)).sum() * h)
    if not err <= tol:
        return [f"L1 error to the exact solution {err:.4g} exceeds {tol:g}"]
    return []


def read_csv_table(fname):
    """(header, rows) of a CSV file, every cell kept as text."""
    with open(fname, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_verdicts(fname, expected):
    """Every row of an audit table reads PASS and the expected checks ran."""
    header, rows = read_csv_table(fname)
    if header != ["check", "measured", "bound", "tol", "verdict"]:
        return [f"{os.path.basename(fname)}: unexpected header {header}"]
    fails = [f"{os.path.basename(fname)}: {r[0]} reads {r[4]}"
             for r in rows if r[4] != "PASS"]
    names = [r[0] for r in rows]
    if names != list(expected):
        fails.append(f"{os.path.basename(fname)}: checks {names}, "
                     f"expected {list(expected)}")
    return fails


def check_manifest_hashes(bundle, expected_files):
    """The manifest lists exactly the expected files and every hash matches."""
    with open(os.path.join(bundle, "manifest.json")) as fh:
        manifest = json.load(fh)
    listed = manifest.get("files", {})
    fails = []
    if sorted(listed) != sorted(expected_files):
        fails.append(f"manifest lists {sorted(listed)}, expected {sorted(expected_files)}")
    for name, digest in listed.items():
        with open(os.path.join(bundle, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                fails.append(f"manifest hash of {name} does not match")
    return fails


# ---------------------------------------------------------------------------
# cusp-mc-2d: total variation of the closed-form cusp solution

def _gauss_panels(a, b, nodes=16, panels=16):
    z, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * z).ravel(), (half * w).ravel()


def cusp_exact_tv(t=1.0):
    """TV of rho(t) = p1(x) p2(eta(t, x, y)) on the plane, by quadrature.

    p1 = sqrt(x) on [0, 1] with a cos^2 taper to 0 at x = 3, p2 = sin^2(pi y/2)
    on [0, 2], and eta solves g(eta) = g(y) exp(-2 b1(x) t) with g(y) = y^2
    exp(y^2), b1 = sqrt(x) on [0, 1] and x^(-1/2) beyond, b2 = y / (1 + y^2).
    Then d_x eta = -t b1' b2(eta) and d_y eta = b2(eta) / b2(y), and
    TV = int |d_x rho| + int |d_y rho|.  The substitution x = s^2 on [0, 1]
    absorbs the x^(-1/2) singularity of p1' and b1'; g^{-1}(w) is
    sqrt(W0(w)) with the Lambert W function.  At t = 0 the product rule gives
    TV(rho0) = int|p1'| int p2 + int p1 int|p2'| = 2 * 1 + (5/3) * 2 = 16/3.
    """
    def g_inv(w):
        return np.sqrt(lambertw(w).real)

    def b2(y):
        return y / (1.0 + y * y)

    def p2(y):
        return np.sin(0.5 * np.pi * y) ** 2

    def dp2(y):
        return 0.5 * np.pi * np.sin(np.pi * y)

    s, ws = _gauss_panels(0.0, 1.0)          # x = s^2 on [0, 1], dx = 2 s ds
    xt, wt = _gauss_panels(1.0, 3.0)         # taper on [1, 3]
    taper = np.cos(0.25 * np.pi * (xt - 1.0)) ** 2
    dtaper = -0.25 * np.pi * np.sin(0.5 * np.pi * (xt - 1.0))
    b1 = np.concatenate([s, xt ** -0.5])
    # p1 dx, p1' dx and p1 b1' dx; on [0, 1] p1 = b1 = s and p1' = b1' = 1/(2 s)
    p1_w = np.concatenate([2.0 * s * s * ws, taper * wt])
    dp1_w = np.concatenate([ws, dtaper * wt])
    p1_db1_w = np.concatenate([s * ws, -0.5 * taper * xt ** -1.5 * wt])

    # y runs over the preimage of supp p2 = [0, 2]: up to the image of y = 2
    u, wu = _gauss_panels(0.0, 1.0)
    y_top = g_inv(4.0 * math.exp(4.0) * np.exp(2.0 * b1 * t))[:, None]
    y = y_top * u
    wy = y_top * wu
    eta = g_inv(y * y * np.exp(y * y) * np.exp(-2.0 * b1[:, None] * t))
    d_x = dp1_w[:, None] * p2(eta) - t * p1_db1_w[:, None] * dp2(eta) * b2(eta)
    d_y = p1_w[:, None] * dp2(eta) * b2(eta) / b2(y)
    return float(np.sum(np.abs(d_x) * wy)), float(np.sum(np.abs(d_y) * wy))


def check_cusp_ladder(ns, bv_t, bv_0, tv_exact, rung_rel=2e-3, finest_rel=5e-4):
    """The discrete BV ladder converges to the exact total variation.

    Every rung within rung_rel, the finest within finest_rel, the finest
    error at most half the coarsest, and BV(0) within rung_rel of 16/3.
    """
    fails = []
    err = [abs(v - tv_exact) / tv_exact for v in bv_t]
    for n, e in zip(ns, err):
        if not e <= rung_rel:
            fails.append(f"cusp BV at n={n} is {e:.2e} off the exact TV")
    if not err[-1] <= finest_rel:
        fails.append(f"cusp BV at n={ns[-1]} is {err[-1]:.2e} off, limit {finest_rel:g}")
    if not err[-1] <= 0.5 * err[0]:
        fails.append(f"cusp BV ladder does not converge: errors {err}")
    for n, v in zip(ns, bv_0):
        if not abs(v - 16.0 / 3.0) <= rung_rel * 16.0 / 3.0:
            fails.append(f"BV(0) at n={n} is {v}, exact 16/3")
    return fails


def check_smooth_flat(ns, bv_t, bv_0, rel=0.10):
    """The smooth control's BV stays within rel of its initial value."""
    return [f"smooth control BV grows by {v / v0 - 1:+.3f} at n={n}"
            for n, v, v0 in zip(ns, bv_t, bv_0) if not abs(v / v0 - 1.0) <= rel]


def check_stochastic_rows(rows, resolutions, n_paths):
    """One row per resolution, the full path count, finite positive BV."""
    fails = []
    if [int(r["n"]) for r in rows] != list(resolutions):
        fails.append(f"stochastic rows at n = {[r['n'] for r in rows]}, "
                     f"expected {list(resolutions)}")
    for r in rows:
        mean, std = float(r["mean_bv"]), float(r["std_bv"])
        if int(r["paths"]) != n_paths:
            fails.append(f"n={r['n']}: {r['paths']} paths, expected {n_paths}")
        if not (math.isfinite(mean) and mean > 0.0):
            fails.append(f"n={r['n']}: mean BV {mean} is not finite and positive")
        if not (math.isfinite(std) and std >= 0.0):
            fails.append(f"n={r['n']}: BV spread {std} is not finite")
    return fails


# ---------------------------------------------------------------------------
# picard-window: fixed-point convergence and agreement with the splitting

def check_picard_contraction(ratios, bound, slack=0.05):
    """Measured contraction factors stay within the theoretical bound + slack."""
    worst = max(ratios) if ratios else 0.0
    if not worst <= bound + slack:
        return [f"picard contraction {worst:.4f} exceeds bound {bound:.4f} + {slack}"]
    return []


def check_gap_halving(gaps, target=2.0, rel=0.3):
    """The Picard-splitting L1 gap halves per refinement, within target*(1 +- rel)."""
    ratios = [a / b if b > 0 else math.inf for a, b in zip(gaps, gaps[1:])]
    if all(target * (1 - rel) <= r <= target * (1 + rel) for r in ratios):
        return []
    return [f"gap ratios {[round(r, 3) for r in ratios]} outside "
            f"{target} x (1 +- {rel})"]
