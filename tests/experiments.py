"""Analysis that only the acceptance criteria and their tests run: the
comparison check (criterion 5), the epsilon continuation (criterion 8), the
Holder fit (criterion 10), the commutator experiment (criterion 12), and
the forward cusp flow, a reference for the package's inverse flow.

No CLI command or benchmark workload calls these, so they live beside the
tests rather than in the package.  The name does not match ``test_*.py``,
so pytest collects nothing from this module.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.ndimage import convolve1d

from stochbgk.audit import CheckResult
from stochbgk.bgk import BGKConfig, run_simulation
from stochbgk.brownian import BrownianPath
from stochbgk.counterexample import b1, g, g_inverse
from stochbgk.errors import ConfigurationError
from stochbgk.fields import maxwellian_cell_average
from stochbgk.grids import SpatialGrid
from stochbgk.problem import ProblemSpec


def _region_slices(grid: SpatialGrid, region) -> tuple:
    """Index slices of cells whose centers fall inside the region box."""
    if region is None:
        return (slice(None),) * grid.dim
    c = grid.axis_centers()
    out = []
    for axis in range(grid.dim):
        lo, hi = region[axis]
        i0 = int(np.searchsorted(c, lo, side="left"))
        i1 = int(np.searchsorted(c, hi, side="right"))
        out.append(slice(i0, i1))
    return tuple(out)


# ---------------------------------------------------------------------------
# comparison and Holder regularity

def check_comparison(traj_lo, traj_hi) -> CheckResult:
    """Ordered initial data of two Trajectories stay ordered:
    min(rho_hi - rho_lo) >= -1e-10."""
    if not np.array_equal(traj_lo.path.increments, traj_hi.path.increments):
        raise ConfigurationError("comparison runs must share the Brownian path")
    if traj_lo.sgrid != traj_hi.sgrid:
        raise ConfigurationError("comparison runs must share the spatial grid")
    if traj_lo.vgrid != traj_hi.vgrid:
        raise ConfigurationError("comparison runs must share the velocity grid")
    if np.any(traj_lo.rho[0] > traj_hi.rho[0]):
        raise ConfigurationError("initial data are not ordered")
    n = min(len(traj_lo.times), len(traj_hi.times))
    worst = float(np.min(traj_hi.rho[:n] - traj_lo.rho[:n]))
    return CheckResult("comparison", worst >= -1e-10, worst, 0.0, 1e-10)


def fit_holder_exponent(traj, region=None):
    """Log-log least squares of a Trajectory's L1 time modulus against
    dyadic lags.

    At most six lags, from 4 dt_snap up to T/8; the modulus at each lag
    averages over all admissible window pairs.  Returns (alpha, C,
    degenerate flag).
    """
    times = traj.times
    dt_snap = float(times[1] - times[0])
    if np.max(np.abs(np.diff(times) - dt_snap)) > 1e-12 * dt_snap:
        raise ConfigurationError("Holder fit needs uniformly spaced snapshots")
    t_end = float(times[-1])
    sl = _region_slices(traj.sgrid, region)
    vol = traj.sgrid.cell_volume
    lags = []
    lag = 4
    while lag * dt_snap <= t_end / 8 and len(lags) < 6:
        lags.append(lag)
        lag *= 2
    if len(lags) < 2:
        raise ConfigurationError("trajectory too short for a Holder fit")
    taus, moduli = [], []
    for lag in lags:
        diffs = traj.rho[lag:] - traj.rho[:-lag]
        d = np.mean(np.sum(np.abs(diffs[(slice(None),) + sl]),
                           axis=tuple(range(1, diffs.ndim)))) * vol
        taus.append(lag * dt_snap)
        moduli.append(float(d))
    taus = np.asarray(taus)
    moduli = np.asarray(moduli)
    if np.any(moduli <= 0):
        return float("nan"), 0.0, True
    slope, intercept = np.polyfit(np.log(taus), np.log(moduli), 1)
    return float(slope), float(math.exp(intercept)), False


# ---------------------------------------------------------------------------
# commutator experiment

def cosine_kernel_moment(samples: int = 801) -> float:
    """I(rho1) = int |z| |grad rho1(z)| dz for the unit tensor cosine kernel."""
    z = np.linspace(-1.0, 1.0, samples)
    hz = z[1] - z[0]
    k = np.cos(0.5 * np.pi * z) ** 2
    dk = -0.5 * np.pi * np.sin(np.pi * z)
    Z0, Z1 = np.meshgrid(z, z, indexing="ij")
    G0 = np.outer(dk, k)
    G1 = np.outer(k, dk)
    r = np.sqrt(Z0**2 + Z1**2)
    grad = np.sqrt(G0**2 + G1**2)
    return float(np.sum(r * grad) * hz * hz)


def _kernel_1d(eps: float, h: float) -> np.ndarray:
    m = int(math.floor(eps / h))
    z = np.arange(-m, m + 1) * h / eps
    k = np.cos(0.5 * np.pi * z) ** 2
    return k / np.sum(k)


def _smooth(field: np.ndarray, k1: np.ndarray) -> np.ndarray:
    out = convolve1d(field, k1, axis=0, mode="constant", cval=0.0)
    return convolve1d(out, k1, axis=1, mode="constant", cval=0.0)


def commutator_experiment(b_fn, w_fn, eps_list, grid: SpatialGrid, region,
                          db_frobenius=None):
    """Decay table of r_eps = (b . grad w) * rho_eps - b . grad(w * rho_eps).

    Returns a dict with rows (eps, int_Q |r_eps|), the kernel moment I(rho1),
    the L-infinity scale of w near Q, and (when ``db_frobenius`` is given)
    the W^{1,1} envelope L (d + I(rho1)) |D b|(Q).  Derivatives are central
    differences; convolutions use the tensor cosine kernel scaled to each eps.
    Raises when the grid under-resolves the smallest kernel (h >= eps/4).
    """
    if grid.dim != 2:
        raise ConfigurationError("commutator experiment is set up in 2D")
    h = grid.h
    eps_list = list(eps_list)
    if h >= min(eps_list) / 4.0:
        raise ConfigurationError(
            f"grid spacing {h} under-resolves the kernel: need h < eps/4 = "
            f"{min(eps_list) / 4.0}"
        )
    pts = grid.centers()
    b_vals = np.asarray(b_fn(pts), dtype=float)
    w_vals = np.asarray(w_fn(pts), dtype=float)
    gwx, gwy = np.gradient(w_vals, h, edge_order=2)
    b_dot_gw = b_vals[..., 0] * gwx + b_vals[..., 1] * gwy
    sl = _region_slices(grid, region)
    rows = []
    for eps in eps_list:
        k1 = _kernel_1d(eps, h)
        lhs = _smooth(b_dot_gw, k1)
        ws = _smooth(w_vals, k1)
        gsx, gsy = np.gradient(ws, h, edge_order=2)
        r = lhs - (b_vals[..., 0] * gsx + b_vals[..., 1] * gsy)
        rows.append((float(eps), float(np.sum(np.abs(r[sl])) * h * h)))
    moment = cosine_kernel_moment()
    # L = sup |w| over the region dilated by the largest kernel radius
    dil = max(eps_list)
    dilated = tuple((lo - dil, hi + dil) for lo, hi in region)
    l_scale = float(np.max(np.abs(w_vals[_region_slices(grid, dilated)])))
    out = {"rows": rows, "kernel_moment": moment, "l_scale": l_scale}
    if db_frobenius is not None:
        db = np.asarray(db_frobenius(pts), dtype=float)
        db_q = float(np.sum(db[sl]) * h * h)
        out["db_mass"] = db_q
        out["envelope"] = l_scale * (grid.dim + moment) * db_q
    return out


# ---------------------------------------------------------------------------
# epsilon continuation

def epsilon_continuation(spec: ProblemSpec, config: BGKConfig,
                         path: BrownianPath, eps_list) -> dict:
    """Rerun the splitting solver over a decreasing relaxation ladder.

    Reports the final-time kinetic distance ||u_eps - chi_{rho_eps}||_L1 and
    the Cauchy differences ||rho_eps - rho_eps'||_L1 of consecutive levels.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly decreasing")
    kinetic_dist = []
    finals = []
    for eps in eps_list:
        traj = run_simulation(spec, replace(config, epsilon=eps), path)
        u = traj.final_u
        chi = maxwellian_cell_average(traj.final().values, u.vgrid)
        dist = float(np.sum(np.abs(u.values - chi))) * traj.sgrid.cell_volume * u.vgrid.dv
        kinetic_dist.append(dist)
        finals.append(traj.final().values)
    cauchy = [
        float(np.sum(np.abs(a - b))) * traj.sgrid.cell_volume
        for a, b in zip(finals, finals[1:])
    ]
    return {
        "epsilon": eps_list,
        "kinetic_distance": kinetic_dist,
        "cauchy_l1": cauchy,
        "kinetic_decreasing": all(b < a for a, b in zip(kinetic_dist, kinetic_dist[1:])),
        "cauchy_decreasing": all(b < a for a, b in zip(cauchy, cauchy[1:])),
    }


# ---------------------------------------------------------------------------
# the forward cusp flow

def exact_flow(t, x, y):
    """Forward flow of dX = 0, dY = b1(X) b2(Y): (x, g^{-1}(g(y) e^{2 b1 t}))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or t < 0:
        raise ConfigurationError("exact_flow needs y >= 0 and t >= 0")
    return x, g_inverse(g(y) * np.exp(2.0 * b1(x) * t))
