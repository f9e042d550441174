"""Independent solvers used to validate the BGK engine.

All oracles here are built from textbook components (monotone Godunov
finite volumes, exact Riemann solutions, characteristics) and share no code
with the kinetic solver, so agreement between the two is evidence rather
than tautology.
"""

from __future__ import annotations

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigurationError
from .fields import DensityField
from .grids import SpatialGrid
from .problem import ProblemSpec


def godunov_flux(flux, a, b):
    """Godunov numerical flux min/max over the state interval.

    F(a, b) = min_{a<=u<=b} f(u) if a <= b else max_{b<=u<=a} f(u),
    evaluated on a 129-point scan of the interval plus the critical point 0
    (clipped into the interval), so fluxes whose interior extremum is at 0
    -- e.g. Burgers -- are resolved exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    theta = np.linspace(0.0, 1.0, 129)
    states = lo[None, ...] + theta.reshape((-1,) + (1,) * a.ndim) * (hi - lo)[None, ...]
    states = np.concatenate([states, np.clip(np.zeros_like(lo), lo, hi)[None, ...]], axis=0)
    vals = flux(states)
    return np.where(a <= b, vals.min(axis=0), vals.max(axis=0))


def burgers_godunov_flux(a, b):
    """Closed-form Godunov flux for f(u) = u^2/2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fmin = np.where((a <= 0) & (0 <= b), 0.0, 0.5 * np.minimum(a * a, b * b))
    fmax = 0.5 * np.maximum(a * a, b * b)
    return np.where(a <= b, fmin, fmax)


def godunov_solve(flux, rho0: DensityField, dt: float, horizon: float,
                  flux_sup_speed: float, snapshot_stride: int = 1):
    """1D monotone Godunov march; returns (times, snapshots array).

    Fields are compactly supported and padded, so the boundary uses zero
    ghost cells.  Raises on CFL violation dt * sup|f'| / h > 1.
    """
    grid = rho0.grid
    if grid.dim != 1:
        raise ConfigurationError("godunov_solve is 1D only")
    h = grid.h
    if dt * flux_sup_speed / h > 1.0 + 1e-12:
        raise ConfigurationError(
            f"CFL violation: dt sup|f'| / h = {dt * flux_sup_speed / h:.3f} > 1"
        )
    n_steps = int(round(horizon / dt))
    rho = rho0.values.copy()
    times = [0.0]
    snaps = [rho.copy()]
    lam = dt / h
    for k in range(n_steps):
        ext = np.concatenate(([0.0], rho, [0.0]))
        f_iface = godunov_flux(flux, ext[:-1], ext[1:])
        rho = rho - lam * (f_iface[1:] - f_iface[:-1])
        if (k + 1) % snapshot_stride == 0 or k + 1 == n_steps:
            times.append((k + 1) * dt)
            snaps.append(rho.copy())
    return np.asarray(times), np.asarray(snaps)


def exact_riemann_burgers(rho_l: float, rho_r: float, xi):
    """Self-similar Burgers Riemann solution sampled at xi = x/t.

    Shock of speed (rho_l + rho_r)/2 when rho_l > rho_r, otherwise the
    rarefaction clamp(xi, rho_l, rho_r).
    """
    xi = np.asarray(xi, dtype=float)
    if rho_l > rho_r:
        s = 0.5 * (rho_l + rho_r)
        return np.where(xi < s, rho_l, rho_r)
    return np.clip(xi, rho_l, rho_r)


def _resample_shifted(values: np.ndarray, grid: SpatialGrid, shift: float) -> np.ndarray:
    """Linear interpolation of a 1D profile at x - shift, zero outside."""
    x = grid.axis_centers()
    return np.interp(x - shift, x, values, left=0.0, right=0.0)


def shift_reduction_oracle(flux, rho0: DensityField, path: BrownianPath,
                           horizon: float, flux_sup_speed: float):
    """Entropy solution of the noisy x-independent problem by exact reduction.

    For flux independent of x the substitution rho(t, x) = w(t, x - B(t))
    removes the noise: w is the deterministic entropy solution.  Solves w by
    Godunov, then resamples at the shifted coordinates.  ``flux`` is a
    function of rho alone; config.build_convergence_params refuses a
    non-constant b, where the reduction is not exact.

    Returns (times, snapshots) at the path's node times every ``stride`` so
    the shift uses exact path nodes.
    """
    if path.dim != 1:
        raise ConfigurationError("shift reduction oracle is 1D only")
    grid = rho0.grid
    dt = 0.4 * grid.h / max(flux_sup_speed, 1e-12)
    n_path = path.node_index(horizon)
    horizon_eff = n_path * path.dt
    # substep the deterministic march so path nodes land on oracle snapshots
    sub = max(1, int(np.ceil(path.dt / dt - 1e-12)))
    times_w, snaps_w = godunov_solve(flux, rho0, dt=path.dt / sub,
                                     horizon=horizon_eff,
                                     flux_sup_speed=flux_sup_speed,
                                     snapshot_stride=sub)
    nodes = path.values_at_nodes()
    out_times = np.arange(n_path + 1) * path.dt
    out = np.empty((n_path + 1, grid.n))
    for i in range(n_path + 1):
        out[i] = _resample_shifted(snaps_w[i], grid, float(nodes[i, 0]))
    return out_times, out


def inverse_characteristics(points, t: float, path: BrownianPath,
                            spec: ProblemSpec) -> np.ndarray:
    """Feet X_{t,0}(x) of the characteristics dX = b(X) dt + dB through
    ``points`` (shape (m, dim)) at time t.

    The noise is additive, so Ito and Stratonovich integration coincide
    pathwise and Y = X - B solves the random ODE dY/dtau = b(Y + B(tau)).
    It is integrated from t down to 0 with the path's own increments, which
    is exact for b = 0 and costs O(steps) per query; X_{t,0} = Y(0) since
    B(0) = 0.
    """
    k = path.node_index(t)
    nodes = path.values_at_nodes()
    y = points - nodes[k]
    for j in range(k, 0, -1):
        y -= path.dt * np.asarray(spec.b(y + nodes[j]))
    return y


def linear_characteristics_oracle(spec: ProblemSpec, rho0: DensityField,
                                  path: BrownianPath, t: float) -> DensityField:
    """Transport solution rho(t, x) = rho0(X_{t,0}(x)) for linear flux f(r) = r.

    Evaluates the stochastic inverse flow at every grid point and samples the
    initial profile there by linear interpolation (zero outside the box).
    Refuses fluxes whose f' is not identically 1 on a fixed probe of
    velocities, where transport along a single characteristic family is wrong.
    """
    if not np.all(spec.f_prime(np.linspace(-4.0, 4.0, 17)) == 1.0):
        raise ConfigurationError("linear characteristics oracle needs f(r) = r")
    grid = rho0.grid
    pts = grid.centers().reshape(-1, grid.dim)
    feet = inverse_characteristics(pts, t, path, spec)
    if grid.dim == 1:
        vals = np.interp(feet[:, 0], grid.axis_centers(), rho0.values,
                         left=0.0, right=0.0)
        return DensityField(grid, vals)
    c = grid.axis_centers()
    h = grid.h
    x0 = c[0]
    sx = (feet[:, 0] - x0) / h
    sy = (feet[:, 1] - x0) / h
    ix = np.floor(sx).astype(int)
    iy = np.floor(sy).astype(int)
    wx = sx - ix
    wy = sy - iy
    n = grid.n
    vals0 = rho0.values

    def corner(di, dj):
        ci, cj = ix + di, iy + dj
        ok = (ci >= 0) & (ci < n) & (cj >= 0) & (cj < n)
        out = np.zeros_like(sx)
        out[ok] = vals0[ci[ok], cj[ok]]
        return out

    out = ((1 - wx) * (1 - wy) * corner(0, 0) + wx * (1 - wy) * corner(1, 0)
           + (1 - wx) * wy * corner(0, 1) + wx * wy * corner(1, 1))
    return DensityField(grid, out.reshape(grid.shape))


def kruzkov_cell_entropy_residuals(flux, snaps: np.ndarray, dt: float, h: float,
                                   k_values) -> float:
    """Worst cell-wise discrete Kruzkov entropy residual of a Godunov run.

    Uses the numerical entropy flux G(a, b) = F(a max k, b max k)
    - F(a min k, b min k); monotone schemes satisfy
    eta^{n+1} <= eta^n - lambda (G_{i+1/2} - G_{i-1/2}) up to roundoff,
    so the returned value should be <= ~1e-12 for a correct run.
    """
    lam = dt / h
    worst = -np.inf

    def nf(a, b):
        return godunov_flux(flux, a, b)

    for n in range(snaps.shape[0] - 1):
        ext = np.concatenate(([0.0], snaps[n], [0.0]))
        ext1 = np.concatenate(([0.0], snaps[n + 1], [0.0]))
        for k in k_values:
            g = nf(np.maximum(ext[:-1], k), np.maximum(ext[1:], k)) - \
                nf(np.minimum(ext[:-1], k), np.minimum(ext[1:], k))
            eta0 = np.abs(ext[1:-1] - k)
            eta1 = np.abs(ext1[1:-1] - k)
            resid = eta1 - (eta0 - lam * (g[1:] - g[:-1]))
            worst = max(worst, float(resid.max()))
    return worst
