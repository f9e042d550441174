"""The explicit 2D transport flow with an inverse-square-root gradient blow-up,
its closed-form solution, and the deterministic-vs-noisy BV refinement study.

The advecting field is b(x, y) = (0, b1(x) b2(y)) with
b1 = sqrt(x) on [0, 1], 1/sqrt(x) beyond, and b2 = y / (1 + y^2) on y >= 0.
The flow leaves x frozen and moves y along
Y(t, x, y) = g^{-1}(g(y) e^{2 b1(x) t}) with g(y) = e^{y^2} y^2, so the pure
transport solution is available in closed form and can be sampled with no
discretization error beyond pointwise evaluation.

Criterion 7 note.  Write the inverse flow as (x, eta(t, x, y)) with
g(eta) = g(y) e^{-2 b1(x) t}.  Since g / g' = b2 / 2, differentiating gives

    d_x eta = -t b1'(x) b2(eta),        d_y eta = b2(eta) / b2(y).

The only unbounded factor is b1' ~ x^(-1/2) at 0+, and it is integrable
(int |b1'| over [0, 3] is about 1.42).  So for bounded BV product data
rho0 = p1(x) p2(y), the solution rho(t) = p1(x) p2(eta) has
d_x rho = p1' p2(eta) - t p1 b1' p2'(eta) b2(eta) in L^1 and stays BV for
every t: its discrete BV converges under refinement instead of growing.
For the cusp data the flow raises the total variation from 16/3 to about
5.4437 at t = 1 (the y part stays 10/3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .fields import DensityField, discrete_bv
from .grids import SpatialGrid
from .problem import ProblemSpec, linear_flux, make_spec


def b1(x):
    """sqrt(x) on [0,1], x^(-1/2) on (1, inf), zero for x < 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mid = (x >= 0) & (x <= 1)
    out[mid] = np.sqrt(x[mid])
    far = x > 1
    out[far] = 1.0 / np.sqrt(x[far])
    return out


def b1_prime(x):
    """Derivative of b1 where defined (used by the commutator envelope)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mid = (x > 0) & (x <= 1)
    out[mid] = 0.5 / np.sqrt(x[mid])
    far = x > 1
    out[far] = -0.5 * x[far] ** -1.5
    return out


def b2(y):
    """y / (1 + y^2) for y >= 0, zero below."""
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0, y / (1.0 + y * y), 0.0)


def b2_prime(y):
    """(1 - y^2) / (1 + y^2)^2 for y >= 0, zero below; range [-1/8, 1]."""
    y = np.asarray(y, dtype=float)
    val = (1.0 - y * y) / (1.0 + y * y) ** 2
    return np.where(y >= 0, val, 0.0)


def g(y):
    """g(y) = e^{y^2} y^2, strictly increasing on [0, inf), g(0) = 0."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ConfigurationError("g is defined for y >= 0")
    return np.exp(y * y) * y * y


def g_inverse(w):
    """Inverse of g on [0, inf): g^{-1}(w) = sqrt(W0(w)).

    g(y) = w means y^2 e^{y^2} = w, so y^2 is the principal branch W0 of
    the Lambert W function at w (real and >= 0 for w >= 0).  Accurate to
    |g(y) - w| <= 1e-12 max(1, w); NaN maps to NaN.
    """
    # imported here: SciPy is the slowest import of the package, and
    # importing the CLI should not pay for it
    from scipy.special import lambertw

    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ConfigurationError("g_inverse is defined for w >= 0")
    y = np.sqrt(lambertw(w).real)
    return float(y) if w.ndim == 0 else y


def exact_flow(t, x, y):
    """Forward flow of dX = 0, dY = b1(X) b2(Y): (x, g^{-1}(g(y) e^{2 b1 t}))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or t < 0:
        raise ConfigurationError("exact_flow needs y >= 0 and t >= 0")
    return x, g_inverse(g(y) * np.exp(2.0 * b1(x) * t))


def exact_inverse_flow(t, x, y):
    """Inverse of the forward flow: (x, g^{-1}(g(y) e^{-2 b1 t}))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0) or t < 0:
        raise ConfigurationError("exact_inverse_flow needs y >= 0 and t >= 0")
    return x, g_inverse(g(y) * np.exp(-2.0 * b1(x) * t))


# ---------------------------------------------------------------------------
# data

def cusp_profile_x(x):
    """0 for x <= 0, sqrt(x) on [0, 1], cosine taper to 0 on [1, 3].

    BV with a single non-Lipschitz feature: derivative ~ x^(-1/2) at 0+.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    core = (x > 0) & (x <= 1)
    out[core] = np.sqrt(x[core])
    taper = (x > 1) & (x < 3)
    out[taper] = np.cos(np.pi * (x[taper] - 1.0) / 4.0) ** 2
    return out


def smooth_profile_x(x):
    """Smooth control with the same support [0, 3], no cusp."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x > 0) & (x < 3)
    out[m] = np.sin(np.pi * x[m] / 3.0) ** 2
    return out


def bump_profile_y(y):
    """Cosine bump supported on [0, 2] with max 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = (y > 0) & (y < 2)
    out[m] = np.sin(np.pi * y[m] / 2.0) ** 2
    return out


@dataclass
class CounterexampleData:
    """Product initial data rho0(x, y) = p1(x) p2(y) and the study box."""

    profile_x: Callable = cusp_profile_x
    profile_y: Callable = bump_profile_y
    radius: float = 3.0

    def sample(self, grid: SpatialGrid) -> DensityField:
        c = grid.axis_centers()
        return DensityField(grid, np.outer(self.profile_x(c), self.profile_y(c)))

    def evaluate(self, x, y):
        return self.profile_x(x) * self.profile_y(y)


def cusp_data() -> CounterexampleData:
    return CounterexampleData(cusp_profile_x, bump_profile_y)


def smooth_control_data() -> CounterexampleData:
    return CounterexampleData(smooth_profile_x, bump_profile_y)


# ---------------------------------------------------------------------------
# experiments

def _inverse_flow_on_grid(t, grid: SpatialGrid):
    """eta(t, x, y) at every cell centre of a 2D grid, indexed [x, y].

    Points with y < 0 are frozen (b2 vanishes there).  The inverse flow
    depends on x only through b1(x), so it is solved once per distinct b1
    value (every x < 0 shares b1 = 0) and the rows are indexed back.
    """
    if grid.dim != 2:
        raise ConfigurationError("the construction is two-dimensional")
    c = grid.axis_centers()
    _, first, row = np.unique(b1(c), return_index=True, return_inverse=True)
    pos = c >= 0
    _, eta_rows = exact_inverse_flow(t, c[first][:, None],
                                     np.where(pos, c, 0.0)[None, :])
    return np.where(pos, eta_rows[row], c)


def deterministic_solution(t, data: CounterexampleData,
                           grid: SpatialGrid) -> DensityField:
    """Closed-form weak solution rho(t) = rho0 o (flow)^{-1}, sampled pointwise."""
    eta = _inverse_flow_on_grid(t, grid)
    return DensityField(grid, data.evaluate(grid.axis_centers()[:, None], eta))


def bv_growth_experiment(data, t, resolutions):
    """Discrete BV of the closed-form solution on a refinement ladder.

    ``data`` is one ``CounterexampleData`` or a sequence of them; all of them
    share one inverse-flow solve per resolution and box.  Returns rows
    (n, h, bv at time t, bv at time 0), data-major: the whole ladder of the
    first data, then of the next.
    """
    if t < 0:
        raise ConfigurationError("t must be >= 0")
    datas = (data,) if isinstance(data, CounterexampleData) else tuple(data)
    ladders = [[] for _ in datas]
    for n in resolutions:
        etas = {}
        for d, rows in zip(datas, ladders):
            grid = SpatialGrid(dim=2, half_width=d.radius, n=int(n))
            f0 = d.sample(grid)
            ft = f0
            if t > 0:
                if d.radius not in etas:
                    etas[d.radius] = _inverse_flow_on_grid(t, grid)
                ft = DensityField(grid, d.evaluate(grid.axis_centers()[:, None],
                                                   etas[d.radius]))
            rows.append((int(n), grid.h, discrete_bv(ft), discrete_bv(f0)))
    return [row for rows in ladders for row in rows]


def cusp_flow_spec(data: CounterexampleData) -> ProblemSpec:
    """Linear-flux 2D spec with b = (0, b1(x) b2(y)); div b in [-1/8, 1]."""

    def b(pts):
        out = np.zeros_like(pts)
        out[..., 1] = b1(pts[..., 0]) * b2(pts[..., 1])
        return out

    def div_b(pts):
        return b1(pts[..., 0]) * b2_prime(pts[..., 1])

    def rho0(grid: SpatialGrid):
        return data.sample(grid).values

    return make_spec(2, linear_flux(), (b, div_b, 1.0), rho0)


def stochastic_counterpart(data: CounterexampleData, t, resolutions,
                           n_paths: int, master_seed: int,
                           n_v: int = 8, zeroed: bool = False, workers: int = 1):
    """BGK runs of the same field under transport noise, per resolution.

    Each run takes one step per cell width, dt ~ h.  Returns rows
    (n, h, mean BV at time t over paths, std, n_paths).
    ``zeroed`` replaces every path's increments by zeros (deterministic
    consistency control).  Aggregation is ordered by path index, so results
    do not depend on scheduling.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .bgk import BGKConfig, run_simulation
    from .brownian import sample_path

    spec = cusp_flow_spec(data)
    rows = []
    for n in resolutions:
        n = int(n)
        grid_h = 2.0 * data.radius / n
        n_steps = max(1, int(round(t / grid_h)))
        dt = t / n_steps
        config = BGKConfig(
            epsilon=2.0 * dt, dt=dt, horizon=t, half_width=data.radius,
            n=n, n_v=n_v, snapshot_stride=max(1, n_steps),
        )

        def one(k):
            path = sample_path(master_seed, dt, t, dim=2, path_index=k)
            if zeroed:
                path = path.zeroed()
            traj = run_simulation(spec, config, path)
            return discrete_bv(traj.final())

        with ThreadPoolExecutor(max_workers=workers) as pool:
            bvs = np.asarray(list(pool.map(one, range(n_paths))))
        rows.append((n, grid_h, float(bvs.mean()), float(bvs.std()), n_paths))
    return rows
