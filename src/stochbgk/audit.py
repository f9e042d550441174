"""Executable checks of the quantitative solution properties.

Every row of the standard battery is a pure function of arrays, grids and
scalars: re-running it on stored snapshots reproduces its verdict bit for
bit, and the ``stochbgk audit`` re-audit calls the same functions as the
live audit.  ``run_standard_audit`` is the one place that unpacks a
Trajectory.
Stratonovich time integrals are discretized by the midpoint rule on path
increments; an Ito sum would introduce a spurious drift of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .fields import DensityField, discrete_bv, entropy_pair, lp_norm
from .grids import SpatialGrid
from .problem import ProblemSpec


# ---------------------------------------------------------------------------
# test functions

@dataclass(frozen=True)
class SpatialBump:
    """Radial cos^2 bump: value 1 at the center, support |x - c| < width."""

    center: tuple
    width: float

    def _radius(self, pts):
        c = np.asarray(self.center, dtype=float)
        return np.linalg.norm(pts - c, axis=-1)

    def __call__(self, pts):
        r = self._radius(pts)
        out = np.zeros(r.shape)
        m = r < self.width
        out[m] = np.cos(0.5 * np.pi * r[m] / self.width) ** 2
        return out

    def gradient(self, pts):
        c = np.asarray(self.center, dtype=float)
        d = pts - c
        r = np.linalg.norm(d, axis=-1)
        out = np.zeros(pts.shape)
        m = (r < self.width) & (r > 0)
        s = 0.5 * np.pi * r[m] / self.width
        dr = -(0.5 * np.pi / self.width) * np.sin(2 * s)
        out[m] = (dr / r[m])[..., None] * d[m]
        return out

    def supported_inside(self, grid: SpatialGrid) -> bool:
        c = np.asarray(self.center, dtype=float)
        return bool(np.all(np.abs(c) + self.width < grid.half_width))


@dataclass(frozen=True)
class TemporalRamp:
    """Value 1 on [0, t_end - ramp], linear descent to 0 at t_end, 0 after."""

    t_end: float
    ramp: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        up = np.clip((self.t_end - t) / self.ramp, 0.0, 1.0)
        return up


@dataclass(frozen=True)
class VelocityCutoff:
    """1 for |v| <= k, 0 for |v| >= 2k, cos^2 taper between."""

    k: float

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        out = np.ones(a.shape)
        out[a >= 2 * self.k] = 0.0
        mid = (a > self.k) & (a < 2 * self.k)
        out[mid] = np.cos(0.5 * np.pi * (a[mid] - self.k) / self.k) ** 2
        return out

    def derivative(self, v):
        v = np.asarray(v, dtype=float)
        a = np.abs(v)
        out = np.zeros(a.shape)
        mid = (a > self.k) & (a < 2 * self.k)
        s = 0.5 * np.pi * (a[mid] - self.k) / self.k
        out[mid] = -(0.5 * np.pi / self.k) * np.sin(2 * s) * np.sign(v[mid])
        return out


# ---------------------------------------------------------------------------
# report plumbing

@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    tolerance: float
    note: str = ""

    def row(self):
        return (self.name, self.measured, self.bound, self.tolerance,
                "PASS" if self.passed else "FAIL")


@dataclass
class AuditReport:
    entries: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def table(self) -> str:
        lines = [f"{'check':34s} {'measured':>14s} {'bound':>14s} {'tol':>10s} verdict"]
        for e in self.entries:
            lines.append(
                f"{e.name:34s} {e.measured:14.6g} {e.bound:14.6g} "
                f"{e.tolerance:10.3g} {'PASS' if e.passed else 'FAIL'}"
                + (f"  [{e.note}]" if e.note else "")
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# residuals

def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def _stratonovich_sum(series: np.ndarray, b_nodes: np.ndarray) -> float:
    """Midpoint (Stratonovich-consistent) sum of integrand against dB.

    ``series`` has shape (n_snap, dim), ``b_nodes`` the matching B values.
    """
    mid = 0.5 * (series[1:] + series[:-1])
    return float(np.sum(mid * np.diff(b_nodes, axis=0)))


def _ramp_derivative_term(times: np.ndarray, series: np.ndarray,
                          ramp: TemporalRamp) -> float:
    """int psi'(t) E(t) dt = -(1/ramp) int_{window} E dt, window-exact.

    Integrates the piecewise-linear interpolant of E over the descent window
    instead of sampling psi' at its kinks (which loses O(dt/ramp)).
    """
    a = max(ramp.t_end - ramp.ramp, float(times[0]))
    b = min(ramp.t_end, float(times[-1]))
    if b <= a:
        return 0.0
    knots = np.unique(np.concatenate([times[(times > a) & (times < b)], [a, b]]))
    vals = np.interp(knots, times, series)
    return -float(np.trapezoid(vals, knots)) / ramp.ramp


def entropy_residual(rho: np.ndarray, times: np.ndarray, b_nodes: np.ndarray,
                     grid: SpatialGrid, spec: ProblemSpec, rho_refs, bumps=None,
                     ramp: Optional[TemporalRamp] = None):
    """Worst signed residual of the entropy-inequality weak form for the
    snapshots rho at times, with B at those times in b_nodes (n_snap, dim).

    For each reference value k and spatial bump the residual assembles

        int dt int phi psi'(t) eta(rho)  +  int dt int Q div(b phi) psi
        + int phi psi(0) eta(rho0)  +  sum_i Strat( int d_i phi eta psi )

    which is nonnegative for entropy solutions up to quadrature error.
    The linear entropies +-rho are always included (weak-form identity), so
    restricting the family can only increase the minimum.  By default the
    bumps are centred at 0 (and at +-0.4 half widths in 1D) with widths 0.5
    and 0.25 half widths, and the ramp descends over the last
    max(2 dt_snap, T/8).  Returns (worst value, list of per-entropy rows);
    the rows run bump by bump, each bump's in the order lin+, lin-, then
    rho_refs, and worst is their minimum taken in that order.
    """
    if bumps is None:
        widths = (0.5 * grid.half_width, 0.25 * grid.half_width)
        centers = [(0.0,) * grid.dim]
        if grid.dim == 1:
            centers += [(-0.4 * grid.half_width,), (0.4 * grid.half_width,)]
        bumps = tuple(SpatialBump(c, w) for c in centers for w in widths)
    if ramp is None:
        t_end = float(times[-1])
        ramp = TemporalRamp(t_end, max(float(times[1] - times[0]) * 2, t_end / 8))
    pts = grid.centers()
    vol = grid.cell_volume
    wq = _trapezoid_weights(times)
    psi = ramp(times)
    b_grid = spec.b_on_grid(grid)
    div_b_grid = np.asarray(spec.div_b(pts), dtype=float)
    # (bump, phi, its gradient by axis, div(b phi)) per bump
    tests = []
    for bump in bumps:
        if not bump.supported_inside(grid):
            raise ConfigurationError("test bump support touches the padded boundary")
        phi = bump(pts)
        gphi = bump.gradient(pts)
        tests.append((bump, phi, np.moveaxis(gphi, -1, 0),
                      div_b_grid * phi + np.sum(b_grid * gphi, axis=-1)))
    sum_axes = tuple(a + 1 for a in range(grid.dim))
    entropies = [("lin+", None, +1.0), ("lin-", None, -1.0)]
    entropies += [(f"|r-{k:g}|", float(k), None) for k in rho_refs]
    # each entropy pair is built once and held only while every bump reads it
    resid = np.empty((len(tests), len(entropies)))
    for e, (_, k, c0) in enumerate(entropies):
        if k is None:
            eta_t = c0 * rho
            q_t = c0 * spec.f(rho)
        else:
            eta_t, q_t = entropy_pair(rho, k, spec)
        for b, (_, phi, grads, div_bphi) in enumerate(tests):
            e_phi = np.sum(eta_t * phi, axis=sum_axes) * vol
            q_div = np.sum(q_t * div_bphi, axis=sum_axes) * vol
            term_dt = _ramp_derivative_term(times, e_phi, ramp)
            term_q = float(np.sum(wq * psi * q_div))
            term_init = float(e_phi[0] * ramp(0.0))
            g_series = np.stack([np.sum(eta_t * phi_g, axis=sum_axes) * vol
                                 for phi_g in grads], axis=-1)
            term_strat = _stratonovich_sum(g_series * psi[:, None], b_nodes)
            resid[b, e] = term_dt + term_q + term_init + term_strat
    rows = []
    worst = np.inf
    for (bump, *_), row in zip(tests, resid.tolist()):
        for (label, _, _), value in zip(entropies, row):
            rows.append((label, bump.center, bump.width, value))
            worst = min(worst, value)
    return worst, rows


def kinetic_residual(traj, kinetic_snapshots: np.ndarray, defect_fields,
                     bump: SpatialBump, cutoff: VelocityCutoff) -> float:
    """Imbalance of the kinetic weak form of a Trajectory, defect term included.

    ``kinetic_snapshots`` is u at ``traj.times``, shape (n_snap, *grid shape,
    n_v), and ``defect_fields`` each slab's summed defect prefix, shape
    (n_snap - 1, *grid shape, n_v); run_simulation keeps neither, and other
    shapes raise ConfigurationError.  With a cutoff constant on [-N, N] the
    defect term vanishes, the imbalance reduces to the transport identity,
    and ``defect_fields`` may be None.  A slab's prefix sum at v-cell j is
    m at the cell's upper edge, so the defect term pairs it with psi' there.
    """
    cells = traj.sgrid.shape + (traj.vgrid.n_v,)
    snaps, slabs = (len(traj.times),) + cells, (len(traj.times) - 1,) + cells
    u = np.asarray(kinetic_snapshots)
    if u.shape != snaps or (defect_fields is not None and np.shape(defect_fields) != slabs):
        raise ConfigurationError(f"kinetic_residual needs snapshots of shape {snaps} "
                                 f"and defect fields of shape {slabs}")
    spec = traj.spec
    grid = traj.sgrid
    vg = traj.vgrid
    pts = grid.centers()
    vol = grid.cell_volume
    phi = bump(pts)
    gphi = bump.gradient(pts)
    psi_v = cutoff(vg.centers())
    dpsi_v = cutoff.derivative(vg.edges()[1:])
    fp = np.asarray(spec.f_prime(vg.centers()), dtype=float)
    b_grid = spec.b_on_grid(grid)
    div_b_grid = np.asarray(spec.div_b(pts), dtype=float)
    div_bphi = div_b_grid * phi + np.sum(b_grid * gphi, axis=-1)
    space_axes = tuple(range(1, grid.dim + 1))

    times = traj.times
    wq = _trapezoid_weights(times)
    pair = np.sum(u * phi[None, ..., None] * psi_v, axis=space_axes + (grid.dim + 1,)) * vol * vg.dv
    lhs = float(pair[-1])
    init = float(pair[0])
    adv_series = np.sum(
        u * div_bphi[None, ..., None] * (fp * psi_v), axis=space_axes + (grid.dim + 1,)
    ) * vol * vg.dv
    adv = float(np.sum(wq * adv_series))
    strat_series = np.stack(
        [np.sum(u * g[None, ..., None] * psi_v, axis=space_axes + (grid.dim + 1,)) * vol * vg.dv
         for g in np.moveaxis(gphi, -1, 0)], axis=-1)
    strat = _stratonovich_sum(strat_series, traj.path_values_at_snapshots())

    m_term = 0.0
    if defect_fields is None:
        if np.any(np.abs(dpsi_v) > 0):
            raise ConfigurationError("kinetic_residual with a varying cutoff needs defect_fields")
    else:
        for f_slab in defect_fields:
            m_term += float(np.sum(f_slab * phi[..., None] * dpsi_v)) * vol * vg.dv
    return lhs - (init + adv + strat - m_term)


# ---------------------------------------------------------------------------
# named checks

def check_max_principle(rho: np.ndarray) -> CheckResult:
    """sup_t ||rho(t)||_inf <= ||rho0||_inf over snapshots rho[0], rho[1], ...,
    zero tolerance."""
    sup_t = float(np.max(np.abs(rho)))
    bound = float(np.max(np.abs(rho[0])))
    return CheckResult("max_principle", sup_t <= bound, sup_t, bound, 0.0)


def check_l1_growth(rho: np.ndarray, u_l1: np.ndarray, times: np.ndarray,
                    grid: SpatialGrid, c0: float) -> CheckResult:
    """||rho(t)||_1 <= ||u(t)||_1 <= e^{C0 t} ||rho0||_1 (1 + 1e-6) over
    snapshots rho on grid with kinetic norms u_l1 at times."""
    tol = 1e-6
    rho_l1 = np.sum(np.abs(rho), axis=tuple(range(1, rho.ndim))) * grid.cell_volume
    envelope = np.exp(c0 * times) * rho_l1[0] * (1.0 + tol)
    ok_env = bool(np.all(u_l1 <= envelope))
    ok_order = bool(np.all(rho_l1 <= u_l1 * (1.0 + 1e-12) + 1e-300))
    measured = float(np.max(u_l1 / np.maximum(envelope, 1e-300)))
    return CheckResult("l1_growth", ok_env and ok_order, measured, 1.0, tol)


def check_bv_nonincrease(rho: np.ndarray, grid: SpatialGrid,
                         spec: ProblemSpec) -> CheckResult:
    """BV(rho(t)) <= BV(rho0) (1 + 1e-8) over snapshots on grid; a theorem
    only for x-independent fluxes, so skipped unless b is constant on grid."""
    flat = spec.b_on_grid(grid).reshape(-1, grid.dim)
    if float(np.max(np.ptp(flat, axis=0))) > 1e-12:
        return CheckResult("bv_nonincrease", True, 0.0, 0.0, 0.0,
                           note="skipped: b is not constant")
    tol = 1e-8
    bv0 = discrete_bv(DensityField(grid, rho[0]))
    worst = max(discrete_bv(DensityField(grid, r)) for r in rho)
    if bv0 == 0.0:
        return CheckResult("bv_nonincrease", worst <= 1e-12, worst, 0.0, tol)
    return CheckResult("bv_nonincrease", worst <= bv0 * (1 + tol), worst, bv0, tol)


def check_energy_defect_identity(rho: np.ndarray, slab_mass, grid: SpatialGrid,
                                 spec: ProblemSpec) -> CheckResult:
    """2 mass(m) matches ||rho0||_2^2 - ||rho(T)||_2^2 within 5 percent, m
    the defect slab masses and rho0, rho(T) the first and last snapshots.

    Valid in the divergence-free regime; otherwise reported as skipped.
    """
    if not spec.div_free:
        return CheckResult("energy_defect", True, 0.0, 0.0, 0.0,
                           note="skipped: div b != 0")
    l2_0 = lp_norm(DensityField(grid, rho[0]), 2) ** 2
    l2_t = lp_norm(DensityField(grid, rho[-1]), 2) ** 2
    lhs = 2.0 * float(sum(slab_mass))
    rhs = l2_0 - l2_t
    tol = 0.05 * l2_0
    gap = abs(lhs - rhs)
    return CheckResult("energy_defect", gap <= tol, gap, tol, 0.05,
                       note=f"2m={lhs:.4g} dE={rhs:.4g}")


def check_defect_structure(rho0: np.ndarray, slab_mass, min_entry: float,
                           t_end: float, grid: SpatialGrid, v_bound: float,
                           c0: float) -> CheckResult:
    """m >= -1e-12 (min_entry: the most negative raw prefix entry), support
    in [-N, N] (N = v_bound), and the summed slab masses of m up to t_end
    within the a-priori envelope of the initial density rho0."""
    rho0_l1 = lp_norm(DensityField(grid, rho0), 1)
    envelope = math.sqrt(
        12.0 * v_bound**2 * (math.exp(2 * c0 * t_end) + 1.0
                             + c0**2 * t_end**2 * math.exp(2 * c0 * t_end))
    ) * rho0_l1
    mass = float(sum(slab_mass))
    ok = min_entry >= -1e-12 and mass <= envelope
    return CheckResult("defect_structure", ok, mass, envelope, 1e-12,
                       note=f"min entry {min_entry:.2e}")


# ---------------------------------------------------------------------------
# standard audit bundle

def run_standard_audit(traj, entropy_tol: Optional[float] = None) -> AuditReport:
    """The default battery on a Trajectory: max principle, L1 growth, BV,
    defect, energy, and (when a tolerance is supplied) the entropy residual."""
    rho, times, grid, spec = traj.rho, traj.times, traj.sgrid, traj.spec
    n_bound = traj.vgrid.bound
    c0 = spec.growth_rate(n_bound)
    report = AuditReport([
        check_max_principle(rho),
        check_l1_growth(rho, traj.u_l1, times, grid, c0),
        check_bv_nonincrease(rho, grid, spec),
        check_defect_structure(rho[0], traj.slab_mass, traj.min_entry, float(times[-1]),
                               grid, n_bound, c0),
        check_energy_defect_identity(rho, traj.slab_mass, grid, spec)])
    if entropy_tol is not None:
        refs = [k * n_bound for k in (-0.75, -0.25, 0.0, 0.25, 0.5, 0.75)]
        worst, _ = entropy_residual(rho, times, traj.path_values_at_snapshots(), grid,
                                    spec, refs)
        report.entries.append(CheckResult("entropy_residual", worst >= -entropy_tol,
                                          worst, 0.0, entropy_tol))
    return report
