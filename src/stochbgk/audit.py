"""Executable checks of the quantitative solution properties.

Every check is a pure function of (trajectory, spec, tolerances): re-running
an audit on stored snapshots reproduces the report bit for bit.  The checks
a stored bundle supports (maximum principle, BV) take arrays, so the
``stochbgk audit`` re-audit calls the same functions as the live audit.
Stratonovich time integrals are discretized by the midpoint rule on path
increments; an Ito sum would introduce a spurious drift of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.ndimage import convolve1d

from .bgk import Trajectory
from .errors import ConfigurationError
from .fields import DensityField, _region_slices, discrete_bv, entropy_pair, lp_norm
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

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        on = (t > self.t_end - self.ramp) & (t < self.t_end)
        return np.where(on, -1.0 / self.ramp, 0.0)


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


@dataclass(frozen=True)
class TestFunctionFamily:
    """Bundle of nonnegative test functions used by the residual checks."""

    bumps: tuple
    ramp: TemporalRamp
    cutoff: VelocityCutoff

    @classmethod
    def default_for(cls, traj: Trajectory) -> "TestFunctionFamily":
        grid = traj.sgrid
        t_end = float(traj.times[-1])
        ramp = max(float(traj.times[1] - traj.times[0]) * 2, t_end / 8)
        widths = (0.5 * grid.half_width, 0.25 * grid.half_width)
        centers = [(0.0,) * grid.dim]
        if grid.dim == 1:
            centers += [(-0.4 * grid.half_width,), (0.4 * grid.half_width,)]
        bumps = tuple(SpatialBump(c, w) for c in centers for w in widths)
        return cls(bumps=bumps, ramp=TemporalRamp(t_end, ramp),
                   cutoff=VelocityCutoff(k=traj.vgrid.bound))


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


def entropy_residual(traj: Trajectory, rho_refs, bumps=None,
                     ramp: Optional[TemporalRamp] = None):
    """Worst signed residual of the entropy-inequality weak form.

    For each reference value k and spatial bump the residual assembles

        int dt int phi psi'(t) eta(rho)  +  int dt int Q div(b phi) psi
        + int phi psi(0) eta(rho0)  +  sum_i Strat( int d_i phi eta psi )

    which is nonnegative for entropy solutions up to quadrature error.
    The linear entropies +-rho are always included (weak-form identity), so
    restricting the family can only increase the minimum.
    Returns (worst value, list of per-entropy rows).
    """
    spec = traj.spec
    grid = traj.sgrid
    if bumps is None or ramp is None:
        fam = TestFunctionFamily.default_for(traj)
        bumps = bumps or fam.bumps
        ramp = ramp or fam.ramp
    pts = grid.centers()
    vol = grid.cell_volume
    times = traj.times
    wq = _trapezoid_weights(times)
    psi = ramp(times)
    b_nodes = traj.path_values_at_snapshots()
    b_grid = spec.b_on_grid(grid)
    div_b_grid = np.asarray(spec.div_b(pts), dtype=float)
    rows = []
    worst = np.inf
    entropies = [("lin+", None, +1.0), ("lin-", None, -1.0)]
    entropies += [(f"|r-{k:g}|", float(k), None) for k in rho_refs]
    for bump in bumps:
        if not bump.supported_inside(grid):
            raise ConfigurationError("test bump support touches the padded boundary")
        phi = bump(pts)
        gphi = bump.gradient(pts)
        div_bphi = div_b_grid * phi + np.sum(b_grid * gphi, axis=-1)
        sum_axes = tuple(range(grid.dim))
        for label, k, c0 in entropies:
            if k is None:
                eta_t = c0 * traj.rho
                q_t = c0 * spec.f(traj.rho)
            else:
                eta_t, q_t = entropy_pair(traj.rho, k, spec)
            e_phi = np.sum(eta_t * phi, axis=tuple(a + 1 for a in sum_axes)) * vol
            q_div = np.sum(q_t * div_bphi, axis=tuple(a + 1 for a in sum_axes)) * vol
            term_dt = _ramp_derivative_term(times, e_phi, ramp)
            term_q = float(np.sum(wq * psi * q_div))
            term_init = float(e_phi[0] * ramp(0.0))
            g_series = np.stack(
                [np.sum(eta_t * phi_g, axis=tuple(a + 1 for a in sum_axes)) * vol
                 for phi_g in np.moveaxis(gphi, -1, 0)], axis=-1)
            term_strat = _stratonovich_sum(g_series * psi[:, None], b_nodes)
            resid = term_dt + term_q + term_init + term_strat
            rows.append((label, bump.center, bump.width, resid))
            worst = min(worst, resid)
    return worst, rows


def kinetic_residual(traj: Trajectory, kinetic_snapshots: np.ndarray, defect_fields,
                     bump: SpatialBump, cutoff: VelocityCutoff) -> float:
    """Imbalance of the kinetic weak form, defect term included.

    ``kinetic_snapshots`` is u at ``traj.times``, shape (n_snap, *grid shape,
    n_v), and ``defect_fields`` each slab's summed defect prefix, shape
    (n_snap - 1, *grid shape, n_v); run_simulation keeps neither, and other
    shapes raise ConfigurationError.  With a cutoff constant on [-N, N] the
    defect term vanishes, the imbalance reduces to the transport identity,
    and ``defect_fields`` may be None.
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
    dpsi_v = cutoff.derivative(vg.centers())
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


def check_l1_growth(traj: Trajectory, spec: ProblemSpec) -> CheckResult:
    """||rho(t)||_1 <= ||u(t)||_1 <= e^{C0 t} ||rho0||_1 (1 + 1e-6)."""
    tol = 1e-6
    c0 = spec.growth_rate(traj.vgrid.bound)
    vol = traj.sgrid.cell_volume
    rho_l1 = np.sum(np.abs(traj.rho), axis=tuple(range(1, traj.rho.ndim))) * vol
    envelope = np.exp(c0 * traj.times) * rho_l1[0] * (1.0 + tol)
    ok_env = bool(np.all(traj.u_l1 <= envelope))
    ok_order = bool(np.all(rho_l1 <= traj.u_l1 * (1.0 + 1e-12) + 1e-300))
    measured = float(np.max(traj.u_l1 / np.maximum(envelope, 1e-300)))
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


def check_energy_defect_identity(traj: Trajectory, spec: ProblemSpec) -> CheckResult:
    """2 mass(m) matches ||rho0||_2^2 - ||rho(T)||_2^2 within 5 percent.

    Valid in the divergence-free regime; otherwise reported as skipped.
    """
    if not spec.div_free:
        return CheckResult("energy_defect", True, 0.0, 0.0, 0.0,
                           note="skipped: div b != 0")
    l2_0 = lp_norm(traj.initial(), 2) ** 2
    l2_t = lp_norm(traj.final(), 2) ** 2
    lhs = 2.0 * traj.defect.total_mass()
    rhs = l2_0 - l2_t
    tol = 0.05 * l2_0
    gap = abs(lhs - rhs)
    return CheckResult("energy_defect", gap <= tol, gap, tol, 0.05,
                       note=f"2m={lhs:.4g} dE={rhs:.4g}")


def check_defect_structure(traj: Trajectory, spec: ProblemSpec) -> CheckResult:
    """m >= -1e-12, support in [-N, N], mass within the a-priori envelope."""
    n_bound = traj.vgrid.bound
    c0 = spec.growth_rate(n_bound)
    t_end = float(traj.times[-1])
    rho0_l1 = lp_norm(traj.initial(), 1)
    envelope = math.sqrt(
        12.0 * n_bound**2 * (math.exp(2 * c0 * t_end) + 1.0
                             + c0**2 * t_end**2 * math.exp(2 * c0 * t_end))
    ) * rho0_l1
    mass = traj.defect.total_mass()
    ok = traj.defect.min_entry >= -1e-12 and mass <= envelope
    return CheckResult("defect_structure", ok, mass, envelope, 1e-12,
                       note=f"min entry {traj.defect.min_entry:.2e}")


def check_comparison(traj_lo: Trajectory, traj_hi: Trajectory) -> CheckResult:
    """Ordered initial data stay ordered: min(rho_hi - rho_lo) >= -1e-10."""
    if not np.array_equal(traj_lo.path.increments, traj_hi.path.increments):
        raise ConfigurationError("comparison runs must share the Brownian path")
    if not traj_lo.sgrid.compatible(traj_hi.sgrid):
        raise ConfigurationError("comparison runs must share the spatial grid")
    if not traj_lo.vgrid.compatible(traj_hi.vgrid):
        raise ConfigurationError("comparison runs must share the velocity grid")
    if np.any(traj_lo.rho[0] > traj_hi.rho[0]):
        raise ConfigurationError("initial data are not ordered")
    n = min(len(traj_lo.times), len(traj_hi.times))
    worst = float(np.min(traj_hi.rho[:n] - traj_lo.rho[:n]))
    return CheckResult("comparison", worst >= -1e-10, worst, 0.0, 1e-10)


def fit_holder_exponent(traj: Trajectory, region=None):
    """Log-log least squares of the L1 time modulus against dyadic lags.

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
    K = np.outer(k, k)
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
# standard audit bundle

def run_standard_audit(traj: Trajectory, spec: ProblemSpec,
                       entropy_tol: Optional[float] = None) -> AuditReport:
    """The default battery: max principle, L1 growth, BV, defect, energy,
    and (when a tolerance is supplied) the entropy residual."""
    report = AuditReport([check_max_principle(traj.rho), check_l1_growth(traj, spec),
                          check_bv_nonincrease(traj.rho, traj.sgrid, traj.spec),
                          check_defect_structure(traj, spec),
                          check_energy_defect_identity(traj, spec)])
    if entropy_tol is not None:
        n_bound = traj.vgrid.bound
        refs = [k * n_bound for k in (-0.75, -0.25, 0.0, 0.25, 0.5, 0.75)]
        worst, _ = entropy_residual(traj, refs)
        report.entries.append(CheckResult("entropy_residual", worst >= -entropy_tol,
                                          worst, 0.0, entropy_tol))
    return report
