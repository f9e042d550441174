"""Stochastic BGK time-marching: operator splitting and Picard fixed point.

One splitting step on a slab [t, t+dt]:

* transport: semi-Lagrangian update along the characteristics' inverse flow,
  u~(x, v) = u(x - dt f'(v) b(x) - dB, v), with monotone linear
  interpolation (in 2D clamped to the corner range) and zero fill outside
  the padded box;
* relaxation: exact one-slab solution of du/dt = (chi_rho - u)/eps with the
  density frozen, u <- M + exp(-dt/eps) (u~ - M) where M is the Maxwellian
  lift of rho~ = integral of u~ dv.

The relaxation jump u_after - u_before equals the slab time integral of
(chi - u)/eps for the frozen-density exponential integrator, so its
v-prefix sums are the slab's kinetic defect measure; they are nonnegative
by the sign structure of u.

The noise is spatially constant and the drift f'(v) b(x) has finite speed,
so a compactly supported state stays compactly supported: in one step its
support moves by at most ceil((|dB_a| + dt max|f'| max|b_a|)/h) cells along
axis a.  run_simulation therefore steps only a window, the bounding box of
the cells where u is non-zero widened by that reach plus two cells; every
cell outside it is +0.0 after a full-box step too, so the output bytes do
not depend on the window.  The engine keeps u in two buffers padded with
two zero cells on each side of every spatial axis, (n + 4)^d x n_v each:
a step gathers from one and writes its window into the other, after
zeroing there the window that buffer was given two steps before.  No step
pads, scatters or scans the full state; only snapshots do.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigurationError, NumericalAbortError, StructuralViolationError
from .fields import (DensityField, KineticField, kinetic_density_values,
                     maxwellian_cell_average)
from .grids import SpatialGrid, VelocityGrid
from .problem import ProblemSpec


@dataclass
class BGKConfig:
    """Numerical parameters of one BGK run.

    ``dt`` must match the driving path's resolution.  ``epsilon`` is the
    relaxation scale; dt <= epsilon is recommended (warning otherwise).
    ``window`` is the fixed-point restart length T1 for Picard mode, where
    exp(T1 C0) (1 - exp(-T1/eps)) < 1 must hold.  A run records rho, ||u||_1
    and a defect slab mass every ``snapshot_stride`` steps, and only the final u.
    """

    epsilon: float
    dt: float
    horizon: float
    half_width: float
    n: int
    n_v: int = 32
    v_bound: Optional[float] = None
    snapshot_stride: int = 1
    window: Optional[float] = None
    picard_tol: float = 1e-8
    picard_max_iters: int = 200

    def __post_init__(self):
        if self.epsilon <= 0 or self.dt <= 0 or self.horizon <= 0:
            raise ConfigurationError("epsilon, dt and horizon must be positive")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if self.picard_max_iters < 1:
            raise ConfigurationError("picard_max_iters must be >= 1")
        if self.dt > self.epsilon:
            warnings.warn(
                f"dt = {self.dt} exceeds epsilon = {self.epsilon}; the splitting "
                "remains stable but under-resolves the relaxation",
                stacklevel=2,
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class DefectAccumulator:
    """Nonnegative kinetic defect mass per time slab.

    Tracks the per-slab total mass and the most negative raw entry seen;
    each slab's (x, v) prefix field is summed in a buffer that close_slab
    reduces and drops.
    """

    cell_volume: float
    dv: float
    slab_times: list = field(default_factory=list)
    slab_mass: list = field(default_factory=list)
    min_entry: float = 0.0

    _buffer: Optional[np.ndarray] = None
    _buffer_start: float = 0.0

    def accumulate(self, prefix: np.ndarray, raw_min: float, t: float,
                   shape: tuple, win: tuple) -> None:
        """Add one step's clamped defect prefix (already scaled by dv in v),
        computed on the cells win of a field of the given shape; raw_min is
        the field's minimum before the clamp."""
        self.min_entry = min(self.min_entry, raw_min)
        if self._buffer is None:
            self._buffer = np.zeros(shape)
            self._buffer_start = t
        view = self._buffer[win]
        view += prefix

    def close_slab(self, t_end: float) -> None:
        if self._buffer is None:
            return
        self.slab_times.append((self._buffer_start, t_end))
        self.slab_mass.append(float(self._buffer.sum()) * self.cell_volume * self.dv)
        self._buffer = None

    def total_mass(self) -> float:
        return float(sum(self.slab_mass))


@dataclass
class Trajectory:
    """Snapshots, norms, defect, and provenance of one run; the picard_*
    fields are set by picard_solve only."""

    sgrid: SpatialGrid
    vgrid: VelocityGrid
    times: np.ndarray
    rho: np.ndarray                      # (n_snap, *grid shape)
    u_l1: np.ndarray                     # kinetic L1 norm per snapshot
    defect: DefectAccumulator
    final_u: KineticField
    path: BrownianPath
    spec: ProblemSpec
    config: BGKConfig
    picard_ratios: Optional[list] = None
    picard_bound: Optional[float] = None
    picard_residuals: Optional[list] = None  # per window, per iteration

    def snapshot(self, i: int) -> DensityField:
        return DensityField(self.sgrid, self.rho[i])

    def initial(self) -> DensityField:
        return self.snapshot(0)

    def final(self) -> DensityField:
        return self.snapshot(len(self.times) - 1)

    def path_values_at_snapshots(self) -> np.ndarray:
        nodes = self.path.values_at_nodes()
        idx = np.rint(self.times / self.path.dt).astype(int)
        return nodes[idx]


# ---------------------------------------------------------------------------
# interpolation kernels

def _pad(values: np.ndarray, d: int) -> np.ndarray:
    """values with two zero cells added on each side of its first d axes."""
    n = values.shape[0]
    padded = np.zeros((n + 4,) * d + values.shape[d:])
    padded[(slice(2, -2),) * d] = values
    return padded


def _padded_gather(padded: np.ndarray, coords):
    """Neighbour values and weights of monotone interpolation.

    ``padded`` comes from _pad: d spatial axes of n + 4 cells, optionally
    followed by the v-axis, which must then be the last axis of every
    coordinate array too, of the same length or of length 1 (one foot
    shared by every v-cell).  ``coords`` holds one array per spatial axis of
    scaled foot coordinates s = (foot - x0)/h.  Each axis gets one base index
    clip(floor(s), -2, n) + 2 and its upper neighbour is base + stride, so
    feet outside the box read the zero cells.  Returns the 2^d neighbour
    arrays, ordered by offset as in itertools.product((0, 1), repeat=d), and
    the d fractional weights s - floor(s).
    """
    n = padded.shape[0] - 4
    # flat index steps of padded.ravel(), which is in C order whatever the strides
    steps = [math.prod(padded.shape[axis + 1:]) for axis in range(len(coords))]
    base, weights = 0, []
    for s, step in zip(coords, steps):
        floor = np.floor(s)
        weights.append(s - floor)
        base = base + (np.clip(floor, -2, n) + 2).astype(np.intp) * step
    if padded.ndim > len(coords):
        base = base + np.arange(padded.shape[-1])
    flat = padded.ravel()
    corners = [flat[sum(o * step for o, step in zip(offset, steps)):].take(base)
               for offset in itertools.product((0, 1), repeat=len(coords))]
    return corners, weights


def _monotone_1d(padded: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Linear interpolation a + w (b - a) of padded 1D values at scaled
    coordinates s, between the neighbours a, b with w = s - floor(s).

    It needs no clamp: under round-to-nearest the result lies in
    [min(a, b), max(a, b)] whenever b - a is finite (kinetic values lie in
    [-1, 1]).  Proof.  Rounding is odd, fl(-x) = -fl(x), so a > b mirrors
    a <= b; take a <= b, d = fl(b - a) >= 0 and p = fl(w d) >= 0.
    * If b - a >= 2^-1021, d is normal and, for w <= 1 - 2^-53 (the largest
      double below 1), w d lies at least half the gap below d away from d,
      so p <= pred(d), the double below d.  As b - a rounds to d,
      pred(d) < b - a.
    * If b - a < 2^-1021, it is a multiple of 2^-1074 below 2^53 of them,
      so d = b - a exactly and p <= d.
    Either way a <= a + p <= b in exact arithmetic, and round-to-nearest is
    monotone with a and b representable, so a <= fl(a + p) <= b.  The signs
    of a and b play no part.  w = s - floor(s) is exact (Sterbenz) unless s
    is in (-1, 0), where it may round up to 1; there a is the zero pad cell
    below the box and the result is fl(0 + 1 (b - 0)) = b.

    The clamp this replaces changed only signs of zeros: the lerp of two
    zeros is +0.0, which the clamp made -0.0 when b = -0.0.  The lift of a
    negative density holds -0.0 in its v-cells outside [rho, 0].  The
    engine's outputs drop that sign.  The relaxation m + alpha (u~ - m) and
    the defect prefix (that value minus u~) are +0.0 for either zero and
    either sign of a zero m.  The density sums a cell's v-cells, so a
    clamped -0.0 density needs b = -0.0 in every v-cell; in the v-cell just
    below v = 0 no lift has a -0.0, and a relaxed state has one only where
    alpha u~ underflows from -2^-1074 beside m = -0.0.  Picard adds the
    values to sums that start at +0.0.
    """
    (a, b), (w,) = _padded_gather(padded, (s,))
    b -= a
    b *= w
    b += a
    return b


def _monotone_padded(padded: np.ndarray, coords) -> np.ndarray:
    """Monotone interpolation of padded values (from _pad: d spatial axes
    of n + 4 cells, then optionally the v-axis) at scaled coordinates, one
    array per spatial axis: the lerp for d = 1, bilinear clamped to the
    corner range for d = 2 (there the rounded sum can leave the range)."""
    if len(coords) == 1:
        return _monotone_1d(padded, coords[0])
    (c00, c01, c10, c11), (wx, wy) = _padded_gather(padded, coords)
    out = ((1 - wx) * (1 - wy) * c00 + wx * (1 - wy) * c10
           + (1 - wx) * wy * c01 + wx * wy * c11)
    lo = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
    hi = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
    return np.clip(out, lo, hi)


def _monotone(values: np.ndarray, coords) -> np.ndarray:
    """_monotone_padded of values (d spatial axes, then optionally the
    v-axis) with two zero cells padded on each side."""
    return _monotone_padded(_pad(values, len(coords)), coords)


# ---------------------------------------------------------------------------
# substeps (functional API)

def _transport_values(padded: np.ndarray, dB: np.ndarray, dt: float,
                      sgrid: SpatialGrid, fp: np.ndarray,
                      b_grid: np.ndarray, win: tuple) -> np.ndarray:
    """Semi-Lagrangian update of raw kinetic values (v-axis last, padded by
    _pad) on the cells win, one slice per spatial axis.

    The feet are built for the window only and gather from the whole padded
    array, so they may leave the window or the box.  When f' is constant
    over the velocity grid (a linear flux) every v-cell has the same foot,
    so the feet and weights are built with a v-axis of length 1 and the
    gather broadcasts them over the values' v-axis.
    """
    x0 = -sgrid.half_width + 0.5 * sgrid.h
    if np.all(fp == fp[0]):
        fp = fp[:1]
    x, b = sgrid.centers()[win], b_grid[win]
    return _monotone_padded(padded, [(x[..., a, None] - dt * fp * b[..., a, None] - dB[a] - x0)
                                     / sgrid.h for a in range(sgrid.dim)])


def _full_box(sgrid: SpatialGrid) -> tuple:
    return (slice(0, sgrid.n),) * sgrid.dim


def transport_substep(u: KineticField, t: float, dt: float,
                      path: BrownianPath, spec: ProblemSpec) -> KineticField:
    """Transport u along the characteristics over [t, t+dt] as one slab.

    Values are constant along characteristics between relaxation events;
    feet falling outside the padded box read zero (compact support).
    """
    # the sum of the slab's increments: on one path step, the engine's dB bit for bit
    dB = path.increments[path.node_index(t):path.node_index(t + dt)].sum(axis=0)
    fp = np.asarray(spec.f_prime(u.vgrid.centers()), dtype=float)
    b_grid = spec.b_on_grid(u.sgrid)
    new = _transport_values(_pad(u.values, u.sgrid.dim), dB, dt, u.sgrid, fp, b_grid,
                            _full_box(u.sgrid))
    return KineticField(u.sgrid, u.vgrid, new)


def relax_substep(u_tilde: KineticField, epsilon: float, dt: float,
                  rho_bounds=None) -> KineticField:
    """Exact one-slab relaxation toward the Maxwellian of the frozen density.

    u <- M + exp(-dt/eps) (u~ - M) with M the lift of rho~; the v-integral is
    conserved and a Maxwellian input is returned unchanged, bit for bit.
    ``rho_bounds`` clips the frozen density, by default to [-N, N]; the
    engine passes the sign range of rho0, which makes the discrete maximum
    principle exact.
    """
    if rho_bounds is None:
        rho_bounds = (-u_tilde.vgrid.bound, u_tilde.vgrid.bound)
    new, _ = _relax(u_tilde.values, u_tilde.vgrid, math.exp(-dt / epsilon), rho_bounds)
    return KineticField(u_tilde.sgrid, u_tilde.vgrid, new)


def _relax(values: np.ndarray, vgrid: VelocityGrid, alpha: float, rho_bounds):
    """The relaxation kernel: (M + alpha (u~ - M), frozen density clipped
    to rho_bounds) with M the lift of that density."""
    rho = kinetic_density_values(values, vgrid.dv)
    np.clip(rho, rho_bounds[0], rho_bounds[1], out=rho)
    m = maxwellian_cell_average(rho, vgrid)
    return m + alpha * (values - m), rho


def accumulate_defect(u_before_relax: KineticField, u_after_relax: KineticField,
                      epsilon: float, dt: float) -> np.ndarray:
    """Slab defect-measure values: dv-prefix sums of the relaxation jump.

    The jump u_after - u_before equals (1 - e^{-dt/eps})(M - u~), the exact
    slab integral of (chi_rho - u)/eps with rho frozen, so its prefix sums
    are the slab mass of m.  Entries below -1e-8 raise (solver bug); smaller
    negatives are roundoff and are clamped to zero.
    """
    if not (u_before_relax.sgrid.compatible(u_after_relax.sgrid)
            and u_before_relax.vgrid.compatible(u_after_relax.vgrid)):
        raise ConfigurationError("defect fields live on different grids")
    return _defect_prefix(u_before_relax.values, u_after_relax.values,
                          u_before_relax.vgrid.dv)[0]


def _defect_prefix(before: np.ndarray, after: np.ndarray, dv: float):
    """(clamped dv-prefix sums of after - before, raw minimum before the clamp)."""
    prefix = dv * np.cumsum(after - before, axis=-1)
    low = float(prefix.min()) if prefix.size else 0.0
    if low < -1e-8:
        raise StructuralViolationError(f"defect prefix reached {low}; m must be >= 0")
    np.maximum(prefix, 0.0, out=prefix)
    return prefix, low


# ---------------------------------------------------------------------------
# engine

def _build_grids(spec: ProblemSpec, config: BGKConfig):
    sgrid = SpatialGrid(dim=spec.dim, half_width=config.half_width, n=config.n)
    rho0 = spec.initial_field(sgrid)
    bound = config.v_bound if config.v_bound is not None else rho0.linf()
    vgrid = VelocityGrid.for_density_bound(bound, config.n_v)
    if rho0.linf() > vgrid.bound:
        raise ConfigurationError(
            f"initial density {rho0.linf()} exceeds velocity bound {vgrid.bound}"
        )
    return sgrid, vgrid, rho0


def _check_pad(rho0: DensityField, b_grid: np.ndarray, spec: ProblemSpec,
               config: BGKConfig, path: BrownianPath, v_bound: float) -> None:
    """Warn when the support, drifted at sup |f'| sup |b| over the grid and
    shifted by the path's reach, can come within two cells of the box edge."""
    vals = np.abs(rho0.values)
    if not np.any(vals > 0):
        return
    grid = rho0.grid
    c = grid.axis_centers()
    support = np.nonzero(vals > 0)
    reach = max(np.abs(c[axis]).max() for axis in support)
    nodes = path.values_at_nodes()
    k_end = path.node_index(min(config.horizon, path.horizon))
    noise_reach = float(np.max(np.abs(nodes[: k_end + 1]))) if k_end > 0 else 0.0
    speed = spec.f_prime_sup(v_bound) * float(np.max(np.linalg.norm(b_grid, axis=-1)))
    drift = speed * config.horizon
    needed = reach + drift + noise_reach + 2 * grid.h
    if needed > grid.half_width:
        warnings.warn(
            f"padded box may be too small: support+drift+noise reach {needed:.3g} "
            f"vs half width {grid.half_width:.3g}; mass can leak at the boundary",
            stacklevel=3,
        )


class _Engine:
    """Cached per-run state for the splitting loop."""

    def __init__(self, spec: ProblemSpec, config: BGKConfig, path: BrownianPath):
        if path.dim != spec.dim:
            raise ConfigurationError(
                f"path dim {path.dim} != spec dim {spec.dim}"
            )
        if not math.isclose(path.dt, config.dt, rel_tol=1e-12):
            raise ConfigurationError(
                f"path resolution {path.dt} != config dt {config.dt}"
            )
        if path.horizon < config.horizon - 1e-12:
            raise ConfigurationError("path horizon shorter than run horizon")
        self.sgrid, self.vgrid, self.rho0 = _build_grids(spec, config)
        self.b_grid = spec.b_on_grid(self.sgrid)
        self.fp = np.asarray(spec.f_prime(self.vgrid.centers()), dtype=float)
        self.alpha = math.exp(-config.dt / config.epsilon)
        # the frozen-density clip [min(0, rho0), max(0, rho0)]
        self.rho_bounds = (min(0.0, float(self.rho0.values.min())),
                           max(0.0, float(self.rho0.values.max())))
        # per axis, the most one step's drift dt f'(v) b_a(x) moves a foot
        self.drift = config.dt * float(np.max(np.abs(self.fp))) * np.max(
            np.abs(self.b_grid.reshape(-1, spec.dim)), axis=0)
        _check_pad(self.rho0, self.b_grid, spec, config, path, self.vgrid.bound)


def _support(u: np.ndarray, win: tuple):
    """Bounding box, one slice per spatial axis, of the cells of the window
    where u is non-zero in some v-cell; None when there are none."""
    nonzero = np.any(u[win] != 0, axis=-1)
    box = []
    for a, sl in enumerate(win):
        hits = np.flatnonzero(nonzero.any(axis=tuple(b for b in range(len(win)) if b != a)))
        if hits.size == 0:
            return None
        box.append(slice(sl.start + int(hits[0]), sl.start + int(hits[-1]) + 1))
    return tuple(box)


def _window(support, dB: np.ndarray, drift: np.ndarray, sgrid: SpatialGrid) -> tuple:
    """The cells one step can make non-zero: the support box widened on each
    axis by ceil((|dB_a| + drift_a)/h) + 2 cells and clipped to the box.
    The full box when that reach is not finite, so non-finite increments
    and drifts reach the engine's non-finite check.

    Each extent is rounded up to a multiple of n/128 cells, so successive
    steps allocate arrays of equal size that the allocator reuses: with
    exact extents the heap of a simulate-1d run (n = 2048) kept 6 MB free
    but resident, which raised the process's peak RSS by 5%.
    """
    reach = (np.abs(dB) + drift) / sgrid.h
    if not np.all(np.isfinite(reach)):
        return _full_box(sgrid)
    if support is None:
        return (slice(0, 0),) * sgrid.dim
    n, quantum = sgrid.n, max(1, sgrid.n // 128)
    win = []
    for sl, r in zip(support, (math.ceil(x) + 2 for x in reach)):
        lo, hi = max(sl.start - r, 0), min(sl.stop + r, n)
        size = min(-(-(hi - lo) // quantum) * quantum, n)
        lo = min(lo, n - size)
        win.append(slice(lo, lo + size))
    return tuple(win)


def _in_padded(win: tuple) -> tuple:
    """The cells win of the box as slices of a _pad-ed array."""
    return tuple(slice(sl.start + 2, sl.stop + 2) for sl in win)


def run_simulation(spec: ProblemSpec, config: BGKConfig,
                   path: BrownianPath) -> Trajectory:
    """March the BGK approximation over [0, horizon] and collect snapshots.

    Deterministic in (path, config, spec); aborts with diagnostics on
    non-finite values.

    Each step transports, relaxes and prefix-sums only the window of cells
    the state can reach: the bounding box of the cells where u is non-zero
    in some v-cell (u, not rho: a sign-changing u can have rho = 0), widened
    on axis a by ceil((|dB_a| + dt max|f'| max|b_a|)/h) + 2 cells, rounded up
    to a multiple of n/128 cells (see _window) and clipped to the box.  The
    window is the full box when that reach is not finite, so a non-finite
    increment or drift still aborts here.  The next support is searched
    inside the window only, since it cannot leave it.

    u lives in two zero-padded buffers of shape (n + 4)^d x n_v, laid out as
    _pad lays them out, so the gather reads one buffer as it is.  A step
    gathers from the current buffer, zeros in the other one only the window
    it was given two steps before (the initial buffer counts as holding the
    whole box), and writes the new window there.  Every cell outside the
    window is +0.0, so the non-finite check reads the window's density, and
    the full density is built only at snapshots.  u_l1 sums np.abs of the
    interior, a fresh C-ordered array of the full shape, so np.sum's
    pairwise order, which depends on the shape, is that of a full-box step.
    """
    eng = _Engine(spec, config, path)
    n_steps = config.n_steps
    stride = config.snapshot_stride
    u = maxwellian_cell_average(eng.rho0.values, eng.vgrid)
    full = _full_box(eng.sgrid)
    interior = _in_padded(full)
    bufs = [_pad(u, eng.sgrid.dim), np.zeros((eng.sgrid.n + 4,) * eng.sgrid.dim + u.shape[-1:])]
    held = [full, (slice(0, 0),) * eng.sgrid.dim]  # the window each buffer was given

    snap_times = [0.0]
    snaps = [eng.rho0.values.copy()]
    u_l1 = [float(np.sum(np.abs(u)) * eng.sgrid.cell_volume * eng.vgrid.dv)]
    defect = DefectAccumulator(cell_volume=eng.sgrid.cell_volume, dv=eng.vgrid.dv)

    support = _support(u, full)
    for k in range(n_steps):
        t_next = (k + 1) * config.dt
        src, dst = bufs[k % 2], bufs[(k + 1) % 2]
        win = _window(support, path.increments[k], eng.drift, eng.sgrid)
        u_tilde = _transport_values(src, path.increments[k], config.dt, eng.sgrid,
                                    eng.fp, eng.b_grid, win)
        u_win, rho_win = _relax(u_tilde, eng.vgrid, eng.alpha, eng.rho_bounds)
        prefix, low = _defect_prefix(u_tilde, u_win, eng.vgrid.dv)
        if win != full:
            low = min(low, 0.0)  # the +0.0 cells outside the window
        defect.accumulate(prefix, low, k * config.dt, u.shape, win)
        if rho_win.size and not (np.isfinite(rho_win.max()) and np.isfinite(rho_win.min())):
            raise NumericalAbortError(
                f"non-finite density at step {k + 1} (t = {t_next})",
                step=k + 1, time=t_next,
            )
        dst[_in_padded(held[(k + 1) % 2])] = 0.0
        dst[_in_padded(win)] = u_win
        held[(k + 1) % 2] = win
        u = dst[interior]
        support = _support(u, win)  # the window holds the whole support
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            defect.close_slab(t_next)
            snap_times.append(t_next)
            snaps.append(np.zeros(eng.sgrid.shape))
            snaps[-1][win] = rho_win
            u_l1.append(float(np.sum(np.abs(u)) * eng.sgrid.cell_volume * eng.vgrid.dv))

    return Trajectory(
        sgrid=eng.sgrid,
        vgrid=eng.vgrid,
        times=np.asarray(snap_times),
        rho=np.asarray(snaps),
        u_l1=np.asarray(u_l1),
        defect=defect,
        final_u=KineticField(eng.sgrid, eng.vgrid, np.ascontiguousarray(u)),
        path=path,
        spec=spec,
        config=config,
    )


# ---------------------------------------------------------------------------
# Picard / mild-form fixed point

def _single_cell_maxwellian(rho: np.ndarray, vgrid: VelocityGrid) -> np.ndarray:
    """Cell average of chi_rho on one v-cell per row: row j of rho (n_v, ...)
    holds the density seen by velocity cell j.

    v = 0 is a cell edge, so with r = rho/dv and the cell edges w_lo < w_hi
    in dv units a row with v > 0 is clip(r - w_lo, 0, 1) and a row with
    v < 0 is clip(r - w_hi, -1, 0).  Equals maxwellian_cell_average(rho).T
    on rows broadcast from one density, up to the sign of zero.
    """
    half = vgrid.n_v // 2
    edges = vgrid.edges() / vgrid.dv
    shift = np.concatenate([edges[1:half + 1], edges[half:-1]])  # w_hi, then w_lo
    r = rho / vgrid.dv
    r -= shift.reshape((-1,) + (1,) * (r.ndim - 1))
    np.clip(r[:half], -1.0, 0.0, out=r[:half])
    np.clip(r[half:], 0.0, 1.0, out=r[half:])
    return r


def contraction_bound(spec: ProblemSpec, window: float, epsilon: float,
                      v_bound: float) -> float:
    """exp(T1 C0) (1 - exp(-T1/eps)): the fixed-point map's Lipschitz bound."""
    c0 = spec.growth_rate(v_bound)
    return math.exp(window * c0) * (1.0 - math.exp(-window / epsilon))


def picard_solve(spec: ProblemSpec, config: BGKConfig,
                 path: BrownianPath) -> Trajectory:
    """Solve the mild fixed-point form window by window (1D).

    Each iterate evaluates the Duhamel integral along inverse characteristics
    with exact exponential slab weights; windows restart with the converged
    kinetic state.  Raises ConfigurationError when the window violates the
    contraction condition, reporting measured versus theoretical factors,
    and when the residual grows on three successive iterations of one window.
    ``picard_residuals`` holds each window's L1 residual per iteration and
    ``picard_ratios`` the quotients of successive residuals within a window,
    all windows in order.  The returned trajectory carries an empty defect
    accumulator: this mode is a fidelity cross-check of the splitting
    engine, which owns the defect.

    On a window, rho_m reads only rho_l with l < m: the map is strictly
    lower-triangular, hence nilpotent.  Row m is final after sweep m - 1,
    and the iterate is exact after m_count sweeps.  Sweep k therefore
    evaluates only rows m > k and, for each, only the pair terms l >= k; the
    terms with l < k are kept summed in l order, so the bytes are those of
    full sweeps.  At criterion 9's rungs (tol 1e-12) windows of 8 and 16
    steps run into that exact point: their last residual, sweep 9 and 17, is
    0.  A window of 32 steps stops by tolerance after 26-27 sweeps.  The
    ratio check of criterion 9 thus measures the contraction and the
    nilpotency together.
    """
    if spec.dim != 1:
        raise ConfigurationError("picard mode is implemented for 1D runs")
    eng = _Engine(spec, config, path)
    window = config.window if config.window is not None else config.horizon
    n_win = int(round(window / config.dt))
    if n_win < 1:
        raise ConfigurationError("window must cover at least one step")
    bound = contraction_bound(spec, n_win * config.dt, config.epsilon, eng.vgrid.bound)
    if bound >= 1.0:
        raise ConfigurationError(
            f"contraction condition fails: exp(T1 C0)(1 - e^(-T1/eps)) = {bound:.3f} >= 1"
        )
    n_steps = config.n_steps
    dt, eps = config.dt, config.epsilon
    n, h, dv = config.n, eng.sgrid.h, eng.vgrid.dv
    x0 = -eng.sgrid.half_width + 0.5 * h
    centers = eng.sgrid.axis_centers()
    nodes = path.values_at_nodes()
    bx = eng.b_grid[:, 0]
    shape = (eng.vgrid.n_v, n)

    u0_vals = maxwellian_cell_average(eng.rho0.values, eng.vgrid)
    rho_hist = np.empty((n_steps + 1, n))
    rho_hist[0] = eng.rho0.values
    u_hist = [u0_vals]
    ratios, residuals = [], []

    win_start = 0
    while win_start < n_steps:
        win_end = min(win_start + n_win, n_steps)
        m_count = win_end - win_start
        # scaled inverse-flow feet s[m][l] = (X^v_{t_m, t_l}(x_i) - x0)/h for
        # 0 <= l < m, shape (nv, nx); one block per m
        s = [np.empty((m,) + shape) for m in range(m_count + 1)]
        for m in range(1, m_count + 1):
            k_m = win_start + m
            y = centers[None, :] - nodes[k_m, 0]
            for k in range(k_m, win_start, -1):
                b_at = np.interp(y + nodes[k, 0], centers, bx, left=0.0, right=0.0)
                y = y - dt * eng.fp[:, None] * b_at
                foot = s[m][k - 1 - win_start]
                np.add(y, nodes[k - 1, 0], out=foot)
                foot -= x0
                foot /= h
        # exponential slab weights and the decayed initial state per m
        weights = [[math.exp((l * dt + dt - m * dt) / eps) - math.exp((l * dt - m * dt) / eps)
                    for l in range(m)] for m in range(m_count + 1)]
        u_start = _pad(u_hist[-1], 1)
        tails = [None] + [math.exp(-m * dt / eps) * _monotone_1d(u_start, s[m][0].T).T
                          for m in range(1, m_count + 1)]
        rho_iter = np.repeat(rho_hist[win_start][None, :], m_count + 1, axis=0)
        rho_pad = np.zeros((m_count + 1, n + 4))
        # partial[m]: the pair terms of row m whose l is already final, summed
        # left to right in l as the full sum would be
        partial = np.zeros((m_count + 1,) + shape)
        win_ratios, win_residuals = [], []
        u_last = None  # sweep 0 computes row m_count

        def pair(m, l):
            cell = _single_cell_maxwellian(_monotone_1d(rho_pad[l], s[m][l]), eng.vgrid)
            cell *= weights[m][l]
            return cell

        for sweep in range(config.picard_max_iters):
            # rows 0..sweep of rho_iter are final: row m reads only rows l < m
            rho_pad[:, 2:-2] = rho_iter
            rho_new = rho_iter.copy()
            delta = 0.0
            for m in range(sweep + 1, m_count + 1):
                partial[m] += pair(m, sweep)
                acc = partial[m].copy()
                for l in range(sweep + 1, m):
                    acc += pair(m, l)
                acc += tails[m]
                u_m = acc.T  # (nx, nv)
                rho_new[m] = kinetic_density_values(u_m, dv)
                np.clip(rho_new[m], eng.rho_bounds[0], eng.rho_bounds[1], out=rho_new[m])
                if m == m_count:
                    u_last = u_m
                delta = max(delta, float(np.sum(np.abs(rho_new[m] - rho_iter[m]))) * eng.sgrid.cell_volume)
            # frozen rows would add exact zeros to delta
            win_residuals.append(delta)
            if len(win_residuals) > 1 and win_residuals[-2] > 0:
                win_ratios.append(delta / win_residuals[-2])
                if len(win_ratios) >= 3 and all(r > 1.0 for r in win_ratios[-3:]):
                    raise ConfigurationError(
                        f"picard iteration diverges: measured factor {win_ratios[-1]:.3f} "
                        f"vs contraction bound {bound:.3f}"
                    )
            rho_iter = rho_new
            if delta < config.picard_tol:
                break
        else:
            warnings.warn(
                f"picard window [{win_start * dt:.4g}, {win_end * dt:.4g}] hit "
                f"max_iters with residual {delta:.3g}", stacklevel=2)
        ratios += win_ratios
        residuals.append(win_residuals)
        rho_hist[win_start + 1: win_end + 1] = rho_iter[1:]
        u_hist.append(u_last)
        win_start = win_end

    stride = config.snapshot_stride
    snap_idx = sorted(set(list(range(0, n_steps + 1, stride)) + [n_steps]))
    times = np.asarray([i * dt for i in snap_idx])
    snaps = rho_hist[snap_idx]
    final_u = KineticField(eng.sgrid, eng.vgrid, u_hist[-1])
    defect = DefectAccumulator(cell_volume=eng.sgrid.cell_volume, dv=dv)
    # kinetic state exists only at window boundaries here; the density L1 is
    # the exact lower bound for ||u||_1 and coincides for one-signed data
    u_l1 = np.asarray([float(np.sum(np.abs(r))) * eng.sgrid.cell_volume for r in snaps])
    return Trajectory(
        sgrid=eng.sgrid, vgrid=eng.vgrid, times=times, rho=snaps,
        u_l1=u_l1, defect=defect, final_u=final_u, path=path, spec=spec,
        config=config, picard_ratios=ratios, picard_bound=bound,
        picard_residuals=residuals,
    )


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
        if eps < config.dt:
            warnings.warn(f"epsilon {eps} below dt {config.dt}", stacklevel=2)
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
