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
not depend on the window.  The engine keeps u in one buffer padded with
two zero cells on each side of every spatial axis, (n + 4)^d x n_v: a step
gathers from it into fresh arrays, then zeros the window the buffer held
and writes the new one.  No step pads, scatters or scans the full state;
only snapshots do.  A window that
the box edge clips is the only way mass can leave the box, so both solvers
warn at the first step whose window is clipped.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
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
class Trajectory:
    """Snapshots, norms, defect, and provenance of one run; the picard_*
    fields are set by picard_solve only.

    Slab k of the kinetic defect measure runs from snapshot k to snapshot
    k + 1: ``slab_times[k]`` is its (start, end) and ``slab_mass[k]`` the sum
    of its steps' clamped dv-prefix fields times the cell volume and dv.
    ``min_entry`` is the most negative raw prefix entry of the run, or 0.0.
    """

    sgrid: SpatialGrid
    vgrid: VelocityGrid
    times: np.ndarray
    rho: np.ndarray                      # (n_snap, *grid shape)
    u_l1: np.ndarray                     # kinetic L1 norm per snapshot
    slab_times: list
    slab_mass: list
    min_entry: float
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

    In 1D the clip is left to take's clip mode, which saves a pass: the two
    padded cells at each end are rows of zeros, so a flat index beyond
    either end reads a zero, as the clipped base would.  A foot 2^63 or more
    cells out makes the cast to intp overflow, which NumPy warns about; the
    index it gives is still clipped to one end.
    """
    n = padded.shape[0] - 4
    # flat index steps of padded.ravel(), which is in C order whatever the strides
    steps = [math.prod(padded.shape[axis + 1:]) for axis in range(len(coords))]
    base, weights = None, []
    for s, step in zip(coords, steps):
        floor = np.floor(s)
        weights.append(s - floor)
        if len(coords) > 1:  # an axis's overflow must not reach the next one
            np.clip(floor, -2, n, out=floor)
        floor += 2
        index = floor.astype(np.intp)
        if step != 1:
            index *= step
        base = index if base is None else base + index
    if padded.ndim > len(coords):
        base = base + np.arange(padded.shape[-1])
    flat = padded.ravel()
    corners = [flat[sum(o * step for o, step in zip(offset, steps)):].take(base, mode="clip")
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
    c, b, d = sgrid.axis_centers(), b_grid[win], sgrid.dim
    # the centres of axis a, broadcast along axis a of the window
    x = [c[win[a]].reshape([-1 if axis == a else 1 for axis in range(d)] + [1])
         for a in range(d)]
    return _monotone_padded(padded, [(x[a] - dt * fp * b[..., a, None] - dB[a] - x0)
                                     / sgrid.h for a in range(d)])


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
        self.sgrid = SpatialGrid(dim=spec.dim, half_width=config.half_width, n=config.n)
        self.rho0 = spec.initial_field(self.sgrid)
        bound = config.v_bound if config.v_bound is not None else self.rho0.linf()
        self.vgrid = VelocityGrid.for_density_bound(bound, config.n_v)
        if self.rho0.linf() > self.vgrid.bound:
            raise ConfigurationError(
                f"initial density {self.rho0.linf()} exceeds velocity bound {self.vgrid.bound}"
            )
        self.b_grid = spec.b_on_grid(self.sgrid)
        self.fp = np.asarray(spec.f_prime(self.vgrid.centers()), dtype=float)
        self.alpha = math.exp(-config.dt / config.epsilon)
        # the frozen-density clip [min(0, rho0), max(0, rho0)]
        self.rho_bounds = (min(0.0, float(self.rho0.values.min())),
                           max(0.0, float(self.rho0.values.max())))
        # per axis, the most one step's drift dt f'(v) b_a(x) moves a foot
        self.drift = config.dt * float(np.max(np.abs(self.fp))) * np.max(
            np.abs(self.b_grid.reshape(-1, spec.dim)), axis=0)


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


def _window(support, reach, sgrid: SpatialGrid) -> tuple:
    """(window, edge): the cells a state with the given support can reach,
    and whether they cross the box edge.  The window is the support box
    widened on each axis a by ceil(reach[a]) + 2 cells and clipped to the
    box, empty when support is None.  reach[a] is in cells: for one engine
    step (|dB_a| + dt max|f'| max|b_a|)/h.  The window is the full box when
    a reach is not finite, so non-finite increments and drifts reach the
    engine's non-finite check.

    edge is True when that clip took effect on some axis, or a reach is not
    finite: mass of the state may then leave the box in the step, which the
    zero fill outside it loses.  It is False for an empty support.

    Each extent is rounded up to a multiple of n/128 cells, so successive
    steps allocate arrays of equal size that the allocator reuses: with
    exact extents the heap of a simulate-1d run (n = 2048) kept 6 MB free
    but resident, which raised the process's peak RSS by 5%.
    """
    if not all(math.isfinite(r) for r in reach):
        return _full_box(sgrid), True
    if support is None:
        return (slice(0, 0),) * sgrid.dim, False
    n, quantum = sgrid.n, max(1, sgrid.n // 128)
    win, edge = [], False
    for sl, r in zip(support, reach):
        r = math.ceil(r) + 2
        lo, hi = sl.start - r, sl.stop + r
        edge = edge or lo < 0 or hi > n
        lo, hi = max(lo, 0), min(hi, n)
        size = min(-(-(hi - lo) // quantum) * quantum, n)
        lo = min(lo, n - size)
        win.append(slice(lo, lo + size))
    return tuple(win), edge


def _warn_edge(step: int, time: float) -> None:
    # stacklevel 3 names the line that called the solver
    warnings.warn(f"padded box may be too small: the support can reach the box edge in "
                  f"step {step} (t = {time:.6g}); mass can leak at the boundary", stacklevel=3)


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

    At the first step whose window the box edge clips (_window's edge
    flag), where mass may leave the box, the run warns once, "padded box
    may be too small", naming the step and its end time.

    u lives in one zero-padded buffer of shape (n + 4)^d x n_v, laid out as
    _pad lays it out, so the gather reads it as it is.  The gather, the
    relaxation and the defect prefix return fresh arrays, so a step then
    zeros only the window the buffer held (at first the whole box) and
    writes the new window into it.  Every cell outside the window is +0.0,
    so the non-finite check reads the window's density, and the full
    density is built only at snapshots.  u_l1 sums np.abs of the
    interior, a fresh C-ordered array of the full shape, so np.sum's
    pairwise order, which depends on the shape, is that of a full-box step;
    for the same reason a slab's defect prefixes are added into the windows
    of one full-shape buffer, which each snapshot sums and zeros.
    """
    eng = _Engine(spec, config, path)
    n_steps = config.n_steps
    stride = config.snapshot_stride
    full = _full_box(eng.sgrid)
    buf = _pad(maxwellian_cell_average(eng.rho0.values, eng.vgrid), eng.sgrid.dim)
    u, held = buf[_in_padded(full)], full  # u views the buffer; held: the window it holds

    snap_times = [0.0]
    snaps = [eng.rho0.values.copy()]
    vol, dv = eng.sgrid.cell_volume, eng.vgrid.dv
    u_l1 = [float(np.sum(np.abs(u)) * vol * dv)]
    slab = np.zeros(u.shape)  # the open slab's summed defect prefix
    slab_times, slab_mass, min_entry = [], [], 0.0

    support, warned = _support(u, full), False
    for k in range(n_steps):
        t_next = (k + 1) * config.dt
        win, edge = _window(support, (np.abs(path.increments[k]) + eng.drift) / eng.sgrid.h,
                            eng.sgrid)
        u_tilde = _transport_values(buf, path.increments[k], config.dt, eng.sgrid,
                                    eng.fp, eng.b_grid, win)
        u_win, rho_win = _relax(u_tilde, eng.vgrid, eng.alpha, eng.rho_bounds)
        prefix, low = _defect_prefix(u_tilde, u_win, dv)
        min_entry = min(min_entry, low)  # 0.0 covers the +0.0 cells outside the window
        slab[win] += prefix
        if rho_win.size and not (np.isfinite(rho_win.max()) and np.isfinite(rho_win.min())):
            raise NumericalAbortError(
                f"non-finite density at step {k + 1} (t = {t_next})",
                step=k + 1, time=t_next,
            )
        if edge and not warned:
            _warn_edge(k + 1, t_next)
            warned = True
        buf[_in_padded(held)] = 0.0
        buf[_in_padded(win)] = u_win
        held = win
        support = _support(u, win)  # the window holds the whole support
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            slab_times.append((snap_times[-1], t_next))
            slab_mass.append(float(slab.sum()) * vol * dv)
            slab[...] = 0.0
            snap_times.append(t_next)
            snaps.append(np.zeros(eng.sgrid.shape))
            snaps[-1][win] = rho_win
            u_l1.append(float(np.sum(np.abs(u)) * vol * dv))

    return Trajectory(
        sgrid=eng.sgrid,
        vgrid=eng.vgrid,
        times=np.asarray(snap_times),
        rho=np.asarray(snaps),
        u_l1=np.asarray(u_l1),
        slab_times=slab_times,
        slab_mass=slab_mass,
        min_entry=min_entry,
        final_u=KineticField(eng.sgrid, eng.vgrid, np.ascontiguousarray(u)),
        path=path,
        spec=spec,
        config=config,
    )


# ---------------------------------------------------------------------------
# Picard / mild-form fixed point

# pair terms per Picard block: at criterion 9's finest rung (7 live v-cells,
# up to 1024 columns) a block array takes at most 0.34 MB.  In a process
# that runs only that ladder, the per-pair loop peaked at 70 MB, blocks of 6
# at 72 MB, of 16 at 75 MB and a whole row of pairs per block at 81 MB;
# blocks of 8, 12 or 16 were no faster than 6
_PAIR_BLOCK = 6


def _cell_shifts(vgrid: VelocityGrid, rows: slice = slice(None)) -> tuple:
    """The tables of _single_cell_maxwellian for the velocity cells rows:
    the edge of each cell nearer v = 0, w_hi for v < 0 and w_lo for v > 0,
    in dv units as a column, and the number of those cells with v < 0."""
    half = vgrid.n_v // 2
    start, stop, _ = rows.indices(vgrid.n_v)
    edges = vgrid.edges() / vgrid.dv
    shift = np.concatenate([edges[1:half + 1], edges[half:-1]])[start:stop]  # w_hi, then w_lo
    return shift[:, None], min(max(half - start, 0), stop - start)


def _single_cell_maxwellian(r: np.ndarray, shift: np.ndarray, neg: int) -> np.ndarray:
    """Cell average of chi_rho on one v-cell per row, in place: r holds
    densities in dv units, r = rho/dv, and its row j (axis -2) is the one
    seen by the j-th cell of _cell_shifts' (shift, neg).

    v = 0 is a cell edge, so with the cell edges w_lo < w_hi in dv units a
    row with v > 0 is clip(r - w_lo, 0, 1) and a row with v < 0 is
    clip(r - w_hi, -1, 0); a half without rows is not clipped.  Equals
    maxwellian_cell_average(rho).T on rows broadcast from one density, up
    to the sign of zero.
    """
    r -= shift
    if neg:
        np.clip(r[..., :neg, :], -1.0, 0.0, out=r[..., :neg, :])
    if neg < r.shape[-2]:
        np.clip(r[..., neg:, :], 0.0, 1.0, out=r[..., neg:, :])
    return r


def _live_rows(vgrid: VelocityGrid, rho_bounds) -> slice:
    """The v-cells that meet the open interval (rho_bounds[0], rho_bounds[1]),
    which holds 0: the only cells where the single-cell Maxwellian of a
    density in rho_bounds can be non-zero.  A cell (e_j, e_j+1) with v > 0
    holds clip((rho - e_j)/dv, 0, 1), a zero unless rho > e_j, and one with
    v < 0 holds a zero unless rho < e_j+1; the edges are exact."""
    edges = vgrid.edges()
    return slice(int(np.searchsorted(edges[1:], rho_bounds[0], side="right")),
                 int(np.searchsorted(edges[:-1], rho_bounds[1], side="left")))


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
    all windows in order.  The returned trajectory carries no defect slabs:
    this mode is a fidelity cross-check of the splitting engine, which owns
    the defect.

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

    Each pair term is evaluated only where it can be non-zero, and the
    bytes are those of full-shape terms.  Its rows are the v-cells of
    _live_rows(rho_bounds); the feet table and the tails have those rows
    only.  Its columns are the support of rho_l widened, as the engine's
    window is, by the reach |B(t_m) - B(t_l)| + (m - l) dt max|f'| max|b| of
    the feet, so every foot outside them reads zero cells of rho_l.  Every
    skipped term is a zero:
    * the lerp of zero cells is +0.0 for any signs of the zeros, and its
      single-cell Maxwellian is a zero;
    * the lerp of densities in rho_bounds stays in rho_bounds (see
      _monotone_1d), where the single-cell Maxwellian of a row outside the
      live ones is a zero;
    * u_start is a zero outside the live rows: a lift of rho0 there, or the
      last window's sums, so its tails there are +0.0.
    partial and acc start at +0.0.  A sum under round-to-nearest is -0.0
    only when both terms are, so they never hold -0.0, and adding a zero of
    either sign to them changes nothing.

    A sweep evaluates the pairs of one l at a time, l = sweep .. m_count - 1,
    in blocks of up to _PAIR_BLOCK consecutive m > l, with the bytes of one
    pair at a time.  A block is one (m, live rows, columns) array: one
    gather from the padded rho_l/dv, one lerp, one single-cell Maxwellian,
    one multiply by the slab weights and one add into the rows m of the
    sums, which thus take their terms in l order.  Its columns are the
    _window of the support of rho_l and of the largest reach of its pairs,
    which holds every column where one of its terms can be non-zero; any
    other column of a term reads zero cells of rho_l, so it is a zero as
    above.  The terms with l = sweep go into partial, the later ones into
    acc, a copy of it; both hold the live rows only, and each row m is
    widened to (n_v, n) with +0.0 before its density is summed.

    dv is a power of two, and scaling by a power of two commutes with
    rounding outside the subnormal range, so the lerp of rho/dv is the lerp
    of rho divided by dv bit for bit unless a value of the lerp is
    subnormal (non-zero and below 2^-1022 in magnitude) at one of the two
    scales.  That needs neighbouring densities closer than about
    2^-1022 max(1, dv)/w without being equal.

    The path nodes of a window are checked before its feet are built: a
    non-finite node raises NumericalAbortError, as run_simulation does,
    which also keeps every reach finite.

    Once every window has converged, step k gets run_simulation's edge
    warning from the _window of the support of rho_k and the reach
    (|B(t_k+1) - B(t_k)| + drift)/h; a block's window, whose reach spans up
    to a whole window of steps, is no such test.
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
    rows = _live_rows(eng.vgrid, eng.rho_bounds)
    cells = _cell_shifts(eng.vgrid, rows)
    fp = eng.fp[rows, None]
    drift = float(eng.drift[0])
    full = _full_box(eng.sgrid)

    u_final = maxwellian_cell_average(eng.rho0.values, eng.vgrid)  # u where the next window starts
    rho_hist = np.empty((n_steps + 1, n))
    rho_hist[0] = eng.rho0.values
    ratios, residuals = [], []

    win_start = 0
    while win_start < n_steps:
        win_end = min(win_start + n_win, n_steps)
        m_count = win_end - win_start
        win_nodes = nodes[win_start:win_end + 1, 0].tolist()  # B(t_m), m = 0..m_count
        bad = [m for m, b in enumerate(win_nodes) if not math.isfinite(b)]
        if bad:
            k = win_start + bad[0]
            raise NumericalAbortError(f"non-finite path at step {k} (t = {k * dt})",
                                      step=k, time=k * dt)
        # scaled inverse-flow feet s[l][m - l - 1] = (X^v_{t_m, t_l}(x_i) - x0)/h
        # for 0 <= l < m on the live rows, shape (rows, nx); one array per l
        s = [np.empty((m_count - l, fp.shape[0], n)) for l in range(m_count)]
        for m in range(1, m_count + 1):
            k_m = win_start + m
            y = centers[None, :] - nodes[k_m, 0]
            for k in range(k_m, win_start, -1):
                b_at = np.interp(y + nodes[k, 0], centers, bx, left=0.0, right=0.0)
                y = y - dt * fp * b_at
                l = k - 1 - win_start
                foot = s[l][m - l - 1]
                np.add(y, nodes[k - 1, 0], out=foot)
                foot -= x0
                foot /= h
        # exponential slab weights[l][m - l - 1] as (m_count - l, 1, 1) columns
        weights = [np.array([math.exp((l * dt + dt - m * dt) / eps)
                             - math.exp((l * dt - m * dt) / eps)
                             for m in range(l + 1, m_count + 1)])[:, None, None]
                   for l in range(m_count)]
        # the decayed initial state per m, rows 1..m_count
        u_start = _pad(u_final[:, rows], 1)
        tails = np.zeros((m_count + 1, fp.shape[0], n))
        for m in range(1, m_count + 1):
            tails[m] = math.exp(-m * dt / eps) * _monotone_1d(u_start, s[0][m - 1].T).T
        rho_iter = np.repeat(rho_hist[win_start][None, :], m_count + 1, axis=0)
        rho_pad = np.zeros((m_count + 1, n + 4))  # rho_iter / dv, rows padded by _pad
        # partial[m]: the pair terms of row m whose l is already final, on the
        # live rows, summed left to right in l as the full sum would be
        partial = np.zeros((m_count + 1, fp.shape[0], n))
        win_ratios, win_residuals = [], []

        def block(l, m0, m1):
            """(columns, terms) of the pairs (m, l), m0 <= m < m1, on the live
            rows: the columns whose feet can read a non-zero cell of rho_l,
            and the terms there, (m1 - m0, rows, columns)."""
            reach = max(abs(win_nodes[m] - win_nodes[l]) + (m - l) * drift
                        for m in range(m0, m1)) / h
            (cols,), _ = _window(support[l], (reach,), eng.sgrid)
            terms = _single_cell_maxwellian(
                _monotone_1d(rho_pad[l], s[l][m0 - l - 1:m1 - l - 1, :, cols]), *cells)
            terms *= weights[l][m0 - l - 1:m1 - l - 1]
            return cols, terms

        for sweep in range(config.picard_max_iters):
            # rows 0..sweep of rho_iter are final: row m reads only rows l < m
            np.divide(rho_iter, dv, out=rho_pad[:, 2:-2])
            support = {l: _support(rho_iter[l, :, None], full) for l in range(sweep, m_count)}
            rho_new = rho_iter.copy()
            delta = 0.0
            # one l at a time, so every row m takes its terms in l order: the
            # terms (m, sweep) are final and go into partial, the later ones
            # into a copy of it
            acc = partial
            for l in range(sweep, m_count):
                for m0 in range(l + 1, m_count + 1, _PAIR_BLOCK):
                    m1 = min(m0 + _PAIR_BLOCK, m_count + 1)
                    cols, terms = block(l, m0, m1)
                    acc[m0:m1, :, cols] += terms
                if l == sweep:
                    acc = partial.copy()
            acc[sweep + 1:] += tails[sweep + 1:]
            for m in range(sweep + 1, m_count + 1):
                u = np.zeros((eng.vgrid.n_v, n))
                u[rows] = acc[m]
                u_m = u.T  # (nx, nv)
                rho_new[m] = kinetic_density_values(u_m, dv)
                np.clip(rho_new[m], eng.rho_bounds[0], eng.rho_bounds[1], out=rho_new[m])
                if m == m_count:  # sweep 0 computes it first
                    u_final = u_m
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
        win_start = win_end

    for k in range(n_steps):
        reach = (abs(nodes[k + 1, 0] - nodes[k, 0]) + drift) / h
        if _window(_support(rho_hist[k, :, None], full), (reach,), eng.sgrid)[1]:
            _warn_edge(k + 1, (k + 1) * dt)
            break

    stride = config.snapshot_stride
    snap_idx = sorted(set(list(range(0, n_steps + 1, stride)) + [n_steps]))
    times = np.asarray([i * dt for i in snap_idx])
    snaps = rho_hist[snap_idx]
    final_u = KineticField(eng.sgrid, eng.vgrid, u_final)
    # kinetic state exists only at window boundaries here; the density L1 is
    # the exact lower bound for ||u||_1 and coincides for one-signed data
    u_l1 = np.asarray([float(np.sum(np.abs(r))) * eng.sgrid.cell_volume for r in snaps])
    return Trajectory(
        sgrid=eng.sgrid, vgrid=eng.vgrid, times=times, rho=snaps,
        u_l1=u_l1, slab_times=[], slab_mass=[], min_entry=0.0, final_u=final_u, path=path, spec=spec,
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
