"""Density and kinetic fields, the Maxwellian lift, norms, and discrete BV.

The kinetic representative of a density rho is the signed indicator
``chi_rho(v) = 1_(0,rho)(v) - 1_(rho,0)(v)``; its v-integral recovers rho.
On the dyadic velocity grid the lift stores exact cell-overlap fractions and
``density_from_kinetic`` inverts it bit for bit:

* with ``dv`` a power of two, ``r = rho/dv`` is an exact scaling;
* cell edges in r-units are small integers, so every overlap fraction is an
  exact float (the single partial cell via Sterbenz subtraction);
* the integral is summed as (signed full-cell count) + (fractional parts),
  one rounding of a value that is exactly representable, then one exact
  scaling by dv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, RangeViolationError, StructuralViolationError
from .grids import SpatialGrid, VelocityGrid


@dataclass
class DensityField:
    """Gridded macroscopic density rho on a spatial box."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"density shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise RangeViolationError("density field contains non-finite values")

    def linf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass
class KineticField:
    """Cell-averaged kinetic density u(x, v) with values in [-1, 1].

    Velocity is the last axis.  Cells with v > 0 carry values in [0, 1] and
    cells with v < 0 carry values in [-1, 0] (sign structure).
    """

    sgrid: SpatialGrid
    vgrid: VelocityGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.sgrid.shape + (self.vgrid.n_v,)
        if self.values.shape != expected:
            raise GridMismatchError(
                f"kinetic shape {self.values.shape} != expected {expected}"
            )


def _cell_shifts(vgrid: VelocityGrid, rows: slice = slice(None)) -> tuple:
    """The tables of _single_cell_maxwellian for the velocity cells rows:
    the edge of each cell nearer v = 0, w_hi for v < 0 and w_lo for v > 0,
    in dv units, and the number of those cells with v < 0."""
    half = vgrid.n_v // 2
    start, stop, _ = rows.indices(vgrid.n_v)
    edges = vgrid.edges() / vgrid.dv
    shift = np.concatenate([edges[1:half + 1], edges[half:-1]])[start:stop]  # w_hi, then w_lo
    return shift, min(max(half - start, 0), stop - start)


def _single_cell_maxwellian(r: np.ndarray, shift: np.ndarray, neg: int) -> np.ndarray:
    """Cell average of chi_rho on one v-cell per entry of the last axis,
    the cells of _cell_shifts' (shift, neg), in place: r holds densities in
    dv units, r = rho/dv, and its j-th entry along the last axis is the one
    seen by the j-th cell.  The lift and the engine's relaxation pass rho/dv
    repeated along the v-axis; picard_solve's pair terms hold the
    interpolated rho_l/dv of each row there.

    v = 0 is a cell edge, so with the cell edges w_lo < w_hi in dv units a
    cell with v > 0 is clip(r - w_lo, 0, 1) and a cell with v < 0 is
    clip(r - w_hi, -1, 0); a half without cells is not clipped.  The
    edges are small integers, so each value is exact.  A cell outside
    [min(rho, 0), max(rho, 0)] is +0.0, save the two cells next to v = 0
    when r is -0.0, which are -0.0.
    """
    r -= shift
    if neg:
        np.clip(r[..., :neg], -1.0, 0.0, out=r[..., :neg])
    if neg < shift.shape[0]:
        np.clip(r[..., neg:], 0.0, 1.0, out=r[..., neg:])
    return r


def _check_density_bound(rho: np.ndarray, vgrid: VelocityGrid) -> None:
    """Raise RangeViolationError if any |rho| exceeds the grid bound."""
    if np.any(np.abs(rho) > vgrid.bound):
        worst = float(np.max(np.abs(rho)))
        raise RangeViolationError(
            f"density {worst} exceeds velocity bound {vgrid.bound}"
        )


def maxwellian_cell_average(rho, vgrid: VelocityGrid) -> np.ndarray:
    """Exact cell averages of chi_rho on the velocity grid, by
    _single_cell_maxwellian on every v-cell.

    Accepts a scalar or an array of densities; the result appends the v-axis
    last and holds no -0.0.  Raises RangeViolationError if any |rho|
    exceeds the grid bound.
    """
    rho = np.asarray(rho, dtype=float)
    _check_density_bound(rho, vgrid)
    # exact, as dv is a power of two; + 0.0 makes a -0.0 density +0.0
    r = np.repeat((rho / vgrid.dv + 0.0)[..., None], vgrid.n_v, axis=-1)
    return _single_cell_maxwellian(r, *_cell_shifts(vgrid))


def lift_density(field: DensityField, vgrid: VelocityGrid) -> KineticField:
    """Maxwellian lift of a whole density field."""
    return KineticField(field.grid, vgrid, maxwellian_cell_average(field.values, vgrid))


def kinetic_density_values(values: np.ndarray, dv: float) -> np.ndarray:
    """Integrate kinetic cell averages over v: rho = dv * sum_j u_j.

    Summed as signed-unit part plus fractional part so that integrating a
    Maxwellian lift returns the original density bit for bit.
    """
    units = np.trunc(values)
    rho_units = np.sum(units, axis=-1) + np.sum(values - units, axis=-1)
    return rho_units * dv


def density_from_kinetic(u: KineticField) -> DensityField:
    """Exact inverse of the Maxwellian lift (round-trip identity)."""
    return DensityField(u.sgrid, kinetic_density_values(u.values, u.vgrid.dv))


def check_kinetic_structure(u: KineticField, tol: float = 0.0) -> None:
    """Raise if sgn(v) * u < -tol anywhere or |u| > 1 + tol."""
    vals = u.values
    if np.any(np.abs(vals) > 1.0 + tol):
        raise StructuralViolationError("kinetic field leaves [-1, 1]")
    pos = u.vgrid.positive_cells()
    if np.any(vals[..., pos] < -tol) or np.any(vals[..., ~pos] > tol):
        raise StructuralViolationError("kinetic sign structure violated")


def entropy_pair(rho, v, spec):
    """Kruzkov entropy eta(rho, v) = |rho - v| - |v| and its flux Q.

    Q(rho, v) = sgn(rho - v) [f(rho) - f(v)] - sgn(v) f(v), with sgn(0) = 0.
    ``spec`` only needs a callable attribute ``f``.
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    eta = np.abs(rho - v) - np.abs(v)
    f = spec.f
    q = np.sign(rho - v) * (f(rho) - f(v)) - np.sign(v) * f(v)
    return eta, q


def discrete_bv(rho: DensityField) -> float:
    """Sum over axes of |neighbor differences| * h^(dim-1): approximates
    the total variation."""
    total = 0.0
    for axis in range(rho.grid.dim):
        total += float(np.sum(np.abs(np.diff(rho.values, axis=axis))))
    return total * rho.grid.h ** (rho.grid.dim - 1)


def lp_norm(field: DensityField, p) -> float:
    """Grid L^p norm: (sum |rho|^p h^d)^(1/p); exact max for p = inf."""
    vals = field.values
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    vol = field.grid.cell_volume
    if p == 1:
        return float(np.sum(np.abs(vals)) * vol)
    if p == 2:
        return float(np.sqrt(np.sum(vals * vals) * vol))
    raise ValueError(f"p must be 1, 2 or inf, got {p}")


def kinetic_l1(u: KineticField) -> float:
    """L^1 norm of a kinetic field over (x, v)."""
    return float(np.sum(np.abs(u.values)) * u.sgrid.cell_volume * u.vgrid.dv)
