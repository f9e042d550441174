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


def maxwellian_cell_average(rho, vgrid: VelocityGrid) -> np.ndarray:
    """Exact cell averages of chi_rho on the velocity grid.

    Accepts a scalar or an array of densities; the result appends the v-axis
    last.  Raises RangeViolationError if any |rho| exceeds the grid bound.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(np.abs(rho) > vgrid.bound):
        worst = float(np.max(np.abs(rho)))
        raise RangeViolationError(
            f"density {worst} exceeds velocity bound {vgrid.bound}"
        )
    r = rho / vgrid.dv  # exact: dv is a power of two
    w = np.arange(vgrid.n_v + 1, dtype=float) - vgrid.n_v // 2
    lo = np.minimum(r, 0.0)[..., None]
    hi = np.maximum(r, 0.0)[..., None]
    s = np.clip(w, lo, hi)
    frac = s[..., 1:] - s[..., :-1]
    return np.where((r >= 0)[..., None], frac, -frac)


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


def discrete_bv(rho: DensityField, region=None) -> float:
    """Sum over axes of |neighbor differences| * h^(dim-1) inside the region.

    Approximates the total variation; an empty region gives zero.
    """
    sl = _region_slices(rho.grid, region)
    vals = rho.values[sl]
    if vals.size == 0:
        return 0.0
    total = 0.0
    for axis in range(rho.grid.dim):
        total += float(np.sum(np.abs(np.diff(vals, axis=axis))))
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
