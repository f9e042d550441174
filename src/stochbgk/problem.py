"""Problem data: flux, advecting field, initial density, and presets.

A spec must satisfy the standing hypothesis "div b in L^inf and f' in L^inf,
or div b = 0".  Since solutions never leave |v| <= N, the f' bound is taken
over the solver's velocity range rather than all of R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .fields import DensityField
from .grids import SpatialGrid

Array = np.ndarray


@dataclass
class ProblemSpec:
    """Data (f, f', b, div b, rho0) and a bound on |div b|.

    ``b`` maps points of shape (..., dim) to vectors of the same shape;
    ``div_b`` maps them to scalars (...,).  ``rho0`` maps a SpatialGrid to a
    value array.  ``div_b_sup`` must be a correct upper bound on |div b|,
    0 exactly for divergence-free fields; it enters the growth rate C0.
    f' is only evaluated on the bounded velocity range, so the bound is the
    whole of the standing hypothesis.
    """

    dim: int
    f: Callable[[Array], Array]
    f_prime: Callable[[Array], Array]
    b: Callable[[Array], Array]
    div_b: Callable[[Array], Array]
    rho0: Callable[[SpatialGrid], Array]
    div_b_sup: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.div_b_sup < math.inf:
            raise ConfigurationError(
                f"div_b_sup is {self.div_b_sup}, must be finite and >= 0")

    @property
    def div_free(self) -> bool:
        return self.div_b_sup == 0.0

    def f_prime_sup(self, v_bound: float) -> float:
        """sup |f'| over [-v_bound, v_bound], by dense sampling."""
        v = np.linspace(-v_bound, v_bound, 4097)
        return float(np.max(np.abs(self.f_prime(v))))

    def growth_rate(self, v_bound: float) -> float:
        """C0 = ||f'||_inf * ||div b||_inf (zero for divergence-free b)."""
        if self.div_free:
            return 0.0
        return self.f_prime_sup(v_bound) * self.div_b_sup

    def b_on_grid(self, grid: SpatialGrid) -> Array:
        """b evaluated at all cell centers, shape (*grid.shape, dim)."""
        return np.asarray(self.b(grid.centers()), dtype=float)

    def initial_field(self, grid: SpatialGrid) -> DensityField:
        if grid.dim != self.dim:
            raise ConfigurationError(
                f"spec is {self.dim}-dimensional but grid is {grid.dim}-dimensional"
            )
        return DensityField(grid, np.asarray(self.rho0(grid), dtype=float))


# ---------------------------------------------------------------------------
# flux presets: (f, f')

def burgers_flux():
    return (lambda r: 0.5 * r * r), (lambda r: np.asarray(r, dtype=float))


def linear_flux():
    return (lambda r: np.asarray(r, dtype=float)), (lambda r: np.ones_like(np.asarray(r, dtype=float)))


# ---------------------------------------------------------------------------
# advecting-field presets: (b, div b, sup |div b|)

def constant_field(c):
    """b identically equal to the vector c (divergence free)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))

    def b(x):
        return np.broadcast_to(c, x.shape).copy()

    def div_b(x):
        return np.zeros(x.shape[:-1])

    return b, div_b, 0.0


def tanh_field_1d(amplitude=1.0, width=1.0):
    """1D b(x) = a tanh(x/w): bounded, Holder, div b = (a/w) sech^2 in L^inf."""

    def b(x):
        return amplitude * np.tanh(x / width)

    def div_b(x):
        return (amplitude / width) / np.cosh(x[..., 0] / width) ** 2

    return b, div_b, abs(amplitude / width)


def shear_field_2d(amplitude=1.0, width=1.0):
    """2D divergence-free shear b(x, y) = (a tanh(y/w), 0)."""

    def b(x):
        out = np.zeros_like(x)
        out[..., 0] = amplitude * np.tanh(x[..., 1] / width)
        return out

    def div_b(x):
        return np.zeros(x.shape[:-1])

    return b, div_b, 0.0


# ---------------------------------------------------------------------------
# initial-data presets (generators taking a SpatialGrid)

def riemann_data(left=1.0, right=0.0, x0=0.0):
    """1D jump from `left` to `right` at x0."""

    def gen(grid: SpatialGrid):
        x = grid.axis_centers()
        return np.where(x < x0, left, right)

    return gen


def plateau_data(height=1.0, a=-1.0, b=0.0):
    """1D indicator of [a, b] scaled by height (compactly supported)."""

    def gen(grid: SpatialGrid):
        x = grid.axis_centers()
        return np.where((x >= a) & (x <= b), height, 0.0)

    return gen


def bump_data(center=0.0, width=1.0, amplitude=1.0):
    """cos^2 bump supported on |x - center| <= width (1D or radial 2D)."""

    def gen(grid: SpatialGrid):
        pts = grid.centers()
        ctr = np.full(grid.dim, center) if np.isscalar(center) else np.asarray(center)
        r = np.linalg.norm(pts - ctr, axis=-1)
        out = np.zeros(grid.shape)
        m = r < width
        out[m] = amplitude * np.cos(0.5 * np.pi * r[m] / width) ** 2
        return out

    return gen


def random_bv_data(seed, pieces=8, amplitude=1.0, support=(-1.0, 1.0), floor=0.0):
    """Seeded 1D piecewise-constant profile on `support`, zero outside.

    Values are drawn in [floor, floor + amplitude]; useful for ordered pairs
    (same seed, different floor) and Holder-fit data.
    """

    def gen(grid: SpatialGrid):
        if grid.dim != 1:
            raise ConfigurationError("random_bv preset is 1D")
        rng = np.random.default_rng(seed)
        levels = floor + amplitude * rng.random(pieces)
        x = grid.axis_centers()
        lo, hi = support
        idx = np.floor((x - lo) / (hi - lo) * pieces).astype(int)
        inside = (idx >= 0) & (idx < pieces)
        out = np.zeros(grid.shape)
        out[inside] = levels[idx[inside]]
        return out

    return gen


def constant_data(value=1.0):
    def gen(grid: SpatialGrid):
        return np.full(grid.shape, float(value))

    return gen


# ---------------------------------------------------------------------------
# assembled spec presets

def make_spec(dim, flux, field, rho0):
    """A spec from a flux preset (f, f') and a field preset (b, div b, sup |div b|)."""
    f, f_prime = flux
    b, div_b, div_b_sup = field
    return ProblemSpec(dim=dim, f=f, f_prime=f_prime, b=b, div_b=div_b,
                       rho0=rho0, div_b_sup=div_b_sup)


def burgers_const_1d(rho0, c=1.0):
    """Burgers flux with constant b (the x-independent-flux regime)."""
    return make_spec(1, burgers_flux(), constant_field([c]), rho0)


def linear_const_1d(rho0, c=1.0):
    return make_spec(1, linear_flux(), constant_field([c]), rho0)


def burgers_tanh_1d(rho0, amplitude=1.0, width=1.0):
    return make_spec(1, burgers_flux(), tanh_field_1d(amplitude, width), rho0)
