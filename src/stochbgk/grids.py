"""Uniform grids for the spatial box and the velocity interval.

The velocity spacing is snapped to a power of two so that the Maxwellian
cell-average lift and its inverse (integration in v) round-trip densities
bit for bit; see :mod:`stochbgk.fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centered uniform grid on the box [-L, L]^dim.

    Cell centers along each axis sit at ``x_i = -L + (i + 1/2) * h`` with
    ``h = 2L/n``.  Fields carried on the grid are zero outside the box.
    """

    dim: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 4:
            raise ConfigurationError(f"need at least 4 cells per axis, got {self.n}")
        if not self.half_width > 0:
            raise ConfigurationError(f"half_width must be positive, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def axis_centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.n) + 0.5) * self.h

    def centers(self) -> np.ndarray:
        """Coordinates of all cell centers, shape (*shape, dim)."""
        axes = np.meshgrid(*[self.axis_centers()] * self.dim, indexing="ij")
        return np.stack(axes, axis=-1)

    def compatible(self, other: "SpatialGrid") -> bool:
        return (
            self.dim == other.dim
            and self.n == other.n
            and self.half_width == other.half_width
        )


@dataclass(frozen=True)
class VelocityGrid:
    """Uniform grid on [-N, N] with an even cell count and dyadic spacing.

    ``N`` is rounded up from the requested bound so that ``dv = 2N/n_v`` is
    an exact power of two.  Cell edges are then exact floats ``(j - n_v/2)*dv``
    and v = 0 is always an edge, which keeps the kinetic sign structure exact.
    The support bound N >= ||rho||_inf required of the defect measure is
    preserved by rounding up.
    """

    bound: float
    n_v: int
    dv: float = field(init=False)

    def __post_init__(self):
        if self.n_v < 4 or self.n_v % 2 != 0:
            raise ConfigurationError(f"n_v must be an even integer >= 4, got {self.n_v}")
        cell = 2.0 * self.bound / self.n_v  # 0 or inf when the bound is extreme
        if not 0.0 < cell < math.inf:
            raise ConfigurationError(f"velocity bound must leave a positive finite cell "
                                     f"2 bound / n_v, got bound {self.bound}, n_v {self.n_v}")
        spacing = 2.0 ** math.ceil(math.log2(cell))
        object.__setattr__(self, "dv", spacing)
        object.__setattr__(self, "bound", (self.n_v // 2) * spacing)

    @classmethod
    def for_density_bound(cls, rho_max: float, n_v: int) -> "VelocityGrid":
        """Grid covering densities up to |rho| <= rho_max (zero data gets N=1)."""
        return cls(bound=rho_max if rho_max > 0 else 1.0, n_v=n_v)

    def edges(self) -> np.ndarray:
        # integer * power of two: exact floats
        return (np.arange(self.n_v + 1) - self.n_v // 2) * self.dv

    def centers(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def positive_cells(self) -> np.ndarray:
        """Boolean mask of cells contained in (0, N]."""
        return np.arange(self.n_v) >= self.n_v // 2

    def compatible(self, other: "VelocityGrid") -> bool:
        return self.n_v == other.n_v and self.dv == other.dv
