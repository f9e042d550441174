"""ProblemSpec validation and presets."""

import numpy as np
import pytest

from stochbgk.errors import ConfigurationError
from stochbgk.grids import SpatialGrid
from stochbgk.problem import (ProblemSpec, burgers_const_1d, burgers_flux,
                              burgers_tanh_1d, bump_data, constant_field,
                              linear_flux, plateau_data, random_bv_data,
                              riemann_data, shear_field_2d, tanh_field_1d)


@pytest.mark.parametrize("div_b_sup", [-0.5, np.inf, np.nan])
def test_div_b_sup_must_be_finite_and_nonnegative(div_b_sup):
    b, div_b, _ = constant_field([1.0])
    f, fp = burgers_flux()
    with pytest.raises(ConfigurationError, match="div_b_sup"):
        ProblemSpec(dim=1, f=f, f_prime=fp, b=b, div_b=div_b,
                    rho0=lambda g: np.zeros(g.shape), div_b_sup=div_b_sup)


def test_zero_bound_is_div_free():
    # amplitude 0 is b = 0, and its zero bound makes the spec divergence free
    assert burgers_tanh_1d(plateau_data(), amplitude=0.0).div_free


def test_presets_have_one_shape():
    assert all(len(flux()) == 2 for flux in (burgers_flux, linear_flux))
    fields = (constant_field([1.0]), tanh_field_1d(0.5, 2.0), shear_field_2d(0.5, 1.0))
    assert all(len(field) == 3 for field in fields)
    assert [field[2] for field in fields] == [0.0, 0.25, 0.0]


def test_growth_rate_zero_when_divfree():
    spec = burgers_const_1d(plateau_data(), c=3.0)
    assert spec.growth_rate(1.0) == 0.0


def test_growth_rate_burgers_tanh():
    spec = burgers_tanh_1d(bump_data(), amplitude=0.5, width=1.0)
    # sup |f'| over [-2, 2] is 2; sup |div b| = 0.5
    assert spec.growth_rate(2.0) == pytest.approx(1.0, rel=1e-3)


def test_dim_mismatch_rejected():
    spec = burgers_const_1d(plateau_data(), c=1.0)
    with pytest.raises(ConfigurationError):
        spec.initial_field(SpatialGrid(dim=2, half_width=1.0, n=8))


def test_riemann_and_plateau_generators():
    grid = SpatialGrid(dim=1, half_width=2.0, n=64)
    r = riemann_data(1.0, 0.0, 0.0)(grid)
    assert r[0] == 1.0 and r[-1] == 0.0
    p = plateau_data(2.0, -1.0, 0.0)(grid)
    x = grid.axis_centers()
    assert np.all(p[(x >= -1) & (x <= 0)] == 2.0)
    assert np.all(p[x > 0] == 0.0)


def test_bump_compact_support_2d():
    grid = SpatialGrid(dim=2, half_width=2.0, n=32)
    vals = bump_data((0.0, 0.0), 1.0, 0.7)(grid)
    pts = grid.centers()
    r = np.linalg.norm(pts, axis=-1)
    assert np.all(vals[r >= 1.0] == 0.0)
    assert vals.max() <= 0.7


def test_random_bv_deterministic_and_ordered():
    grid = SpatialGrid(dim=1, half_width=2.0, n=64)
    lo = random_bv_data(5, pieces=6, amplitude=0.5, floor=0.0)(grid)
    lo2 = random_bv_data(5, pieces=6, amplitude=0.5, floor=0.0)(grid)
    hi = random_bv_data(5, pieces=6, amplitude=0.5, floor=0.2)(grid)
    assert np.array_equal(lo, lo2)
    assert np.all(hi >= lo)
