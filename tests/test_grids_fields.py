"""Grids, the Maxwellian lift, norms, entropy pairs, and discrete BV."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochbgk.errors import ConfigurationError, RangeViolationError
from stochbgk.fields import (DensityField, density_from_kinetic, discrete_bv,
                             entropy_pair, kinetic_l1, lift_density, lp_norm,
                             maxwellian_cell_average)
from stochbgk.grids import SpatialGrid, VelocityGrid

from experiments import _region_slices


class TestGrids:
    def test_spatial_centers(self):
        g = SpatialGrid(dim=1, half_width=2.0, n=8)
        c = g.axis_centers()
        assert c[0] == -2.0 + 0.5 * g.h
        assert len(c) == 8
        assert np.isclose(c[-1], 2.0 - 0.5 * g.h)

    def test_spatial_validation(self):
        with pytest.raises(ConfigurationError):
            SpatialGrid(dim=3, half_width=1.0, n=8)
        with pytest.raises(ConfigurationError):
            SpatialGrid(dim=1, half_width=1.0, n=2)

    def test_velocity_spacing_is_power_of_two(self):
        for bound in (0.3, 0.9, 1.0, 1.7, 5.3):
            vg = VelocityGrid.for_density_bound(bound, 32)
            frac, _ = np.frexp(vg.dv)
            assert frac == 0.5  # exact power of two
            assert vg.bound >= bound
            assert vg.bound == vg.n_v // 2 * vg.dv

    def test_velocity_zero_is_an_edge(self):
        vg = VelocityGrid.for_density_bound(1.0, 16)
        assert 0.0 in vg.edges()

    def test_velocity_rejects_odd_or_tiny(self):
        with pytest.raises(ConfigurationError):
            VelocityGrid(bound=1.0, n_v=7)
        with pytest.raises(ConfigurationError):
            VelocityGrid(bound=1.0, n_v=2)

    @pytest.mark.parametrize("bound", [5e-324, 1e308])
    def test_velocity_bound_whose_cell_underflows_or_overflows_is_rejected(self, bound):
        # 2 * 5e-324 / 4 rounds to 0.0 and 2 * 1e308 to inf: no power-of-two
        # spacing exists for either
        with pytest.raises(ConfigurationError, match="velocity bound"):
            VelocityGrid.for_density_bound(bound, 4)


class TestMaxwellian:
    def setup_method(self):
        self.vg = VelocityGrid.for_density_bound(1.0, 16)

    def test_zero_density_is_zero(self):
        assert np.all(maxwellian_cell_average(0.0, self.vg) == 0.0)

    def test_full_indicator_at_bound(self):
        out = maxwellian_cell_average(self.vg.bound, self.vg)
        pos = self.vg.positive_cells()
        assert np.all(out[pos] == 1.0)
        assert np.all(out[~pos] == 0.0)

    def test_half_cell_overlap(self):
        rho = 0.5 * self.vg.dv
        out = maxwellian_cell_average(rho, self.vg)
        first_pos = self.vg.n_v // 2
        assert out[first_pos] == 0.5
        out[first_pos] = 0.0
        assert np.all(out == 0.0)

    def test_negative_density_sign_structure(self):
        out = maxwellian_cell_average(-0.7, self.vg)
        pos = self.vg.positive_cells()
        assert np.all(out[pos] == 0.0)
        assert np.all(out[~pos] <= 0.0)
        assert np.isclose(np.sum(out) * self.vg.dv, -0.7)

    def test_range_violation(self):
        with pytest.raises(RangeViolationError):
            maxwellian_cell_average(self.vg.bound * 1.0001, self.vg)

    @given(st.floats(-1.0, 1.0, allow_nan=False))
    def test_round_trip_is_bit_exact(self, rho):
        vg = VelocityGrid.for_density_bound(1.0, 16)
        out = maxwellian_cell_average(rho, vg)
        units = np.trunc(out)
        back = (np.sum(units) + np.sum(out - units)) * vg.dv
        assert back == rho

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    def test_field_round_trip_bit_exact(self, seed, nv_log):
        rng = np.random.default_rng(seed)
        grid = SpatialGrid(dim=1, half_width=1.0, n=16)
        vals = rng.uniform(-1.0, 1.0, grid.shape)
        field = DensityField(grid, vals)
        vg = VelocityGrid.for_density_bound(field.linf(), 2**nv_log * 2)
        back = density_from_kinetic(lift_density(field, vg))
        assert np.array_equal(back.values, field.values)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_chi_contraction_identity(self, a1, a2):
        # integral of |chi_a1 - chi_a2| dv equals |a1 - a2| at cell level
        vg = VelocityGrid.for_density_bound(1.0, 32)
        d = np.sum(np.abs(maxwellian_cell_average(a1, vg)
                          - maxwellian_cell_average(a2, vg))) * vg.dv
        assert d == pytest.approx(abs(a1 - a2), rel=1e-13, abs=1e-15)

    def test_lift_sign_structure_and_bounds(self):
        rng = np.random.default_rng(1)
        grid = SpatialGrid(dim=1, half_width=1.0, n=64)
        field = DensityField(grid, rng.uniform(-0.95, 0.95, grid.shape))
        vg = VelocityGrid.for_density_bound(1.0, 16)
        u = lift_density(field, vg)
        assert np.all(np.abs(u.values) <= 1.0)
        pos = vg.positive_cells()
        assert np.all(u.values[..., pos] >= 0.0)
        assert np.all(u.values[..., ~pos] <= 0.0)

    def test_2d_round_trip(self):
        rng = np.random.default_rng(7)
        grid = SpatialGrid(dim=2, half_width=1.0, n=8)
        field = DensityField(grid, rng.uniform(-0.5, 0.5, grid.shape))
        vg = VelocityGrid.for_density_bound(0.5, 8)
        back = density_from_kinetic(lift_density(field, vg))
        assert np.array_equal(back.values, field.values)


class TestEntropyPair:
    class _Identity:
        f = staticmethod(lambda r: np.asarray(r, dtype=float))

    class _Square:
        f = staticmethod(lambda r: 0.5 * np.asarray(r, dtype=float) ** 2)

    def test_identity_flux_example(self):
        eta, q = entropy_pair(3.0, 1.0, self._Identity())
        assert eta == 1.0
        assert q == 1.0

    def test_origin_is_neutral(self):
        eta, q = entropy_pair(0.0, 0.0, self._Identity())
        assert eta == 0.0 and q == 0.0

    def test_quadratic_flux_example(self):
        eta, q = entropy_pair(-2.0, 1.0, self._Square())
        assert eta == 2.0
        assert q == -2.0

    def test_vectorized(self):
        eta, q = entropy_pair(np.array([3.0, 0.0]), 1.0, self._Identity())
        assert np.allclose(eta, [1.0, 0.0])  # |0-1|-|1| = 0
        assert np.allclose(q, [1.0, 0.0])  # sgn(-1)(0-1) - 1 = 0


class TestDiscreteBV:
    def test_constant_is_zero(self):
        g = SpatialGrid(dim=1, half_width=1.0, n=32)
        assert discrete_bv(DensityField(g, np.full(32, 2.5))) == 0.0

    def test_step_height_independent_of_h(self):
        for n in (32, 128, 1024):
            g = SpatialGrid(dim=1, half_width=1.0, n=n)
            vals = np.where(g.axis_centers() < 0.0, 0.0, 1.0)
            assert discrete_bv(DensityField(g, vals)) == 1.0

    def test_sine_total_variation(self):
        g = SpatialGrid(dim=1, half_width=np.pi, n=1024)
        vals = np.sin(g.axis_centers())
        assert discrete_bv(DensityField(g, vals)) == pytest.approx(4.0, rel=0.02)

    def test_region_restriction_and_empty(self):
        # the region slices of the Holder fit and the commutator experiment
        g = SpatialGrid(dim=1, half_width=1.0, n=32)
        vals = np.where(g.axis_centers() < 0.0, 0.0, 1.0)
        inside = vals[_region_slices(g, ((0.2, 0.9),))]
        assert inside.size > 0 and np.all(np.diff(inside) == 0.0)
        assert vals[_region_slices(g, ((5.0, 6.0),))].size == 0
        assert _region_slices(g, None) == (slice(None),)

    @given(st.integers(0, 1000), st.floats(0.0, 10.0))
    def test_homogeneous_and_subadditive(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = SpatialGrid(dim=1, half_width=1.0, n=16)
        a = DensityField(g, rng.normal(size=16))
        b = DensityField(g, rng.normal(size=16))
        bv_a = discrete_bv(a)
        assert discrete_bv(DensityField(g, scale * a.values)) == pytest.approx(
            scale * bv_a, rel=1e-12, abs=1e-12)
        total = discrete_bv(DensityField(g, a.values + b.values))
        assert total <= bv_a + discrete_bv(b) + 1e-12


class TestNorms:
    def test_constant_field_norms(self):
        g = SpatialGrid(dim=1, half_width=2.0, n=64)  # volume 4
        f = DensityField(g, np.full(64, 3.0))
        assert lp_norm(f, 1) == pytest.approx(12.0)
        assert lp_norm(f, 2) == pytest.approx(3.0 * 2.0)
        assert lp_norm(f, np.inf) == 3.0

    def test_zero_field(self):
        g = SpatialGrid(dim=1, half_width=2.0, n=8)
        f = DensityField(g, np.zeros(8))
        for p in (1, 2, np.inf):
            assert lp_norm(f, p) == 0.0

    def test_single_cell_indicator(self):
        g = SpatialGrid(dim=2, half_width=1.0, n=8)
        vals = np.zeros((8, 8))
        vals[3, 4] = 1.0
        assert lp_norm(DensityField(g, vals), 1) == pytest.approx(g.h**2)

    def test_kinetic_l1_matches_density_for_signed_lift(self):
        g = SpatialGrid(dim=1, half_width=1.0, n=16)
        f = DensityField(g, np.abs(np.linspace(-0.8, 0.8, 16)))
        vg = VelocityGrid.for_density_bound(1.0, 16)
        u = lift_density(f, vg)
        assert kinetic_l1(u) == pytest.approx(lp_norm(f, 1), rel=1e-12)
