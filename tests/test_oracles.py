"""Reference solvers: Godunov, exact Riemann, shift reduction, characteristics."""

import hashlib

import numpy as np
import pytest

from stochbgk.brownian import sample_path
from stochbgk.errors import ConfigurationError
from stochbgk.fields import DensityField
from stochbgk.grids import SpatialGrid
from stochbgk.oracles import (burgers_godunov_flux, exact_riemann_burgers,
                              godunov_flux, godunov_solve,
                              kruzkov_cell_entropy_residuals,
                              linear_characteristics_oracle,
                              shift_reduction_oracle)
from stochbgk.problem import (bump_data, constant_field, linear_const_1d,
                              linear_flux, make_spec, plateau_data, riemann_data,
                              shear_field_2d, tanh_field_1d)

BURGERS = staticmethod(lambda r: 0.5 * r * r)


def _field(gen, n=256, L=3.0):
    grid = SpatialGrid(dim=1, half_width=L, n=n)
    return DensityField(grid, gen(grid))


class TestGodunovFlux:
    def test_scan_matches_closed_form_burgers(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, 50)
        b = rng.uniform(-2, 2, 50)
        f = lambda r: 0.5 * r * r
        assert np.allclose(godunov_flux(f, a, b), burgers_godunov_flux(a, b),
                           atol=1e-12)

    def test_consistency(self):
        f = lambda r: 0.5 * r * r
        assert godunov_flux(f, 0.7, 0.7) == pytest.approx(0.5 * 0.49)


class TestGodunovSolve:
    def test_cfl_violation_raises(self):
        rho0 = _field(riemann_data(1.0, 0.0))
        with pytest.raises(ConfigurationError):
            godunov_solve(lambda r: 0.5 * r * r, rho0, dt=10 * rho0.grid.h,
                          horizon=0.1, flux_sup_speed=1.0)

    def test_shock_position_rankine_hugoniot(self):
        rho0 = _field(plateau_data(1.0, -2.0, 0.0), n=512)
        h = rho0.grid.h
        T = 0.6
        times, snaps = godunov_solve(lambda r: 0.5 * r * r, rho0, dt=0.4 * h,
                                     horizon=T, flux_sup_speed=1.0)
        x = rho0.grid.axis_centers()
        # shock from the down-jump at 0 travels at speed 1/2
        above = np.nonzero(snaps[-1] > 0.5)[0]
        crossing = x[above[-1]]
        assert abs(crossing - 0.5 * T) <= 2 * h

    def test_rarefaction_l1_error(self):
        rho0 = _field(riemann_data(0.0, 1.0), n=512)
        h = rho0.grid.h
        T = 0.5
        times, snaps = godunov_solve(lambda r: 0.5 * r * r, rho0, dt=0.4 * h,
                                     horizon=T, flux_sup_speed=1.0)
        x = rho0.grid.axis_centers()
        exact = exact_riemann_burgers(0.0, 1.0, x / T)
        err = np.sum(np.abs(snaps[-1] - exact)) * h
        # boundary erosion from the zero ghost cells stays near x = 3
        interior = np.abs(x) < 2.0
        err_int = np.sum(np.abs(snaps[-1] - exact)[interior]) * h
        assert err_int <= 5 * h * (1 + abs(np.log(h)))

    def test_linear_advection_translation(self):
        rho0 = _field(bump_data(0.0, 1.0, 1.0), n=512)
        h = rho0.grid.h
        T = 0.5
        times, snaps = godunov_solve(lambda r: 0.8 * r, rho0, dt=0.5 * h,
                                     horizon=T, flux_sup_speed=0.8)
        x = rho0.grid.axis_centers()
        exact = np.interp(x - 0.8 * T, x, rho0.values, left=0.0, right=0.0)
        assert np.sum(np.abs(snaps[-1] - exact)) * h <= 0.1

    def test_discrete_kruzkov_inequality(self):
        rho0 = _field(plateau_data(1.0, -1.0, 0.0), n=256)
        h = rho0.grid.h
        dt = 0.4 * h
        times, snaps = godunov_solve(lambda r: 0.5 * r * r, rho0, dt=dt,
                                     horizon=0.3, flux_sup_speed=1.0)
        worst = kruzkov_cell_entropy_residuals(
            lambda r: 0.5 * r * r, snaps, dt, h, k_values=[0.0, 0.25, 0.5, 0.75])
        assert worst <= 1e-12

    def test_max_principle(self):
        rho0 = _field(plateau_data(1.0, -1.0, 0.0), n=256)
        times, snaps = godunov_solve(lambda r: 0.5 * r * r, rho0,
                                     dt=0.4 * rho0.grid.h, horizon=0.3,
                                     flux_sup_speed=1.0)
        assert np.max(np.abs(snaps)) <= 1.0 + 1e-14


class TestExactRiemann:
    def test_shock_side_selection(self):
        assert exact_riemann_burgers(1.0, 0.0, 0.4) == 1.0
        assert exact_riemann_burgers(1.0, 0.0, 0.6) == 0.0

    def test_inside_fan(self):
        assert exact_riemann_burgers(0.0, 1.0, 0.5) == 0.5

    def test_constant_states(self):
        for xi in (-3.0, 0.0, 2.0):
            assert exact_riemann_burgers(0.7, 0.7, xi) == 0.7


class TestShiftReduction:
    def test_zeroed_path_reduces_to_godunov(self):
        rho0 = _field(plateau_data(1.0, -1.0, 0.0), n=256)
        path = sample_path(5, 0.005, 0.3, dim=1).zeroed()
        times, shifted = shift_reduction_oracle(
            lambda r: 0.5 * r * r, rho0, path, 0.3, flux_sup_speed=1.0)
        sub = max(1, int(np.ceil(path.dt / (0.4 * rho0.grid.h) - 1e-12)))
        _, plain = godunov_solve(lambda r: 0.5 * r * r, rho0, dt=path.dt / sub,
                                 horizon=0.3, flux_sup_speed=1.0,
                                 snapshot_stride=sub)
        assert np.allclose(shifted[-1], plain[-1], atol=1e-12)

    def test_shock_tracks_brownian_shift(self):
        rho0 = _field(plateau_data(1.0, -2.0, 0.0), n=512)
        h = rho0.grid.h
        T = 0.4
        path = sample_path(12, 0.002, T, dim=1)
        times, snaps = shift_reduction_oracle(
            lambda r: 0.5 * r * r, rho0, path, T, flux_sup_speed=1.0)
        x = rho0.grid.axis_centers()
        above = np.nonzero(snaps[-1] > 0.5)[0]
        crossing = x[above[-1]]
        expected = 0.5 * T + path.value(T)[0]
        assert abs(crossing - expected) <= 2 * (h + path.dt)

    def test_commutes_with_translation(self):
        gen = plateau_data(1.0, -1.0, 0.0)
        grid = SpatialGrid(dim=1, half_width=4.0, n=512)
        rho0 = DensityField(grid, gen(grid))
        shift_cells = 16
        shifted0 = DensityField(grid, np.roll(rho0.values, shift_cells))
        path = sample_path(5, 0.005, 0.2, dim=1)
        _, a = shift_reduction_oracle(lambda r: 0.5 * r * r, rho0, path, 0.2,
                                      flux_sup_speed=1.0)
        _, b = shift_reduction_oracle(lambda r: 0.5 * r * r, shifted0, path, 0.2,
                                      flux_sup_speed=1.0)
        # translating the input translates the output at node resolution
        interior = slice(2 * shift_cells, -2 * shift_cells)
        assert np.allclose(np.roll(a[-1], shift_cells)[interior], b[-1][interior],
                           atol=1e-10)


class TestLinearCharacteristics:
    def test_pure_noise_shift(self):
        spec = linear_const_1d(bump_data(0.0, 1.0, 1.0), c=0.0)
        grid = SpatialGrid(dim=1, half_width=3.0, n=512)
        rho0 = spec.initial_field(grid)
        path = sample_path(3, 0.001, 0.25, dim=1)
        out = linear_characteristics_oracle(spec, rho0, path, 0.25)
        x = grid.axis_centers()
        exact = np.interp(x - path.value(0.25)[0], x, rho0.values,
                          left=0.0, right=0.0)
        assert np.allclose(out.values, exact, atol=1e-12)

    def test_refuses_nonlinear_flux(self):
        from stochbgk.problem import burgers_const_1d
        spec = burgers_const_1d(bump_data(0.0, 1.0, 1.0), c=1.0)
        grid = SpatialGrid(dim=1, half_width=3.0, n=64)
        rho0 = spec.initial_field(grid)
        path = sample_path(3, 0.01, 0.1, dim=1)
        with pytest.raises(ConfigurationError):
            linear_characteristics_oracle(spec, rho0, path, 0.1)

    def test_matches_cusp_flow_closed_form_zero_noise(self):
        from stochbgk.counterexample import (cusp_data, deterministic_solution,
                                             cusp_flow_spec)
        data = cusp_data()
        spec = cusp_flow_spec(data)
        grid = SpatialGrid(dim=2, half_width=3.0, n=96)
        rho0 = data.sample(grid)
        t = 0.5
        path = sample_path(1, 0.002, t, dim=2).zeroed()
        out = linear_characteristics_oracle(spec, rho0, path, t)
        exact = deterministic_solution(t, data, grid)
        err = np.sum(np.abs(out.values - exact.values)) * grid.cell_volume
        assert err <= 0.05

    def test_bgk_converges_to_characteristics(self):
        from stochbgk.bgk import BGKConfig, run_simulation
        spec = linear_const_1d(bump_data(0.0, 1.0, 0.9), c=0.5)
        T = 0.2
        errs = []
        for n in (128, 256):
            dt = T / n
            cfg = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=3.0,
                            n=n, n_v=8, snapshot_stride=n)
            path = sample_path(17, dt, T, dim=1)
            traj = run_simulation(spec, cfg, path)
            oracle = linear_characteristics_oracle(spec, traj.initial(), path, T)
            errs.append(float(np.sum(np.abs(traj.final().values - oracle.values))
                              * traj.sgrid.h))
        assert errs[1] < errs[0]


def _oracle_case(kind):
    """(spec, rho0, path, t) of one pinned characteristics-oracle case."""
    if kind == "cusp-2d":
        from stochbgk.counterexample import cusp_data, cusp_flow_spec
        data = cusp_data()
        grid = SpatialGrid(dim=2, half_width=data.radius, n=64)
        return cusp_flow_spec(data), data.sample(grid), sample_path(7, 1 / 64, 1.0, dim=2), 1.0
    dim, n, field = {
        "tanh-1d": (1, 256, tanh_field_1d(1.0, 0.5)),
        "shear-2d": (2, 64, shear_field_2d(1.0, 0.7)),
        "zero-1d": (1, 128, constant_field([0.0])),
    }[kind]
    spec = make_spec(dim, linear_flux(), field, bump_data(0.0, 1.0, 1.0))
    grid = SpatialGrid(dim=dim, half_width=3.0, n=n)
    return spec, spec.initial_field(grid), sample_path(7, 1e-3, 0.5, dim=dim), 0.5


# sha256 of each case's output values: restructuring the inverse flow must
# keep the oracle's bytes
ORACLE_DIGESTS = {
    "tanh-1d": "52fdfb2148c5519e6f002f7f336aaca2a220bfdd23d43a8f103fcdbecd117fd4",
    "shear-2d": "67d1803cf7c6edfa9c961fc7e489b07d7001891a55d69fef9b8a5a1ba9db2819",
    "zero-1d": "de0fb9a87682f6c84f09610557f2736f70016409a5c8367db4cb1b58100c4c34",
    "cusp-2d": "4fa28ca9b303c69f8c15d3de3b481975c4fe7a57d587f798c4969356fa7cc624",
}


@pytest.mark.parametrize("kind", list(ORACLE_DIGESTS))
def test_characteristics_oracle_bytes_are_pinned(kind):
    out = linear_characteristics_oracle(*_oracle_case(kind))
    digest = hashlib.sha256(np.asarray(out.values, dtype=float).tobytes()).hexdigest()
    assert digest == ORACLE_DIGESTS[kind]
