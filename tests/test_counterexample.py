"""Closed-form 2D flow, its BV refinement ladders, and the noisy counterpart."""

import hashlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stochbgk.counterexample import (CounterexampleData, b1, b2, b2_prime,
                                     bv_growth_experiment, cusp_data,
                                     deterministic_solution,
                                     exact_inverse_flow, g, g_inverse,
                                     cusp_flow_spec, smooth_control_data,
                                     stochastic_counterpart)
from stochbgk.errors import ConfigurationError
from stochbgk.grids import SpatialGrid

from experiments import exact_flow


class TestFieldComponents:
    def test_b1_values(self):
        assert b1(1.0) == 1.0
        assert b1(4.0) == 0.5
        assert b1(-2.0) == 0.0
        assert b1(0.25) == 0.5

    def test_b2_values(self):
        assert b2(1.0) == 0.5
        assert b2(-3.0) == 0.0

    def test_divergence_range(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, (10**6, 2))
        div = b1(pts[:, 0]) * b2_prime(pts[:, 1])
        assert div.min() >= -0.125 - 1e-12
        assert div.max() <= 1.0 + 1e-12


def _where_bisection_g_inverse(w):
    """g^{-1} by 60 bisection sweeps and 3 Newton steps, on g for w <= e and
    on log g for w > e: a reference that shares no code or formula with
    the Lambert W solve under test."""
    out = np.zeros_like(w)
    small = (w > 0) & (w <= math.e)
    ws = w[small]
    lo, hi = np.zeros_like(ws), np.sqrt(ws)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = np.exp(mid * mid) * mid * mid < ws
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    y = 0.5 * (lo + hi)
    for _ in range(3):
        gy = np.exp(y * y) * y * y
        gp = 2.0 * y * np.exp(y * y) * (1.0 + y * y)
        y = np.where(gp > 0, y - (gy - ws) / np.where(gp > 0, gp, 1.0), y)
    out[small] = np.maximum(y, 0.0)
    large = w > math.e
    lw = np.log(w[large])
    lo, hi = np.ones_like(lw), np.sqrt(lw)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = mid * mid + 2.0 * np.log(mid) < lw
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    y = 0.5 * (lo + hi)
    for _ in range(3):
        y = y - (y * y + 2.0 * np.log(y) - lw) / (2.0 * y + 2.0 / y)
    out[large] = y
    return out


def _bisection_inputs():
    """40,000 values of w: 5000 uniform on [0, 3], the rest e^U(-30, 30),
    led by 0, e, the double below e, the smallest subnormal, 1e300 and 1."""
    rng = np.random.default_rng(11)
    w = np.exp(rng.uniform(-30.0, 30.0, 40_000))
    w[:5000] = rng.uniform(0.0, 3.0, 5000)
    w[:6] = [0.0, math.e, np.nextafter(math.e, 0.0), 5e-324, 1e300, 1.0]
    return w


class TestGInverse:
    def test_endpoints(self):
        assert g(0.0) == 0.0
        assert g_inverse(0.0) == 0.0
        assert g(1.0) == pytest.approx(math.e, rel=1e-15)

    def test_round_trip_accuracy(self):
        for y in (0.1, 0.5, 1.0, 2.0, 3.0):
            assert g_inverse(g(y)) == pytest.approx(y, abs=1e-10)

    def test_inverse_tolerance_contract(self):
        w = _bisection_inputs()
        y = g_inverse(w)
        small = w <= math.e
        assert np.all(np.abs(g(y[small]) - w[small]) <= 1e-12 * np.maximum(1.0, w[small]))
        # log g(y) = y^2 + 2 log y: |g(y) - w| <= 1e-12 w, without overflow
        y, lw = y[~small], np.log(w[~small])
        assert np.all(np.abs(y * y + 2.0 * np.log(y) - lw) <= 1e-12)

    def test_negative_input_rejected(self):
        with pytest.raises(ConfigurationError):
            g_inverse(-1.0)
        with pytest.raises(ConfigurationError):
            g(np.array([-0.5]))

    def test_agrees_with_the_bisection_reference(self):
        """Within 4 ulp of the bisection for w = 0 and every normal w, exact
        where the bisection is not (sqrt(w) for the smallest subnormal), and
        a scalar solve gives the array's element."""
        w = _bisection_inputs()
        y = g_inverse(w)
        ref = _where_bisection_g_inverse(w)
        checked = (w == 0.0) | (w >= 2.0 ** -1022)
        # both are >= 0, so the distance of their bit patterns counts ulps
        ulps = np.abs(y.view(np.int64) - ref.view(np.int64))
        assert ulps[checked].max() <= 4
        assert g_inverse(5e-324) == math.sqrt(5e-324)
        for k in (0, 1, 2, 3, 4, 5, 17, 39_999):
            assert repr(g_inverse(float(w[k]))) == repr(float(y[k]))

    def test_nan_maps_to_nan(self):
        assert math.isnan(g_inverse(math.nan))
        y = g_inverse(np.array([1.0, math.nan]))
        assert y[0] == g_inverse(1.0) and math.isnan(y[1])

    def test_vectorized(self):
        w = np.array([0.0, 1.0, 100.0])
        y = g_inverse(w)
        assert y.shape == (3,)
        assert np.all(np.diff(y) > 0)


class TestExactFlow:
    def test_identity_at_zero_time(self):
        x, y = exact_flow(0.0, np.array([0.5]), np.array([1.2]))
        assert np.allclose(x, 0.5) and np.allclose(y, 1.2, atol=1e-10)

    def test_frozen_fiber_at_x_zero(self):
        for t in (0.3, 1.0, 2.0):
            _, y = exact_flow(t, np.array([0.0]), np.array([0.7]))
            assert np.allclose(y, 0.7, atol=1e-10)

    def test_mutual_inverse_on_point_cloud(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, 3, 200)
        ys = rng.uniform(0, 3, 200)
        _, fwd = exact_flow(0.7, xs, ys)
        _, back = exact_inverse_flow(0.7, xs, fwd)
        assert np.max(np.abs(back - ys)) <= 1e-10

    def test_time_derivative_matches_ode(self):
        # d/dt Y at t = 0 equals b1(x) b2(y) (finite differences)
        rng = np.random.default_rng(6)
        xs = rng.uniform(0.05, 3, 50)
        ys = rng.uniform(0.05, 3, 50)
        dt = 1e-5
        _, yp = exact_flow(dt, xs, ys)
        _, ym = exact_flow(0.0, xs, ys)
        deriv = (yp - ym) / dt
        assert np.max(np.abs(deriv - b1(xs) * b2(ys))) <= 1e-4

    def test_monotone_in_y(self):
        ys = np.linspace(0.01, 3.0, 50)
        _, out = exact_flow(1.0, np.full_like(ys, 0.8), ys)
        assert np.all(np.diff(out) > 0)


class TestDeterministicSolution:
    def test_initial_time_is_data(self):
        data = cusp_data()
        grid = SpatialGrid(dim=2, half_width=3.0, n=64)
        sol = deterministic_solution(0.0, data, grid)
        assert np.allclose(sol.values, data.sample(grid).values, atol=1e-10)

    def test_constant_data_transported_unchanged(self):
        data = CounterexampleData(lambda x: np.ones_like(np.asarray(x, float)),
                                  lambda y: np.ones_like(np.asarray(y, float)))
        grid = SpatialGrid(dim=2, half_width=3.0, n=32)
        sol = deterministic_solution(0.8, data, grid)
        assert np.allclose(sol.values, 1.0, atol=1e-10)

    def test_frozen_fiber_profile(self):
        data = cusp_data()
        grid = SpatialGrid(dim=2, half_width=3.0, n=128)
        sol0 = deterministic_solution(0.0, data, grid)
        sol1 = deterministic_solution(1.0, data, grid)
        c = grid.axis_centers()
        col = np.argmin(np.abs(c))  # x as close to 0 as the grid allows
        assert np.allclose(sol1.values[col], sol0.values[col], atol=5e-3)

    def test_sup_norm_preserved(self):
        data = cusp_data()
        grid = SpatialGrid(dim=2, half_width=3.0, n=128)
        sol = deterministic_solution(1.0, data, grid)
        assert float(np.max(np.abs(sol.values))) <= \
            float(np.max(np.abs(data.sample(grid).values))) + 1e-12

    @pytest.mark.parametrize("n", [96, 97])
    @pytest.mark.parametrize("data", [cusp_data(), smooth_control_data()],
                             ids=["cusp", "smooth"])
    def test_row_solve_is_the_pointwise_flow(self, data, n):
        """One inverse-flow solve per distinct b1(x) row gives, byte for byte,
        the pointwise flow over the whole grid (x and y of both signs)."""
        grid = SpatialGrid(dim=2, half_width=3.0, n=n)
        c = grid.axis_centers()
        X, Y = np.meshgrid(c, c, indexing="ij")
        pos = Y >= 0
        _, eta = exact_inverse_flow(0.7, X, np.where(pos, Y, 0.0))
        ref = data.profile_x(X) * data.profile_y(np.where(pos, eta, Y))
        sol = deterministic_solution(0.7, data, grid)
        assert sol.values.tobytes() == ref.tobytes()


class TestBVLadders:
    def test_initial_time_stable(self):
        rows = bv_growth_experiment(cusp_data(), 0.0, [64, 128, 256])
        bvs = [r[2] for r in rows]
        assert max(bvs) / min(bvs) <= 1.05

    def test_ladder_monotone_nondecreasing_for_cusp(self):
        rows = bv_growth_experiment(cusp_data(), 1.0, [64, 128, 256])
        bvs = [r[2] for r in rows]
        assert bvs[0] <= bvs[1] <= bvs[2]

    def test_smooth_control_stays_flat(self):
        rows = bv_growth_experiment(smooth_control_data(), 1.0, [64, 128, 256])
        bvs = [r[2] for r in rows]
        assert max(bvs) / min(bvs) <= 1.10

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            bv_growth_experiment(cusp_data(), -1.0, [64])

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_shared_solve_is_the_single_ladders(self, t):
        """Both data on one inverse-flow solve per n give the two single-data
        ladders exactly, data-major."""
        res = [5, 33, 64]
        both = bv_growth_experiment((cusp_data(), smooth_control_data()), t, res)
        single = (bv_growth_experiment(cusp_data(), t, res)
                  + bv_growth_experiment(smooth_control_data(), t, res))
        assert repr(both) == repr(single)

    def test_ladder_bytes_pinned(self):
        """The benchmark's ladder (both data, t = 1, n = 128 … 1024) keeps
        its exact floats: sha256 of the repr of its rows."""
        rows = bv_growth_experiment((cusp_data(), smooth_control_data()), 1.0,
                                    (128, 256, 512, 1024))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "61ae922f9ba8afa9bb873f05e1f6b59f7cdec0fd82c5cd048536261247304729")

    def test_ladder_holds_no_full_grid_field(self):
        """A rung streams both fields through one BV buffer: its traced peak
        stays within 2.5 n x n float64 arrays (5 of them before)."""
        n = 1024
        tracemalloc.start()
        try:
            bv_growth_experiment((cusp_data(), smooth_control_data()), 1.0, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestStochasticCounterpart:
    def test_zeroed_path_consistent_with_closed_form(self):
        data = cusp_data()
        with ThreadPoolExecutor(max_workers=1) as pool:
            rows = stochastic_counterpart(data, 0.5, [96], n_paths=1, master_seed=5,
                                          n_v=8, zeroed=True, pool=pool)
        closed = bv_growth_experiment(data, 0.5, [96])[0][2]
        assert rows[0][2] == pytest.approx(closed, rel=0.1)

    def test_spec_hypothesis_fields(self):
        spec = cusp_flow_spec(cusp_data())
        assert not spec.div_free
        assert spec.div_b_sup == 1.0
        grid = SpatialGrid(dim=2, half_width=3.0, n=32)
        bg = spec.b_on_grid(grid)
        assert np.all(bg[..., 0] == 0.0)
        assert float(np.max(np.abs(bg))) <= 0.5 + 1e-12

    def test_pool_gives_the_serial_rows_in_the_given_order(self):
        args = (cusp_data(), 0.5, [32, 48], 3, 5)
        with ThreadPoolExecutor(max_workers=1) as pool:
            serial = stochastic_counterpart(*args, pool=pool)
        with ThreadPoolExecutor(max_workers=2) as pool:
            pooled = stochastic_counterpart(*args, pool=pool)
        assert [r[0] for r in pooled] == [32, 48]
        assert repr(pooled) == repr(serial)

    def test_mean_shifts_within_clt_on_doubling(self):
        data = cusp_data()
        with ThreadPoolExecutor(max_workers=1) as pool:
            a = stochastic_counterpart(data, 0.5, [48], n_paths=8, master_seed=5, pool=pool)
            b = stochastic_counterpart(data, 0.5, [48], n_paths=16, master_seed=5, pool=pool)
        mean_a, std_a = a[0][2], a[0][3]
        mean_b = b[0][2]
        assert abs(mean_b - mean_a) <= 2.5 * std_a / math.sqrt(8)
