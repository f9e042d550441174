"""BGK engine: substeps, defect accumulation, full runs, Picard mode."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochbgk import bgk
from stochbgk.bgk import (BGKConfig, _monotone, _pad, _padded_gather,
                          _single_cell_maxwellian, accumulate_defect,
                          epsilon_continuation, picard_solve, relax_substep,
                          run_simulation, transport_substep)
from stochbgk.brownian import BrownianPath, sample_path
from stochbgk.counterexample import cusp_data, cusp_flow_spec
from stochbgk.errors import ConfigurationError, NumericalAbortError, StructuralViolationError
from stochbgk.fields import (DensityField, KineticField, check_kinetic_structure,
                             density_from_kinetic, kinetic_density_values,
                             lift_density, maxwellian_cell_average)
from stochbgk.grids import SpatialGrid, VelocityGrid
from stochbgk.problem import (burgers_const_1d, burgers_tanh_1d, bump_data,
                              linear_const_1d, plateau_data, random_bv_data)


def _lift(spec, n=64, L=3.0, n_v=16):
    grid = SpatialGrid(dim=1, half_width=L, n=n)
    rho0 = spec.initial_field(grid)
    vg = VelocityGrid.for_density_bound(rho0.linf(), n_v)
    return lift_density(rho0, vg), rho0


class TestTransport:
    def test_zero_field_stays_zero(self):
        spec = linear_const_1d(lambda g: np.zeros(g.shape), c=1.0)
        grid = SpatialGrid(dim=1, half_width=2.0, n=32)
        vg = VelocityGrid.for_density_bound(1.0, 8)
        u = KineticField(grid, vg, np.zeros(grid.shape + (vg.n_v,)))
        path = sample_path(1, 0.01, 0.1, dim=1)
        out = transport_substep(u, 0.0, 0.01, path, spec)
        assert np.all(out.values == 0.0)

    def test_integer_cell_shift_is_exact(self):
        # b = 1, f' = 1, increments zeroed, dt = h: translation by one cell
        spec = linear_const_1d(bump_data(0.0, 1.0, 0.9), c=1.0)
        u, rho0 = _lift(spec, n=64, L=3.0)
        h = u.sgrid.h
        path = sample_path(1, h, 10 * h, dim=1).zeroed()
        out = transport_substep(u, 0.0, h, path, spec)
        assert np.allclose(out.values[1:], u.values[:-1], atol=1e-14)

    def test_fractional_shift_within_interpolation_error(self):
        spec = linear_const_1d(bump_data(0.0, 1.0, 0.9), c=1.0)
        u, rho0 = _lift(spec, n=128, L=3.0)
        h = u.sgrid.h
        dt = 0.4 * h
        path = sample_path(1, dt, 10 * dt, dim=1).zeroed()
        out = transport_substep(u, 0.0, dt, path, spec)
        x = u.sgrid.axis_centers()
        for j in range(u.vgrid.n_v):
            row = u.values[:, j]
            exact = np.interp(x - dt, x, row, left=0.0, right=0.0)
            tv = np.sum(np.abs(np.diff(row)))
            assert np.max(np.abs(out.values[:, j] - exact)) <= 0.5 * h * tv / h * 0.5 + 1e-12

    def test_pure_brownian_shift_preserves_maxwellian_on_nodes(self):
        # b = 0: transport is a rigid shift; if the shift is a grid multiple
        # the translated Maxwellian is reproduced exactly
        spec = linear_const_1d(bump_data(0.0, 1.0, 0.9), c=0.0)
        u, rho0 = _lift(spec, n=64, L=3.0)
        h = u.sgrid.h
        path = sample_path(1, h, 10 * h, dim=1)
        path.increments[:] = 0.0
        path.increments[0, 0] = 2 * h
        path.__post_init__()
        out = transport_substep(u, 0.0, h, path, spec)
        shifted = lift_density(
            DensityField(u.sgrid, np.roll(rho0.values, 2)), u.vgrid)
        interior = slice(4, None)
        assert np.allclose(out.values[interior], shifted.values[interior],
                           atol=1e-13)

    def test_sign_structure_and_range_preserved(self):
        spec = burgers_const_1d(
            lambda g: 0.9 * np.sin(np.pi * g.axis_centers() / 3.0), c=1.0)
        u, _ = _lift(spec, n=128, L=3.0)
        path = sample_path(5, 0.01, 0.1, dim=1)
        out = transport_substep(u, 0.0, 0.01, path, spec)
        pos = u.vgrid.positive_cells()
        assert np.all(out.values[..., pos] >= 0.0)
        assert np.all(out.values[..., ~pos] <= 0.0)
        assert np.max(np.abs(out.values)) <= 1.0


class TestKernels:
    """The zero-padded gather behind the 1D, 2D and Picard interpolations."""

    OFFSETS = (1.25, 2.0, 7.5, 1e3)  # cells beyond the first or last center

    def test_1d_feet_far_outside_read_zero(self):
        n, h, x0 = 16, 0.25, -1.875
        x_last = x0 + (n - 1) * h
        feet = np.array([[x0 - k * h for k in self.OFFSETS]
                         + [x_last + k * h for k in self.OFFSETS]] * n)
        kinetic = np.ones((n, feet.shape[1]))
        assert np.all(_monotone(kinetic, ((feet - x0) / h,)) == 0.0)
        density = np.ones(n)  # Picard gathers a 1-D rho at (n_v, n) feet
        assert np.all(_monotone(density, ((feet - x0) / h,)) == 0.0)

    def test_1d_one_cell_outside_reads_edge_neighbour(self):
        n, h, x0 = 16, 0.25, -1.875
        feet = np.full((n, 2), x0 - 0.5 * h)
        feet[:, 1] = x0 + (n - 0.5) * h
        vals = np.ones((n, 2))
        assert np.all(_monotone(vals, ((feet - x0) / h,)) == 0.5)

    def test_2d_feet_far_outside_read_zero(self):
        n, h, x0 = 8, 0.25, -0.875
        x_last = x0 + (n - 1) * h
        outside = ([x0 - k * h for k in self.OFFSETS]
                   + [x_last + k * h for k in self.OFFSETS])
        inside = [x0, 0.3, x_last]
        pairs = ([(a, b) for a in outside for b in outside + inside]
                 + [(b, a) for a in outside for b in inside])
        fx = np.array([p[0] for p in pairs])
        fy = np.array([p[1] for p in pairs])
        nv = len(pairs)
        shape = (n, n, nv)
        out = _monotone(np.ones(shape), (np.broadcast_to((fx - x0) / h, shape),
                                         np.broadcast_to((fy - x0) / h, shape)))
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_gather_ignores_memory_layout(self, d):
        n, nv = 8, 3
        rng = np.random.default_rng(5)
        padded = _pad(rng.uniform(-1, 1, (n,) * d + (nv,)), d)
        coords = tuple(rng.uniform(-4, n + 3, (n,) * d + (nv,)) for _ in range(d))
        corners, weights = _padded_gather(padded, coords)
        f_corners, f_weights = _padded_gather(np.asfortranarray(padded), coords)
        assert all(np.array_equal(a, b) for a, b in zip(corners, f_corners))
        assert all(np.array_equal(a, b) for a, b in zip(weights, f_weights))

    @pytest.mark.parametrize("fp_value", [1.0, -0.7])
    @pytest.mark.parametrize("d, n", [(1, 512), (2, 24)])
    def test_constant_fp_transport_is_the_full_shape_kernel(self, d, n, fp_value):
        """A constant f' gives one foot per cell; the result equals the
        kernel fed feet built at full shape (n, ..., n_v), byte for byte."""
        nv, dt = 8, 0.07
        grid = SpatialGrid(dim=d, half_width=1.5, n=n)
        rng = np.random.default_rng(10 + d)
        values = rng.uniform(-1, 1, grid.shape + (nv,))
        b_grid = rng.uniform(-4, 4, grid.shape + (d,))  # some feet leave the box
        dB = np.array([0.013, -0.021][:d])
        fp = np.full(nv, fp_value)
        x0 = -grid.half_width + 0.5 * grid.h
        c = grid.axis_centers()
        if d == 1:
            feet = c[:, None] - dt * fp[None, :] * b_grid[:, 0][:, None] - dB[0]
            ref = _monotone(values, ((feet - x0) / grid.h,))
        else:
            X, Y = np.meshgrid(c, c, indexing="ij")
            fx = X[:, :, None] - dt * fp[None, None, :] * b_grid[..., 0][:, :, None] - dB[0]
            fy = Y[:, :, None] - dt * fp[None, None, :] * b_grid[..., 1][:, :, None] - dB[1]
            ref = _monotone(values, ((fx - x0) / grid.h, (fy - x0) / grid.h))
        out = bgk._transport_values(_pad(values, d), dB, dt, grid, fp, b_grid,
                                    (slice(0, n),) * d)
        assert out.shape == ref.shape == values.shape
        assert out.tobytes() == ref.tobytes()


# scaled foot coordinates s = (foot - x0)/h: on cell centres, halfway
# between them, anywhere inside, and 1 to 1000 cells beyond either end
def _coords(n):
    frac = st.sampled_from([0.0, 0.5, 0.25]) | st.floats(0.0, 1.0, exclude_max=True)
    inside = st.builds(lambda i, f: i + f, st.integers(-1, n - 1), frac)
    below = st.builds(lambda k, f: -k - f, st.integers(1, 1000), frac)
    above = st.builds(lambda k, f: n - 1 + k + f, st.integers(1, 1000), frac)
    return inside | below | above


def _lerp_point(a, b, w):
    return min(max(a + w * (b - a), min(a, b)), max(a, b))


def _read(values, i, j=None):
    n = values.shape[0]
    if not 0 <= i < n or (j is not None and not 0 <= j < n):
        return 0.0
    return values[i] if j is None else values[i, j]


class TestKernelProperties:
    """The gather and the split single-cell Maxwellian against point-by-point
    references."""

    N, H, X0 = 8, 0.25, -0.875  # dyadic: feet on centres and edges are exact

    def _feet(self, data, shape):
        size = math.prod(shape)
        s = data.draw(st.lists(_coords(self.N), min_size=size, max_size=size))
        return self.X0 + np.array(s).reshape(shape) * self.H

    @given(st.data())
    def test_1d_kinetic_gather_matches_pointwise(self, data):
        n, nv = self.N, 3
        feet = self._feet(data, (n, nv))
        values = np.random.default_rng(data.draw(st.integers(0, 99))).uniform(-1, 1, (n, nv))
        s = (feet - self.X0) / self.H
        out = _monotone(values, (s,))
        for i in range(n):
            for j in range(nv):
                k = math.floor(s[i, j])
                col = values[:, j]
                assert out[i, j] == _lerp_point(_read(col, k), _read(col, k + 1), s[i, j] - k)

    @given(st.data())
    def test_1d_density_gather_matches_pointwise(self, data):
        n = self.N
        feet = self._feet(data, (data.draw(st.integers(1, 40)),))
        values = np.random.default_rng(data.draw(st.integers(0, 99))).uniform(-1, 1, n)
        s = (feet - self.X0) / self.H
        out = _monotone(values, (s,))
        for p, sp in enumerate(s):
            k = math.floor(sp)
            assert out[p] == _lerp_point(_read(values, k), _read(values, k + 1), sp - k)

    @given(st.data())
    def test_2d_gather_matches_pointwise(self, data):
        n, nv = self.N, 2
        fx, fy = self._feet(data, (n, n, nv)), self._feet(data, (n, n, nv))
        values = np.random.default_rng(data.draw(st.integers(0, 99))).uniform(-1, 1, (n, n, nv))
        sx, sy = (fx - self.X0) / self.H, (fy - self.X0) / self.H
        out = _monotone(values, (sx, sy))
        for idx in np.ndindex(out.shape):
            i, j = math.floor(sx[idx]), math.floor(sy[idx])
            wx, wy = sx[idx] - i, sy[idx] - j
            v = values[..., idx[2]]
            c00, c01 = _read(v, i, j), _read(v, i, j + 1)
            c10, c11 = _read(v, i + 1, j), _read(v, i + 1, j + 1)
            expected = ((1 - wx) * (1 - wy) * c00 + wx * (1 - wy) * c10
                        + (1 - wx) * wy * c01 + wx * wy * c11)
            lo, hi = min(c00, c01, c10, c11), max(c00, c01, c10, c11)
            assert out[idx] == min(max(expected, lo), hi)

    @given(st.sampled_from([4, 8, 16, 32]), st.sampled_from([0.3, 1.0, 2.5]), st.data())
    def test_split_single_cell_maxwellian_is_the_lift(self, n_v, bound, data):
        vg = VelocityGrid(bound=bound, n_v=n_v)
        N = vg.bound
        special = st.sampled_from([0.0, -0.0, N, -N]) | st.builds(
            lambda k: k * vg.dv, st.integers(-n_v // 2, n_v // 2))
        rho = np.array(data.draw(st.lists(special | st.floats(-N, N), min_size=1,
                                          max_size=12)))
        rows = np.broadcast_to(rho, (n_v, rho.size)).copy()
        assert np.array_equal(_single_cell_maxwellian(rows, vg),
                              maxwellian_cell_average(rho, vg).T)


# (a, b) pairs at the edges of the no-clamp proof in _monotone_1d, and the
# weights near 1 where w (b - a) comes closest to b - a
LERP_PAIRS = {
    # b - a = 1 + 3 2^-54 rounds up to 1 + 2^-52
    "rounds_up": [(-1.0, 3 * 2.0**-54)],
    # fl(b - a) a power of two, exactly or rounded
    "power_of_two": [(-0.5, 0.5), (0.25, 0.5), (-2.0**-60, 1.0), (2.0**-60, 1.0),
                     (-1.0, 2.0**-53), (0.0, 2.0**-1021), (-2.0**-1022, 2.0**-1022)],
    # differences below 2^-1021: subnormal, or normal but exact
    "subnormal": [(5e-324, 1.5e-323), (-5e-324, 5e-324), (0.0, 5e-324), (-2.5e-310, -2.4e-310),
                  (2.0**-1022, 2.0**-1021 - 5e-324), (-2.0**-1022, -5e-324)],
    "mixed_signs": [(-0.75, 0.25), (0.3, -0.7), (-1.0, 1.0), (-5e-324, 1.0),
                    (-1e-300, 0.9999999999999999), (1e-17, -1.0), (-0.0, 5e-324)],
}
WEIGHTS = [0.0, 2.0**-53, 0.5, 0.75, 1 - 2.0**-52, 1 - 2.0**-53]


def _lerp_1d(a, b, w):
    """_monotone_1d between cells 0 and 1 of the box holding a, b."""
    padded = np.array([0.0, 0.0, a, b, 0.0, 0.0])
    return bgk._monotone_1d(padded, np.asarray(w, dtype=float))


class TestUnclampedLerp:
    """The 1D lerp stays within its two neighbours with no clamp."""

    @pytest.mark.parametrize("case", LERP_PAIRS)
    def test_adversarial_pairs_stay_between_the_neighbours(self, case):
        for a, b in LERP_PAIRS[case]:
            for lo, hi in ((a, b), (b, a)):
                out = _lerp_1d(lo, hi, WEIGHTS)
                assert np.all((out >= min(lo, hi)) & (out <= max(lo, hi))), (lo, hi, out)

    def test_rounded_difference_reaches_b(self):
        # b - a rounds to 1 + 2^-52 and w d to 1, so the lerp lands on 0 <= b
        assert _lerp_1d(-1.0, 3 * 2.0**-54, [1 - 2.0**-53])[0] == 0.0

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                              st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=50))
    def test_random_triples_stay_between_the_neighbours(self, triples):
        for a, b, w in triples:
            out = _lerp_1d(a, b, [w])[0]
            assert min(a, b) <= out <= max(a, b)

    @pytest.mark.parametrize("b", [-1.0, 0.3, -0.0, 5e-324, -5e-324])
    def test_foot_just_below_the_box_reads_the_first_cell(self, b):
        # s in (-1, 0): floor(s) = -1 and w = fl(s + 1) rounds to 1, with the
        # zero pad cell as the lower neighbour
        s = np.array([-2.0**-60])
        assert (s - np.floor(s))[0] == 1.0
        padded = np.array([0.0, 0.0, b, 0.25, 0.0, 0.0])
        out = bgk._monotone_1d(padded, s)[0]
        assert out == b and min(0.0, b) <= out <= max(0.0, b)

    def test_negative_lift_step_is_the_clamped_step(self):
        """One relaxed step from the lift of a sign-changing density equals,
        byte for byte, the step with the old clamped lerp, though the two
        transports differ: the clamp made -0.0 of the lerp's +0.0."""
        spec = burgers_const_1d(random_bv_data(3, pieces=7, amplitude=1.0, floor=-0.5), c=1.0)
        cfg = BGKConfig(epsilon=0.02, dt=0.01, horizon=0.01, half_width=3.0, n=128, n_v=16,
                        snapshot_stride=1)
        path = sample_path(4, cfg.dt, cfg.horizon, dim=1)
        traj = run_simulation(spec, cfg, path)

        grid, vg, n = traj.sgrid, traj.vgrid, cfg.n
        rho0 = spec.initial_field(grid).values
        assert rho0.min() < 0 < rho0.max()
        lift = maxwellian_cell_average(rho0, vg)
        fp = np.asarray(spec.f_prime(vg.centers()), dtype=float)
        b_x = spec.b_on_grid(grid)[:, 0]
        x0 = -grid.half_width + 0.5 * grid.h
        s = (grid.centers()[:, 0, None] - cfg.dt * fp * b_x[:, None]
             - path.increments[0, 0] - x0) / grid.h
        padded = np.pad(lift, ((2, 2), (0, 0)))
        base = (np.clip(np.floor(s), -2, n) + 2).astype(int)
        lo = np.take_along_axis(padded, base, axis=0)
        hi = np.take_along_axis(padded, base + 1, axis=0)
        lerp = lo + (s - np.floor(s)) * (hi - lo)
        clamped = np.clip(lerp, np.minimum(lo, hi), np.maximum(lo, hi))

        u_tilde = transport_substep(KineticField(grid, vg, lift), 0.0, cfg.dt, path, spec)
        assert u_tilde.values.tobytes() == lerp.tobytes()
        assert np.any(np.signbit(clamped) != np.signbit(lerp))
        assert np.array_equal(clamped, lerp)

        bounds = (min(0.0, float(rho0.min())), max(0.0, float(rho0.max())))
        ref_tilde = KineticField(grid, vg, clamped)
        ref = relax_substep(ref_tilde, cfg.epsilon, cfg.dt, bounds)
        ref_rho = np.clip(kinetic_density_values(clamped, vg.dv), *bounds)
        ref_defect = bgk.DefectAccumulator(grid.cell_volume, vg.dv)
        raw = vg.dv * np.cumsum(ref.values - clamped, axis=-1)
        prefix = accumulate_defect(ref_tilde, ref, cfg.epsilon, cfg.dt)
        ref_defect.accumulate(prefix, float(raw.min()), 0.0, prefix.shape, (slice(0, n),))
        ref_defect.close_slab(cfg.dt)
        assert traj.final_u.values.tobytes() == ref.values.tobytes()
        assert traj.rho[1].tobytes() == ref_rho.tobytes()
        assert traj.u_l1[1] == np.sum(np.abs(ref.values)) * grid.cell_volume * vg.dv
        assert (np.asarray(traj.defect.slab_mass).tobytes()
                == np.asarray(ref_defect.slab_mass).tobytes())
        assert repr(traj.defect.min_entry) == repr(ref_defect.min_entry)


class TestRelax:
    def test_maxwellian_is_a_bit_exact_fixed_point(self):
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.8), c=1.0)
        u, _ = _lift(spec)
        out = relax_substep(u, epsilon=0.05, dt=0.01)
        assert np.array_equal(out.values, u.values)

    def test_infinite_epsilon_is_identity(self):
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.8), c=1.0)
        u, _ = _lift(spec)
        u.values *= 0.5  # not a Maxwellian
        out = relax_substep(u, epsilon=math.inf, dt=0.01)
        assert np.array_equal(out.values, u.values)

    def test_convex_combination_at_unit_ratio(self):
        # eps = dt: output = M + e^{-1}(u~ - M) with u~ = 0.5 M
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.8), c=1.0)
        u, rho0 = _lift(spec)
        half = KineticField(u.sgrid, u.vgrid, 0.5 * u.values)
        out = relax_substep(half, epsilon=0.01, dt=0.01)
        rho_half = density_from_kinetic(half)
        m = maxwellian_cell_average(rho_half.values, u.vgrid)
        expected = m + math.exp(-1.0) * (half.values - m)
        assert np.allclose(out.values, expected, atol=0.0)
        # density conserved: integral of u dv stays 0.5 rho
        back = density_from_kinetic(out)
        assert np.allclose(back.values, 0.5 * rho0.values, rtol=1e-13, atol=1e-15)

    def test_density_conservation_tight(self):
        rng = np.random.default_rng(8)
        grid = SpatialGrid(dim=1, half_width=1.0, n=32)
        vg = VelocityGrid.for_density_bound(1.0, 16)
        vals = rng.uniform(0.0, 1.0, grid.shape + (vg.n_v,))
        vals[..., ~vg.positive_cells()] *= -1.0
        u = KineticField(grid, vg, vals)
        rho_before = density_from_kinetic(u)
        out = relax_substep(u, epsilon=0.02, dt=0.01)
        rho_after = density_from_kinetic(out)
        assert np.allclose(rho_after.values, rho_before.values,
                           rtol=0.0, atol=5e-15)


class TestDefect:
    def test_maxwellian_input_gives_zero(self):
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.8), c=1.0)
        u, _ = _lift(spec)
        out = relax_substep(u, epsilon=0.01, dt=0.01)
        slab = accumulate_defect(u, out, epsilon=0.01, dt=0.01)
        assert np.all(slab == 0.0)

    def test_hand_computed_single_bump(self):
        # one x-cell, rho = 0, u = single positive value: the relax jump is
        # -(1 - e^{-dt/eps}) u on that cell and the prefix integrates it
        grid = SpatialGrid(dim=1, half_width=1.0, n=4)
        vg = VelocityGrid(bound=1.0, n_v=4)  # dv = 0.5, cells at +-
        vals = np.zeros((4, 4))
        vals[2, 2] = 0.8  # first positive cell of x-cell 2
        u = KineticField(grid, vg, vals)
        eps, dt = 0.02, 0.01
        after = relax_substep(u, eps, dt)
        slab = accumulate_defect(u, after, eps, dt)
        w = 1.0 - math.exp(-dt / eps)
        # rho = dv * 0.8 = 0.4 > 0 stays (structure permits), M != 0:
        m = maxwellian_cell_average(0.4, vg)
        jump = (m - vals[2]) * w
        expected = vg.dv * np.cumsum(jump)
        assert np.allclose(slab[2], np.maximum(expected, 0.0), atol=1e-15)
        assert np.all(slab[[0, 1, 3]] == 0.0)

    def test_large_negative_raises(self):
        grid = SpatialGrid(dim=1, half_width=1.0, n=4)
        vg = VelocityGrid(bound=1.0, n_v=4)
        before = KineticField(grid, vg, np.zeros((4, 4)))
        bad = np.zeros((4, 4))
        bad[0, 0] = -0.5  # negative-velocity cell jump downward
        after = KineticField(grid, vg, bad)
        with pytest.raises(StructuralViolationError):
            accumulate_defect(before, after, 0.01, 0.01)

    def test_grid_mismatch_raises(self):
        g1 = SpatialGrid(dim=1, half_width=1.0, n=4)
        g2 = SpatialGrid(dim=1, half_width=1.0, n=8)
        vg = VelocityGrid(bound=1.0, n_v=4)
        a = KineticField(g1, vg, np.zeros((4, 4)))
        b = KineticField(g2, vg, np.zeros((8, 4)))
        with pytest.raises(ConfigurationError):
            accumulate_defect(a, b, 0.01, 0.01)


class TestRun:
    def _run(self, seed=7, n=128, T=0.2, zero=False, spec=None, **kw):
        spec = spec or burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        dt = T / 64
        cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                        n=n, n_v=16, **kw)
        path = sample_path(seed, dt, T, dim=1)
        if zero:
            path = path.zeroed()
        return run_simulation(spec, cfg, path), cfg, path

    def test_zero_data_stays_zero(self):
        spec = burgers_const_1d(lambda g: np.zeros(g.shape), c=1.0)
        traj, _, _ = self._run(spec=spec)
        assert np.all(traj.rho == 0.0)

    def test_single_step_max_principle(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        cfg = BGKConfig(epsilon=0.02, dt=0.01, horizon=0.01, half_width=3.0,
                        n=128, n_v=16, v_bound=1.0)
        traj = run_simulation(spec, cfg, sample_path(3, 0.01, 0.01, dim=1))
        assert cfg.n_steps == 1
        assert density_from_kinetic(traj.final_u).linf() <= 1.0 + 1e-12
        assert np.max(np.abs(traj.rho[-1])) <= 1.0

    @pytest.mark.parametrize("rho0, v_bound", [
        (plateau_data(1.0, -1.0, 0.0), 1.5),
        (lambda g: 0.8 * np.sin(np.pi * g.axis_centers() / 1.5), 1.0),
    ], ids=["plateau", "sign-changing"])
    def test_step_from_lift_is_first_engine_step(self, rho0, v_bound, full_box_run):
        # the replay's one step from the lift of rho0, its snapshot the frozen
        # density clipped to the sign range of rho0
        spec = burgers_const_1d(rho0, c=1.0)
        dt = 0.01
        cfg = BGKConfig(epsilon=0.02, dt=dt, horizon=dt, half_width=3.0,
                        n=128, n_v=16, v_bound=v_bound)
        path = sample_path(3, dt, dt, dim=1)
        traj = run_simulation(spec, cfg, path)
        assert np.max(np.abs(traj.rho[0])) < traj.vgrid.bound
        replay = full_box_run(spec, cfg, path)
        assert traj.final_u.values.tobytes() == replay.final_u.values.tobytes()
        assert traj.rho.tobytes() == replay.rho.tobytes()

    @pytest.mark.parametrize("rho0", [
        plateau_data(1.0, -1.0, 0.0),
        lambda g: 0.8 * np.sin(np.pi * g.axis_centers() / 1.5),
    ], ids=["plateau", "sine"])
    def test_chained_steps_are_the_engine(self, rho0, full_box_run):
        # the replay's substeps take the path's own increments, as run_simulation does
        spec = burgers_const_1d(rho0, c=1.0)
        dt = 0.01
        cfg = BGKConfig(epsilon=0.02, dt=dt, horizon=40 * dt, half_width=3.0,
                        n=128, n_v=16, v_bound=1.0)
        path = sample_path(3, dt, cfg.horizon, dim=1)
        traj = run_simulation(spec, cfg, path)
        replay = full_box_run(spec, cfg, path)
        assert traj.final_u.values.tobytes() == replay.final_u.values.tobytes()
        assert traj.rho.tobytes() == replay.rho.tobytes()
        assert traj.u_l1.tobytes() == replay.u_l1.tobytes()

    @given(levels=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8).filter(
               lambda lv: min(lv) < 0.0 < max(lv)),
           width=st.integers(1, 8), start=st.integers(0, 63),
           dB=st.floats(-1.0, 1.0), amplitude=st.floats(-2.0, 2.0),
           n_v=st.sampled_from([4, 16]))
    def test_step_keeps_sign_structure_and_max_principle(self, levels, width, start, dB,
                                                         amplitude, n_v):
        grid = SpatialGrid(dim=1, half_width=2.0, n=64)
        rho0 = np.zeros(grid.n)
        piece = np.repeat(levels, width)[:grid.n - start]
        rho0[start:start + piece.size] = piece
        spec = burgers_tanh_1d(lambda g: rho0, amplitude=amplitude)
        dt = 0.01
        cfg = BGKConfig(epsilon=0.02, dt=dt, horizon=dt, half_width=2.0, n=grid.n,
                        n_v=n_v, v_bound=1.0)
        path = BrownianPath(dim=1, dt=dt, horizon=dt, increments=[[dB]], seed=0)
        out = run_simulation(spec, cfg, path).final_u
        check_kinetic_structure(out, tol=0.0)
        assert np.max(np.abs(density_from_kinetic(out).values)) <= np.max(np.abs(rho0))

    def test_max_principle_exact_over_run(self):
        traj, _, _ = self._run()
        assert np.max(np.abs(traj.rho)) <= np.max(np.abs(traj.rho[0]))

    def test_determinism_bit_for_bit(self):
        a, _, _ = self._run(seed=11)
        b, _, _ = self._run(seed=11)
        assert np.array_equal(a.rho, b.rho)
        assert a.defect.slab_mass == b.defect.slab_mass

    def test_l1_exact_conservation_zero_noise_divfree(self):
        spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.9), c=1.0)
        traj, _, _ = self._run(zero=True, spec=spec)
        assert np.all(np.abs(traj.u_l1 - traj.u_l1[0]) <= 1e-10 * traj.u_l1[0])

    def test_l1_envelope_with_noise(self):
        traj, _, _ = self._run()
        assert np.all(traj.u_l1 <= traj.u_l1[0] * (1 + 1e-6))

    def test_sign_structure_of_final_state(self):
        traj, _, _ = self._run()
        pos = traj.vgrid.positive_cells()
        assert np.all(traj.final_u.values[..., pos] >= 0.0)
        assert np.all(traj.final_u.values[..., ~pos] <= 0.0)

    def test_mass_conserved_divfree(self):
        spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.9), c=1.0)
        traj, _, _ = self._run(spec=spec)
        masses = np.sum(traj.rho, axis=1) * traj.sgrid.h
        assert np.all(np.abs(masses - masses[0]) <= 1e-8 * abs(masses[0]))

    def test_snapshot_count_matches_stride(self):
        traj, cfg, _ = self._run(snapshot_stride=1)
        assert len(traj.times) == cfg.n_steps + 1

    def test_shift_reduction_limit_small_eps(self):
        # b = 0: rho(t, x) -> rho0(x - B(t)) as eps -> 0 at fixed (h, dt)
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.9), c=0.0)
        T = 0.2
        dt = T / 128
        errs = []
        for eps in (8 * dt, dt):
            cfg = BGKConfig(epsilon=eps, dt=dt, horizon=T, half_width=3.0,
                            n=256, n_v=16)
            path = sample_path(13, dt, T, dim=1)
            traj = run_simulation(spec, cfg, path)
            x = traj.sgrid.axis_centers()
            shift = path.value(T)[0]
            exact = np.interp(x - shift, x, traj.rho[0], left=0.0, right=0.0)
            errs.append(float(np.sum(np.abs(traj.final().values - exact))
                        * traj.sgrid.h))
        assert errs[1] < errs[0]
        assert errs[1] <= 0.05

    def test_2d_run_and_max_principle(self):
        from stochbgk.problem import make_spec, linear_flux, shear_field_2d
        spec = make_spec("shear", 2, linear_flux(), shear_field_2d(0.5, 1.0),
                         bump_data((0.0, 0.0), 1.0, 0.9))
        T = 0.1
        cfg = BGKConfig(epsilon=0.02, dt=0.01, horizon=T, half_width=3.0,
                        n=48, n_v=8, snapshot_stride=5)
        path = sample_path(2, 0.01, T, dim=2)
        traj = run_simulation(spec, cfg, path)
        assert np.max(np.abs(traj.rho)) <= np.max(np.abs(traj.rho[0]))
        masses = np.sum(traj.rho, axis=(1, 2)) * traj.sgrid.cell_volume
        assert np.all(np.abs(masses - masses[0]) <= 1e-8 * abs(masses[0]))

    def test_non_finite_increment_aborts(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        dt = 0.01
        cfg = BGKConfig(epsilon=0.02, dt=dt, horizon=4 * dt, half_width=3.0, n=64, n_v=8)
        for bad in (math.inf, math.nan):
            increments = sample_path(5, dt, cfg.horizon, dim=1).increments.copy()
            increments[1, 0] = bad
            path = BrownianPath(dim=1, dt=dt, horizon=cfg.horizon, increments=increments,
                                seed=5)
            with np.errstate(invalid="ignore"), pytest.raises(NumericalAbortError) as err:
                run_simulation(spec, cfg, path)
            assert err.value.step == 2

    def test_path_resolution_mismatch_rejected(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        cfg = BGKConfig(epsilon=0.02, dt=0.01, horizon=0.1, half_width=3.0,
                        n=64, n_v=8)
        path = sample_path(1, 0.02, 0.1, dim=1)
        with pytest.raises(ConfigurationError):
            run_simulation(spec, cfg, path)


def _window_case(kind, data):
    """(spec, config, path) of one support-window scenario."""
    stride = data.draw(st.integers(1, 4))
    if kind == "cusp2d":
        n = data.draw(st.sampled_from([16, 24, 32]))
        steps = max(1, round(n / 6.0))
        cfg = BGKConfig(epsilon=2.0 / steps, dt=1.0 / steps, horizon=1.0, half_width=3.0,
                        n=n, n_v=data.draw(st.sampled_from([4, 8])), snapshot_stride=stride)
        path = sample_path(data.draw(st.integers(0, 999)), cfg.dt, 1.0, dim=2)
        return cusp_flow_spec(cusp_data()), cfg, path
    n, dt = data.draw(st.sampled_from([48, 512])), 1.0 / 64  # 512: window extents of 4k
    steps = data.draw(st.integers(1, 12))
    # far feet: 6 > the box width 4; a fast drift moves the support up to 8
    # cells a step, beyond the reach's margin of 2, with no noise
    scale = {"far_feet": 6.0, "fast_drift": 0.0}.get(kind, 0.3)
    increments = np.array(data.draw(st.lists(st.floats(-scale, scale), min_size=steps,
                                             max_size=steps)))[:, None]
    v_bound = None
    if kind == "rho_zero":
        # +1/4 beside -1/4 with dv = 1/2: one v-cell each side, |f'| = 1/4 there,
        # and b = 16 moves both half a cell in one noiseless step, so both
        # cells end with rho = 0 and u != 0; a window that tracked rho would lose them
        n, n_v, v_bound, stride = 32, 4, 1.0, 1
        j = data.draw(st.integers(0, n - 2))
        rho0 = np.zeros(n)
        rho0[j:j + 2] = [0.25, -0.25]
        increments[0] = 0.0
        spec = burgers_const_1d(lambda g: rho0, c=16.0)
    else:
        n_v = data.draw(st.sampled_from([4, 8]))
        rho0 = np.zeros(n)
        if kind != "zero":
            low = {"fills_box": 0.05, "fast_drift": 0.5}.get(kind)
            # a subnormal |rho0| makes VelocityGrid's log2 fail (math domain error)
            level = ((st.floats(low, 1.0) | st.floats(-1.0, -low)) if low else
                     st.floats(-1.0, 1.0, allow_subnormal=False))
            levels = data.draw(st.lists(level, min_size=1, max_size=6))
            piece = np.repeat(levels, data.draw(st.integers(1, 8)))
            if kind == "fills_box":
                rho0 = np.resize(piece, n)
            elif kind == "edge":
                piece = piece[:n]
                rho0[:piece.size] = piece
                if data.draw(st.booleans()):
                    rho0 = rho0[::-1].copy()
            else:
                start = data.draw(st.integers(0, n - 1))
                piece = piece[:n - start]
                rho0[start:start + piece.size] = piece
        amplitude = data.draw(st.floats(20.0, 40.0) | st.floats(-40.0, -20.0)
                              if kind == "fast_drift" else st.floats(-3.0, 3.0))
        spec = burgers_tanh_1d(lambda g: rho0, amplitude=amplitude)
    cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=steps * dt, half_width=2.0, n=n,
                    n_v=n_v, v_bound=v_bound, snapshot_stride=stride)
    return spec, cfg, BrownianPath(dim=1, dt=dt, horizon=cfg.horizon,
                                   increments=increments, seed=0)


class TestSupportWindow:
    """run_simulation steps only the cells the support can reach; its output
    is the full-box substeps' byte for byte."""

    @pytest.mark.parametrize("kind", ["edge", "far_feet", "fast_drift", "rho_zero",
                                      "fills_box", "zero", "cusp2d"])
    @given(data=st.data())
    def test_window_engine_is_the_full_box_substeps(self, kind, data, full_box_run):
        spec, cfg, path = _window_case(kind, data)
        traj = run_simulation(spec, cfg, path)
        rho, u_l1, u_snaps, u, defect, _ = full_box_run(spec, cfg, path)
        if kind == "rho_zero":
            assert not np.any(rho[1]) and np.any(u_snaps[1])
        assert traj.rho.tobytes() == rho.tobytes()
        assert traj.u_l1.tobytes() == u_l1.tobytes()
        assert traj.final_u.values.tobytes() == u.values.tobytes()
        assert np.asarray(traj.defect.slab_mass).tobytes() == np.asarray(defect.slab_mass).tobytes()
        assert repr(traj.defect.min_entry) == repr(defect.min_entry)

    def _relaxed_cells(self, monkeypatch, spec, cfg, path):
        cells = []
        relax = bgk._relax

        def counting(values, *args):
            cells.append(math.prod(values.shape[:-1]))
            return relax(values, *args)

        monkeypatch.setattr(bgk, "_relax", counting)
        run_simulation(spec, cfg, path)
        assert len(cells) == cfg.n_steps
        return sum(cells)

    def test_cusp_flow_relaxes_a_window(self, monkeypatch):
        n = 64
        steps = round(n / 6.0)
        cfg = BGKConfig(epsilon=2.0 / steps, dt=1.0 / steps, horizon=1.0, half_width=3.0,
                        n=n, n_v=8, snapshot_stride=steps)
        path = sample_path(20240229, cfg.dt, 1.0, dim=2)
        cells = self._relaxed_cells(monkeypatch, cusp_flow_spec(cusp_data()), cfg, path)
        assert cells <= 0.6 * n * n * steps

    def test_support_filling_the_box_relaxes_the_box(self, monkeypatch):
        spec = burgers_const_1d(lambda g: np.full(g.shape, 0.5), c=1.0)
        n, dt = 64, 0.01
        cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=16 * dt, half_width=3.0, n=n, n_v=8)
        path = sample_path(2, dt, cfg.horizon, dim=1)
        assert self._relaxed_cells(monkeypatch, spec, cfg, path) == n * cfg.n_steps


class TestEpsilonContinuation:
    def test_distances_decrease(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        T = 0.16
        dt = T / 128
        cfg = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=3.0,
                        n=128, n_v=16, snapshot_stride=16)
        path = sample_path(9, dt, T, dim=1)
        rep = epsilon_continuation(spec, cfg, path, [8 * dt, 4 * dt, 2 * dt])
        assert rep["kinetic_decreasing"]
        assert rep["cauchy_decreasing"]

    def test_rejects_nondecreasing_ladder(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        cfg = BGKConfig(epsilon=0.01, dt=0.01, horizon=0.1, half_width=3.0,
                        n=64, n_v=8)
        path = sample_path(9, 0.01, 0.1, dim=1)
        with pytest.raises(ConfigurationError):
            epsilon_continuation(spec, cfg, path, [0.01, 0.02])

    def test_warns_below_dt(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        dt = 0.01
        cfg = BGKConfig(epsilon=dt, dt=dt, horizon=0.05, half_width=3.0,
                        n=64, n_v=8)
        path = sample_path(9, dt, 0.05, dim=1)
        with pytest.warns(UserWarning, match="below dt"):
            epsilon_continuation(spec, cfg, path, [2 * dt, dt / 4])



def _reference_picard(spec, cfg, path):
    """The Picard iteration as first written: one interpolation and one
    single-cell Maxwellian per (m, l) pair and iteration, on feet rebuilt
    from nested lists, with a one-cell zero pad.  Returns the snapshot
    densities, the final kinetic values and the contraction ratios."""
    grid = SpatialGrid(dim=1, half_width=cfg.half_width, n=cfg.n)
    rho0 = spec.initial_field(grid).values
    vg = VelocityGrid.for_density_bound(
        cfg.v_bound if cfg.v_bound is not None else np.max(np.abs(rho0)), cfg.n_v)
    h, dt, eps, dv = grid.h, cfg.dt, cfg.epsilon, vg.dv
    x0, centers = -cfg.half_width + 0.5 * h, grid.axis_centers()
    nodes, bx = path.values_at_nodes(), spec.b_on_grid(grid)[:, 0]
    fp = np.asarray(spec.f_prime(vg.centers()), dtype=float)
    clip = (min(0.0, rho0.min()), max(0.0, rho0.max()))
    edges = vg.edges() / dv
    w_lo, w_hi = edges[:-1][:, None], edges[1:][:, None]

    def interp(values, feet):
        n = values.shape[0]
        padded = np.zeros((n + 2,) + values.shape[1:])
        padded[1:-1] = values
        s = (feet - x0) / h
        i0 = np.floor(s).astype(np.int64)
        lo, hi = np.clip(i0, -1, n) + 1, np.clip(i0 + 1, -1, n) + 1
        cols = () if values.ndim == 1 else (np.arange(values.shape[1]),)
        a, b = padded[(lo,) + cols], padded[(hi,) + cols]
        out = a + (s - i0) * (b - a)
        return np.clip(out, np.minimum(a, b), np.maximum(a, b))

    def cell_maxwellian(rho):
        r = rho / dv
        lo, hi = np.minimum(r, 0.0), np.maximum(r, 0.0)
        frac = np.clip(w_hi, lo, hi) - np.clip(w_lo, lo, hi)
        return np.where(r >= 0, frac, -frac)

    n_steps, n_win = cfg.n_steps, int(round(cfg.window / dt))
    rho_hist = np.empty((n_steps + 1, cfg.n))
    rho_hist[0] = rho0
    u_start, ratios = maxwellian_cell_average(rho0, vg), []
    for win_start in range(0, n_steps, n_win):
        m_count = min(win_start + n_win, n_steps) - win_start
        feet = [None] * (m_count + 1)
        for m in range(1, m_count + 1):
            y, row = centers[None, :] - nodes[win_start + m, 0], [None] * m
            for k in range(win_start + m, win_start, -1):
                b_at = np.interp(y + nodes[k, 0], centers, bx, left=0.0, right=0.0)
                y = y - dt * fp[:, None] * b_at
                row[k - 1 - win_start] = y + nodes[k - 1, 0]
            feet[m] = row
        rho_iter = np.repeat(rho_hist[win_start][None, :], m_count + 1, axis=0)
        prev = None
        for _ in range(cfg.picard_max_iters):
            rho_new = rho_iter.copy()
            delta = 0.0
            for m in range(1, m_count + 1):
                acc = np.zeros((vg.n_v, cfg.n))
                for l in range(m):
                    wgt = math.exp((l * dt + dt - m * dt) / eps) - math.exp((l * dt - m * dt) / eps)
                    acc += wgt * cell_maxwellian(interp(rho_iter[l], feet[m][l]))
                acc += math.exp(-m * dt / eps) * interp(u_start, feet[m][0].T).T
                u_m = acc.T
                rho_new[m] = np.clip(kinetic_density_values(u_m, dv), *clip)
                delta = max(delta, float(np.sum(np.abs(rho_new[m] - rho_iter[m]))) * h)
            if prev:
                ratios.append(delta / prev)
            prev, rho_iter = delta, rho_new
            if delta < cfg.picard_tol:
                break
        rho_hist[win_start + 1: win_start + m_count + 1] = rho_iter[1:]
        u_start = u_m
    snaps = sorted(set(range(0, n_steps + 1, cfg.snapshot_stride)) | {n_steps})
    return rho_hist[snaps], u_start, np.asarray(ratios)


class TestPicard:
    def test_transport_limit_large_epsilon(self):
        # eps >> window: relaxation weight ~ 0, one sweep is pure transport
        spec = linear_const_1d(bump_data(0.0, 1.0, 0.9), c=1.0)
        T = 0.05
        dt = T / 8
        cfg = BGKConfig(epsilon=1e6, dt=dt, horizon=T, half_width=3.0,
                        n=256, n_v=8, window=T, picard_tol=1e-12)
        path = sample_path(3, dt, T, dim=1).zeroed()
        traj = picard_solve(spec, cfg, path)
        x = traj.sgrid.axis_centers()
        exact = np.interp(x - T, x, traj.rho[0], left=0.0, right=0.0)
        err = float(np.sum(np.abs(traj.rho[-1] - exact)) * traj.sgrid.h)
        assert err <= 0.01

    def test_contraction_factor_below_bound(self):
        spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.8), c=1.0)
        T = 0.1
        dt = T / 16
        cfg = BGKConfig(epsilon=0.05, dt=dt, horizon=T, half_width=3.0,
                        n=128, n_v=16, window=T, picard_tol=1e-10)
        path = sample_path(4, dt, T, dim=1)
        traj = picard_solve(spec, cfg, path)
        assert traj.picard_ratios
        assert max(traj.picard_ratios) <= traj.picard_bound + 0.05

    def test_matches_splitting_l1(self):
        spec = burgers_const_1d(bump_data(-0.5, 1.2, 0.8), c=1.0)
        T = 0.1
        dt = T / 32
        cfg = BGKConfig(epsilon=4 * dt, dt=dt, horizon=T, half_width=3.0,
                        n=512, n_v=16, window=T, picard_tol=1e-11,
                        snapshot_stride=8)
        path = sample_path(6, dt, T, dim=1)
        a = picard_solve(spec, cfg, path)
        b = run_simulation(spec, cfg, path)
        gap = float(np.sum(np.abs(a.rho[-1] - b.rho[-1])) * a.sgrid.h)
        assert gap <= 0.01

    @pytest.mark.parametrize("spec, window, n, n_v, half_width, seed, max_iters", [
        (burgers_const_1d(lambda g: 0.8 * np.sin(np.pi * g.axis_centers() / 1.5)
                          * (np.abs(g.axis_centers()) <= 1.5), c=1.0), 0.1, 128, 16, 3.0, 4,
         None),
        (burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0), 0.05, 128, 16, 3.0, 8, None),
        (burgers_tanh_1d(bump_data(0.0, 1.5, 0.9), amplitude=1.0, width=0.5),
         0.05, 128, 16, 3.0, 5, None),
        (linear_const_1d(bump_data(1.4, 1.0, 0.9), c=8.0), 0.1, 64, 8, 2.0, 11, None),
        # stops after 5 sweeps of a 16-step window, before every row is final
        (burgers_const_1d(bump_data(-0.5, 1.2, 0.8), c=1.0), 0.1, 128, 16, 3.0, 3, 5),
        (burgers_const_1d(bump_data(-0.5, 1.2, 0.8), c=1.0), 0.1 / 16, 128, 16, 3.0, 6,
         None),
        # windows of 5, 5, 5 and 1 steps
        (burgers_tanh_1d(bump_data(0.0, 1.5, 0.9), amplitude=1.0, width=0.5),
         0.1 * 5 / 16, 128, 16, 3.0, 9, None),
    ], ids=["sign-changing", "two-windows", "x-dependent-b", "feet-leave-box",
            "max-iters-before-frozen", "one-step-window", "short-last-window"])
    def test_matches_reference_loop_bit_for_bit(self, spec, window, n, n_v,
                                                half_width, seed, max_iters):
        T = 0.1
        dt = T / 16
        cfg = BGKConfig(epsilon=0.05, dt=dt, horizon=T, half_width=half_width,
                        n=n, n_v=n_v, window=window, picard_tol=1e-10,
                        snapshot_stride=4, picard_max_iters=max_iters or 200)
        path = sample_path(seed, dt, T, dim=1)
        if max_iters is None:
            traj = picard_solve(spec, cfg, path)
        else:
            with pytest.warns(UserWarning, match="max_iters"):
                traj = picard_solve(spec, cfg, path)
        rho, final_u, ratios = _reference_picard(spec, cfg, path)
        assert traj.rho.tobytes() == rho.tobytes()
        assert np.asarray(traj.final_u.values).tobytes() == final_u.tobytes()
        assert np.asarray(traj.picard_ratios).tobytes() == ratios.tobytes()
        # one residual history per window; the ratios are its quotients
        assert len(traj.picard_residuals) == len(range(0, 16, round(window / dt)))
        assert traj.picard_ratios == [b / a for r in traj.picard_residuals
                                      for a, b in zip(r, r[1:])]
        if max_iters is None:
            assert all(r[-1] < cfg.picard_tol for r in traj.picard_residuals)
        else:
            assert [len(r) for r in traj.picard_residuals] == [max_iters]
            assert traj.picard_residuals[0][-1] >= cfg.picard_tol

    @pytest.mark.parametrize("steps, tol, sweeps", [(16, 1e-10, 13), (8, 1e-14, 9)],
                             ids=["tolerance-stops", "every-row-freezes"])
    def test_sweep_k_evaluates_only_the_unfrozen_pairs(self, monkeypatch, steps, tol,
                                                       sweeps):
        # sweep k evaluates pairs (m, l) with k <= l < m only: rows 0..k and
        # the pair terms with l < k are final from earlier sweeps
        real, calls = bgk._single_cell_maxwellian, [0]

        def counted(rho, vgrid):
            calls[0] += 1
            return real(rho, vgrid)

        monkeypatch.setattr(bgk, "_single_cell_maxwellian", counted)
        spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.8), c=1.0)
        T = 0.1
        cfg = BGKConfig(epsilon=0.05, dt=T / steps, horizon=T, half_width=3.0, n=64,
                        n_v=8, window=T, picard_tol=tol)
        traj = picard_solve(spec, cfg, sample_path(4, cfg.dt, T, dim=1))
        assert [len(r) for r in traj.picard_residuals] == [sweeps]
        # a sweep k >= steps evaluates nothing
        assert calls[0] == sum((steps - k) * (steps - k + 1) // 2
                               for k in range(min(sweeps, steps)))

    @staticmethod
    def _lifted_picard(monkeypatch, lifts, max_iters, window_steps):
        """Eight steps in windows of window_steps; every density of sweep i
        (counted over all windows) is lifted by lifts[i], which makes the
        residuals grow where the lifts grow faster than the iteration
        contracts.  Sweep k of a window computes rows k+1..window_steps only,
        so it makes window_steps - k calls; every window here runs all
        max_iters <= window_steps sweeps or aborts."""
        real = bgk.kinetic_density_values
        lifts = iter(lifts)
        sweep_calls = itertools.cycle(range(window_steps, window_steps - max_iters, -1))
        state = {"left": 0, "lift": 0.0}

        def lifted(values, dv):
            if state["left"] == 0:  # first call of a sweep
                state["left"] = next(sweep_calls)
                state["lift"] = next(lifts, state["lift"])
            state["left"] -= 1
            return real(values, dv) + state["lift"]

        monkeypatch.setattr(bgk, "kinetic_density_values", lifted)
        spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.4), c=1.0)
        T = 0.1
        cfg = BGKConfig(epsilon=0.05, dt=T / 8, horizon=T, half_width=3.0, n=64,
                        n_v=8, v_bound=1.0, window=window_steps * T / 8,
                        picard_tol=1e-14, picard_max_iters=max_iters)
        return picard_solve(spec, cfg, sample_path(2, cfg.dt, T, dim=1))

    def test_divergence_guard_reads_one_window(self, monkeypatch):
        # window 1 ends on two growing residuals and window 2 starts with a
        # third: three in a row across the boundary, which must not abort
        with pytest.warns(UserWarning, match="max_iters"):
            traj = self._lifted_picard(
                monkeypatch, [0.0, 0.0, 0.01, 0.03, 0.03, 0.09], max_iters=4,
                window_steps=4)
        grows = [[b > a for a, b in zip(r, r[1:])] for r in traj.picard_residuals]
        assert grows == [[False, True, True], [True, False, False]]
        assert len(traj.picard_ratios) == 6

    def test_divergence_guard_aborts_within_a_window(self, monkeypatch):
        # one window of eight steps, so no row freezes before the third growth
        with pytest.raises(ConfigurationError, match="diverges"):
            self._lifted_picard(monkeypatch, [0.0, 0.0, 0.01, 0.03, 0.07, 0.15],
                                max_iters=6, window_steps=8)

    def test_max_principle_in_picard_mode(self):
        spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
        T = 0.1
        dt = T / 16
        cfg = BGKConfig(epsilon=0.02, dt=dt, horizon=T, half_width=3.0,
                        n=128, n_v=16, window=T / 2, picard_tol=1e-9)
        path = sample_path(8, dt, T, dim=1)
        traj = picard_solve(spec, cfg, path)
        assert np.max(np.abs(traj.rho)) <= 1.0
