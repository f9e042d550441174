"""Audit checks: residuals, bounds, comparison, Holder fits, commutator."""

import hashlib
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from stochbgk.audit import (SpatialBump, TemporalRamp, VelocityCutoff,
                            check_bv_nonincrease, check_defect_structure,
                            check_energy_defect_identity, check_l1_growth,
                            check_max_principle, entropy_residual,
                            kinetic_residual, run_standard_audit)
from stochbgk.bgk import BGKConfig, run_simulation
from stochbgk.brownian import sample_path
from stochbgk.config import build_bgk_config, build_spec, load_config, validate_run_config
from stochbgk.errors import ConfigurationError
from stochbgk.grids import SpatialGrid
from stochbgk.problem import (burgers_const_1d, burgers_tanh_1d, bump_data, linear_flux,
                              make_spec, plateau_data, random_bv_data, riemann_data,
                              shear_field_2d)

from experiments import check_comparison, commutator_experiment, fit_holder_exponent

REFS = [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]
GOLDEN_CONFIG = pathlib.Path(__file__).parent / "golden" / "config.json"


def _run(spec=None, seed=9, T=0.24, n=192, dt_frac=64, eps_mult=2,
         zero=False, **kw):
    spec = spec or burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    dt = T / dt_frac
    cfg = BGKConfig(epsilon=eps_mult * dt, dt=dt, horizon=T, half_width=3.0,
                    n=n, n_v=16, snapshot_stride=1, **kw)
    path = sample_path(seed, dt, T, dim=1)
    if zero:
        path = path.zeroed()
    return run_simulation(spec, cfg, path), spec, cfg, path


def _entropy(traj, refs, **kw):
    """entropy_residual of a run's snapshots."""
    return entropy_residual(traj.rho, traj.times, traj.path_values_at_snapshots(),
                            traj.sgrid, traj.spec, refs, **kw)


def _c0(traj):
    return traj.spec.growth_rate(traj.vgrid.bound)


def _l1_growth(traj):
    return check_l1_growth(traj.rho, traj.u_l1, traj.times, traj.sgrid, _c0(traj))


class TestTestFunctions:
    def test_bump_support_and_peak(self):
        bump = SpatialBump((0.0,), 1.0)
        pts = np.linspace(-2, 2, 9)[:, None]
        vals = bump(pts)
        assert vals[4] == 1.0
        assert np.all(vals[np.abs(pts[:, 0]) >= 1.0] == 0.0)
        assert np.all(vals >= 0.0)

    def test_bump_gradient_finite_difference(self):
        bump = SpatialBump((0.3, -0.2), 0.9)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.4, 0.4, (20, 2)) + np.array([0.3, -0.2])
        g = bump.gradient(pts)
        eps = 1e-6
        for axis in range(2):
            shift = np.zeros(2)
            shift[axis] = eps
            fd = (bump(pts + shift) - bump(pts - shift)) / (2 * eps)
            assert np.allclose(g[:, axis], fd, atol=1e-6)

    def test_ramp_shape(self):
        ramp = TemporalRamp(t_end=1.0, ramp=0.25)
        assert ramp(0.0) == 1.0
        assert ramp(0.75) == 1.0
        assert ramp(0.875) == pytest.approx(0.5)
        assert ramp(1.0) == 0.0
        assert ramp(2.0) == 0.0

    def test_cutoff_plateau_and_support(self):
        cut = VelocityCutoff(k=1.0)
        v = np.array([-2.5, -2.0, -1.5, 0.0, 1.0, 1.5, 2.0])
        vals = cut(v)
        assert vals[3] == 1.0 and vals[4] == 1.0
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert 0.0 < vals[2] < 1.0


class TestEntropyResidual:
    def test_constant_state_no_field_is_zero(self):
        spec = burgers_const_1d(lambda g: np.zeros(g.shape), c=0.0)
        path = sample_path(1, 0.01, 0.2, dim=1)
        rho = np.zeros((21, 64))
        worst, _ = entropy_residual(rho, np.arange(21) * 0.01, path.values_at_nodes(),
                                    SpatialGrid(1, 3.0, 64), spec, REFS)
        assert abs(worst) <= 1e-12

    def test_solver_output_nearly_nonnegative(self):
        traj, spec, cfg, _ = _run()
        worst, _ = _entropy(traj, REFS)
        scale = traj.sgrid.h + cfg.dt + cfg.epsilon
        assert worst >= -1.5 * scale

    def test_residual_shrinks_under_refinement(self):
        worsts = []
        for n, frac in ((96, 48), (192, 96), (384, 192)):
            traj, _, cfg, _ = _run(n=n, dt_frac=frac, eps_mult=1)
            worst, _ = _entropy(traj, REFS)
            worsts.append(worst)
        assert abs(worsts[2]) < abs(worsts[0])

    def test_expansion_shock_fails_hard(self):
        spec = burgers_const_1d(riemann_data(-1.0, 1.0, 0.0), c=1.0)
        grid = SpatialGrid(1, 3.0, 256)
        stepf = np.where(grid.axis_centers() < 0, -1.0, 1.0)
        rho = np.tile(stepf, (61, 1))
        worst, _ = entropy_residual(rho, np.arange(61) * 0.005, np.zeros((61, 1)), grid,
                                    spec, REFS)
        assert worst < -0.05

    # sha256 of repr(rows), recorded when each bump recomputed every entropy
    ROWS_DIGESTS = {
        "golden": (48, "5ef5b8ea87615d2caa37a59166e5e9579d36b39a01c5c22ecdcf0f9c9660cf53"),
        "2d": (12, "d5163f6312862261e825bbe1dfaf69f29b1b71fbf51ccec4832926d82939e27d"),
    }

    @pytest.mark.parametrize("case", list(ROWS_DIGESTS))
    def test_rows_are_pinned(self, case):
        # the golden run of tests/golden with the references of run_standard_audit;
        # a 2D shear run with one bump centre, so its rows are (2 widths) x (6 entropies)
        if case == "golden":
            doc = validate_run_config(load_config(GOLDEN_CONFIG))
            spec, cfg, seed = build_spec(doc), build_bgk_config(doc), 7
        else:
            spec = make_spec(2, linear_flux(), shear_field_2d(0.5, 1.0),
                             bump_data((0.0, 0.0), 1.0, 0.9))
            cfg, seed = BGKConfig(epsilon=0.02, dt=0.01, horizon=0.1, half_width=3.0, n=32,
                                  n_v=8, snapshot_stride=2), 2
        traj = run_simulation(spec, cfg, sample_path(seed, cfg.dt, cfg.horizon, dim=spec.dim))
        refs = ([k * traj.vgrid.bound for k in (-0.75, -0.25, 0.0, 0.25, 0.5, 0.75)]
                if case == "golden" else [-0.5, 0.0, 0.25, 0.5])
        worst, rows = _entropy(traj, refs)
        count, digest = self.ROWS_DIGESTS[case]
        assert len(rows) == count
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
        # worst is the first smallest residual in row order
        assert repr(worst) == repr(min(r[-1] for r in rows))

    def test_family_monotonicity(self):
        traj, spec, cfg, _ = _run()
        worst_small, _ = _entropy(traj, [0.5])
        worst_full, _ = _entropy(traj, REFS)
        assert worst_small >= worst_full

    def test_bump_touching_boundary_rejected(self):
        traj, spec, cfg, _ = _run(n=64)
        with pytest.raises(ConfigurationError):
            _entropy(traj, [0.0], bumps=(SpatialBump((0.0,), 10.0),),
                     ramp=TemporalRamp(traj.times[-1], 0.05))

    def test_2d_shear_run_nearly_nonnegative(self):
        from stochbgk.problem import make_spec, linear_flux, shear_field_2d
        spec = make_spec(2, linear_flux(), shear_field_2d(0.5, 1.0),
                         bump_data((0.0, 0.0), 1.2, 0.9))
        T = 0.12
        dt = T / 24
        cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                        n=64, n_v=8, snapshot_stride=1)
        traj = run_simulation(spec, cfg, sample_path(4, dt, T, dim=2))
        worst, _ = _entropy(traj, [0.25, 0.5])
        assert worst >= -2.0 * (traj.sgrid.h + cfg.dt + cfg.epsilon)


class TestKineticResidual:
    """The kinetic snapshots and defect fields come from the replay of the
    public substeps, which equals the engine byte for byte."""

    def test_zero_solution_zero_residual(self, full_box_run):
        spec = burgers_const_1d(lambda g: np.zeros(g.shape), c=1.0)
        traj, spec, cfg, path = _run(spec=spec)
        replay = full_box_run(spec, cfg, path)
        r = kinetic_residual(traj, replay.kinetic_snapshots, replay.defect_fields,
                             SpatialBump((0.0,), 2.0), VelocityCutoff(k=traj.vgrid.bound))
        assert r == 0.0

    def test_arrays_off_the_trajectory_rejected(self, full_box_run):
        traj, spec, cfg, path = _run(T=0.06, dt_frac=16, n=64)
        replay = full_box_run(spec, cfg, path)
        u, fields = replay.kinetic_snapshots, replay.defect_fields
        bump = SpatialBump((0.0,), 2.0)
        flat = VelocityCutoff(k=traj.vgrid.bound)  # constant on [-N, N]
        varying = VelocityCutoff(k=0.5 * traj.vgrid.bound)
        kinetic_residual(traj, u, fields, bump, varying)
        kinetic_residual(traj, u, None, bump, flat)
        # a snapshot or v-cell short, another grid; a slab short, another grid
        for u_bad, fields_bad in ((u[:-1], fields), (u[..., :-1], fields),
                                  (u[:, ::2], fields), (u, fields[:-1]),
                                  (u, fields[:, ::2])):
            with pytest.raises(ConfigurationError):
                kinetic_residual(traj, u_bad, fields_bad, bump, varying)
        with pytest.raises(ConfigurationError, match="varying cutoff"):
            kinetic_residual(traj, u, None, bump, varying)

    def test_imbalance_shrinks(self, full_box_run):
        vals = []
        for n, frac in ((96, 48), (192, 96)):
            traj, spec, cfg, path = _run(n=n, dt_frac=frac, eps_mult=1)
            replay = full_box_run(spec, cfg, path)
            vals.append(abs(kinetic_residual(
                traj, replay.kinetic_snapshots, replay.defect_fields,
                SpatialBump((0.0,), 2.0), VelocityCutoff(k=traj.vgrid.bound))))
        assert vals[1] < vals[0]

    def test_varying_cutoff_imbalance_shrinks(self, full_box_run):
        """k = N/2 with psi' paired at the v-cells' upper edges: 7.26e-3,
        1.80e-3, 8.40e-4 at n = 96, 192, 384 (at the centres it was 4.43e-3,
        6.21e-3, 5.43e-3 and did not shrink)."""
        vals = []
        for n in (96, 192, 384):
            traj, spec, cfg, path = _run(n=n, dt_frac=n // 2, eps_mult=1)
            replay = full_box_run(spec, cfg, path)
            vals.append(abs(kinetic_residual(
                traj, replay.kinetic_snapshots, replay.defect_fields,
                SpatialBump((0.0,), 2.0), VelocityCutoff(k=0.5 * traj.vgrid.bound))))
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 0.25 * vals[0]

    def test_defect_term_of_a_varying_cutoff(self, full_box_run):
        """k = N/2: psi'(v) != 0 on N/2 < |v| < N, so the defect fields
        enter.  The m-term, read as the change of the residual when the
        fields are zeroed, equals a direct sum of m phi psi' over slabs,
        cells and v-cells, with psi' at each v-cell's upper edge, where the
        prefix sum holds m."""
        traj, spec, cfg, path = _run(T=0.06, dt_frac=8, n=32)
        replay = full_box_run(spec, cfg, path)
        u, fields = replay.kinetic_snapshots, replay.defect_fields
        bump, cutoff = SpatialBump((0.0,), 2.0), VelocityCutoff(k=0.5 * traj.vgrid.bound)
        m_term = (kinetic_residual(traj, u, fields, bump, cutoff)
                  - kinetic_residual(traj, u, np.zeros_like(fields), bump, cutoff))
        phi = bump(traj.sgrid.centers())
        dpsi = cutoff.derivative(traj.vgrid.edges()[1:])
        direct = 0.0
        for slab in fields:
            for i in range(cfg.n):
                for j in range(cfg.n_v):
                    direct += slab[i, j] * phi[i] * dpsi[j] * traj.sgrid.h * traj.vgrid.dv
        assert direct != 0.0
        assert m_term == pytest.approx(direct, rel=1e-9)


class TestBoundChecks:
    def test_max_principle_pass_and_fail(self):
        traj, _, _, _ = _run()
        assert check_max_principle(traj.rho).passed
        bad = traj.rho.copy()
        bad[3, 10] = 2.0
        assert not check_max_principle(bad).passed

    def test_l1_growth_divfree(self):
        traj, _, _, _ = _run()
        res = _l1_growth(traj)
        assert res.passed

    def test_l1_growth_nonzero_divergence(self):
        spec = burgers_tanh_1d(bump_data(0.0, 1.0, 0.9), amplitude=0.5, width=1.0)
        traj, _, _, _ = _run(spec=spec)
        assert _c0(traj) > 0
        assert _l1_growth(traj).passed

    def test_bv_nonincrease_on_riemann(self):
        traj, _, _, _ = _run()
        res = check_bv_nonincrease(traj.rho, traj.sgrid, traj.spec)
        assert res.passed and not res.note

    def test_bv_check_skips_x_dependent_field(self):
        spec = burgers_tanh_1d(bump_data(0.0, 1.0, 0.9), amplitude=0.5)
        traj, _, _, _ = _run(spec=spec)
        assert "skipped" in check_bv_nonincrease(traj.rho, traj.sgrid, traj.spec).note

    def test_defect_structure_and_envelope(self):
        traj, _, _, _ = _run()
        res = check_defect_structure(traj.rho[0], traj.slab_mass, traj.min_entry,
                                     float(traj.times[-1]), traj.sgrid, traj.vgrid.bound,
                                     _c0(traj))
        assert res.passed
        assert res.measured <= res.bound

    def test_energy_identity_divfree_burgers(self):
        traj, spec, _, _ = _run(n=384, dt_frac=192, eps_mult=1, T=0.3)
        res = check_energy_defect_identity(traj.rho, traj.slab_mass, traj.sgrid, spec)
        assert res.passed

    def test_energy_identity_skips_divergent_field(self):
        spec = burgers_tanh_1d(bump_data(0.0, 1.0, 0.9), amplitude=0.5)
        traj, _, _, _ = _run(spec=spec)
        assert "skipped" in check_energy_defect_identity(traj.rho, traj.slab_mass,
                                                         traj.sgrid, spec).note

    def test_report_table_and_pass(self):
        traj, _, _, _ = _run()
        report = run_standard_audit(traj)
        assert report.passed()
        assert "max_principle" in report.table()


class TestComparison:
    def _pair(self, lo_floor, hi_floor, seed=3):
        T, dt = 0.2, 0.2 / 64
        path = sample_path(seed, dt, T, dim=1)
        trajs = []
        for floor in (lo_floor, hi_floor):
            spec = burgers_const_1d(
                random_bv_data(5, pieces=6, amplitude=0.5, floor=floor), c=1.0)
            cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                            n=128, n_v=16, v_bound=2.0, snapshot_stride=4)
            trajs.append(run_simulation(spec, cfg, path))
        return trajs

    def test_identical_data_identical_runs(self):
        a, b = self._pair(0.2, 0.2)
        assert np.array_equal(a.rho, b.rho)

    def test_ordered_data_stay_ordered(self):
        lo, hi = self._pair(0.0, 0.1)
        res = check_comparison(lo, hi)
        assert res.passed

    def test_nonnegative_data_nonnegative_solution(self):
        lo, hi = self._pair(0.0, 0.3)
        assert np.all(hi.rho >= -1e-12)

    def test_requires_same_path(self):
        a, _ = self._pair(0.0, 0.1, seed=3)
        _, b = self._pair(0.0, 0.1, seed=4)
        with pytest.raises(ConfigurationError):
            check_comparison(a, b)

    def test_comparison_against_constants_gives_linf_bound(self):
        # ordering against the constant ceiling reproduces the sup-norm bound
        from stochbgk.problem import constant_data
        T, dt = 0.2, 0.2 / 64
        path = sample_path(6, dt, T, dim=1)
        cfg = dict(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                   n=128, n_v=16, v_bound=1.0, snapshot_stride=4)
        spec = burgers_const_1d(bump_data(0.0, 1.0, 0.8), c=1.0)
        run = run_simulation(spec, BGKConfig(**cfg), path)
        ceiling = run_simulation(
            burgers_const_1d(constant_data(0.8), c=1.0), BGKConfig(**cfg), path)
        res = check_comparison(run, ceiling)
        assert res.passed
        assert check_max_principle(run.rho).passed


class TestNegativeControls:
    """Each audit check must reject deliberately corrupted run data."""

    def test_l1_growth_control(self):
        traj, _, _, _ = _run()
        rho = traj.rho.copy()
        rho[-1] *= 3.0
        u_l1 = np.sum(np.abs(rho), axis=1) * traj.sgrid.h * 3.0
        assert not check_l1_growth(rho, u_l1, traj.times, traj.sgrid, _c0(traj)).passed

    def test_bv_control(self):
        traj, spec, _, _ = _run()
        rho = traj.rho.copy()
        rho[-1, ::2] += 0.3  # sawtooth injection
        np.clip(rho[-1], -1.0, 1.0, out=rho[-1])
        assert not check_bv_nonincrease(rho, traj.sgrid, spec).passed

    def test_energy_identity_control(self):
        traj, spec, _, _ = _run(n=384, dt_frac=192, eps_mult=1, T=0.3)
        no_defect = [0.0] * len(traj.slab_mass)
        assert not check_energy_defect_identity(traj.rho, no_defect, traj.sgrid, spec).passed

    def test_comparison_control(self):
        T, dt = 0.2, 0.2 / 64
        path = sample_path(3, dt, T, dim=1)
        trajs = []
        for floor in (0.0, 0.1):
            spec = burgers_const_1d(
                random_bv_data(5, pieces=6, amplitude=0.5, floor=floor), c=1.0)
            cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                            n=128, n_v=16, v_bound=1.0, snapshot_stride=4)
            trajs.append(run_simulation(spec, cfg, path))
        lo, hi = trajs
        # ordered at t = 0 but corrupted later: the check must fail
        bad = hi.rho.copy()
        bad[2:] = lo.rho[2:] - 0.05
        assert not check_comparison(lo, replace(hi, rho=bad)).passed
        # unordered initial data are a usage error, not a FAIL
        with pytest.raises(ConfigurationError):
            check_comparison(hi, replace(hi, rho=hi.rho - 0.2))


class TestHolderFit:
    def test_lipschitz_transport_control(self):
        spec = burgers_const_1d(
            random_bv_data(3, pieces=10, amplitude=1.0, support=(-1.5, 1.5)),
            c=0.5)
        T = 0.5
        dt = T / 1024
        cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=4.0,
                        n=256, n_v=16, snapshot_stride=1)
        path = sample_path(1, dt, T, dim=1).zeroed()
        traj = run_simulation(spec, cfg, path)
        alpha, C, degen = fit_holder_exponent(traj, region=((-3.0, 3.0),))
        assert not degen
        assert 0.8 <= alpha <= 1.1

    def test_constant_data_degenerate(self):
        spec = burgers_const_1d(lambda g: np.zeros(g.shape), c=1.0)
        traj, _, _, _ = _run(spec=spec, dt_frac=256)
        alpha, C, degen = fit_holder_exponent(traj)
        assert degen

    def test_too_short_trajectory_rejected(self):
        traj, _, _, _ = _run(dt_frac=8)
        with pytest.raises(ConfigurationError):
            fit_holder_exponent(traj)


class TestCommutator:
    def _w(self, pts):
        r = np.linalg.norm(pts - np.array([0.5, 1.0]), axis=-1)
        out = np.zeros(r.shape)
        m = r < 1.4
        out[m] = np.cos(0.5 * np.pi * r[m] / 1.4) ** 2
        return out

    def test_constant_w_identically_zero(self):
        grid = SpatialGrid(dim=2, half_width=3.0, n=128)
        res = commutator_experiment(
            lambda p: np.stack([np.sin(p[..., 0]), np.cos(p[..., 1])], axis=-1),
            lambda p: np.full(p.shape[:-1], 2.0),
            [0.4, 0.2], grid, region=((-1.0, 1.0), (-1.0, 1.0)))
        assert all(v == 0.0 for _, v in res["rows"])

    def test_smooth_field_decays(self):
        grid = SpatialGrid(dim=2, half_width=3.0, n=256)
        def b_smooth(p):
            return np.stack([np.sin(p[..., 0]) * np.cos(p[..., 1]),
                             np.cos(p[..., 0]) * np.sin(p[..., 1])], axis=-1)
        res = commutator_experiment(b_smooth, self._w, [0.4, 0.2, 0.1], grid,
                                    region=((-1.5, 2.5), (-1.5, 2.5)))
        vals = [v for _, v in res["rows"]]
        assert vals[0] / vals[1] >= 1.5
        assert vals[1] / vals[2] >= 1.5

    def test_under_resolved_kernel_rejected(self):
        grid = SpatialGrid(dim=2, half_width=3.0, n=32)
        with pytest.raises(ConfigurationError):
            commutator_experiment(
                lambda p: np.zeros_like(p), self._w, [0.4, 0.2], grid,
                region=((-1.0, 1.0), (-1.0, 1.0)))

    def test_cusp_flow_field_below_envelope(self):
        from stochbgk.counterexample import b1, b1_prime, b2, b2_prime
        grid = SpatialGrid(dim=2, half_width=3.0, n=256)
        def b_cusp(p):
            out = np.zeros_like(p)
            out[..., 1] = b1(p[..., 0]) * b2(p[..., 1])
            return out
        def db_frob(p):
            d21 = b1_prime(p[..., 0]) * b2(p[..., 1])
            d22 = b1(p[..., 0]) * b2_prime(p[..., 1])
            return np.sqrt(d21**2 + d22**2)
        res = commutator_experiment(b_cusp, self._w, [0.4, 0.2, 0.1], grid,
                                    region=((-1.5, 2.5), (-1.5, 2.5)),
                                    db_frobenius=db_frob)
        assert max(v for _, v in res["rows"]) <= 1.1 * res["envelope"]
