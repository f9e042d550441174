"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Criterion 7's deterministic clause (7a) checks the closed-form cusp solution
against its exact total variation: the flow's unbounded gradient factor
couples only to integrable terms, so rho(t) stays BV, and the discrete BV
ladder must converge to the value that quadrature of |d_x rho| + |d_y rho|
gives, including the definite BV increase the flow produces by t = 1.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import lambertw

from stochbgk.audit import (check_defect_structure, check_energy_defect_identity,
                            check_l1_growth, check_max_principle, entropy_residual)
from stochbgk.bgk import BGKConfig, picard_solve, run_simulation
from stochbgk.brownian import sample_path, sample_paths, levy_modulus_statistic
from stochbgk.counterexample import (b1, b1_prime, b2, b2_prime,
                                     bv_growth_experiment, cusp_data,
                                     smooth_control_data,
                                     stochastic_counterpart)
from stochbgk.fields import lp_norm
from stochbgk.grids import SpatialGrid
from stochbgk.oracles import shift_reduction_oracle
from stochbgk.problem import (burgers_const_1d, burgers_tanh_1d, bump_data,
                              plateau_data, random_bv_data)

from experiments import (check_comparison, commutator_experiment, epsilon_continuation,
                         fit_holder_exponent)

GOLDEN_SEED = 7


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def burgers_run():
    """Divergence-free Burgers plateau run with genuine noise."""
    T = 0.32
    dt = T / 256
    spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                    n=256, n_v=32, snapshot_stride=4)
    path = sample_path(9, dt, T, dim=1)
    return run_simulation(spec, cfg, path), spec, cfg, path


@pytest.fixture(scope="module")
def divb_run():
    """Burgers with tanh field: nonzero divergence, C0 > 0."""
    T = 0.32
    dt = T / 256
    spec = burgers_tanh_1d(bump_data(-0.5, 1.0, 0.9), amplitude=0.5, width=1.0)
    cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                    n=256, n_v=32, snapshot_stride=4)
    path = sample_path(17, dt, T, dim=1)
    return run_simulation(spec, cfg, path), spec, cfg, path


def test_criterion_01_max_principle(burgers_run, divb_run):
    ok = True
    for traj, spec, _, _ in (burgers_run, divb_run):
        res = check_max_principle(traj.rho)
        ok &= res.passed and res.measured <= res.bound  # zero tolerance
    bad = burgers_run[0].rho.copy()
    bad[5, 40] = 1.5 * np.max(np.abs(bad[0]))
    control_fails = not check_max_principle(bad).passed
    ok &= control_fails
    assert _report(1, ok, "sup_t ||rho||_inf <= ||rho0||_inf exactly; "
                          "corrupted field rejected")


def test_criterion_02_l1_envelope(burgers_run, divb_run):
    ok = True
    for traj, spec, _, _ in (burgers_run, divb_run):
        ok &= check_l1_growth(traj.rho, traj.u_l1, traj.times, traj.sgrid,
                              spec.growth_rate(traj.vgrid.bound)).passed
    # equality to 1e-10 relative: divergence-free, zeroed path, one-signed data
    T = 0.32
    dt = T / 256
    spec = burgers_const_1d(bump_data(-0.5, 1.0, 0.9), c=1.0)
    cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                    n=256, n_v=32, snapshot_stride=4)
    traj = run_simulation(spec, cfg, sample_path(9, dt, T, dim=1).zeroed())
    drift = float(np.max(np.abs(traj.u_l1 - traj.u_l1[0]))) / traj.u_l1[0]
    ok &= drift <= 1e-10
    assert _report(2, ok, f"||u(t)||_1 within envelope; zeroed-path relative "
                          f"drift {drift:.2e} <= 1e-10")


def test_criterion_03_defect_structure(burgers_run, full_box_run):
    traj, spec, cfg, path = burgers_run
    res = check_defect_structure(traj.rho[0], traj.slab_mass, traj.min_entry,
                                 float(traj.times[-1]), traj.sgrid, traj.vgrid.bound,
                                 spec.growth_rate(traj.vgrid.bound))
    ok = res.passed and traj.min_entry >= -1e-12
    ok &= traj.vgrid.bound >= lp_norm(traj.initial(), np.inf)
    # support: the accumulated prefix telescopes to ~0 at the top edge v = N;
    # the slab fields are the replay's, whose slab masses are the engine's
    T = 0.3
    dt = T / 384
    spec_e = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    cfg_e = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=3.0,
                      n=384, n_v=32, snapshot_stride=8)
    path_e = sample_path(9, dt, T, dim=1)
    traj_e = run_simulation(spec_e, cfg_e, path_e)
    replay = full_box_run(spec_e, cfg_e, path_e)
    assert (np.asarray(replay.slab_mass).tobytes()
            == np.asarray(traj_e.slab_mass).tobytes())
    top = max(float(np.max(np.abs(f[..., -1]))) for f in replay.defect_fields)
    ok &= top <= 1e-12
    energy = check_energy_defect_identity(traj_e.rho, traj_e.slab_mass, traj_e.sgrid, spec_e)
    ok &= energy.passed
    assert _report(3, ok, f"m >= {traj.min_entry:.1e}, mass "
                          f"{res.measured:.3g} <= envelope {res.bound:.3g}, "
                          f"energy gap {energy.measured:.3g} <= {energy.bound:.3g}")


def test_criterion_04_oracle_equivalence():
    T, L = 0.5, 3.0
    spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    errs = []
    for n in (128, 256, 512, 1024):
        h = 2 * L / n
        n_steps = max(1, round(T / (0.25 * h)))
        dt = T / n_steps
        cfg = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=L, n=n,
                        n_v=32, snapshot_stride=max(1, n_steps // 8))
        path = sample_path(GOLDEN_SEED, dt, T, dim=1)
        traj = run_simulation(spec, cfg, path)
        _, oracle = shift_reduction_oracle(lambda r: 0.5 * r * r,
                                           traj.initial(), path, T,
                                           flux_sup_speed=1.0)
        sample = [float(np.sum(np.abs(traj.rho[i] - oracle[round(t / path.dt)])) * h)
                  for i, t in enumerate(traj.times) if t >= T / 2]
        errs.append(float(np.mean(sample)))
        rho0_l1 = lp_norm(traj.initial(), 1)
    rate = float(-np.polyfit(np.arange(len(errs)), np.log2(errs), 1)[0])
    rel = errs[-1] / rho0_l1
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    ok &= 0.7 <= rate <= 1.3
    ok &= rel <= 0.02
    assert _report(4, ok, f"L1 errors {['%.4f' % e for e in errs]}, fitted "
                          f"rate {rate:.3f} in [0.7, 1.3], finest {100 * rel:.2f}% <= 2%")


def test_criterion_05_comparison_principle():
    T = 0.16
    dt = T / 64
    worst = np.inf
    for k in range(20):
        path = sample_path(100 + k, dt, T, dim=1)
        rng = np.random.default_rng(200 + k)
        floor = float(rng.uniform(0.05, 0.3))
        trajs = []
        for lo in (0.0, floor):
            spec = burgers_const_1d(
                random_bv_data(300 + k, pieces=6, amplitude=0.6, floor=lo),
                c=1.0)
            cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                            n=128, n_v=16, v_bound=1.0, snapshot_stride=4)
            trajs.append(run_simulation(spec, cfg, path))
        res = check_comparison(*trajs)
        worst = min(worst, res.measured)
    ok = worst >= -1e-10
    assert _report(5, ok, f"20 ordered pairs share paths, min(rho2 - rho1) = "
                          f"{worst:.2e} >= -1e-10")


def test_criterion_06_bv_nonincrease(burgers_run):
    from stochbgk.audit import check_bv_nonincrease
    traj = burgers_run[0]
    ok = check_bv_nonincrease(traj.rho, traj.sgrid, traj.spec).passed
    # rarefaction data and random BV data under the x-independent flux
    T = 0.32
    dt = T / 256
    for gen in (plateau_data(-1.0, 0.0, 1.0),
                random_bv_data(4, pieces=8, amplitude=0.8)):
        spec = burgers_const_1d(gen, c=1.0)
        cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=3.0,
                        n=256, n_v=32, snapshot_stride=4)
        traj = run_simulation(spec, cfg, sample_path(21, dt, T, dim=1))
        ok &= check_bv_nonincrease(traj.rho, traj.sgrid, traj.spec).passed
    assert _report(6, ok, "BV(rho(t)) <= BV(rho0) (1 + 1e-8) on all "
                          "x-independent-flux runs")


def _cusp_tv_reference(t):
    """Exact (TV_x, TV_y) of the closed-form cusp solution at time t.

    rho(t) = p1(x) p2(eta) with eta = g^{-1}(g(y) e^{-2 b1(x) t}); the inverse
    flow obeys d_x eta = -t b1'(x) b2(eta) and d_y eta = b2(eta) / b2(y).
    Composite Gauss-Legendre (16 nodes x 16 panels) in x, with x = s^2 on [0, 1] to absorb the
    x^(-1/2) endpoint singularity of p1' and b1', and in y over the support
    [0, Y(t, x, 2)] of p2(eta).  The profiles and the field are written out
    from their definitions and g^{-1}(w) = sqrt(W0(w)) uses the Lambert W
    function.  The package solves g^{-1} by the same formula, which
    tests/test_counterexample.py checks against an independent bisection;
    nothing else here shares code with the solution under test.
    """
    def g_inv(w):
        return np.sqrt(lambertw(w).real)

    def gauss(a, b):
        z, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(a, b, 17)
        half = 0.5 * np.diff(edges)[:, None]
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        return (mid + half * z).ravel(), (half * w).ravel()

    def p2(y):
        return np.sin(np.pi * y / 2) ** 2

    def p2_prime(y):
        return 0.5 * np.pi * np.sin(np.pi * y)

    def field_y(y):
        return y / (1 + y * y)

    s, ws = gauss(0.0, 1.0)       # x = s^2: p1 = b1 = s, dx = 2 s ds
    xr, wr = gauss(1.0, 3.0)      # cosine taper, b1 = x^(-1/2)
    taper = np.cos(np.pi * (xr - 1) / 4) ** 2
    b1 = np.concatenate([s, xr ** -0.5])
    p1_dx = np.concatenate([2 * s * s * ws, taper * wr])
    p1_prime_dx = np.concatenate(
        [ws, -0.25 * np.pi * np.sin(0.5 * np.pi * (xr - 1)) * wr])
    p1_b1_prime_dx = np.concatenate([s * ws, -0.5 * taper * xr ** -1.5 * wr])

    u, wu = gauss(0.0, 1.0)
    y_top = g_inv(4 * math.exp(4) * np.exp(2 * b1 * t))[:, None]  # Y(t, x, 2)
    y, wy = y_top * u, y_top * wu
    eta = g_inv(np.exp(y * y) * y * y * np.exp(-2 * b1[:, None] * t))
    tv_x = np.sum(np.abs(p1_prime_dx[:, None] * p2(eta)
                         - t * p1_b1_prime_dx[:, None] * p2_prime(eta)
                         * field_y(eta)) * wy)
    tv_y = np.sum(np.abs(p1_dx[:, None] * p2_prime(eta) * field_y(eta)
                         / field_y(y)) * wy)
    return float(tv_x), float(tv_y)


def test_criterion_07a_deterministic_bv_growth():
    # TV_y = TV(p2) * int p1 = 2 * 5/3 at every t; TV(rho0) = 2 * 1 + 10/3
    tv_x, tv_y = _cusp_tv_reference(1.0)
    assert abs(tv_y - 10 / 3) <= 1e-6, f"quadrature reference off: TV_y = {tv_y}"
    exact, exact0 = tv_x + tv_y, 16 / 3

    rows = bv_growth_experiment(cusp_data(), 1.0, [128, 256, 512, 1024])
    bvs = [r[2] for r in rows]
    errs = [abs(b - exact) / exact for b in bvs]
    increment = bvs[-1] - rows[-1][3]
    inc_err = abs(increment - (exact - exact0)) / (exact - exact0)
    ok = (max(errs) <= 2e-3 and errs[-1] <= 5e-4 and errs[-1] < 0.5 * errs[0]
          and inc_err <= 0.10)
    assert _report("7a", ok, f"closed-form BV ladder {['%.4f' % b for b in bvs]} "
                             f"vs exact TV {exact:.6f}: rel. errors "
                             f"{['%.1e' % e for e in errs]}, n=128/n=1024 "
                             f"ratio {errs[0] / errs[-1]:.1f} > 2; BV increment "
                             f"{increment:.4f} vs exact {exact - exact0:.4f} "
                             f"({100 * inc_err:.1f}% <= 10%)")


def test_criterion_07b_smooth_control_flat():
    rows = bv_growth_experiment(smooth_control_data(), 1.0, [128, 1024])
    ratio = rows[1][2] / rows[0][2]
    ok = abs(ratio - 1.0) <= 0.10
    assert _report("7b", ok, f"smooth-control BV ratio n=1024/n=128 = {ratio:.4f} "
                             f"within 10% of 1")


def test_criterion_07c_stochastic_bv_bounded():
    with ThreadPoolExecutor(max_workers=4) as pool:
        rows = stochastic_counterpart(cusp_data(), 1.0, [64, 128, 256],
                                      n_paths=64, master_seed=GOLDEN_SEED,
                                      n_v=8, pool=pool)
    means = [r[2] for r in rows]
    variation = abs(means[-1] - means[-2]) / means[-2]
    ok = variation <= 0.15
    assert _report("7c", ok, f"noisy mean BV {['%.3f' % m for m in means]} "
                             f"(M=64), last-two variation {100 * variation:.1f}% <= 15%")


def test_criterion_08_relaxation_limit():
    T = 0.16
    dt = T / 128
    spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    cfg = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=3.0,
                    n=256, n_v=32, snapshot_stride=16)
    path = sample_path(9, dt, T, dim=1)
    rep = epsilon_continuation(spec, cfg, path, [8 * dt, 4 * dt, 2 * dt])
    ok = rep["kinetic_decreasing"] and rep["cauchy_decreasing"]
    assert _report(8, ok, f"||u_eps - chi||_1 = "
                          f"{['%.4f' % d for d in rep['kinetic_distance']]} strictly "
                          f"decreasing; Cauchy {['%.4f' % d for d in rep['cauchy_l1']]}")


def test_criterion_09_picard_mode():
    T = 0.2
    spec = burgers_const_1d(bump_data(-0.5, 1.5, 0.8), c=1.0)
    gaps = []
    factor_ok = True
    for n, nt in ((256, 8), (512, 16), (1024, 32)):
        dt = T / nt
        cfg = BGKConfig(epsilon=4 * dt, dt=dt, horizon=T, half_width=3.0,
                        n=n, n_v=16, window=T, picard_tol=1e-12,
                        snapshot_stride=max(1, nt // 8))
        path = sample_path(42, dt, T, dim=1)
        pic = picard_solve(spec, cfg, path)
        spl = run_simulation(spec, cfg, path)
        gap = max(float(np.sum(np.abs(pic.rho[i] - spl.rho[i])) * pic.sgrid.h)
                  for i in range(len(pic.times)))
        gaps.append(gap)
        factor_ok &= max(pic.picard_ratios) <= pic.picard_bound + 0.05
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    halving_ok = all(2.0 * 0.7 <= r <= 2.0 * 1.3 for r in ratios)
    ok = factor_ok and halving_ok
    assert _report(9, ok, f"contraction within bound+0.05; gap halving ratios "
                          f"{['%.2f' % r for r in ratios]} within 2x (+-30%)")


def test_criterion_10_holder_exponent():
    T = 0.5
    dt = T / 1024
    spec = burgers_const_1d(
        random_bv_data(3, pieces=10, amplitude=1.0, support=(-1.5, 1.5)), c=0.5)
    cfg = BGKConfig(epsilon=2 * dt, dt=dt, horizon=T, half_width=4.0,
                    n=512, n_v=16, snapshot_stride=1)
    path = sample_path(1, dt, T, dim=1)
    noisy, _, dg1 = fit_holder_exponent(
        run_simulation(spec, cfg, path), region=((-3.0, 3.0),))
    lipschitz, _, dg2 = fit_holder_exponent(
        run_simulation(spec, cfg, path.zeroed()), region=((-3.0, 3.0),))
    ok = (not dg1) and (not dg2) and 0.3 <= noisy <= 0.6 and 0.8 <= lipschitz <= 1.1
    assert _report(10, ok, f"alpha(noise) = {noisy:.3f} in [0.3, 0.6]; "
                           f"alpha(zeroed, const b) = {lipschitz:.3f} in [0.8, 1.1]")


def test_criterion_11_levy_modulus():
    delta = 2.0 ** -14
    ok = True
    stats = {}
    for dim in (1, 2):
        paths = sample_paths(123, delta, 1.0, dim, 100)
        stat = levy_modulus_statistic(paths, delta)
        stats[dim] = stat
        ok &= 0.5 * math.sqrt(dim) <= stat <= 1.5 * math.sqrt(dim)
    assert _report(11, ok, f"statistic d=1: {stats[1]:.3f}, d=2: {stats[2]:.3f} "
                           f"within [0.5, 1.5] sqrt(d)")


def test_criterion_12_commutator():
    grid = SpatialGrid(dim=2, half_width=3.0, n=384)
    region = ((-1.5, 2.5), (-1.5, 2.5))

    def w_fn(p):
        r = np.linalg.norm(p - np.array([0.5, 1.0]), axis=-1)
        out = np.zeros(r.shape)
        m = r < 1.4
        out[m] = np.cos(0.5 * np.pi * r[m] / 1.4) ** 2
        return out

    def b_smooth(p):
        return np.stack([np.sin(p[..., 0]) * np.cos(p[..., 1]),
                         np.cos(p[..., 0]) * np.sin(p[..., 1])], axis=-1)

    res = commutator_experiment(b_smooth, w_fn, [0.4, 0.2, 0.1], grid, region)
    vals = [v for _, v in res["rows"]]
    decay_ok = all(a / b >= 1.5 for a, b in zip(vals, vals[1:]))

    def b_cusp(p):
        out = np.zeros_like(p)
        out[..., 1] = b1(p[..., 0]) * b2(p[..., 1])
        return out

    def db_frob(p):
        return np.sqrt((b1_prime(p[..., 0]) * b2(p[..., 1])) ** 2
                       + (b1(p[..., 0]) * b2_prime(p[..., 1])) ** 2)

    res_cusp = commutator_experiment(b_cusp, w_fn, [0.4, 0.2, 0.1], grid, region,
                                 db_frobenius=db_frob)
    bounded_ok = max(v for _, v in res_cusp["rows"]) <= 1.1 * res_cusp["envelope"]
    resc = commutator_experiment(b_smooth,
                                 lambda p: np.full(p.shape[:-1], 2.0),
                                 [0.4, 0.2], grid, region)
    zero_ok = all(v == 0.0 for _, v in resc["rows"])
    ok = decay_ok and bounded_ok and zero_ok
    assert _report(12, ok, f"smooth decay {['%.4f' % v for v in vals]} "
                           f"(>= 1.5x/level); singular field max "
                           f"{max(v for _, v in res_cusp['rows']):.4f} <= 1.1 x "
                           f"{res_cusp['envelope']:.3f}; constant w identically 0")


def test_criterion_13_entropy_residual():
    REFS = [-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75]
    T, L = 0.32, 3.0
    spec = burgers_const_1d(plateau_data(1.0, -1.0, 0.0), c=1.0)
    worsts, scales = [], []
    for n in (128, 256, 512):
        h = 2 * L / n
        n_steps = round(T / (0.5 * h))
        dt = T / n_steps
        cfg = BGKConfig(epsilon=dt, dt=dt, horizon=T, half_width=L, n=n,
                        n_v=32, snapshot_stride=1)
        traj = run_simulation(spec, cfg, sample_path(9, dt, T, dim=1))
        worst, _ = entropy_residual(traj.rho, traj.times, traj.path_values_at_snapshots(),
                                    traj.sgrid, spec, REFS)
        worsts.append(worst)
        scales.append(h + dt + dt)
    K = 2.0 * abs(worsts[0]) / scales[0]
    tols = [K * s for s in scales]
    resid_ok = all(w >= -tol for w, tol in zip(worsts, tols))
    tol_ok = all(a / b >= 1.4 for a, b in zip(tols, tols[1:]))

    # hand-built steady expansion shock at the finest resolution
    from stochbgk.problem import riemann_data
    n = 512
    grid = SpatialGrid(1, L, n)
    n_steps = round(T / (0.5 * grid.h))
    dtf = T / n_steps
    spec_bad = burgers_const_1d(riemann_data(-1.0, 1.0, 0.0), c=1.0)
    stepfield = np.where(grid.axis_centers() < 0, -1.0, 1.0)
    rho = np.tile(stepfield, (n_steps + 1, 1))
    worst_bad, _ = entropy_residual(rho, np.arange(n_steps + 1) * dtf,
                                    np.zeros((n_steps + 1, 1)), grid, spec_bad, REFS)
    control_ok = worst_bad <= -10.0 * tols[-1]
    ok = resid_ok and tol_ok and control_ok
    assert _report(13, ok, f"residuals {['%.5f' % w for w in worsts]} >= -tol "
                           f"{['%.5f' % t for t in tols]}; expansion shock "
                           f"{worst_bad:.4f} <= -10 tol = {-10 * tols[-1]:.4f}")


def test_criterion_14_end_to_end_determinism(tmp_path):
    import json
    from stochbgk.cli import main
    cfg = {
        "experiment": "simulate",
        "spec": {"flux": "burgers",
                 "field": {"preset": "constant", "c": [1.0]},
                 "initial": {"preset": "plateau"}},
        "grid": {"dim": 1, "half_width": 3.0, "n": 128, "n_v": 16},
        "bgk": {"epsilon": 0.01, "dt": 0.005, "horizon": 0.2,
                "snapshot_stride": 4},
        "monte_carlo": {"master_seed": GOLDEN_SEED},
    }
    cfg_file = tmp_path / "golden.json"
    cfg_file.write_text(json.dumps(cfg))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        blobs.append(b"".join((out / f).read_bytes() for f in
                              ("trajectory.csv", "defect.csv", "audit.csv")))
    reruns_ok = blobs[0] == blobs[1]

    ce = {
        "experiment": "counterexample",
        "counterexample": {"t": 0.5, "resolutions": [32],
                           "stochastic_resolutions": [48], "paths": 4,
                           "n_v": 8},
        "monte_carlo": {"master_seed": GOLDEN_SEED, "workers": 1},
    }
    worker_blobs = []
    for w in (1, 4):
        ce["monte_carlo"]["workers"] = w
        f = tmp_path / f"ce{w}.json"
        f.write_text(json.dumps(ce))
        out = tmp_path / f"ce_out{w}"
        assert main(["counterexample", "--config", str(f), "--out", str(out)]) == 0
        worker_blobs.append((out / "stochastic_bv.csv").read_bytes())
    workers_ok = worker_blobs[0] == worker_blobs[1]
    ok = reruns_ok and workers_ok
    assert _report(14, ok, "golden-seed rerun byte-identical; worker count "
                           "does not change output bytes")
