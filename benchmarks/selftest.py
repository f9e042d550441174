"""Tests of the benchmark's own checks: each shows that a check passes on the
program's output and rejects a corrupted copy of it.

    python3 -m pytest benchmarks/selftest.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stochbgk import bgk, counterexample  # noqa: E402


def test_trajectory_shifted_by_plus_b_is_rejected():
    wl = workloads.Simulate1D(seed=1)
    spec, cfg, path = wl.build_inputs()
    traj = bgk.run_simulation(spec, cfg, path)
    x = traj.sgrid.axis_centers()
    h = traj.sgrid.h
    b_t = float(path.values_at_nodes()[-1, 0])
    assert abs(b_t) > 0.5                       # the two shifts are far apart
    rho = traj.rho[-1]
    t = float(traj.times[-1])
    assert checks.check_burgers_final(x, rho, t, b_t, h, wl.L1_TOL) == []
    assert checks.check_mass(traj.times, traj.rho, h) == []
    # w(t, x + B) instead of w(t, x - B): the output moved by -2 B
    wrong = np.interp(x + 2.0 * b_t, x, rho, left=0.0, right=0.0)
    assert checks.check_burgers_final(x, wrong, t, b_t, h, wl.L1_TOL)


def test_mass_leak_is_rejected():
    times = np.array([0.0, 0.5])
    rho = np.ones((2, 100))
    rho[1, -1] -= 1e-9
    assert checks.check_mass(times, rho, 0.01)


def test_cusp_ladder_off_the_exact_tv_is_rejected():
    tv_x, tv_y = checks.cusp_exact_tv(1.0)
    assert abs(tv_y - 10.0 / 3.0) < 1e-6        # the y part is exactly 10/3
    tv = tv_x + tv_y
    rows = counterexample.bv_growth_experiment(
        counterexample.cusp_data(), 1.0, workloads.CuspMonteCarlo2D.RESOLUTIONS)
    ns = [r[0] for r in rows]
    bv_t = [r[2] for r in rows]
    bv_0 = [r[3] for r in rows]
    assert checks.check_cusp_ladder(ns, bv_t, bv_0, tv) == []
    for push in (1 + 1e-3, 1 - 1e-3):
        assert checks.check_cusp_ladder(ns, [v * push for v in bv_t], bv_0, tv)


def test_smooth_control_growth_is_rejected():
    ns = [128, 256]
    assert checks.check_smooth_flat(ns, [1.05, 1.09], [1.0, 1.0]) == []
    assert checks.check_smooth_flat(ns, [1.05, 1.11], [1.0, 1.0])


def test_picard_gaps_that_do_not_halve_are_rejected():
    assert checks.check_gap_halving([4e-3, 2.4e-3, 1.4e-3]) == []
    assert checks.check_gap_halving([4e-3, 3.6e-3, 3.2e-3])      # ratio 1.1
    assert checks.check_gap_halving([4e-3, 1e-3, 2.5e-4])        # ratio 4
    assert checks.check_picard_contraction([0.5, 0.8], 0.9) == []
    assert checks.check_picard_contraction([0.5, 0.96], 0.9)


def test_self_times_subtract_the_union_of_children():
    spans = [
        {"id": 0, "name": "round", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "c", "parent": 2, "start": 3.5, "end": 4.5},
    ]
    st = tracing.self_times(spans)
    assert st == {0: 5.0, 1: 3.0, 2: 2.0, 3: 1.0}
    assert [s["id"] for s in tracing.subtree(spans, 2)] == [2, 3]


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert compare.verdict(base, base, "lower", 0.1)[1] == "same"
    assert compare.verdict(base, [v * 1.3 for v in base], "lower", 0.1)[1] == "worse"
    assert compare.verdict(base, [v * 0.7 for v in base], "lower", 0.1)[1] == "better"
    assert compare.verdict(base, [v * 0.7 for v in base], "higher", 0.1)[1] == "worse"
    assert compare.verdict(base, [v * 0.95 for v in base], "lower", 0.1)[1] == "same"
    noisy = [0.6, 1.0, 1.4, 0.8, 1.2]
    assert compare.verdict(base, noisy, "lower", 0.1)[1] == "unresolved"
    pairs = [(s, v) for s, v in enumerate(base)]
    assert compare.win_share(pairs, [(s, v - 0.001) for s, v in pairs], 1.0) == 1.0


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q"]))
