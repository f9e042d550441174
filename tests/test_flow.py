"""Stochastic characteristics: the inverse flow against a forward
Euler-Maruyama reference."""

import numpy as np

from stochbgk.brownian import sample_path
from stochbgk.oracles import inverse_characteristics
from stochbgk.problem import burgers_flux, constant_field, linear_flux, make_spec


def flow_forward(start, end, point, velocity, path, spec):
    """Euler-Maruyama X(start, end, x) of dX = f'(v) b(X) dt + dB: drift at
    the left endpoint."""
    k0, k1 = path.node_index(start), path.node_index(end)
    fp = float(spec.f_prime(velocity))
    x = np.array(point, dtype=float).reshape(-1, path.dim)
    for k in range(k0, k1):
        x += path.dt * fp * np.asarray(spec.b(x)) + path.increments[k]
    return x


def _spec_1d(field, flux=None):
    return make_spec(1, flux or linear_flux(), field,
                     lambda g: np.zeros(g.shape))


def _sin_field():
    return (lambda x: np.sin(x)), (lambda x: np.cos(x[..., 0])), 1.0


def test_pure_brownian_shift():
    spec = _spec_1d(constant_field([0.0]))
    path = sample_path(4, 1e-3, 1.0, dim=1)
    out = flow_forward(0.2, 0.8, np.array([0.3]), 1.0, path, spec)
    shift = path.value(0.8) - path.value(0.2)
    assert np.allclose(out, 0.3 + shift, atol=0.0)


def test_zero_velocity_removes_drift():
    spec = _spec_1d(constant_field([5.0]), flux=burgers_flux())  # f'(0) = 0
    path = sample_path(4, 1e-3, 1.0, dim=1)
    out = flow_forward(0.0, 1.0, np.array([0.0]), 0.0, path, spec)
    assert np.allclose(out, path.value(1.0) - path.value(0.0), atol=0.0)


def test_constant_drift_is_exact():
    spec = _spec_1d(constant_field([2.0]))
    path = sample_path(4, 1e-3, 1.0, dim=1)
    out = flow_forward(0.1, 0.9, np.array([-0.5]), 0.7, path, spec)
    shift = path.value(0.9) - path.value(0.1)
    assert np.allclose(out, -0.5 + 2.0 * 0.8 + shift, atol=1e-12)


def test_inverse_is_exact_for_zero_field():
    spec = _spec_1d(constant_field([0.0]))
    path = sample_path(4, 1e-3, 1.0, dim=1)
    out = inverse_characteristics(np.array([[0.3]]), 0.6, path, spec)
    shift = path.value(0.6) - path.value(0.0)
    assert np.allclose(out, 0.3 - shift, atol=0.0)


def test_identity_at_equal_times():
    spec = _spec_1d(_sin_field())
    path = sample_path(4, 1e-3, 1.0, dim=1)
    x = np.array([[0.4]])
    assert np.allclose(flow_forward(0.5, 0.5, x, 1.0, path, spec), x)
    assert np.allclose(inverse_characteristics(x, 0.0, path, spec), x)


def test_round_trip_bound_and_halving():
    spec = _spec_1d(_sin_field())
    xs = np.linspace(-1.5, 1.5, 7)[:, None]
    errs = []
    for dt in (1e-3, 5e-4):
        path = sample_path(11, dt, 0.5, dim=1)
        fwd = flow_forward(0.0, 0.5, xs, 1.0, path, spec)
        back = inverse_characteristics(fwd, 0.5, path, spec)
        errs.append(float(np.max(np.abs(back - xs))))
    assert errs[0] <= 10 * 1e-3
    assert errs[1] <= 0.75 * errs[0]  # roughly halves with dt


def test_semigroup_composition_exact_on_nodes():
    spec = _spec_1d(_sin_field())
    path = sample_path(8, 1e-3, 1.0, dim=1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s, r, t = np.sort(rng.uniform(0, 1, 3))
        x = rng.uniform(-1, 1, (3, 1))
        direct = flow_forward(s, t, x, 0.8, path, spec)
        mid = flow_forward(s, r, x, 0.8, path, spec)
        two = flow_forward(r, t, mid, 0.8, path, spec)
        # same increments drive both, so composition is exact at node times
        assert np.allclose(direct, two, atol=1e-12)


def test_monotone_in_1d():
    spec = _spec_1d(_sin_field())
    path = sample_path(9, 1e-3, 1.0, dim=1)
    xs = np.linspace(-2, 2, 41)[:, None]
    out = flow_forward(0.0, 1.0, xs, 1.0, path, spec)
    assert np.all(np.diff(out[:, 0]) >= 0.0)

