"""Path sampling, determinism, moments, CSV round trip, Levy modulus."""

import math

import numpy as np
import pytest

from stochbgk.brownian import levy_modulus_statistic, sample_path, sample_paths
from stochbgk.csvio import export_path_csv, import_path_csv
from stochbgk.errors import ConfigurationError


def test_same_seed_bit_identical():
    a = sample_path(99, 1e-3, 1.0, dim=2)
    b = sample_path(99, 1e-3, 1.0, dim=2)
    assert np.array_equal(a.increments, b.increments)


def test_different_path_index_differs():
    a = sample_path(99, 1e-3, 1.0, dim=1, path_index=0)
    b = sample_path(99, 1e-3, 1.0, dim=1, path_index=1)
    assert not np.array_equal(a.increments, b.increments)


def test_streams_independent_of_order():
    late = sample_path(5, 0.01, 1.0, dim=1, path_index=17)
    again = sample_path(5, 0.01, 1.0, dim=1, path_index=17)
    assert np.array_equal(late.increments, again.increments)


def test_increment_variance():
    # 1e5 increments at dt=1e-3: sample variance within 3 percent
    path = sample_path(7, 1e-3, 100.0, dim=1)
    inc = path.increments
    assert inc.shape[0] == 100000
    var = float(np.mean(inc * inc))
    assert var == pytest.approx(1e-3, rel=0.03)


def test_terminal_mean_clt_bound():
    horizon = 0.5
    paths = sample_paths(21, 0.01, horizon, 1, 10000)
    finals = np.array([p.value(horizon)[0] for p in paths])
    assert abs(finals.mean()) <= 4 * math.sqrt(horizon / len(finals))


def test_node_values_cumulative():
    path = sample_path(3, 0.25, 1.0, dim=1)
    nodes = path.values_at_nodes()
    assert nodes[0, 0] == 0.0
    assert np.allclose(np.diff(nodes[:, 0]), path.increments[:, 0])


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        sample_path(1, 0.2, 0.1, dim=1)  # dt > horizon
    with pytest.raises(ConfigurationError):
        sample_path(1, -0.1, 1.0, dim=1)
    path = sample_path(1, 0.25, 1.0, dim=1)
    with pytest.raises(ConfigurationError):
        path.node_index(2.0)


def test_csv_round_trip(tmp_path):
    path = sample_path(13, 0.125, 1.0, dim=2)
    fname = tmp_path / "path.csv"
    export_path_csv(path, fname)
    back = import_path_csv(fname, dt=0.125)
    assert back.dim == 2
    assert np.array_equal(back.increments, path.increments)


class TestLevyModulus:
    def test_single_path_single_lag_unwinds(self):
        path = sample_path(2, 2.0**-8, 0.25, dim=1)
        delta = path.dt
        stat = levy_modulus_statistic([path], delta)
        expected = float(np.max(np.abs(path.increments))) / math.sqrt(
            2 * delta * math.log(1 / delta))
        assert stat == pytest.approx(expected, rel=1e-12)

    def test_delta_too_large_rejected(self):
        path = sample_path(2, 0.01, 1.0, dim=1)
        with pytest.raises(ConfigurationError):
            levy_modulus_statistic([path], 0.5)

    def test_delta_below_resolution_rejected(self):
        path = sample_path(2, 0.01, 1.0, dim=1)
        with pytest.raises(ConfigurationError):
            levy_modulus_statistic([path], 0.001)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_monte_carlo_band(self, dim):
        # small-sample sanity; the full 100-path check is acceptance #11
        delta = 2.0**-12
        paths = sample_paths(31, delta, 1.0, dim, 20)
        stat = levy_modulus_statistic(paths, delta)
        assert 0.5 * math.sqrt(dim) <= stat <= 1.5 * math.sqrt(dim)
