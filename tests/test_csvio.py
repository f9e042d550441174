"""Trajectory CSVs: bit-exact round trips, and a ConfigurationError for
every file the writer cannot produce; a Brownian path whose B(t) overflows."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stochbgk.brownian import BrownianPath
from stochbgk.csvio import read_trajectory_csv, write_trajectory_csv
from stochbgk.errors import ConfigurationError
from stochbgk.grids import SpatialGrid

# signed zeros, subnormals and the ends of the finite range
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 1e308, -1e308,
           1.7976931348623157e308]
VALUES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("dim", [1, 2])
@given(data=st.data())
def test_trajectory_round_trip_is_bit_exact(dim, data):
    n = data.draw(st.integers(4, 7 if dim == 1 else 5), label="n")
    times = np.array(sorted(data.draw(st.lists(
        st.floats(0.0, 1e6).map(abs), min_size=1, max_size=3, unique=True), label="times")))
    shape = (len(times),) + (n,) * dim
    rho = np.array(data.draw(st.lists(VALUES, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))), label="rho"))
    traj = SimpleNamespace(sgrid=SpatialGrid(dim, 1.0, n), times=times,
                           rho=rho.reshape(shape))
    with tempfile.TemporaryDirectory() as tmp:
        fname = Path(tmp) / "trajectory.csv"
        write_trajectory_csv(traj, fname)
        back_times, back_rho, back_dim = read_trajectory_csv(fname)
    assert back_dim == dim
    assert back_times.tobytes() == times.tobytes()
    assert back_rho.shape == shape
    assert back_rho.tobytes() == traj.rho.tobytes()


def test_trajectory_rows_may_come_in_any_order_and_line_end(tmp_path):
    times = np.array([0.0, 0.5])
    rho = np.arange(2 * 16, dtype=float).reshape(2, 4, 4) - 7.25
    fname = tmp_path / "trajectory.csv"
    write_trajectory_csv(SimpleNamespace(sgrid=SpatialGrid(2, 1.0, 4), times=times,
                                         rho=rho), fname)
    header, *rows = fname.read_text().splitlines()
    fname.write_text("\n".join([header] + rows[::-1]) + "\n")
    back_times, back_rho, _ = read_trajectory_csv(fname)
    assert back_times.tobytes() == times.tobytes()
    assert back_rho.tobytes() == rho.tobytes()


def _draw_increments(data, dim):
    steps = data.draw(st.integers(1, 6), label="steps")
    inc = np.array(data.draw(st.lists(VALUES, min_size=steps * dim,
                                      max_size=steps * dim), label="increments"))
    return inc.reshape(steps, dim)


@given(dim=st.integers(1, 3), data=st.data())
def test_overflowing_path_is_a_configuration_error(dim, data):
    """Finite increments whose sum B(t) overflows: the path is rejected,
    naming the first step whose B(t) is not finite."""
    inc = _draw_increments(data, dim)
    at = data.draw(st.integers(0, len(inc) - 1), label="at")
    big = data.draw(st.sampled_from([1e308, 1.7976931348623157e308]), label="big")
    with np.errstate(over="ignore", invalid="ignore"):
        before = np.cumsum(np.vstack([np.zeros((1, dim)), inc[:at]]), axis=0)[-1]
        # two increments of B's sign and size at least 1e308 leave the finite range
        inc = np.concatenate([inc[:at], np.tile(np.where(before < 0, -big, big), (2, 1)),
                              inc[at:]])
        first = int(np.flatnonzero(~np.all(np.isfinite(np.cumsum(inc, axis=0)), axis=1))[0]) + 1
    match = f"B\\(t\\) at step {first} "
    with pytest.raises(ConfigurationError, match=match):
        BrownianPath(dim, 0.125, len(inc) * 0.125, inc)


