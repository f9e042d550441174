"""Trajectory and Brownian path CSVs: bit-exact round trips, and a
ConfigurationError for every file the writers cannot produce."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from stochbgk.brownian import BrownianPath, sample_path
from stochbgk.csvio import (export_path_csv, import_path_csv, read_trajectory_csv,
                            write_rows, write_trajectory_csv)
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


def _overflows(inc):
    with np.errstate(over="ignore", invalid="ignore"):
        return not np.all(np.isfinite(np.cumsum(inc, axis=0)))


@given(dim=st.integers(1, 3), data=st.data())
def test_path_round_trip_is_bit_exact(dim, data):
    inc = _draw_increments(data, dim)
    assume(not _overflows(inc))
    steps = len(inc)
    path = BrownianPath(dim, 0.125, steps * 0.125, inc, seed=-1)
    with tempfile.TemporaryDirectory() as tmp:
        fname = Path(tmp) / "path.csv"
        export_path_csv(path, fname)
        back = import_path_csv(fname, dt=0.125)
    assert (back.dim, back.n_steps, back.seed) == (dim, steps, -1)
    assert back.increments.tobytes() == path.increments.tobytes()
    assert back.values_at_nodes().tobytes() == path.values_at_nodes().tobytes()


@given(dim=st.integers(1, 3), data=st.data())
def test_overflowing_path_is_a_configuration_error(dim, data):
    """Finite increments whose sum B(t) overflows: the path and a CSV of it
    are rejected, naming the first step whose B(t) is not finite."""
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
        BrownianPath(dim, 0.125, len(inc) * 0.125, inc, seed=-1)
    with tempfile.TemporaryDirectory() as tmp:
        fname = Path(tmp) / "path.csv"
        write_rows(fname, ["step"] + [f"dB{a + 1}" for a in range(dim)],
                   ((k, *row) for k, row in enumerate(inc.tolist())))
        with pytest.raises(ConfigurationError, match="path.csv: " + match):
            import_path_csv(fname, dt=0.125)


def _path_lines(tmp_path):
    fname = tmp_path / "path.csv"
    export_path_csv(sample_path(13, 0.125, 1.0, dim=2), fname)
    return fname, fname.read_text().splitlines()


def _set(lines, row, col, value):
    parts = lines[row].split(",")
    parts[col] = value
    lines[row] = ",".join(parts)
    return lines


BAD_PATHS = {
    "step_missing": lambda ls: ls[:3] + ls[4:],
    "step_twice": lambda ls: _set(ls, 4, 0, "2"),
    "step_negative": lambda ls: _set(ls, 1, 0, "-1"),
    "step_fractional": lambda ls: _set(ls, 2, 0, "0.5"),
    "step_past_the_end": lambda ls: _set(ls, 8, 0, "8"),
    "steps_out_of_order": lambda ls: ls[:2] + [ls[3], ls[2]] + ls[4:],
    "nan_increment": lambda ls: _set(ls, 3, 1, "nan"),
    "inf_increment": lambda ls: _set(ls, 3, 2, "-inf"),
    "non_numeric": lambda ls: _set(ls, 3, 2, "0.1x"),
    "short_row": lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0]] + ls[6:],
    "no_rows": lambda ls: ls[:1],
    "no_increment_column": lambda ls: ["step"] + [r.split(",")[0] for r in ls[1:]],
    "bad_header": lambda ls: ["step,dB1,dB3"] + ls[1:],
    "blank_line": lambda ls: ls[:4] + [""] + ls[4:],
    "space_padded_value": lambda ls: _set(ls, 3, 1, " " + ls[3].split(",")[1]),
}


@pytest.mark.parametrize("case", BAD_PATHS)
def test_malformed_path_csv_is_a_configuration_error(tmp_path, case):
    fname, lines = _path_lines(tmp_path)
    fname.write_text("\n".join(BAD_PATHS[case](lines)) + "\n")
    with pytest.raises(ConfigurationError, match="path.csv"):
        import_path_csv(fname, dt=0.125)
