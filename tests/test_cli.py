"""CLI driver: schema validation, bundles, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stochbgk import cli, csvio
from stochbgk.cli import main
from stochbgk.config import validate_run_config
from stochbgk.errors import ConfigurationError, StructuralViolationError

SIM_CFG = {
    "experiment": "simulate",
    "spec": {
        "flux": "burgers",
        "field": {"preset": "constant", "c": [1.0]},
        "initial": {"preset": "plateau", "height": 1.0, "a": -1.0, "b": 0.0},
    },
    "grid": {"dim": 1, "half_width": 3.0, "n": 128, "n_v": 16},
    "bgk": {"epsilon": 0.01, "dt": 0.005, "horizon": 0.2, "snapshot_stride": 4},
    "monte_carlo": {"master_seed": 7},
}


CE_CFG = {
    "experiment": "counterexample",
    "counterexample": {"t": 0.5, "resolutions": [32], "stochastic_resolutions": [32],
                       "paths": 2, "n_v": 8},
    "monte_carlo": {"master_seed": 3, "workers": 2},
}


CONV_CFG = {**json.loads(json.dumps(SIM_CFG)), "experiment": "convergence",
            "convergence": {"levels": 3, "dt_over_h": 0.5, "eps_over_dt": 1.0}}
CONV_CFG["grid"]["n"] = 64


PATHS_CFG = {
    "experiment": "paths",
    "paths_cmd": {"delta": 2.0**-10, "count": 10, "horizon": 0.5, "dims": [1]},
    "monte_carlo": {"master_seed": 3},
}


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _edited(cfg, path, value):
    """A deep copy of cfg with the field at dotted path set to value."""
    cfg = json.loads(json.dumps(cfg))
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value
    return cfg


def _leaves(node, path=""):
    """(dotted path, key sequence, value) of every scalar in a JSON document;
    list entries are named path[i]."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            sub = f"{path}[{k}]" if isinstance(node, list) else (f"{path}.{k}" if path else k)
            for leaf_path, keys, value in _leaves(v, sub):
                yield leaf_path, (k,) + keys, value
    else:
        yield path, (), node


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _set_field(lines, row, col, value):
    """CSV lines with field col of line row replaced by value."""
    parts = lines[row].split(",")
    parts[col] = value
    lines[row] = ",".join(parts)
    return lines


class TestValidation:
    def test_missing_field_names_path(self):
        cfg = json.loads(json.dumps(SIM_CFG))
        del cfg["bgk"]["epsilon"]
        with pytest.raises(ConfigurationError, match="bgk.epsilon"):
            validate_run_config(cfg)

    def test_unknown_experiment(self):
        cfg = dict(SIM_CFG, experiment="explode")
        with pytest.raises(ConfigurationError, match="experiment"):
            validate_run_config(cfg)

    def test_unread_name_key_is_accepted(self):
        # the spec has no name; a leftover key is ignored like any unread one
        assert validate_run_config(dict(SIM_CFG, name=1.5))

    def test_unknown_preset(self):
        cfg = json.loads(json.dumps(SIM_CFG))
        cfg["spec"]["initial"]["preset"] = "wavelet"
        with pytest.raises(ConfigurationError, match="initial.preset"):
            validate_run_config(cfg)

    def test_convergence_needs_three_levels(self):
        cfg = json.loads(json.dumps(SIM_CFG))
        cfg["experiment"] = "convergence"
        cfg["convergence"] = {"levels": 2}
        with pytest.raises(ConfigurationError, match="levels"):
            validate_run_config(cfg)

    def test_convergence_refuses_x_dependent_field(self):
        # the shift-reduction oracle is exact only for constant b
        cfg = _edited(CONV_CFG, "spec.field", {"preset": "tanh", "amplitude": 0.5})
        with pytest.raises(ConfigurationError, match="spec.field.*constant b"):
            validate_run_config(cfg)

    def test_exit_code_2_on_bad_config(self, tmp_path):
        cfg = json.loads(json.dumps(SIM_CFG))
        del cfg["grid"]["n"]
        rc = main(["simulate", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    BASES = {
        "simulate": SIM_CFG,
        "tanh": _edited(SIM_CFG, "spec.field", {"preset": "tanh"}),
        "random_bv": _edited(SIM_CFG, "spec.initial", {"preset": "random_bv"}),
        "cusp": _edited(_edited(_edited(SIM_CFG, "spec.field", {"preset": "cusp_flow"}),
                                "spec.initial", {"preset": "cusp2d"}), "grid.dim", 2),
        "convergence": CONV_CFG,
        "counterexample": CE_CFG,
        "paths": PATHS_CFG,
    }

    # (base config, dotted path, value); the error must name the path
    BAD_FIELDS = [
        ("counterexample", "counterexample.t", "soon"),
        ("counterexample", "counterexample.t", -0.5),
        ("counterexample", "counterexample.resolutions", "abc"),
        ("counterexample", "counterexample.resolutions", [32, 2]),
        ("counterexample", "counterexample.stochastic_resolutions", [32, "64"]),
        ("counterexample", "counterexample.paths", 0),
        ("counterexample", "counterexample.paths", 2.5),
        ("counterexample", "counterexample.n_v", 7),
        ("counterexample", "monte_carlo.workers", "two"),
        ("counterexample", "monte_carlo.workers", 0),
        ("counterexample", "monte_carlo.master_seed", "seven"),
        ("simulate", "grid.n_v", "16"),
        ("simulate", "grid.v_bound", "2"),
        ("simulate", "bgk.snapshot_stride", "4"),
        ("simulate", "bgk.window", "x"),
        ("simulate", "bgk.picard_tol", "1e-8"),
        ("simulate", "bgk.picard_max_iters", 2.5),
        ("simulate", "bgk.horizon", 0.001),
        ("simulate", "spec.initial.height", "tall"),
        ("simulate", "spec.initial.height", math.inf),
        ("tanh", "spec.field.amplitude", math.nan),
        ("simulate", "spec.field.c", "x"),
        ("simulate", "spec.field.c", ["a"]),
        ("simulate", "spec.field.c", 5),
        ("random_bv", "spec.initial.support", [1.0]),
        ("tanh", "spec.field.width", 0),
        ("cusp", "spec.initial.preset", "cusp2D"),
        ("simulate", "audit.entropy_tol", "big"),
        ("simulate", "audit.entropy_tol", -1.0),
        ("convergence", "convergence.levels", "three"),
        ("convergence", "convergence.levels", 3.5),
        ("convergence", "convergence.dt_over_h", 0),
        ("convergence", "convergence.dt_over_h", "x"),
        ("paths", "paths_cmd.delta", "small"),
        ("paths", "paths_cmd.count", 0),
        ("paths", "paths_cmd.dims", "12"),
    ]

    @pytest.mark.parametrize(
        "base, path, value", BAD_FIELDS,
        ids=[f"{p}={json.dumps(v, separators=(',', ':'))}" for _, p, v in BAD_FIELDS])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, base, path, value):
        cfg = _edited(self.BASES[base], path, value)
        out = tmp_path / "o"
        rc = main([cfg["experiment"], "--config", _write(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        assert f"'{path}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work

    def test_overflowing_field_bound_exits_2_naming_both_keys(self, tmp_path, capsys):
        # each value is finite and in range; only their quotient overflows
        cfg = _edited(SIM_CFG, "spec.field",
                      {"preset": "tanh", "amplitude": 1e300, "width": 1e-10})
        out = tmp_path / "o"
        rc = main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'spec.field.amplitude'" in err and "'spec.field.width'" in err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["cusp2d", "smooth"])
    def test_cusp_flow_variants_validate(self, variant):
        validate_run_config(_edited(self.BASES["cusp"], "spec.initial.preset", variant))

    @pytest.mark.parametrize("exc", [ValueError("a bug"),
                                     StructuralViolationError("defect prefix reached -1")],
                             ids=["ValueError", "StructuralViolationError"])
    def test_internal_error_exits_4_on_one_line(self, tmp_path, capsys, monkeypatch, exc):
        def broken(cfg, seed, out):
            raise exc

        monkeypatch.setattr(cli, "cmd_simulate", broken)
        rc = main(["simulate", "--config", _write(tmp_path, SIM_CFG),
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_underflowing_velocity_cell_exits_2(self, tmp_path, capsys):
        # sup rho0 = 5e-324 gives 2 N / n_v = 0.0: no velocity spacing exists
        cfg = _edited(SIM_CFG, "spec.initial.height", 5e-324)
        rc = main(["simulate", "--config", _write(tmp_path, cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: velocity bound")

    def test_missing_config_file_exits_2_naming_it(self, tmp_path, capsys):
        missing, out = tmp_path / "absent.json", tmp_path / "o"
        rc = main(["simulate", "--config", str(missing), "--out", str(out)])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    # a value of each JSON type; for a leaf, every one of another type than
    # the leaf's (a float leaf also accepts an int, so ints are not offered)
    WRONG = {str: ["x", 1.5, 2, True, [], {}], float: ["x", True, [], {}],
             int: ["x", 1.5, True, [], {}]}

    @pytest.mark.parametrize("cfg", [json.loads((GOLDEN_DIR / "config.json").read_text()),
                                     CONV_CFG, PATHS_CFG, CE_CFG],
                             ids=["golden", "convergence", "paths", "counterexample"])
    @settings(max_examples=150)
    @given(data=st.data())
    def test_wrong_type_leaf_is_named(self, cfg, data):
        leaves = list(_leaves(cfg))
        assert validate_run_config(cfg)
        path, keys, value = data.draw(st.sampled_from(leaves))
        wrong = data.draw(st.sampled_from(
            [w for w in self.WRONG[type(value)] if type(w) is not type(value)]))
        bad = json.loads(json.dumps(cfg))
        node = bad
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = wrong
        with pytest.raises(ConfigurationError) as info:
            validate_run_config(bad)
        assert path in str(info.value)


class TestSimulateBundle:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", _write(tmp_path, SIM_CFG),
                   "--out", str(out)])
        assert rc == 0
        for name in ("trajectory.csv", "defect.csv", "audit.csv",
                     "config_resolved.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert "trajectory.csv" in manifest["files"]

    def test_rerun_reproduces_bytes(self, tmp_path):
        cfg_path = _write(tmp_path, SIM_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
        for name in ("trajectory.csv", "defect.csv", "audit.csv"):
            assert _read_bytes(out_a / name) == _read_bytes(out_b / name)

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = _write(tmp_path, SIM_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg_path, "--out", str(out_a)])
        main(["simulate", "--config", cfg_path, "--out", str(out_b),
              "--seed", "8"])
        assert _read_bytes(out_a / "trajectory.csv") != \
            _read_bytes(out_b / "trajectory.csv")


class TestAuditCommand:
    def _bundle(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", _write(tmp_path, SIM_CFG),
              "--out", str(out)])
        return out

    def _audit_cfg(self, tmp_path):
        return _write(tmp_path, {"experiment": "audit"}, "audit.json")

    def test_stored_run_passes(self, tmp_path):
        out = self._bundle(tmp_path)
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        assert rc == 0

    @staticmethod
    def _replace_trajectory(out, lines):
        """Rewrite trajectory.csv with \\n line ends and refresh the manifest,
        so only the trajectory's content can fail the audit."""
        (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
        import stochbgk.csvio as csvio
        manifest = json.loads((out / "manifest.json").read_text())
        files = [str(out / n) for n in manifest["files"]]
        csvio.write_manifest(str(out), manifest["config"],
                             manifest["master_seed"], files)

    def test_corrupted_cell_fails_max_principle(self, tmp_path):
        out = self._bundle(tmp_path)
        traj = (out / "trajectory.csv").read_text().splitlines()
        # bump one interior value above the initial sup norm
        parts = traj[400].split(",")
        parts[-1] = "2.5"
        traj[400] = ",".join(parts)
        self._replace_trajectory(out, traj)
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        assert rc == 1

    # rows t,i,rho of SIM_CFG: 11 snapshots of 128 cells, lines 1..1408
    BAD_TRAJECTORIES = {
        "non_numeric_value": lambda ls: _set_field(ls, 400, 2, "0.5.1"),
        "nan_value": lambda ls: _set_field(ls, 400, 2, "nan"),
        "inf_value": lambda ls: _set_field(ls, 400, 2, "inf"),
        "short_row": lambda ls: ls[:400] + [ls[400].rsplit(",", 1)[0]] + ls[401:],
        "long_row": lambda ls: ls[:400] + [ls[400] + ",0"] + ls[401:],
        "every_row_short": lambda ls: ls[:1] + [r.rsplit(",", 1)[0] for r in ls[1:]],
        "empty_body": lambda ls: ls[:1],
        "bad_header": lambda ls: ["t,x,rho"] + ls[1:],
        "no_index_column": lambda ls: ["t,rho"] + [
            ",".join(r.split(",")[::2]) for r in ls[1:]],
        "dropped_row": lambda ls: ls[:400] + ls[401:],
        "duplicated_row": lambda ls: ls[:401] + ls[400:],
        "cell_twice_cell_missing": lambda ls: ls[:401] + ls[400:401] + ls[402:],
        "negative_index": lambda ls: _set_field(ls, 1, 1, "-1"),
        "fractional_index": lambda ls: _set_field(ls, 400, 1, "15.5"),
        "index_past_grid": lambda ls: _set_field(ls, 400, 1, "128"),
        "time_off_by_one_ulp": lambda ls: _set_field(
            ls, 400, 0, repr(float(np.nextafter(float(ls[400].split(",")[0]), 1.0)))),
        "fewer_cells_than_grid_n": lambda ls: ls[:1] + [
            r for r in ls[1:] if int(r.split(",")[1]) < 127],
        "two_d_file_for_1d_config": lambda ls: ["t,i,j,rho"] + [
            f"{t},{i},{j},0" for t in (0, 1) for i in range(128) for j in range(128)],
        "blank_line": lambda ls: ls[:400] + [""] + ls[400:],
        "space_padded_value": lambda ls: _set_field(ls, 400, 2, ls[400].split(",")[2] + " "),
    }

    @pytest.mark.parametrize("case", BAD_TRAJECTORIES)
    def test_malformed_trajectory_exits_2_naming_it(self, tmp_path, capsys, case):
        out = self._bundle(tmp_path)
        lines = (out / "trajectory.csv").read_text().splitlines()
        self._replace_trajectory(out, self.BAD_TRAJECTORIES[case](lines))
        capsys.readouterr()
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:")
        assert "trajectory.csv" in err

    def test_partial_bundle_rejected(self, tmp_path):
        out = self._bundle(tmp_path)
        os.remove(out / "manifest.json")
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        assert rc == 2

    def test_reaudit_reproduces_report_bytes(self, tmp_path):
        out = self._bundle(tmp_path)
        blobs = []
        for name in ("r1", "r2"):
            re_out = tmp_path / name
            assert main(["audit", "--config", self._audit_cfg(tmp_path),
                         "--bundle", str(out), "--out", str(re_out)]) == 0
            blobs.append(_read_bytes(re_out / "reaudit.csv"))
        assert blobs[0] == blobs[1]

    def _audit_rows(self, path, names):
        rows = [r for r in path.read_text().splitlines()
                if r.split(",")[0] in names]
        assert len(rows) == len(names)
        return rows

    def test_reaudit_rows_equal_live_audit_rows(self, tmp_path):
        out = self._bundle(tmp_path)
        re_out = tmp_path / "re"
        assert main(["audit", "--config", self._audit_cfg(tmp_path),
                     "--bundle", str(out), "--out", str(re_out)]) == 0
        names = ("max_principle", "bv_nonincrease")
        assert self._audit_rows(re_out / "reaudit.csv", names) == \
            self._audit_rows(out / "audit.csv", names)

    def test_reaudit_skips_bv_for_x_dependent_field(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SIM_CFG))
        cfg["spec"]["field"] = {"preset": "tanh", "amplitude": 0.5}
        out, re_out = tmp_path / "run", tmp_path / "re"
        main(["simulate", "--config", _write(tmp_path, cfg), "--out", str(out)])
        capsys.readouterr()
        main(["audit", "--config", self._audit_cfg(tmp_path),
              "--bundle", str(out), "--out", str(re_out)])
        assert "skipped: b is not constant" in capsys.readouterr().out
        names = ("bv_nonincrease",)
        assert self._audit_rows(re_out / "reaudit.csv", names) == \
            self._audit_rows(out / "audit.csv", names)

    def test_corrupt_manifest_exits_2(self, tmp_path, capsys):
        out = self._bundle(tmp_path)
        (out / "manifest.json").write_text('{"files": {')
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:")
        assert str(out / "manifest.json") in err

    def test_bundle_without_trajectory_exits_2(self, tmp_path, capsys):
        cfg = {"experiment": "counterexample",
               "counterexample": {"t": 0.5, "resolutions": [32]}}
        out = tmp_path / "c"
        assert main(["counterexample", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:")
        assert str(out / "trajectory.csv") in err

    @pytest.mark.parametrize("edit, named", [
        pytest.param(edit, named, id=edit) for edit, named in
        [("field_c", "manifest.json"), ("horizon", "manifest.json"),
         ("hash_dropped", "manifest.json"), ("resolved_rehashed", "config_resolved.json"),
         ("resolved_not_utf8", "config_resolved.json")]])
    def test_tampered_config_exits_2_naming_the_manifest(self, tmp_path, capsys, edit,
                                                         named):
        out = self._bundle(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = out / "config_resolved.json"
        if edit == "field_c":
            manifest["config"]["spec"]["field"]["c"] = [5.0]
        elif edit == "horizon":
            manifest["config"]["bgk"]["horizon"] = 99
        elif edit == "hash_dropped":
            del manifest["config_sha256"]
        else:
            # edit config_resolved.json and record its new hash, so only the
            # comparison with the manifest's config can catch it
            if edit == "resolved_rehashed":
                cfg = json.loads(resolved.read_text())
                cfg["bgk"]["horizon"] = 99
                resolved.write_text(json.dumps(cfg, indent=2, sort_keys=True))
            else:
                resolved.write_bytes(b"\xff" + resolved.read_bytes())
            manifest["files"]["config_resolved.json"] = csvio.file_sha256(resolved)
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        capsys.readouterr()
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error:")
        assert named in err

    def test_listed_file_replaced_by_a_directory_exits_2(self, tmp_path, capsys):
        out = self._bundle(tmp_path)
        (out / "defect.csv").unlink()
        (out / "defect.csv").mkdir()
        capsys.readouterr()
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        assert rc == 2
        assert "defect.csv" in capsys.readouterr().err

    def test_tampered_bundle_rejected(self, tmp_path):
        out = self._bundle(tmp_path)
        with open(out / "defect.csv", "a") as fh:
            fh.write("tampered\n")
        rc = main(["audit", "--config", self._audit_cfg(tmp_path),
                   "--bundle", str(out), "--out", str(tmp_path / "re")])
        assert rc == 2


class TestSimulate2D:
    def test_shear_run_round_trips_csv(self, tmp_path):
        from stochbgk.csvio import read_trajectory_csv
        cfg = {
            "experiment": "simulate",
            "spec": {"flux": "linear",
                     "field": {"preset": "shear", "amplitude": 0.5},
                     "initial": {"preset": "bump", "center": [0.0, 0.0],
                                  "width": 1.2, "amplitude": 0.9}},
            # coarser boxes fail the energy audit honestly: transport
            # interpolation dissipates energy the defect does not record
            "grid": {"dim": 2, "half_width": 3.0, "n": 64, "n_v": 8},
            "bgk": {"epsilon": 0.01, "dt": 0.005, "horizon": 0.05,
                    "snapshot_stride": 5},
            "monte_carlo": {"master_seed": 5},
        }
        out = tmp_path / "run2d"
        assert main(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        times, rho, dim = read_trajectory_csv(out / "trajectory.csv")
        assert dim == 2
        assert rho.shape == (3, 64, 64)
        assert float(np.max(np.abs(rho))) <= 0.9


class TestGoldenRun:
    def test_reproduces_checked_in_csv(self, tmp_path):
        out = tmp_path / "golden_out"
        rc = main(["simulate", "--config", str(GOLDEN_DIR / "config.json"),
                   "--out", str(out)])
        assert rc == 0
        assert (out / "trajectory.csv").read_bytes() == \
            (GOLDEN_DIR / "trajectory.csv").read_bytes()

    def test_reproduces_checked_in_defect_and_audit_csv(self, tmp_path):
        """The golden config with the entropy row on: six PASS rows."""
        cfg = json.loads((GOLDEN_DIR / "config.json").read_text())
        cfg["audit"] = {"entropy_tol": 0.05}
        out = tmp_path / "golden_out"
        assert main(["simulate", "--config", _write(tmp_path, cfg),
                     "--out", str(out)]) == 0
        for name in ("defect.csv", "audit.csv"):
            assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


class TestPathsCommand:
    def test_levy_table(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["paths", "--config", _write(tmp_path, PATHS_CFG),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0].startswith("dim,delta,paths,levy_statistic")
        assert len(lines) == 2


class TestCounterexampleCommand:
    def test_tables_emitted(self, tmp_path):
        cfg = {
            "experiment": "counterexample",
            "counterexample": {"t": 0.5, "resolutions": [32, 64],
                               "stochastic_resolutions": [32],
                               "paths": 2, "n_v": 8},
            "monte_carlo": {"master_seed": 3, "workers": 2},
        }
        out = tmp_path / "c"
        rc = main(["counterexample", "--config", _write(tmp_path, cfg),
                   "--out", str(out)])
        assert rc == 0
        det = (out / "deterministic_bv.csv").read_text().splitlines()
        assert len(det) == 1 + 4  # cusp and smooth ladders
        assert [tuple(r.split(",")[:2]) for r in det[1:]] == [
            ("cusp", "32"), ("cusp", "64"), ("smooth", "32"), ("smooth", "64")]
        sto = (out / "stochastic_bv.csv").read_text().splitlines()
        assert len(sto) == 2

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        base = {
            "experiment": "counterexample",
            "counterexample": {"t": 0.5, "resolutions": [32],
                               "stochastic_resolutions": [32],
                               "paths": 3, "n_v": 8},
            "monte_carlo": {"master_seed": 3, "workers": 1},
        }
        files = ("stochastic_bv.csv", "deterministic_bv.csv", "figure_bv.csv")
        outs = []
        for w, name in ((1, "w1"), (4, "w4")):
            cfg = json.loads(json.dumps(base))
            cfg["monte_carlo"]["workers"] = w
            out = tmp_path / name
            assert main(["counterexample", "--config",
                         _write(tmp_path, cfg, f"{name}.json"),
                         "--out", str(out)]) == 0
            outs.append([_read_bytes(out / f) for f in files])
        assert outs[0] == outs[1]

    def test_shared_pool_schedule_does_not_change_bytes(self, tmp_path, capsys):
        # the ladder and every path share one pool; rows keep their order
        base = {
            "experiment": "counterexample",
            "counterexample": {"t": 0.5, "resolutions": [32, 64],
                               "stochastic_resolutions": [32, 48],
                               "paths": 3, "n_v": 8},
            "monte_carlo": {"master_seed": 3, "workers": 1},
        }
        files = ("deterministic_bv.csv", "stochastic_bv.csv", "figure_bv.csv")
        outs = []
        for w in (1, 2, 3):
            cfg = json.loads(json.dumps(base))
            cfg["monte_carlo"]["workers"] = w
            out = tmp_path / f"w{w}"
            assert main(["counterexample", "--config",
                         _write(tmp_path, cfg, f"w{w}.json"),
                         "--out", str(out)]) == 0
            outs.append([_read_bytes(out / f) for f in files]
                        + [capsys.readouterr().out.encode()])
        assert outs[0] == outs[1] == outs[2]
        assert [line.split()[0] for line in outs[0][-1].decode().splitlines()] == [
            "cusp", "cusp", "smooth", "smooth", "stochastic", "stochastic"]

    @staticmethod
    def _aborting_solves(monkeypatch):
        """Replace the engine by a 0.1 s solve that aborts; returns its calls."""
        import time

        from stochbgk import bgk
        from stochbgk.errors import NumericalAbortError

        calls = []

        def solve(*args, **kwargs):
            calls.append(args[1].n)
            time.sleep(0.1)
            raise NumericalAbortError("non-finite reach")

        monkeypatch.setattr(bgk, "run_simulation", solve)
        return calls

    _FAILING_CFG = {
        "experiment": "counterexample",
        "counterexample": {"t": 0.5, "resolutions": [32],
                           "stochastic_resolutions": [32, 48],
                           "paths": 4, "n_v": 8},
        "monte_carlo": {"master_seed": 3, "workers": 2},
    }

    def test_ladder_error_exits_2_and_cancels_the_paths(self, tmp_path, capsys,
                                                        monkeypatch):
        def ladder(*args):
            raise ConfigurationError("ladder rejected its input")

        monkeypatch.setattr(cli, "bv_growth_experiment", ladder)
        calls = self._aborting_solves(monkeypatch)
        out = tmp_path / "c"
        rc = main(["counterexample", "--config", _write(tmp_path, self._FAILING_CFG),
                   "--out", str(out)])
        assert rc == 2
        assert "ladder rejected its input" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert len(calls) < 8

    def test_late_ladder_error_with_one_worker_exits_2(self, tmp_path, capsys,
                                                       monkeypatch):
        # the ladder holds the only worker and fails after the paths are queued
        import threading
        import time

        from stochbgk import bgk

        def ladder(*args):
            time.sleep(0.1)
            raise ConfigurationError("ladder rejected its input")

        calls = []
        solve = bgk.run_simulation

        def counted(*args, **kwargs):
            calls.append(args[1].n)
            time.sleep(0.2)  # the rest stay queued until the command cancels them
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "bv_growth_experiment", ladder)
        monkeypatch.setattr(bgk, "run_simulation", counted)
        cfg = json.loads(json.dumps(self._FAILING_CFG))
        cfg["monte_carlo"]["workers"] = 1
        out = tmp_path / "c"
        argv = ["counterexample", "--config", _write(tmp_path, cfg), "--out", str(out)]
        result = []
        runner = threading.Thread(target=lambda: result.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "counterexample hung after the ladder failed"
        assert result == [2]
        assert "ladder rejected its input" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert len(calls) <= 1  # at most the path dequeued as the ladder failed

    def test_path_abort_exits_3_and_cancels_the_rest(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "bv_growth_experiment", lambda *args: [])
        calls = self._aborting_solves(monkeypatch)
        out = tmp_path / "c"
        rc = main(["counterexample", "--config", _write(tmp_path, self._FAILING_CFG),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical abort: non-finite reach")
        assert not (out / "manifest.json").exists()
        assert calls[0] == 48  # finest resolution first
        assert len(calls) < 8


class TestConvergenceCommand:
    def test_rate_table(self, tmp_path):
        out = tmp_path / "conv"
        rc = main(["convergence", "--config", _write(tmp_path, CONV_CFG),
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert len(rows) == 4
        summary = (out / "convergence_summary.csv").read_text().splitlines()
        assert summary[0] == "fitted_rate,finest_error"


@pytest.mark.parametrize("module", ["stochbgk", "stochbgk.cli"])
def test_import_loads_no_scipy(module):
    # SciPy is the slowest import of the package; only the counterexample
    # command needs it, and it imports it when it solves
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """A simulate bundle of SIM_CFG at n = 64 and an audit config."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = _edited(SIM_CFG, "grid.n", 64)
    assert main(["simulate", "--config", _write(root, cfg), "--out", str(root / "run")]) == 0
    return root / "run", _write(root, {"experiment": "audit"}, "audit.json")


# bytes that the CSV, number and JSON parsers treat specially, and two that
# are not UTF-8 text
_FUZZ_BYTE = st.sampled_from(list(b'0123456789-+.,eE\n\r :"{}[]naifINF') + [0, 255])
# up to four edits (kind, position as a share of the file's length, byte)
_FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                                 st.floats(0.0, 1.0, exclude_max=True), _FUZZ_BYTE),
                       min_size=1, max_size=4)


def _mutated(data, edits):
    data = bytearray(data)
    for kind, share, byte in edits:
        at = int(share * len(data))
        if kind == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if kind == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def _refresh_manifest(bundle):
    """Rehash the listed files and the config of manifest.json while it
    still parses, so the edited bytes reach the audit, not only the hash
    check."""
    path = bundle / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError:  # not JSON, or not UTF-8
        return
    if not isinstance(manifest, dict):
        return
    if isinstance(manifest.get("files"), dict):
        for name in manifest["files"]:
            if (bundle / name).is_file():
                manifest["files"][name] = csvio.file_sha256(bundle / name)
    if isinstance(manifest.get("config"), dict):
        manifest["config_sha256"] = csvio._config_sha256(manifest["config"])
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))


@given(name=st.sampled_from(["trajectory.csv", "defect.csv", "manifest.json",
                             "config_resolved.json"]), edits=_FUZZ_EDITS)
def test_edited_bundle_audit_never_exits_4(small_bundle, name, edits):
    # an edited bundle passes (0), fails an audit row (1) or is rejected
    # with one line (2); exit 4 would be a bug in the reader or the audit
    bundle, audit_cfg = small_bundle
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp) / "run"
        shutil.copytree(bundle, work)
        (work / name).write_bytes(_mutated((work / name).read_bytes(), edits))
        _refresh_manifest(work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["audit", "--config", audit_cfg, "--bundle", str(work),
                       "--out", str(pathlib.Path(tmp) / "re")])
    assert rc in (0, 1, 2), err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in out.getvalue() + err.getvalue()
