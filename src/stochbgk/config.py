"""Run configuration: a JSON document with named presets.

Every experiment the suite runs is expressible through presets (fluxes,
advecting fields, initial data) so no run requires code changes.  Validation
errors name the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .bgk import BGKConfig
from .counterexample import cusp_data, cusp_flow_spec, smooth_control_data
from .errors import ConfigurationError
from .problem import (ProblemSpec, bump_data, burgers_flux, constant_data,
                      constant_field, linear_flux, make_spec, plateau_data,
                      random_bv_data, riemann_data, shear_field_2d,
                      tanh_field_1d)

EXPERIMENTS = ("simulate", "convergence", "counterexample", "audit", "paths")


_MISSING = object()


def _lookup(cfg: dict, path: str):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return _MISSING
        node = node[part]
    return node


def _typed(node, path: str, typ, where: str, low=None):
    """node checked against typ: an int passes as a float, a bool only as a
    bool; with low given, a number that must be finite and >= low."""
    if typ is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if not isinstance(node, typ) or (isinstance(node, bool) and typ is not bool):
        raise ConfigurationError(
            f"{where}: field '{path}' has type {type(node).__name__}, expected {typ.__name__}"
        )
    if low is not None and not low <= node < math.inf:
        raise ConfigurationError(f"{where}: field '{path}' is {node}, must be finite and >= {low}")
    return node


def _req(cfg: dict, path: str, typ, where: str):
    node = _lookup(cfg, path)
    if node is _MISSING:
        raise ConfigurationError(f"{where}: missing required field '{path}'")
    return _typed(node, path, typ, where)


def _get(cfg: dict, path: str, typ, default, low=None):
    """Optional typed field: default when absent or null."""
    node = _lookup(cfg, path)
    if node is _MISSING or node is None:
        return default
    return _typed(node, path, typ, "config", low)


def _opt(cfg: dict, path: str, default):
    node = _lookup(cfg, path)
    return default if node is _MISSING else node


def load_config(fname) -> dict:
    with open(fname) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{fname}: invalid JSON ({exc})") from exc


def build_flux(name: str):
    if name == "burgers":
        return burgers_flux()
    if name == "linear":
        return linear_flux()
    raise ConfigurationError(f"spec.flux: unknown preset '{name}'")


def build_field(node: dict, dim: int):
    preset = _req(node, "preset", str, "spec.field")
    if preset == "zero":
        b, div_b, bs = constant_field([0.0] * dim)
        return (b, div_b), True, 0.0, bs
    if preset == "constant":
        c = _opt(node, "c", [1.0] + [0.0] * (dim - 1))
        if len(c) != dim:
            raise ConfigurationError(f"spec.field.c: expected {dim} components")
        b, div_b, bs = constant_field(c)
        return (b, div_b), True, 0.0, bs
    if preset == "tanh":
        if dim != 1:
            raise ConfigurationError("spec.field: tanh preset is 1D")
        amp = float(_opt(node, "amplitude", 1.0))
        width = float(_opt(node, "width", 1.0))
        b, div_b, dbs = tanh_field_1d(amp, width)
        return (b, div_b), False, dbs, abs(amp)
    if preset == "shear":
        if dim != 2:
            raise ConfigurationError("spec.field: shear preset is 2D")
        amp = float(_opt(node, "amplitude", 1.0))
        width = float(_opt(node, "width", 1.0))
        return shear_field_2d(amp, width), True, 0.0, abs(amp)
    raise ConfigurationError(f"spec.field.preset: unknown preset '{preset}'")


def build_initial(node: dict, dim: int):
    preset = _req(node, "preset", str, "spec.initial")
    if preset == "riemann":
        if dim != 1:
            raise ConfigurationError("spec.initial: riemann preset is 1D")
        return riemann_data(float(_opt(node, "left", 1.0)),
                            float(_opt(node, "right", 0.0)),
                            float(_opt(node, "x0", 0.0)))
    if preset == "plateau":
        if dim != 1:
            raise ConfigurationError("spec.initial: plateau preset is 1D")
        return plateau_data(float(_opt(node, "height", 1.0)),
                            float(_opt(node, "a", -1.0)),
                            float(_opt(node, "b", 0.0)))
    if preset == "bump":
        return bump_data(_opt(node, "center", 0.0),
                         float(_opt(node, "width", 1.0)),
                         float(_opt(node, "amplitude", 1.0)))
    if preset == "random_bv":
        return random_bv_data(int(_opt(node, "seed", 0)),
                              int(_opt(node, "pieces", 8)),
                              float(_opt(node, "amplitude", 1.0)),
                              tuple(_opt(node, "support", (-1.0, 1.0))),
                              float(_opt(node, "floor", 0.0)))
    if preset == "constant":
        return constant_data(float(_opt(node, "value", 1.0)))
    raise ConfigurationError(f"spec.initial.preset: unknown preset '{preset}'")


def build_spec(cfg: dict) -> ProblemSpec:
    node = _req(cfg, "spec", dict, "config")
    dim = int(_req(cfg, "grid.dim", int, "config"))
    field_node = _req(node, "field", dict, "spec")
    preset = _opt(field_node, "preset", "")
    if preset == "cusp_flow":
        if dim != 2:
            raise ConfigurationError("spec.field: cusp_flow preset is 2D")
        variant = _opt(cfg, "spec.initial.preset", "cusp2d")
        data = cusp_data() if variant == "cusp2d" else smooth_control_data()
        return cusp_flow_spec(data)
    flux = build_flux(_req(node, "flux", str, "spec"))
    field_parts, div_free, dbs, bs = build_field(field_node, dim)
    rho0 = build_initial(_req(node, "initial", dict, "spec"), dim)
    name = _opt(cfg, "name", "run")
    return make_spec(name, dim, flux, field_parts, rho0, div_free,
                     div_b_sup=dbs, b_sup=bs)


def build_bgk_config(cfg: dict) -> BGKConfig:
    return BGKConfig(
        epsilon=_req(cfg, "bgk.epsilon", float, "config"),
        dt=_req(cfg, "bgk.dt", float, "config"),
        horizon=_req(cfg, "bgk.horizon", float, "config"),
        half_width=_req(cfg, "grid.half_width", float, "config"),
        n=_req(cfg, "grid.n", int, "config"),
        n_v=_get(cfg, "grid.n_v", int, 32),
        v_bound=_get(cfg, "grid.v_bound", float, None),
        snapshot_stride=_get(cfg, "bgk.snapshot_stride", int, 1),
        store_kinetic=_get(cfg, "bgk.store_kinetic", bool, False),
        store_defect_field=_get(cfg, "bgk.store_defect_field", bool, False),
        window=_get(cfg, "bgk.window", float, None),
        picard_tol=_get(cfg, "bgk.picard_tol", float, 1e-8),
        picard_max_iters=_get(cfg, "bgk.picard_max_iters", int, 200),
    )


@dataclass(frozen=True)
class CounterexampleParams:
    """What `stochbgk counterexample` runs: the closed-form BV ladder at time
    t, and the Monte Carlo when stochastic_resolutions is non-empty."""

    t: float
    resolutions: tuple
    stochastic_resolutions: tuple
    paths: int
    n_v: int
    workers: int


def _resolutions(cfg: dict, path: str, default) -> tuple:
    return tuple(_typed(n, f"{path}[{i}]", int, "config", low=4)
                 for i, n in enumerate(_get(cfg, path, list, default)))


def build_counterexample_params(cfg: dict) -> CounterexampleParams:
    t = _get(cfg, "counterexample.t", float, 1.0, low=0.0)
    sres = _resolutions(cfg, "counterexample.stochastic_resolutions", [])
    if sres and t == 0:
        raise ConfigurationError(
            "config: field 'counterexample.t' must be > 0 for the stochastic runs")
    n_v = _get(cfg, "counterexample.n_v", int, 8, low=4)
    if n_v % 2:
        raise ConfigurationError(f"config: field 'counterexample.n_v' is {n_v}, must be even")
    return CounterexampleParams(
        t=t,
        resolutions=_resolutions(cfg, "counterexample.resolutions", [128, 256, 512, 1024]),
        stochastic_resolutions=sres,
        paths=_get(cfg, "counterexample.paths", int, 16, low=1),
        n_v=n_v,
        workers=_get(cfg, "monte_carlo.workers", int, 1, low=1),
    )


def validate_run_config(cfg: dict) -> dict:
    """Schema check; returns the resolved (defaults filled) document."""
    exp = _req(cfg, "experiment", str, "config")
    if exp not in EXPERIMENTS:
        raise ConfigurationError(
            f"experiment: '{exp}' is not one of {', '.join(EXPERIMENTS)}"
        )
    resolved = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    resolved["monte_carlo"] = _get(resolved, "monte_carlo", dict, {})
    resolved["monte_carlo"].setdefault("master_seed", 0)
    resolved["monte_carlo"].setdefault("workers", 1)
    _req(resolved, "monte_carlo.master_seed", int, "config")
    if exp in ("simulate", "convergence"):
        build_spec(resolved)
        build_bgk_config(resolved)
    if exp == "convergence":
        levels = _opt(resolved, "convergence.levels", None)
        if levels is None or int(levels) < 3:
            raise ConfigurationError(
                "convergence.levels: a refinement study needs at least 3 levels"
            )
    if exp == "counterexample":
        build_counterexample_params(resolved)
    if exp == "paths":
        delta = float(_opt(resolved, "paths_cmd.delta", 2.0 ** -14))
        if delta >= 1.0 / math.e:
            raise ConfigurationError("paths_cmd.delta: must be < 1/e")
    return resolved
