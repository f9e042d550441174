"""Run configuration: a JSON document with named presets.

Every experiment the suite runs is expressible through presets (fluxes,
advecting fields, initial data) so no run requires code changes.  Validation
errors name the offending field path.
"""

from __future__ import annotations

import json
import math
from .bgk import BGKConfig
from .counterexample import cusp_data, cusp_flow_spec, smooth_control_data
from .errors import ConfigurationError
from .problem import (ProblemSpec, bump_data, burgers_flux, constant_data,
                      constant_field, linear_flux, make_spec, plateau_data,
                      random_bv_data, riemann_data, shear_field_2d,
                      tanh_field_1d)

EXPERIMENTS = ("simulate", "convergence", "counterexample", "audit", "paths")


def _req(cfg: dict, path: str, typ, where: str):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigurationError(f"{where}: missing required field '{path}'")
        node = node[part]
    if typ is float and isinstance(node, int):
        node = float(node)
    if not isinstance(node, typ):
        raise ConfigurationError(
            f"{where}: field '{path}' has type {type(node).__name__}, "
            f"expected {typ.__name__ if not isinstance(typ, tuple) else typ}"
        )
    return node


def _opt(cfg: dict, path: str, default):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


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
        epsilon=float(_req(cfg, "bgk.epsilon", (int, float), "config")),
        dt=float(_req(cfg, "bgk.dt", (int, float), "config")),
        horizon=float(_req(cfg, "bgk.horizon", (int, float), "config")),
        half_width=float(_req(cfg, "grid.half_width", (int, float), "config")),
        n=int(_req(cfg, "grid.n", int, "config")),
        n_v=int(_opt(cfg, "grid.n_v", 32)),
        v_bound=_opt(cfg, "grid.v_bound", None),
        snapshot_stride=int(_opt(cfg, "bgk.snapshot_stride", 1)),
        store_kinetic=bool(_opt(cfg, "bgk.store_kinetic", False)),
        store_defect_field=bool(_opt(cfg, "bgk.store_defect_field", False)),
        window=_opt(cfg, "bgk.window", None),
        picard_tol=float(_opt(cfg, "bgk.picard_tol", 1e-8)),
        picard_max_iters=int(_opt(cfg, "bgk.picard_max_iters", 200)),
    )


def validate_run_config(cfg: dict) -> dict:
    """Schema check; returns the resolved (defaults filled) document."""
    exp = _req(cfg, "experiment", str, "config")
    if exp not in EXPERIMENTS:
        raise ConfigurationError(
            f"experiment: '{exp}' is not one of {', '.join(EXPERIMENTS)}"
        )
    resolved = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    resolved.setdefault("monte_carlo", {})
    resolved["monte_carlo"].setdefault("master_seed", 0)
    resolved["monte_carlo"].setdefault("workers", 1)
    if exp in ("simulate", "convergence"):
        build_spec(resolved)
        build_bgk_config(resolved)
    if exp == "convergence":
        levels = _opt(resolved, "convergence.levels", None)
        if levels is None or int(levels) < 3:
            raise ConfigurationError(
                "convergence.levels: a refinement study needs at least 3 levels"
            )
    if exp == "paths":
        delta = float(_opt(resolved, "paths_cmd.delta", 2.0 ** -14))
        if delta >= 1.0 / math.e:
            raise ConfigurationError("paths_cmd.delta: must be < 1/e")
    return resolved
