"""Run configuration: a JSON document with named presets.

Every experiment the suite runs is expressible through presets (fluxes,
advecting fields, initial data) so no run requires code changes.  Each key is
read here and only here, by its dotted path from the document root (list
entries as ``path[i]``), with its type, default and range; a bad value raises
ConfigurationError naming that path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bgk import BGKConfig
from .counterexample import cusp_data, cusp_flow_spec, smooth_control_data
from .errors import ConfigurationError
from .grids import SpatialGrid
from .problem import (ProblemSpec, bump_data, burgers_flux, constant_data,
                      constant_field, linear_flux, make_spec, plateau_data,
                      random_bv_data, riemann_data, shear_field_2d,
                      tanh_field_1d)

EXPERIMENTS = ("simulate", "convergence", "counterexample", "audit", "paths")
# presets that exist in one dimension only
_PRESET_DIM = {"tanh": 1, "riemann": 1, "plateau": 1, "random_bv": 1, "shear": 2, "cusp_flow": 2}
# initial data the cusp_flow field runs with: the cusp and its smooth control
_CUSP_VARIANTS = {"cusp2d": cusp_data, "smooth": smooth_control_data}


_MISSING = object()


def _lookup(cfg: dict, path: str):
    """The node at path; _MISSING when a key on the way is absent or null."""
    node, parts = cfg, path.split(".")
    for i, part in enumerate(parts):
        if node is None or node is _MISSING:
            return _MISSING
        node = _typed(node, ".".join(parts[:i]) or "(root)", dict).get(part, _MISSING)
    return node


def _typed(node, path: str, typ, low=None, above=None):
    """node checked against typ (an int passes as a float, a bool only as a
    bool), finite, and >= low or > above when given."""
    if typ is float and isinstance(node, int) and not isinstance(node, bool):
        node = float(node)
    if not isinstance(node, typ) or (isinstance(node, bool) and typ is not bool):
        raise ConfigurationError(
            f"field '{path}' has type {type(node).__name__}, expected {typ.__name__}")
    if (typ is float and not math.isfinite(node) or low is not None and not low <= node
            or above is not None and not above < node):
        raise ConfigurationError(f"field '{path}' is {node}, must be finite" + (
            "" if low is None and above is None
            else f" and >= {low}" if above is None else f" and > {above}"))
    return node


def _get(cfg: dict, path: str, typ, default=_MISSING, low=None, above=None):
    """Typed field at path: default when absent or null, required without one."""
    node = _lookup(cfg, path)
    if node is _MISSING or node is None:
        if default is _MISSING:
            raise ConfigurationError(f"missing required field '{path}'")
        return default
    return _typed(node, path, typ, low, above)


def _list(cfg: dict, path: str, typ, default, length=None, low=None) -> tuple:
    """List of typ entries, each read as 'path[i]'."""
    items = _get(cfg, path, list, default)
    if length is not None and len(items) != length:
        raise ConfigurationError(f"field '{path}' has {len(items)} entries, must have {length}")
    return tuple(_typed(x, f"{path}[{i}]", typ, low) for i, x in enumerate(items))


def _even(cfg: dict, path: str, default) -> int:
    n = _get(cfg, path, int, default, low=4)
    if n % 2:
        raise ConfigurationError(f"field '{path}' is {n}, must be even")
    return n


def load_config(fname) -> dict:
    try:
        with open(fname) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or bad UTF-8
        raise ConfigurationError(f"{fname}: not a readable JSON file ({exc})") from exc


def build_field(cfg: dict, dim: int):
    """The field preset's (b, div b, sup |div b|)."""
    preset = _get(cfg, "spec.field.preset", str)
    if preset in ("zero", "constant"):
        return constant_field(
            [0.0] * dim if preset == "zero"
            else _list(cfg, "spec.field.c", float, [1.0] + [0.0] * (dim - 1), length=dim))
    if preset in ("tanh", "shear"):
        amp = _get(cfg, "spec.field.amplitude", float, 1.0)
        width = _get(cfg, "spec.field.width", float, 1.0, above=0.0)
        field = (shear_field_2d if preset == "shear" else tanh_field_1d)(amp, width)
        if not math.isfinite(field[2]):
            raise ConfigurationError(
                f"fields 'spec.field.amplitude' and 'spec.field.width': the bound "
                f"|amplitude/width| = {amp!r}/{width!r} overflows")
        return field
    raise ConfigurationError(f"field 'spec.field.preset': unknown preset '{preset}'")


def build_initial(cfg: dict, dim: int):
    preset = _get(cfg, "spec.initial.preset", str)

    def num(key, default, **rng):
        return _get(cfg, f"spec.initial.{key}", float, default, **rng)

    if preset == "riemann":
        return riemann_data(num("left", 1.0), num("right", 0.0), num("x0", 0.0))
    if preset == "plateau":
        return plateau_data(num("height", 1.0), num("a", -1.0), num("b", 0.0))
    if preset == "bump":
        center = (_list(cfg, "spec.initial.center", float, None, length=dim)
                  if isinstance(_lookup(cfg, "spec.initial.center"), list)
                  else num("center", 0.0))
        return bump_data(center, num("width", 1.0, above=0.0), num("amplitude", 1.0))
    if preset == "random_bv":
        support = _list(cfg, "spec.initial.support", float, (-1.0, 1.0), length=2)
        if not support[0] < support[1]:
            raise ConfigurationError(
                f"field 'spec.initial.support' is {list(support)}, must be increasing")
        return random_bv_data(_get(cfg, "spec.initial.seed", int, 0, low=0),
                              _get(cfg, "spec.initial.pieces", int, 8, low=1),
                              num("amplitude", 1.0), support, num("floor", 0.0))
    if preset == "constant":
        return constant_data(num("value", 1.0))
    raise ConfigurationError(f"field 'spec.initial.preset': unknown preset '{preset}'")


def build_spec(cfg: dict) -> ProblemSpec:
    dim = _get(cfg, "grid.dim", int)
    if dim not in (1, 2):
        raise ConfigurationError(f"field 'grid.dim' is {dim}, must be 1 or 2")
    for path in ("spec.field.preset", "spec.initial.preset"):
        want = _PRESET_DIM.get(_get(cfg, path, str, ""), dim)
        if want != dim:
            raise ConfigurationError(f"field '{path}': the preset is {want}D, grid.dim is {dim}")
    if _get(cfg, "spec.field.preset", str) == "cusp_flow":
        variant = _get(cfg, "spec.initial.preset", str, "cusp2d")
        if variant not in _CUSP_VARIANTS:
            raise ConfigurationError(f"field 'spec.initial.preset': the cusp_flow field "
                                     f"takes {' or '.join(_CUSP_VARIANTS)}, not '{variant}'")
        return cusp_flow_spec(_CUSP_VARIANTS[variant]())
    flux = _get(cfg, "spec.flux", str)
    if flux not in ("burgers", "linear"):
        raise ConfigurationError(f"field 'spec.flux': unknown preset '{flux}'")
    return make_spec(dim, burgers_flux() if flux == "burgers" else linear_flux(),
                     build_field(cfg, dim), build_initial(cfg, dim))


def build_bgk_config(cfg: dict) -> BGKConfig:
    dt = _get(cfg, "bgk.dt", float, above=0.0)
    return BGKConfig(
        epsilon=_get(cfg, "bgk.epsilon", float, above=0.0),
        dt=dt,
        horizon=_get(cfg, "bgk.horizon", float, low=dt),
        half_width=_get(cfg, "grid.half_width", float, above=0.0),
        n=_get(cfg, "grid.n", int, low=4),
        n_v=_even(cfg, "grid.n_v", 32),
        v_bound=_get(cfg, "grid.v_bound", float, None, above=0.0),
        snapshot_stride=_get(cfg, "bgk.snapshot_stride", int, 1, low=1),
        window=_get(cfg, "bgk.window", float, None, above=0.0),
        picard_tol=_get(cfg, "bgk.picard_tol", float, 1e-8, low=0.0),
        picard_max_iters=_get(cfg, "bgk.picard_max_iters", int, 200, low=1),
    )


def audit_entropy_tol(cfg: dict):
    """The simulate audit's entropy-residual tolerance; None skips the check."""
    return _get(cfg, "audit.entropy_tol", float, None, low=0.0)


def output_dir(cfg: dict) -> str:
    return _get(cfg, "output.dir", str, "out")


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


def build_counterexample_params(cfg: dict) -> CounterexampleParams:
    t = _get(cfg, "counterexample.t", float, 1.0, low=0.0)
    sres = _list(cfg, "counterexample.stochastic_resolutions", int, [], low=4)
    if sres and t == 0:
        raise ConfigurationError("field 'counterexample.t' must be > 0 for the stochastic runs")
    return CounterexampleParams(
        t=t,
        resolutions=_list(cfg, "counterexample.resolutions", int, [128, 256, 512, 1024],
                          low=4),
        stochastic_resolutions=sres,
        paths=_get(cfg, "counterexample.paths", int, 16, low=1),
        n_v=_even(cfg, "counterexample.n_v", 8),
        workers=_get(cfg, "monte_carlo.workers", int, 1, low=1),
    )


@dataclass(frozen=True)
class ConvergenceParams:
    """What `stochbgk convergence` runs: the 1D spec, whose b is the constant
    c, on `levels` doublings of the base grid at fixed dt/h and epsilon/dt."""

    spec: ProblemSpec
    base: BGKConfig
    c: float
    levels: int
    dt_over_h: float
    eps_over_dt: float


def build_convergence_params(cfg: dict) -> ConvergenceParams:
    spec, base = build_spec(cfg), build_bgk_config(cfg)
    if spec.dim != 1:
        raise ConfigurationError("field 'grid.dim': the convergence command drives the 1D oracles")
    b_probe = spec.b_on_grid(SpatialGrid(1, base.half_width, 16))
    if float(np.ptp(b_probe)) > 1e-12:
        raise ConfigurationError("field 'spec.field': the shift-reduction oracle needs constant b")
    return ConvergenceParams(
        spec=spec, base=base, c=float(b_probe.ravel()[0]),
        levels=_get(cfg, "convergence.levels", int, low=3),
        dt_over_h=_get(cfg, "convergence.dt_over_h", float, 0.25, above=0.0),
        eps_over_dt=_get(cfg, "convergence.eps_over_dt", float, 1.0, above=0.0),
    )


@dataclass(frozen=True)
class PathsParams:
    """What `stochbgk paths` runs: the Levy modulus statistic at lag delta
    over `count` paths on [0, horizon], once per dimension in dims."""

    delta: float
    count: int
    horizon: float
    dims: tuple


def build_paths_params(cfg: dict) -> PathsParams:
    delta = _get(cfg, "paths_cmd.delta", float, 2.0 ** -14, above=0.0)
    if delta >= 1.0 / math.e:
        raise ConfigurationError(f"field 'paths_cmd.delta' is {delta}, must be < 1/e")
    return PathsParams(
        delta=delta,
        count=_get(cfg, "paths_cmd.count", int, 100, low=1),
        horizon=_get(cfg, "paths_cmd.horizon", float, 1.0, low=delta),
        dims=_list(cfg, "paths_cmd.dims", int, [1, 2], low=1),
    )


def validate_run_config(cfg: dict) -> dict:
    """Run every read and check the experiment's command makes; returns the
    resolved document, a JSON-clean deep copy of cfg with the monte_carlo
    defaults filled."""
    exp = _get(cfg, "experiment", str)
    if exp not in EXPERIMENTS:
        raise ConfigurationError(
            f"field 'experiment' is '{exp}', not one of {', '.join(EXPERIMENTS)}")
    resolved = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    resolved["monte_carlo"] = {"master_seed": 0, "workers": 1,
                               **_get(resolved, "monte_carlo", dict, {})}
    _get(resolved, "monte_carlo.master_seed", int)
    output_dir(resolved)
    for build in {"simulate": (build_spec, build_bgk_config, audit_entropy_tol),
                  "convergence": (build_convergence_params,),
                  "counterexample": (build_counterexample_params,),
                  "paths": (build_paths_params,)}.get(exp, ()):
        build(resolved)
    return resolved
