"""Inverse flow of the stochastic characteristics dX = f'(v) b(X) dt + dB.

The noise is additive, so Ito and Stratonovich integration coincide pathwise
and the substitution Y = X - B turns the SDE into a random ODE.  The inverse
flow integrates that ODE in reverse time with the same path, which is exact
for b = 0 and costs O(steps) per query.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import BrownianPath
from .errors import ConfigurationError
from .problem import ProblemSpec


@dataclass(frozen=True)
class FlowQuery:
    """One characteristics query on the time window [start, end]."""

    start: float
    end: float
    point: np.ndarray
    velocity: float

    def __post_init__(self):
        if self.start > self.end:
            raise ConfigurationError(f"need start <= end, got [{self.start}, {self.end}]")


def _as_points(x, dim):
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.ndim == 1 and dim == 1:
        pts = pts[:, None]
    if pts.shape[-1] != dim:
        raise ConfigurationError(f"points have dim {pts.shape[-1]}, path has dim {dim}")
    return pts


def _window(q: FlowQuery, path: BrownianPath):
    k0 = path.node_index(q.start)
    k1 = path.node_index(q.end)
    return k0, k1


def flow_inverse(q: FlowQuery, path: BrownianPath, spec: ProblemSpec) -> np.ndarray:
    """Backtrack X_{end,start}(x) = X(start, end, .)^{-1}(x).

    With Y(tau) = X(tau) - B(tau), integrate dY/dtau = f'(v) b(Y + B(tau))
    from `end` down to `start` using the same increments, then add B(start).
    """
    k0, k1 = _window(q, path)
    fp = float(spec.f_prime(q.velocity))
    nodes = path.values_at_nodes()
    y = _as_points(q.point, path.dim) - nodes[k1]
    for k in range(k1, k0, -1):
        y -= path.dt * fp * np.asarray(spec.b(y + nodes[k]))
    return y + nodes[k0]

