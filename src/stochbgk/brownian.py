"""Seeded Brownian paths and the Levy modulus statistic.

Paths are generated with the counter-based Philox bit generator: path k of a
master seed uses counter block k << 128, so Monte Carlo draws are independent
of scheduling order and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class BrownianPath:
    """One sampled d-dimensional path: increments of variance dt per axis.

    ``increments`` has shape (n_steps, dim); B(0) = 0 and B(t_k) is the
    cumulative sum of the first k increments.
    """

    dim: int
    dt: float
    horizon: float
    increments: np.ndarray
    seed: int

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.shape != (self.n_steps, self.dim):
            raise ConfigurationError(
                f"increments shape {self.increments.shape} != {(self.n_steps, self.dim)}"
            )
        # B at the n_steps + 1 node times, B(0) = 0
        with np.errstate(over="ignore", invalid="ignore"):
            cum = np.vstack([np.zeros((1, self.dim)), np.cumsum(self.increments, axis=0)])
        bad = np.flatnonzero(~np.all(np.isfinite(cum), axis=1))
        # a non-finite increment is the engine's to abort on; finite ones must sum finitely
        if bad.size and np.all(np.isfinite(self.increments[bad[0] - 1])):
            raise ConfigurationError(
                f"B(t) at step {bad[0]} (t = {bad[0] * self.dt:g}) is not finite: "
                f"the sum of {bad[0]} finite increments overflows"
            )
        self._nodes = cum

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def node_index(self, t: float) -> int:
        """Nearest path node to time t (dt is the global time resolution)."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n_steps:
            raise ConfigurationError(f"time {t} outside path horizon [0, {self.horizon}]")
        return k

    def value(self, t: float) -> np.ndarray:
        """B at the node nearest to t."""
        return self._nodes[self.node_index(t)]

    def values_at_nodes(self) -> np.ndarray:
        return self._nodes

    def zeroed(self) -> "BrownianPath":
        """Same time grid with all increments zeroed (deterministic dynamics)."""
        return BrownianPath(self.dim, self.dt, self.horizon,
                            np.zeros_like(self.increments), self.seed)


def path_seed_generator(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-based stream: block counter offset by path_index * 2^128."""
    bg = np.random.Philox(key=master_seed & (2**64 - 1),
                          counter=[0, 0, path_index, 0])
    return np.random.Generator(bg)


def sample_path(seed: int, dt: float, horizon: float, dim: int = 1,
                path_index: int = 0) -> BrownianPath:
    """Deterministic function of (seed, path_index); increments ~ N(0, dt I)."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if horizon < dt:
        raise ConfigurationError(f"horizon {horizon} shorter than dt {dt}")
    if dim < 1:
        raise ConfigurationError(f"dim must be >= 1, got {dim}")
    n = int(round(horizon / dt))
    rng = path_seed_generator(seed, path_index)
    inc = rng.normal(0.0, math.sqrt(dt), size=(n, dim))
    return BrownianPath(dim=dim, dt=dt, horizon=n * dt, increments=inc, seed=seed)


def sample_paths(seed: int, dt: float, horizon: float, dim: int, count: int):
    return [sample_path(seed, dt, horizon, dim, path_index=k) for k in range(count)]


def levy_modulus_statistic(paths, delta: float) -> float:
    """max over paths and pairs with t2 - t1 <= delta of
    ||B(t2) - B(t1)|| / sqrt(2 delta log(1/delta)).

    The a.s. small-delta limit of the normalized modulus is sqrt(d) at this
    normalization.  Requires delta < 1/e so the modulus scale is meaningful,
    and delta >= dt so at least single-step pairs exist.
    """
    if delta >= 1.0 / math.e:
        raise ConfigurationError(f"delta must be < 1/e, got {delta}")
    worst = 0.0
    for path in paths:
        if delta < path.dt:
            raise ConfigurationError(f"delta {delta} below path resolution {path.dt}")
        nodes = path.values_at_nodes()
        max_lag = int(math.floor(delta / path.dt + 1e-12))
        for lag in range(1, max_lag + 1):
            diffs = nodes[lag:] - nodes[:-lag]
            worst = max(worst, float(np.max(np.linalg.norm(diffs, axis=-1))))
    return worst / math.sqrt(2.0 * delta * math.log(1.0 / delta))
