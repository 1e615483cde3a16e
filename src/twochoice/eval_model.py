"""Probabilistic model of a single evaluation act.

A worker with capability c in [0, 1] judges a request pair with difficulty
d in [-1, 1]. The chance of picking the first model's item is

    P(a) = (c * d + 1) / 2

so c*d = 0 is a coin flip and c*d = +/-1 is a certain pick. One judgement
is a single Bernoulli trial at that probability. The simulator never draws
single votes: it draws each request's final label and effort from the law
of its votes (``simulator.final_law``), at the pool's mean capability, at
fixed-worker's worker's, or at each request's distinct voters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import SeedLike, as_generator


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WorkerPool:
    """Capabilities of an annotator population, each in [0, 1]."""

    capabilities: np.ndarray

    def __post_init__(self):
        caps = _readonly(self.capabilities)
        if caps.ndim != 1 or caps.size < 1:
            raise ValueError("capabilities must be a nonempty 1-d array")
        if np.any(caps < 0.0) or np.any(caps > 1.0):
            raise ValueError("all capabilities must lie in [0, 1]")
        object.__setattr__(self, "capabilities", caps)

    @property
    def pool_size(self) -> int:
        return int(self.capabilities.size)


@dataclass(frozen=True)
class RequestSet:
    """Per-request difficulties in [-1, 1]."""

    difficulties: np.ndarray

    def __post_init__(self):
        diffs = _readonly(self.difficulties)
        if diffs.ndim != 1 or diffs.size < 1:
            raise ValueError("difficulties must be a nonempty 1-d array")
        if np.any(diffs < -1.0) or np.any(diffs > 1.0):
            raise ValueError("all difficulties must lie in [-1, 1]")
        object.__setattr__(self, "difficulties", diffs)

    @property
    def size(self) -> int:
        return int(self.difficulties.size)


def sample_capabilities(lo: float, hi: float, pool_size: int, seed: SeedLike) -> WorkerPool:
    """Draw pool_size worker capabilities i.i.d. from Unif(lo, hi)."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"capability bounds must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    rng = as_generator(seed)
    caps = rng.uniform(lo, hi, size=pool_size)
    return WorkerPool(capabilities=caps)


def sample_difficulties(mu: float, sigma: float, n: int, seed: SeedLike) -> RequestSet:
    """Draw n difficulties from N(mu, sigma) restricted to [-1, 1].

    Out-of-range draws are rejected and redrawn, which keeps the shape of
    the normal intact (clamping would pile mass onto the endpoints).
    """
    if not (-1.0 <= mu <= 1.0):
        raise ValueError(f"mu must be a finite number in [-1, 1], got {mu}")
    # a NaN or infinite sigma would reject every draw below forever
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        draw = rng.normal(mu, sigma, size=n - filled)
        keep = draw[(draw >= -1.0) & (draw <= 1.0)]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return RequestSet(difficulties=out)

