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


def _check_record(record, name: str, lo: float, hi: float) -> None:
    """Replace field ``name`` of a frozen record with a read-only float64
    copy, after checking that it is a nonempty 1-d array with every entry
    in [lo, hi]; NaN fails the range test. The caller's array is untouched."""
    arr = np.array(getattr(record, name), dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d array")
    if not ((arr >= lo) & (arr <= hi)).all():
        raise ValueError(f"all {name} must lie in [{lo:g}, {hi:g}]")
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)


@dataclass(frozen=True)
class WorkerPool:
    """Capabilities of an annotator population, each in [0, 1]."""

    capabilities: np.ndarray

    def __post_init__(self):
        _check_record(self, "capabilities", 0.0, 1.0)

    @property
    def pool_size(self) -> int:
        return int(self.capabilities.size)


@dataclass(frozen=True)
class RequestSet:
    """Per-request difficulties in [-1, 1]."""

    difficulties: np.ndarray

    def __post_init__(self):
        _check_record(self, "difficulties", -1.0, 1.0)

    @property
    def size(self) -> int:
        return int(self.difficulties.size)


def sample_capabilities(lo: float, hi: float, pool_size: int,
                        rng: np.random.Generator) -> WorkerPool:
    """Draw pool_size worker capabilities i.i.d. from Unif(lo, hi) with the
    Generator ``rng``."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"capability bounds must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    return WorkerPool(capabilities=rng.uniform(lo, hi, size=pool_size))


def sample_difficulties(mu: float, sigma: float, n: int,
                        rng: np.random.Generator) -> RequestSet:
    """Draw n difficulties from N(mu, sigma) restricted to [-1, 1] with the
    Generator ``rng``.

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
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        draw = rng.normal(mu, sigma, size=n - filled)
        keep = draw[(draw >= -1.0) & (draw <= 1.0)]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return RequestSet(difficulties=out)

