"""Exact law of the Hoeffding stopping rule for i.i.d. Bernoulli final labels.

This is a test-only oracle. It shares no code with the simulator: the
decision band is written out here from the rule as PAPER.md states it. With
n final labels of which k pick the first model and t = sqrt(-ln(delta)/(2n)),
the rule stops at the first n with k/n - t > 0.5 (first model wins) or
k/n + t < 0.5 (second model wins).

When every final label is an independent Bernoulli(q) trial, the stopping
time is the first exit of a binomial walk from that band. A forward
recursion over (n, k) on the surviving paths gives, exactly, the chance of
deciding within the request supply, the chance that the first model wins,
and E[tau | decided] (Wald, *Sequential Analysis*, 1947). Labelling effort
follows from Wald's identity E[effort] = E[tau] * E[labels per request],
applied to the decided iterations; the undecided ones, under 1e-3 of all
in the default grid, are what makes that an approximation.

How a cell's realized pool and request set become q:

* a voter drawn uniformly from the pool, facing difficulty d, picks the
  first model with probability p(d) = (c_mean * d + 1) / 2, because
  P(a) = (c * d + 1) / 2 is linear in c;
* one-worker: q = mean over requests of p(d);
* n-workers:N: q = mean over requests of the majority tail of N
  independent votes at p(d);
* max-three: the tiebreaker is asked only on disagreement, so the final
  label is the majority of three votes, and a request costs 2 + 2p(1-p)
  labels on average;
* fixed-worker: one worker labels everything, so the law is the average
  over the pool's workers of the law at q_w = mean over requests of
  (c_w * d + 1) / 2.

The simulator walks a uniformly random order of a fixed request set,
revealed block by block, so its requests are drawn without replacement.
That changes only the part of the label variance that comes from
difficulty, a few per cent of q(1-q) in the default regimes, so the i.i.d.
law is exact to well below the Monte Carlo error of a 1000-iteration cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Surviving mass below which the recursion stops early; what it drops moves
# E[tau] by at most this times n_requests.
NEGLIGIBLE_MASS = 1e-18


def tolerance(delta: float, n: int) -> float:
    """t = sqrt(-ln(delta) / (2 n))."""
    return math.sqrt(-math.log(delta) / (2 * n))


def decision_band(delta: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per n in 0..n_max: the least count that decides for the first model
    (k/n - t > 0.5) and the greatest count that decides for the second
    (k/n + t < 0.5, -1 when none does). Index 0 is unused."""
    first_wins = np.zeros(n_max + 1, dtype=np.int64)
    second_wins = np.full(n_max + 1, -1, dtype=np.int64)
    for n in range(1, n_max + 1):
        t = tolerance(delta, n)
        k = max(0, math.floor(n * (0.5 + t)) - 1)
        while not k / n - t > 0.5:
            k += 1
        first_wins[n] = k
        k = min(n, math.ceil(n * (0.5 - t)) + 1)
        while k >= 0 and not k / n + t < 0.5:
            k -= 1
        second_wins[n] = k
    return first_wins, second_wins


@dataclass(frozen=True)
class StoppingLaw:
    """One entry per label probability q."""

    p_decided: np.ndarray  # P(tau <= n_requests)
    p_first_wins: np.ndarray  # P(the first model is declared better)
    mean_tau: np.ndarray  # E[tau | decided]; NaN where p_decided is 0


def stopping_law(q, delta: float, n_requests: int) -> StoppingLaw:
    """Exact first-exit law for each label probability in q."""
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))[:, None]
    first_wins, second_wins = decision_band(delta, n_requests)
    alive = np.ones((q.shape[0], 1))  # mass on counts lo, lo+1, ... after n labels
    lo = 0
    p_first = np.zeros(q.shape[0])
    p_second = np.zeros(q.shape[0])
    tau_mass = np.zeros(q.shape[0])  # E[tau; decided]
    for n in range(1, n_requests + 1):
        width = alive.shape[1]
        grown = np.zeros((q.shape[0], width + 1))
        grown[:, :width] = alive * (1.0 - q)
        grown[:, 1:] += alive * q
        top = min(width + 1, first_wins[n] - lo)  # first column that decides A
        bottom = max(0, second_wins[n] - lo + 1)  # first column past the A' side
        won = grown[:, top:].sum(axis=1)
        lost = grown[:, :bottom].sum(axis=1)
        p_first += won
        p_second += lost
        tau_mass += n * (won + lost)
        alive = grown[:, bottom:top]
        lo += bottom
        if alive.size == 0 or alive.sum(axis=1).max() < NEGLIGIBLE_MASS:
            break
    p_decided = p_first + p_second
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_tau = np.where(p_decided > 0, tau_mass / p_decided, math.nan)
    return StoppingLaw(p_decided=p_decided, p_first_wins=p_first, mean_tau=mean_tau)


def majority_tail(p, n_votes: int):
    """P(more than half of n_votes independent Bernoulli(p) votes are 1)."""
    p = np.asarray(p, dtype=np.float64)
    return sum(math.comb(n_votes, j) * p**j * (1.0 - p) ** (n_votes - j)
               for j in range(n_votes // 2 + 1, n_votes + 1))


@dataclass(frozen=True)
class CellExpectation:
    p_decided: float
    mean_effort: float  # E[effort | decided]


def cell_expectation(strategy: str, difficulties, capabilities, delta: float,
                     n_requests: int) -> CellExpectation:
    """Exact expected outcome of one grid cell, given its realized draws."""
    d = np.asarray(difficulties, dtype=np.float64)
    c = np.asarray(capabilities, dtype=np.float64)
    p = (c.mean() * d + 1.0) / 2.0
    if strategy == "fixed-worker":
        law = stopping_law((c[:, None] * d[None, :] + 1.0).mean(axis=1) / 2.0,
                           delta, n_requests)
        p_decided = float(law.p_decided.mean())
        mean_tau = float(np.nan_to_num(law.p_decided * law.mean_tau).mean() / p_decided)
        return CellExpectation(p_decided=p_decided, mean_effort=mean_tau)
    if strategy == "one-worker":
        q, labels_per_request = p.mean(), 1.0
    elif strategy == "max-three":
        q, labels_per_request = majority_tail(p, 3).mean(), (2.0 + 2.0 * p * (1.0 - p)).mean()
    elif strategy.startswith("n-workers:"):
        n_votes = int(strategy.split(":")[1])
        q, labels_per_request = majority_tail(p, n_votes).mean(), float(n_votes)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    law = stopping_law(q, delta, n_requests)
    return CellExpectation(p_decided=float(law.p_decided[0]),
                           mean_effort=float(law.mean_tau[0] * labels_per_request))
