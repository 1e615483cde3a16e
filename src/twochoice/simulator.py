"""Multi-iteration simulation experiments over the sequential decision rule.

One iteration walks a shuffled request order, produces a final label per
request under the configured strategy, and stops the moment the Hoeffding
band clears the 0.5 midline. An experiment repeats that over independent
per-iteration random substreams and aggregates the labelling effort of the
decided iterations with a percentile-bootstrap confidence interval.

Votes inside an iteration are drawn in vectorised blocks (worker indices,
then uniforms, then the max-three tiebreakers for the disagreeing requests
in request order) and go through the same strategy kernel and stopping scan
as replay. The block layout is fixed, so results depend only on (seed,
iteration index) and never on scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decision import Verdict, first_crossing
from .eval_model import RequestSet, WorkerPool, sample_capabilities, sample_difficulties
from .rng import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_ITERATION,
    DOMAIN_POOL,
    DOMAIN_REQUESTS,
    SeedLike,
    as_generator,
    check_seed,
    distinct_columns,
    substream,
)
from .strategies import Strategy, StrategyKind, majority_vote


@dataclass(frozen=True)
class ExperimentConfig:
    capability_lo: float
    capability_hi: float
    pool_size: int
    mu: float
    sigma: float
    n_requests: int
    strategy: Strategy
    delta: float
    iterations: int
    seed: int
    resample_difficulties_per_iteration: bool = False
    resample_pool_per_iteration: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        check_seed(self.seed)


@dataclass(frozen=True)
class IterationResult:
    decided: bool
    verdict: Verdict
    n_at_decision: int
    effort: int
    trace: Optional[list] = None


@dataclass(frozen=True)
class ExperimentSummary:
    """mean_effort is over decided iterations only; NaN when none decided."""

    mean_effort: float
    ci_low: float
    ci_high: float
    decision_ratio: float
    per_iteration: list = field(repr=False, default_factory=list)


def draw_votes(
    strategy: Strategy,
    difficulties: np.ndarray,
    capabilities: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """(n, votes_needed()) votes for every request, in order.

    Draw order: voter indices, then their votes; for max-three, then the
    third voter and vote of the rows whose first two votes disagree, in
    row order. Column 2 stays 0 where the first two agree, since the third
    vote cannot change that majority.
    """
    n = difficulties.size
    pool_size = capabilities.size
    k = strategy.votes_needed()
    max_three = strategy.kind is StrategyKind.MAX_THREE_WORKERS
    upfront = 2 if max_three else k

    if strategy.kind is StrategyKind.FIXED_WORKER:
        idx = np.full((n, 1), rng.integers(0, pool_size))
    elif strategy.distinct_voters and k > 1:
        # max-three reserves its potential third voter up front
        idx = distinct_columns(rng, np.full(n, pool_size), k)
    else:
        idx = rng.integers(0, pool_size, size=(n, upfront))
    # column-major, so the per-row majority sums whole columns at a time
    votes = np.zeros((n, k), dtype=np.int8, order="F")
    prob = (capabilities[idx[:, :upfront]] * difficulties[:, None] + 1.0) / 2.0
    votes[:, :upfront] = rng.random((n, upfront)) < prob
    if max_three:
        disagree = votes[:, 0] != votes[:, 1]
        m = int(disagree.sum())
        third = idx[disagree, 2] if strategy.distinct_voters else rng.integers(0, pool_size, m)
        prob = (capabilities[third] * difficulties[disagree] + 1.0) / 2.0
        votes[disagree, 2] = rng.random(m) < prob
    return votes


def run_iteration(
    config: ExperimentConfig,
    requests: RequestSet,
    pool: WorkerPool,
    iteration_index: int,
    record_trace: bool = False,
) -> IterationResult:
    """One full evaluation: shuffled requests, labels, sequential stopping.

    Requests past the stopping point consume no effort. Exhausting the
    request supply without a verdict is a normal outcome (decided=False,
    effort covers everything spent).
    """
    rng = substream(config.seed, DOMAIN_ITERATION, iteration_index)
    if config.resample_difficulties_per_iteration:
        requests = sample_difficulties(config.mu, config.sigma, config.n_requests, rng)
    if config.resample_pool_per_iteration:
        pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size, rng)

    order = rng.permutation(requests.size)
    votes = draw_votes(config.strategy, requests.difficulties[order], pool.capabilities, rng)
    verdict, n_at, means, tolerances = first_crossing(majority_vote(votes), config.delta)
    decided = verdict is not Verdict.UNDECIDED
    effort = config.strategy.total_effort(votes, n_at)
    trace = None
    if record_trace:
        trace = [(n, float(mean), float(lower), float(upper)) for n, mean, lower, upper
                 in zip(range(1, n_at + 1), means, means - tolerances, means + tolerances)]
    return IterationResult(decided=decided, verdict=verdict, n_at_decision=n_at,
                           effort=effort, trace=trace)


def run_experiment(config: ExperimentConfig, trace_iterations: int = 0,
                   bootstrap_confidence: float = 0.99,
                   bootstrap_resamples: int = 10_000) -> ExperimentSummary:
    """Run all iterations of a configuration and aggregate labelling effort.

    The request difficulties and the worker pool are drawn once from the
    experiment seed and shared by every iteration, unless the per-iteration
    resample flags say otherwise. Iterations run on substreams keyed by
    (seed, iteration index), so the per-iteration results are identical
    under any execution order.
    """
    requests = sample_difficulties(config.mu, config.sigma, config.n_requests,
                                   substream(config.seed, DOMAIN_REQUESTS, 0))
    pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size,
                               substream(config.seed, DOMAIN_POOL, 0))
    results = [
        run_iteration(config, requests, pool, i, record_trace=i < trace_iterations)
        for i in range(config.iterations)
    ]
    decided_efforts = [r.effort for r in results if r.decided]
    ratio = len(decided_efforts) / config.iterations
    if decided_efforts:
        mean_effort = float(np.mean(decided_efforts))
        ci_low, ci_high = bootstrap_ci(decided_efforts, bootstrap_confidence,
                                       bootstrap_resamples,
                                       substream(config.seed, DOMAIN_BOOTSTRAP, 0))
    else:
        mean_effort = math.nan
        ci_low = ci_high = math.nan
    return ExperimentSummary(mean_effort=mean_effort, ci_low=ci_low, ci_high=ci_high,
                             decision_ratio=ratio, per_iteration=results)


def bootstrap_ci(samples, confidence: float, resamples: int, seed: SeedLike) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of the samples."""
    data = np.asarray(samples, dtype=np.float64)
    if data.size == 0:
        raise ValueError("bootstrap_ci needs a nonempty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rng = as_generator(seed)
    means = np.empty(resamples, dtype=np.float64)
    chunk = max(1, min(resamples, 64_000_000 // max(1, data.size * 8)))
    done = 0
    while done < resamples:
        take = min(chunk, resamples - done)
        picks = rng.integers(0, data.size, size=(take, data.size))
        means[done:done + take] = data[picks].mean(axis=1)
        done += take
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)
