"""Multi-iteration simulation experiments over the sequential decision rule.

One iteration walks a shuffled request order, produces a final label per
request under the configured strategy, and stops the moment the Hoeffding
band clears the 0.5 midline. An experiment repeats that over independent
per-iteration random substreams and aggregates the labelling effort of the
decided iterations with a percentile-bootstrap confidence interval.

Votes are drawn lazily in blocks of the shuffled request order: the first
block holds FIRST_BLOCK requests, each later block twice as many as the one
before, and the last is cut at the request supply. Each block is scanned as
soon as it is drawn, and no block past the first crossing is drawn. Within
an iteration's substream the draws are: the permutation; the fixed worker
(fixed-worker only, once); then per block the voter indices, their uniforms,
and for max-three the third voter and vote of the block's disagreeing
requests in request order. The block schedule is fixed, so results depend
only on (seed, iteration index) and never on scheduling. Replay runs its
picks through the same block driver, ``run_blocks``, and aggregates its
iterations with the same ``summarize``.
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

# Rows in the first vote block; each later block is twice the one before.
# On a 2-vCPU x86 VM a block cost a fixed 70-100 us of dispatch plus
# 0.08-0.22 us per row; a first block of 64 rows made the near-no-signal
# benchmark grid 2.5x slower, so smaller first blocks do not pay.
FIRST_BLOCK = 1024


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
        if not 0.0 <= self.capability_lo <= self.capability_hi <= 1.0:
            raise ValueError("capability bounds must satisfy 0 <= lo <= hi <= 1, "
                             f"got ({self.capability_lo}, {self.capability_hi})")
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
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
    worker: Optional[int] = None,
) -> np.ndarray:
    """(n, votes_needed()) votes for every request, in order.

    Draw order: voter indices, then their votes; for max-three, then the
    third voter and vote of the rows whose first two votes disagree, in
    row order. Column 2 stays 0 where the first two agree, since the third
    vote cannot change that majority. Fixed-worker labels with ``worker``,
    drawn here first when not given.
    """
    n = difficulties.size
    pool_size = capabilities.size
    k = strategy.votes_needed()
    max_three = strategy.kind is StrategyKind.MAX_THREE_WORKERS
    upfront = 2 if max_three else k

    if strategy.kind is StrategyKind.FIXED_WORKER:
        idx = np.full((n, 1), rng.integers(0, pool_size) if worker is None else worker)
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


def run_blocks(draw, n_total: int, strategy: Strategy, delta: float,
               record_trace: bool = False) -> IterationResult:
    """Sequential stopping over votes drawn in doubling blocks.

    ``draw(start, stop)`` returns the vote matrix of rows start..stop-1 of
    a supply of n_total rows. Blocks run FIRST_BLOCK, 2 * FIRST_BLOCK, ...
    rows, the last cut at n_total; each is scanned by ``first_crossing``
    with the n and count carried over from the blocks before it, and the
    scan stops at the first crossing, so no later row is ever drawn.
    Exhausting the supply without a verdict is a normal outcome
    (decided=False, effort covers everything spent).
    """
    n = count = effort = 0
    size = FIRST_BLOCK
    trace = [] if record_trace else None
    while True:
        votes = draw(n, min(n + size, n_total))
        finals = majority_vote(votes)
        verdict, n_at, means, tolerances = first_crossing(finals, delta, n, count)
        effort += strategy.total_effort(votes, n_at - n)
        if record_trace:
            trace.extend(zip(range(n + 1, n_at + 1), means.tolist(),
                             (means - tolerances).tolist(), (means + tolerances).tolist()))
        if verdict is not Verdict.UNDECIDED or n_at == n_total:
            return IterationResult(decided=verdict is not Verdict.UNDECIDED, verdict=verdict,
                                   n_at_decision=n_at, effort=effort, trace=trace)
        n, count, size = n_at, count + int(finals.sum()), 2 * size


def run_iteration(
    config: ExperimentConfig,
    requests: RequestSet,
    pool: WorkerPool,
    iteration_index: int,
    record_trace: bool = False,
) -> IterationResult:
    """One evaluation: shuffled requests, labels in blocks, sequential stopping."""
    rng = substream(config.seed, DOMAIN_ITERATION, iteration_index)
    if config.resample_difficulties_per_iteration:
        requests = sample_difficulties(config.mu, config.sigma, config.n_requests, rng)
    if config.resample_pool_per_iteration:
        pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size, rng)

    order = rng.permutation(requests.size)
    worker = None
    if config.strategy.kind is StrategyKind.FIXED_WORKER:
        worker = rng.integers(0, pool.pool_size)

    def draw(start, stop):
        return draw_votes(config.strategy, requests.difficulties[order[start:stop]],
                          pool.capabilities, rng, worker)

    return run_blocks(draw, requests.size, config.strategy, config.delta, record_trace)


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
    return summarize(results, config.seed, bootstrap_confidence, bootstrap_resamples)


def summarize(results: list, seed: int, confidence: float, resamples: int) -> ExperimentSummary:
    """Aggregate the iterations of one grid cell, simulated or replayed.

    The mean effort and its bootstrap interval cover the decided iterations
    only and are NaN when none decided; the bootstrap runs on the seed's
    own substream.
    """
    decided_efforts = [r.effort for r in results if r.decided]
    if decided_efforts:
        mean_effort = float(np.mean(decided_efforts))
        ci_low, ci_high = bootstrap_ci(decided_efforts, confidence, resamples,
                                       substream(seed, DOMAIN_BOOTSTRAP, 0))
    else:
        mean_effort = ci_low = ci_high = math.nan
    return ExperimentSummary(mean_effort=mean_effort, ci_low=ci_low, ci_high=ci_high,
                             decision_ratio=len(decided_efforts) / len(results),
                             per_iteration=results)


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
