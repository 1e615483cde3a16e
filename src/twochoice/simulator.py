"""Multi-iteration simulation experiments over the sequential decision rule.

One iteration walks a shuffled request order, produces a final label per
request under the configured strategy, and stops the moment the Hoeffding
band clears the 0.5 midline. An experiment repeats that over independent
per-iteration random substreams and aggregates the labelling effort of the
decided iterations. Percentile-bootstrap intervals of the mean effort are
computed after a whole grid has run, in one pass (``bootstrap_grid``).

Each iteration reveals a uniformly random order of the requests one block
at a time, in the block driver ``run_blocks``: the first block holds
FIRST_BLOCK requests, each later block twice as many as the one before,
and the last is cut at the request supply. Each block's final labels are
drawn and scanned as soon as its rows are revealed, and no block past the
first crossing is revealed or drawn. The stopping rule reads only each
request's final label and its effort, so those are drawn from the law of
the request's votes (``vote_law``): one uniform per request, whatever the
strategy, read as the final label and, for max-three, whether a third
label is spent. Within an iteration's substream the draws are: the fixed
worker (fixed-worker only, once); then per block the block's rows, the
block's distinct voters (``distinct_voters`` only), then its uniforms. The
block schedule is fixed, so results depend only on (seed, iteration
index) and never on scheduling. Replay draws from the law of its recorded
votes through the same block driver and holds its iterations in the same
``ExperimentSummary``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decision import Band, Verdict, first_crossing, hoeffding_band
from .eval_model import RequestSet, WorkerPool, sample_capabilities, sample_difficulties
from .rng import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_ITERATION,
    DOMAIN_POOL,
    DOMAIN_REQUESTS,
    distinct_columns,
    iteration_streams,
    substream,
)
from .strategies import Strategy, StrategyKind

# Rows in the first vote block; each later block is twice the one before.
# On a 2-vCPU x86 VM a block cost a fixed 70-100 us of dispatch plus
# 0.08-0.22 us per row; a first block of 64 rows made the near-no-signal
# benchmark grid 2.5x slower, so smaller first blocks do not pay.
FIRST_BLOCK = 1024

# Bytes of int64 resample indices that resample_means draws at once; a
# gather of one sample, or a block's bincount and its float64 copy, is as
# large. Generator.integers takes its 32-bit words from the bit generator's
# own buffer, which carries over between calls, so the interval does not
# depend on the block size. With glibc's mmap threshold pinned, as
# perfbench pins it, the trim threshold stays at 128 KiB: a freed block
# above it goes back to the system and is faulted in again by the next,
# and one below it is reused, so a fresh gather per block costs no faults.
# In one sim-default run (seed 1, 14 samples of 1000 at 10000 resamples)
# 256 KiB blocks took 5100 minor faults and 64 KiB blocks 260-330, at the
# same speed. A 64 MB budget held 128 MB for 10000 resamples of 1000
# samples and, timed alone on a 2-vCPU x86 VM, took 94-103 ms per interval
# against 53-56 ms in 256 KiB blocks.
BOOTSTRAP_BLOCK_BYTES = 1 << 16

# Bytes of means, 8 per cell and resample, that one bootstrap_ci call of
# bootstrap_grid holds at most. The default grids' largest group, 15 cells
# at 10000 resamples (1.2 MB), fits in one call, which draws the group's
# indices once.
BOOTSTRAP_MEANS_BYTES = 1 << 21


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell. ``cli.simulate_grid`` copies each field that SimulateConfig
    also has by name; mu, sigma and n_requests are the cell's regime, and
    strategy and delta are the cell's own."""
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
    distinct_voters: bool = False


@dataclass(slots=True)
class IterationResult:
    verdict: Verdict
    n_at_decision: int
    effort: int
    trace: Optional[list] = None

    @property
    def decided(self) -> bool:
        return self.verdict is not Verdict.UNDECIDED


@dataclass(frozen=True)
class ExperimentSummary:
    """The iterations of one grid cell, simulated or replayed, in iteration
    order; the cell's figures are read off them."""

    per_iteration: list

    @property
    def decided_efforts(self) -> list:
        """The effort of each decided iteration, in iteration order: the
        sample that ``bootstrap_grid`` resamples for the cell's interval."""
        return [r.effort for r in self.per_iteration if r.decided]

    @property
    def mean_effort(self) -> float:
        """The mean effort of the decided iterations; NaN when none decided."""
        efforts = self.decided_efforts
        return float(np.mean(efforts)) if efforts else math.nan

    @property
    def decision_ratio(self) -> float:
        """The share of iterations that decided."""
        return len(self.decided_efforts) / len(self.per_iteration)


def vote_law(strategy: Strategy, vote_prob) -> np.ndarray:
    """The law of each request's final label and effort, as cut points of
    one uniform u per request; a (1, n) array, (3, n) for max-three.

    ``vote_prob(t, j)`` is the chance that vote t (from 0) is A, given j
    A-votes among the votes before it, an array over the requests. The law
    of the A-count is built one vote at a time; a count that reaches a
    majority, k // 2 + 1 of the k votes, is moved into the tail. Row 0 is
    q = P(final label is A). Max-three's rows 1 and 2 are P(the first two
    votes are A) and that plus P(they split), read after vote 1: its first
    two votes split, and a third label is spent, when u falls between them.
    """
    k = strategy.votes_needed()
    majority = k // 2 + 1
    p = vote_prob(0, 0)
    if k == 1:
        return p[None, :]
    # below[j] = P(j A-votes so far, no majority yet), for j < majority
    below, tail = [1.0 - p, p], 0.0
    for t in range(1, k):
        if t == 2 and strategy.kind is StrategyKind.MAX_THREE_WORKERS:
            cuts = (tail, tail + below[1])
        # vote t keeps each A-count j, or raises it to j + 1 if it is A;
        # from the top count down, so one vote_prob array is alive at a time
        below.append(0.0)
        for j in range(len(below) - 2, -1, -1):
            a = vote_prob(t, j)
            below[j + 1] = below[j + 1] + below[j] * a
            below[j] = below[j] * (1.0 - a)
        if len(below) > majority:
            tail = tail + below.pop()
    if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
        return np.stack((tail, *cuts))
    return tail[None, :]


def final_law(strategy: Strategy, difficulties: np.ndarray, capability) -> np.ndarray:
    """``vote_law`` of votes at difficulty d from voters of the given
    capability, each A with probability (capability * d + 1) / 2.

    ``capability`` is one number when the votes are drawn with replacement
    (the pool's mean, or fixed-worker's worker), or a (k, n) array holding
    row t's voter of each request under ``distinct_voters``.
    """
    p = (capability * difficulties + 1.0) / 2.0
    return vote_law(strategy, (lambda t, j: p[t]) if p.ndim == 2 else (lambda t, j: p))


def draw_finals(strategy: Strategy, law: np.ndarray, rng: np.random.Generator):
    """Final labels of the requests whose ``vote_law`` columns are given,
    and their effort, as ``(finals, labels_per_row, splits)``: every row
    spends ``labels_per_row`` labels, and a row where ``splits``, max-three's
    mask of rows whose first two votes split, is True spends one more.
    ``splits`` is None for the other strategies.

    One uniform per request, drawn as ``rng.random(n)``: the final label is
    u < q; max-three's first two votes split where row 1 <= u < row 2.
    """
    u = rng.random(law.shape[1])
    finals = (u < law[0]).view(np.int8)
    if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
        splits = law[1] <= u
        splits &= u < law[2]
        return finals, 2, splits
    return finals, strategy.votes_needed(), None


def run_blocks(draw, band: Band, rng: np.random.Generator,
               record_trace: bool = False) -> IterationResult:
    """Sequential stopping over final labels drawn in doubling blocks.

    ``band`` is ``hoeffding_band`` over the request supply, one entry per
    row. ``draw(rows)`` returns the given rows' final labels and effort as
    ``draw_finals`` does. The rows are revealed in a uniformly random order
    in blocks of FIRST_BLOCK, 2 * FIRST_BLOCK, ... rows, the last cut at the
    supply: the first block is ``rng.choice(n_total, size, replace=False)``,
    each later one a choice without replacement from the rows not yet
    revealed, and a block that takes every remaining row is a permutation of
    them. Each block is scanned by ``first_crossing`` with the n and count
    carried over from the blocks before it, and the scan stops at the first
    crossing, so no later row is ever revealed or drawn. Exhausting the
    supply without a verdict is a normal outcome (decided=False, effort
    covers everything spent).
    """
    n_total = band.tolerances.size
    n = count = effort = 0
    trace = [] if record_trace else None
    size, left, seen = FIRST_BLOCK, n_total, None
    while True:
        rows = rng.permutation(left) if size >= left else rng.choice(left, size, replace=False)
        if seen is not None:
            # the picks index the rows not yet revealed, in row order; only
            # the mask is kept between blocks
            rows = np.flatnonzero(~seen)[rows]
        finals, labels_per_row, splits = draw(rows)
        verdict, n_at, counts = first_crossing(finals, band, n, count)
        effort += labels_per_row * (n_at - n)
        if splits is not None:
            # counted on a view of the block's mask rather than on a mask
            # made for the rows up to the stop: an array that long is a new
            # small size almost every call, and numpy keeps freed buffers
            # under 1 KiB cached for good wherever they were allocated.
            # Strewn through freed heap memory, they stop later large arrays
            # (replay's 8 MB bootstrap indices) from reusing it, and peak
            # RSS then differs from run to run.
            effort += int(np.count_nonzero(splits[:n_at - n]))
        if record_trace:
            means = counts / np.arange(n + 1, n_at + 1, dtype=np.int64)
            tolerances = band.tolerances[n:n_at]
            trace.extend(zip(range(n + 1, n_at + 1), means.tolist(),
                             (means - tolerances).tolist(), (means + tolerances).tolist()))
        if verdict is not Verdict.UNDECIDED or n_at == n_total:
            return IterationResult(verdict, n_at, effort, trace)
        n, count = n_at, int(counts[-1])
        if seen is None:
            # made only when a second block is needed; most iterations stop
            # in their first
            seen = np.zeros(n_total, dtype=bool)
        seen[rows] = True
        left -= size
        size *= 2


def run_iteration(
    config: ExperimentConfig,
    requests: RequestSet,
    pool: WorkerPool,
    law: np.ndarray,
    band: np.ndarray,
    rng: np.random.Generator,
    record_trace: bool = False,
) -> IterationResult:
    """One evaluation: shuffled requests, labels in blocks, sequential stopping.

    ``requests``, ``pool``, ``law`` and ``band`` are the cell's, as
    ``run_experiment`` makes them: ``law`` is the cell's ``final_law`` at
    the pool's mean capability over the whole request supply, read column
    by column, and ``band`` is ``hoeffding_band`` over the supply. An
    iteration under a resample flag draws its own requests or pool and
    reads the whole-supply law of its own draws instead. Fixed-worker, and
    ``distinct_voters`` with k > 1 votes, build each block's law from the
    revealed rows only: at the capability of the iteration's one worker,
    drawn before the first block, or of the voters each block picks.
    ``rng`` is the iteration's generator: iteration i of a cell draws from
    ``substream(config.seed, DOMAIN_ITERATION, i)``.
    """
    if config.resample_difficulties_per_iteration:
        requests = sample_difficulties(config.mu, config.sigma, config.n_requests, rng)
    if config.resample_pool_per_iteration:
        pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size, rng)

    strategy, difficulties = config.strategy, requests.difficulties
    if config.distinct_voters and (k := strategy.votes_needed()) > 1:
        def draw(rows):
            voters = distinct_columns(rng, rows.size, pool.pool_size, k)
            block_law = final_law(strategy, difficulties[rows], pool.capabilities[voters.T])
            return draw_finals(strategy, block_law, rng)
    elif strategy.kind is StrategyKind.FIXED_WORKER:
        worker = pool.capabilities[rng.integers(0, pool.pool_size)]

        def draw(rows):
            return draw_finals(strategy, final_law(strategy, difficulties[rows], worker), rng)
    else:
        if config.resample_difficulties_per_iteration or config.resample_pool_per_iteration:
            law = final_law(strategy, difficulties, pool.capabilities.mean())

        def draw(rows):
            return draw_finals(strategy, law.take(rows, axis=1), rng)

    return run_blocks(draw, band, rng, record_trace)


def run_experiment(config: ExperimentConfig, trace_iterations: int = 0,
                   streams=None) -> ExperimentSummary:
    """Run the iterations of a configuration and aggregate labelling effort.

    The one place where a cell's requests, pool, law and band are made. The
    requests and pool are drawn once from the experiment seed and shared by
    every iteration, unless a per-iteration resample flag says otherwise.
    ``streams`` are the generators of the iterations to run: by default the
    cell's ``iteration_streams``, keyed by (seed, iteration index), so
    iteration i run alone on ``[substream(config.seed, DOMAIN_ITERATION, i)]``,
    as ``trace`` runs it, is iteration i of the whole cell. The first
    ``trace_iterations`` of them record their band. The summary holds no
    interval: ``bootstrap_grid`` computes a whole grid's from each cell's
    ``decided_efforts``.
    """
    requests = sample_difficulties(config.mu, config.sigma, config.n_requests,
                                   substream(config.seed, DOMAIN_REQUESTS, 0))
    pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size,
                               substream(config.seed, DOMAIN_POOL, 0))
    law = final_law(config.strategy, requests.difficulties, pool.capabilities.mean())
    band = hoeffding_band(config.delta, requests.size)
    if streams is None:
        streams = iteration_streams(config.seed, DOMAIN_ITERATION, config.iterations)
    return ExperimentSummary([
        run_iteration(config, requests, pool, law, band, rng, record_trace=i < trace_iterations)
        for i, rng in enumerate(streams)
    ])


def bootstrap_grid(samples: list, seed: int, confidence: float, resamples: int) -> list:
    """The percentile-bootstrap interval of each grid cell's mean, as
    (low, high) in the order of ``samples``, one sample per cell; (NaN, NaN)
    for an empty one.

    Each cell's interval is that of ``bootstrap_ci`` on a fresh
    ``substream(seed, DOMAIN_BOOTSTRAP, 0)``. That stream draws the same
    resample indices for every sample of one size, so the cells are grouped
    by size and each group is resampled by one ``bootstrap_ci`` call, which
    draws its indices once for the whole group. A group whose means would
    pass BOOTSTRAP_MEANS_BYTES is split into chunks of cells that stay
    within it, each on a fresh stream, which draws its indices again.
    """
    intervals = [(math.nan, math.nan)] * len(samples)
    groups: dict = {}
    for i, sample in enumerate(samples):
        if len(sample):
            groups.setdefault(len(sample), []).append(i)
    chunk = max(1, BOOTSTRAP_MEANS_BYTES // (8 * resamples))
    for group in groups.values():
        for start in range(0, len(group), chunk):
            cells = group[start:start + chunk]
            stack = np.array([samples[i] for i in cells], dtype=np.float64)
            bounds = bootstrap_ci(stack, confidence, resamples,
                                  substream(seed, DOMAIN_BOOTSTRAP, 0))
            for i, interval in zip(cells, bounds.tolist()):
                intervals[i] = tuple(interval)
    return intervals


def bootstrap_ci(samples, confidence: float, resamples: int, rng: np.random.Generator):
    """Percentile bootstrap interval for the mean of each row of a (k, n)
    stack of k finite samples of one size n, as a (k, 2) array of (low,
    high); ``rng`` is a Generator.

    Every row is resampled with the same indices (``resample_means``), so
    row j's interval is the one that row alone, as a (1, n) stack, gets on
    the same stream. The interval is ``percentile_interval`` of the means.
    """
    stack = np.asarray(samples, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError(f"bootstrap_ci needs a (k, n) stack, got shape {stack.shape}")
    k, n = stack.shape
    if k == 0 or n == 0:
        raise ValueError("bootstrap_ci needs a nonempty sample")
    if not np.isfinite(stack).all():
        raise ValueError("bootstrap_ci needs finite samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    return percentile_interval(resample_means(stack, resamples, rng), confidence)


def resample_means(stack: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """The means of ``resamples`` resamples of each row of a (k, n) float64
    stack, as a (k, resamples) array, drawn in blocks of at most
    BOOTSTRAP_BLOCK_BYTES of indices; every row is resampled with the same
    indices.

    A stack of two or more rows of whole numbers, such as label counts,
    with n * max|x| < 2**53 sums each block from how many times each
    resample picks each index: one ``np.bincount`` of the block's picks and
    one matmul of the stack with those counts, in place of k gathers and k
    sums. Every partial sum is then a whole number below 2**53, exact in
    float64 in any order, so the means are the gather's bit for bit. Any
    other stack, and a sample alone, gathers each block from each row in
    turn and sums it as ``ndarray.mean`` sums it.
    """
    k, n = stack.shape
    # a sample alone gathers faster than it counts: 53-57 ms against
    # 76-82 ms for 1000 efforts at 10000 resamples on a 2-vCPU x86 VM
    counted = (k > 1 and np.array_equal(np.trunc(stack), stack)
               and n * np.abs(stack).max() < 2.0**53)
    block = max(1, BOOTSTRAP_BLOCK_BYTES // (8 * n))
    means = np.empty((k, resamples), dtype=np.float64)
    for start in range(0, resamples, block):
        stop = min(start + block, resamples)
        picks = rng.integers(0, n, size=(stop - start, n))
        if counted:
            # resample i of the block picks from [i * n, (i + 1) * n), so
            # one bincount counts every resample of the block apart
            picks += np.arange(0, picks.size, n)[:, None]
            counts = np.bincount(picks.ravel(), minlength=picks.size)
            np.matmul(stack, counts.reshape(picks.shape).T, out=means[:, start:stop])
        else:
            for row, row_means in zip(stack, means):
                # the picks lie in [0, n), so "clip" takes what "raise"
                # would, without its check; the sum is ndarray.mean's
                np.add.reduce(row.take(picks, mode="clip"), axis=1, out=row_means[start:stop])
    np.divide(means, n, out=means)
    return means


def percentile_interval(means: np.ndarray, confidence: float) -> np.ndarray:
    """The (low, high) percentiles at tails of (1 - confidence) / 2 of each
    row of a (k, r) array, as a (k, 2) array; partitions ``means`` in place.

    Bit for bit ``np.quantile(row, [alpha, 1 - alpha])`` of each row, by
    numpy's default "linear" method: the order statistics around the
    virtual index (r - 1) * q, interpolated as numpy's ``_lerp`` does,
    from the upper one where the fraction t is at least 0.5. np.quantile
    itself goes through np.unique, whose first call imports numpy.ma.
    """
    r = means.shape[1]
    alpha = (1.0 - confidence) / 2.0
    virtual = (r - 1) * np.array([alpha, 1.0 - alpha])
    # at or past the last index np.quantile reads the largest value twice,
    # and counts t from index -1
    last = virtual >= r - 1
    lower = np.where(last, -1, np.floor(virtual)).astype(np.intp)
    upper = np.where(last, -1, lower + 1)
    t = virtual - lower
    means.partition(np.concatenate((lower, upper)), axis=1)
    a, b = means[:, lower], means[:, upper]
    diff = b - a
    interval = a + diff * t
    np.subtract(b, diff * (1 - t), out=interval, where=t >= 0.5)
    return interval
