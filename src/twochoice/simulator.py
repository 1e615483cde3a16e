"""Multi-iteration simulation experiments over the sequential decision rule.

One iteration walks a shuffled request order, produces a final label per
request under the configured strategy, and stops the moment the Hoeffding
band clears the 0.5 midline. An experiment repeats that over independent
per-iteration random substreams and aggregates the labelling effort of the
decided iterations. Percentile-bootstrap intervals of the mean effort are
computed after a whole grid has run, in one pass (``bootstrap_grid``).

Each iteration reveals a uniformly random order of the requests one block
at a time (``Blocks``): the first block holds FIRST_BLOCK requests, each
later block twice as many as the one before, and the last is cut at the
request supply. The block driver ``run_blocks`` draws and scans each
block's final labels as soon as its rows are revealed, and no block past
the first crossing is revealed or drawn. The stopping rule reads only each
request's final label and its effort, so those are drawn from the law of
the request's votes (``vote_law``): one uniform per request, whatever the
strategy, read as the final label and, for max-three, whether a third
label is spent. Within an iteration's substream the draws are: the
iteration's requests and pool (the resample flags only, once); then per
block the block's rows, the block's distinct voters (``distinct_voters``
only), then its uniforms. Fixed-worker's worker of iteration i is not drawn
there but is element i of the cell's worker picks, drawn once from
``substream(seed, DOMAIN_WORKER, 0)``. The block schedule is fixed, so
results depend only on (seed, iteration index) and never on scheduling.
Replay draws from the law of its recorded votes through the same block
driver.

Most cells of a grid, fixed-worker's among them, draw nothing in an
iteration but each block's rows and then its uniforms, so all such cells
with one seed, request supply and iteration count read the same rows and
uniforms in iteration i. They form a ``Group`` (``simulate_groups``;
``replay.replay_group`` puts a replay grid's cells in one), which holds
its seed, iterations, supply and setup and runs every iteration of its
cells, traced ones included, in one lockstep pass: for each iteration the
cells run in turn on one ``Blocks``, the first cell to reach a block draws
it, and the others read it. Revealing the rows is the largest cost of an
iteration, so a group pays it once per iteration and not once per cell.
The other cells run alone, each a group of one, and a cell's numbers are
the same in a group as alone. The pass, run by a group's first ``take``,
adds each cell's iterations to its ``ExperimentSummary``, the one record of
a cell's results, simulated or replayed, which ``take`` hands each cell.
The pass calls ``run_iteration`` (replay: ``replay_iteration``) once per
cell and iteration through the module attribute, and the command line calls
``run_experiment`` once per cell: perfbench/worker.py hooks those calls to
stamp the end of set-up and to check each cell's iterations as it returns.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .decision import Band, Verdict, first_crossing, hoeffding_band
from .eval_model import RequestSet, WorkerPool, sample_capabilities, sample_difficulties
from .rng import (
    DOMAIN_BOOTSTRAP,
    DOMAIN_ITERATION,
    DOMAIN_POOL,
    DOMAIN_REQUESTS,
    DOMAIN_WORKER,
    distinct_columns,
    iteration_streams,
    substream,
)
from .strategies import Strategy, StrategyKind

if TYPE_CHECKING:
    from array import array

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
    """One iteration's outcome; ``trace``, for a traced iteration, holds the
    running A-count after each of its n_at_decision labels."""
    verdict: Verdict
    n_at_decision: int
    effort: int
    trace: Optional[array] = None

    @property
    def decided(self) -> bool:
        return self.verdict is not Verdict.UNDECIDED


# an iteration's record in ExperimentSummary: its verdict's index in
# _VERDICTS, n and effort, packed by _RECORD and read by numpy as _COLUMNS
_VERDICTS = tuple(Verdict)
_RECORD = struct.Struct("=bqq")
_COLUMNS = np.dtype([("verdict", "=i1"), ("n", "=i8"), ("effort", "=i8")])


@dataclass(slots=True)
class ExperimentSummary:
    """The iterations of one grid cell, simulated or replayed, in iteration
    order, as its pass adds them: 17 bytes each (``_RECORD``), and the
    traces of the traced ones, which come first."""

    records: bytearray = field(default_factory=bytearray)
    traces: list = field(default_factory=list)

    def add(self, result: IterationResult) -> None:
        self.records += _RECORD.pack(_VERDICTS.index(result.verdict), result.n_at_decision,
                                     result.effort)
        if result.trace is not None:
            self.traces.append(result.trace)

    @property
    def per_iteration(self) -> list:
        """The IterationResults, as ``add`` was given them."""
        traces = iter(self.traces)
        return [IterationResult(_VERDICTS[code], n, effort, next(traces, None))
                for code, n, effort in _RECORD.iter_unpack(self.records)]

    @property
    def decided_efforts(self) -> np.ndarray:
        """The effort of each decided iteration, in iteration order, as int64:
        the sample that ``bootstrap_grid`` resamples for the cell's interval."""
        records = np.frombuffer(self.records, dtype=_COLUMNS)
        return records["effort"][records["verdict"] != _VERDICTS.index(Verdict.UNDECIDED)]

    @property
    def mean_effort(self) -> float:
        """The mean effort of the decided iterations; NaN when none decided."""
        efforts = self.decided_efforts
        return float(efforts.mean()) if efforts.size else math.nan

    @property
    def decision_ratio(self) -> float:
        """The share of iterations that decided."""
        return self.decided_efforts.size / (len(self.records) // _RECORD.size)


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


def draw_finals(strategy: Strategy, law: np.ndarray, u: np.ndarray):
    """Final labels of the requests whose ``vote_law`` columns are given,
    and their effort, as ``(finals, labels_per_row, splits)``: every row
    spends ``labels_per_row`` labels, and a row where ``splits``, max-three's
    mask of rows whose first two votes split, is True spends one more.
    ``splits`` is None for the other strategies.

    ``u`` holds one uniform per request (``Blocks.uniforms``): the final
    label is u < q; max-three's first two votes split where row 1 <= u < row 2.
    """
    finals = (u < law[0]).view(np.int8)
    if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
        splits = law[1] <= u
        splits &= u < law[2]
        return finals, 2, splits
    return finals, strategy.votes_needed(), None


class Blocks:
    """Iteration ``index``'s request order over ``n_total`` rows and one
    uniform per row, drawn from the iteration's generator ``rng`` a block at
    a time.

    ``rows(b)`` reveals block b when a cell first asks for it: block 0 is
    ``rng.choice(n_total, FIRST_BLOCK, replace=False)``, each later block,
    twice the one before, a choice without replacement from the rows not
    yet revealed, and a block that takes every remaining row a permutation
    of them. ``uniforms(b)`` is ``rng.random(size)``, drawn after block b's
    rows. Both are kept for the iteration, so every cell of a group reads
    the same blocks; a cell that goes past the last block drawn draws the
    next one from where the generator stands, as it would alone.
    """

    __slots__ = ("rng", "n_total", "index", "_rows", "_uniforms", "_left", "_seen")

    def __init__(self, rng: np.random.Generator, n_total: int, index: int):
        self.rng = rng
        self.n_total = n_total
        self.index = index
        self._rows: list = []
        self._uniforms: list = []
        self._left = n_total
        self._seen = None

    def rows(self, b: int) -> np.ndarray:
        """Block b's rows; a cell asks for blocks 0, 1, ... in turn."""
        if b == len(self._rows):
            size, left = FIRST_BLOCK << b, self._left
            rows = (self.rng.permutation(left) if size >= left
                    else self.rng.choice(left, size, replace=False))
            if b:
                # the picks index the rows not yet revealed, in row order; the
                # mask is made only when a second block is needed, and most
                # iterations stop in their first
                if self._seen is None:
                    self._seen = np.zeros(self.n_total, dtype=bool)
                self._seen[self._rows[-1]] = True
                rows = np.flatnonzero(~self._seen)[rows]
            self._rows.append(rows)
            self._left = left - rows.size
        return self._rows[b]

    def uniforms(self, b: int) -> np.ndarray:
        """Block b's uniforms, one per row, drawn after its rows."""
        if b == len(self._uniforms):
            self._uniforms.append(self.rng.random(self._rows[b].size))
        return self._uniforms[b]


def run_blocks(strategy: Strategy, block_law, blocks: Blocks, band: Band,
               record_trace: bool = False) -> IterationResult:
    """Sequential stopping over final labels drawn block by block.

    ``band`` is ``hoeffding_band`` over the request supply, one entry per
    row. Block b's final labels and effort are ``draw_finals`` of
    ``block_law(rows)``, the law of ``blocks.rows(b)``, made first since it
    may draw the block's voters, and ``blocks.uniforms(b)``. Each block is
    scanned by ``first_crossing`` with the n and count carried over from the
    blocks before it, and the scan stops at the first crossing, so no later
    block is ever drawn. Exhausting the supply without a verdict is a normal
    outcome (decided=False, effort covers everything spent). A traced
    iteration keeps the running A-counts that ``first_crossing`` returns.
    """
    n = count = effort = 0
    trace = None
    if record_trace:
        # imported here, so that a run that traces nothing never loads array
        from array import array
        trace = array("q")
    for b in itertools.count():
        law = block_law(blocks.rows(b))
        finals, labels_per_row, splits = draw_finals(strategy, law, blocks.uniforms(b))
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
            trace.frombytes(counts.tobytes())
        if verdict is not Verdict.UNDECIDED or n_at == blocks.n_total:
            return IterationResult(verdict, n_at, effort, trace)
        n, count = n_at, int(counts[-1])


def run_iteration(
    config: ExperimentConfig,
    requests: RequestSet,
    pool: WorkerPool,
    law: Optional[np.ndarray],
    band: Band,
    blocks: Blocks,
    record_trace: bool = False,
    picks: Optional[np.ndarray] = None,
) -> IterationResult:
    """One evaluation: shuffled requests, labels in blocks, sequential stopping.

    ``requests``, ``pool``, ``law`` and ``band`` are the cell's, as its
    ``Group``'s setup makes them: ``law`` is the cell's ``final_law`` at
    the pool's mean capability over the whole request supply, read column
    by column (None for the cells below, which never read it), and
    ``band`` is ``hoeffding_band`` over the supply. An iteration under a
    resample flag draws its own requests or pool and reads the whole-supply
    law of its own draws instead. Fixed-worker, and ``distinct_voters``
    with k > 1 votes, build each block's law from the revealed rows only:
    at the capability of the iteration's one worker, pool index
    ``picks[blocks.index]``, or of the voters each block picks. ``blocks``
    is the iteration's ``Blocks``: iteration i of a cell draws from
    ``substream(config.seed, DOMAIN_ITERATION, i)``.
    """
    rng = blocks.rng
    if config.resample_difficulties_per_iteration:
        requests = sample_difficulties(config.mu, config.sigma, config.n_requests, rng)
    if config.resample_pool_per_iteration:
        pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size, rng)

    strategy, difficulties = config.strategy, requests.difficulties
    if config.distinct_voters and (k := strategy.votes_needed()) > 1:
        def block_law(rows):
            voters = distinct_columns(rng, rows.size, pool.pool_size, k)
            return final_law(strategy, difficulties[rows], pool.capabilities[voters.T])
    elif strategy.kind is StrategyKind.FIXED_WORKER:
        worker = pool.capabilities[picks[blocks.index]]

        def block_law(rows):
            return final_law(strategy, difficulties[rows], worker)
    else:
        if config.resample_difficulties_per_iteration or config.resample_pool_per_iteration:
            law = final_law(strategy, difficulties, pool.capabilities.mean())

        def block_law(rows):
            return law.take(rows, axis=1)

    return run_blocks(strategy, block_law, blocks, band, record_trace)


class Group:
    """Grid cells whose iterations read their streams alike, named as their
    calls name them (ExperimentConfigs or replay's (strategy, delta) pairs),
    and what their lockstep pass reads: the streams' ``seed``, the
    ``iterations`` that run, the request supply ``n_total`` and ``setup``, a
    picklable recipe: ``setup()`` makes the pass's ``iterate_of(cell)``, the
    cell's ``iterate(blocks)``, which runs the cell's iteration, traced or
    not, on that iteration's ``Blocks``."""

    def __init__(self, cells, seed: int, iterations: range, n_total: int, setup):
        self.cells = tuple(cells)
        self.seed = seed
        self.iterations = iterations
        self.n_total = n_total
        self.setup = setup
        self._held = None  # {cell: its ExperimentSummary, or the exception that ended it}

    def take(self, cell) -> ExperimentSummary:
        """``cell``'s summary, or what it raised; the first call runs the pass."""
        if self._held is None:
            self._held = dict(zip(self.cells, self._run()))
        held = self._held.pop(cell)
        if isinstance(held, Exception):
            raise held
        return held

    def _run(self) -> list:
        """Each cell's ``ExperimentSummary``, or the exception that ended it.
        For each iteration, every cell still running runs its iteration in
        turn on one ``Blocks``, so the first cell to reach a block draws it
        and the others read it. A cell whose ``iterate_of`` or iteration
        raises drops out, and the others run on as they would without it."""
        start, stop = self.iterations.start, self.iterations.stop
        # stop - start, not len(), so that iteration_streams names a negative
        # count as it was given
        streams = iteration_streams(self.seed, DOMAIN_ITERATION, stop - start, start)
        iterate_of = self.setup()
        iterates, held = [], []
        for cell in self.cells:
            try:
                iterates.append(iterate_of(cell))
                held.append(ExperimentSummary())
            except Exception as exc:
                iterates.append(None)
                held.append(exc)
        for index, rng in zip(self.iterations, streams):
            if not any(iterates):
                break
            blocks = Blocks(rng, self.n_total, index)
            for c, iterate in enumerate(iterates):
                if iterate is not None:
                    try:
                        held[c].add(iterate(blocks))
                    except Exception as exc:
                        iterates[c], held[c] = None, exc
        return held


def _reads_rows_then_uniforms(cell: ExperimentConfig) -> bool:
    """Whether the cell's iterations draw nothing but each block's rows and
    then its uniforms. A resample flag draws the iteration's requests or
    pool first, and ``distinct_voters`` at k > 1 each block's voters between
    them; such a cell never reads the whole-supply law at the pool's mean."""
    return not (cell.resample_difficulties_per_iteration or cell.resample_pool_per_iteration
                or cell.distinct_voters and cell.strategy.votes_needed() > 1)


def simulate_groups(cells: list, trace_iterations: int = 0,
                    iterations: Optional[range] = None) -> list:
    """Each simulate cell's ``Group``, in the order of ``cells``: the cells
    that read their iteration streams alike share one, and each other cell
    has one of its own.

    Two cells read their streams alike when both draw only each block's rows
    and then its uniforms (``_reads_rows_then_uniforms``), from the same
    streams over the same supply: the same seed, request supply and
    iteration count. Fixed-worker takes its worker from a stream of its own
    and reads its iteration streams as one-worker does.

    A group runs the range of iteration indices ``iterations``, by default
    ``range(cell.iterations)``, and traces the first ``trace_iterations``.
    Iteration i draws from ``substream(cell.seed, DOMAIN_ITERATION, i)``
    and takes fixed-worker's pick i, so iteration i run alone on
    ``range(i, i + 1)``, as ``trace`` runs it, is iteration i of the cell.
    """
    def key(cell):
        shared = _reads_rows_then_uniforms(cell)
        return (cell.seed, cell.n_requests, cell.iterations) if shared else cell

    def group(members):
        first = members[0]
        span = range(first.iterations) if iterations is None else iterations
        return Group(members, first.seed, span, first.n_requests,
                     functools.partial(_simulate_setup, span.stop, span.start + trace_iterations))

    by_key: dict = {}
    for cell in cells:
        by_key.setdefault(key(cell), []).append(cell)
    groups = {cell_key: group(members) for cell_key, members in by_key.items()}
    return [groups[key(cell)] for cell in cells]


def _simulate_setup(stop: int, trace_stop: int):
    """A simulate ``Group``'s setup, for iterations below ``stop`` that
    trace those below ``trace_stop``. It draws each request set and pool
    once, and fixed-worker's picks for iterations 0 .. stop - 1
    once per (pool size, seed), and makes each law once per strategy on them
    and each band once per (delta, supply), for all the cells of a pass.
    Pick i does not depend on ``stop``: ``Generator.integers`` draws in order."""
    @functools.cache
    def requests_of(mu, sigma, n_requests, seed):
        return sample_difficulties(mu, sigma, n_requests, substream(seed, DOMAIN_REQUESTS, 0))

    @functools.cache
    def pool_of(lo, hi, pool_size, seed):
        return sample_capabilities(lo, hi, pool_size, substream(seed, DOMAIN_POOL, 0))

    @functools.cache
    def law_of(strategy, regime, workers):
        return final_law(strategy, requests_of(*regime).difficulties,
                         pool_of(*workers).capabilities.mean())

    @functools.cache
    def picks_of(pool_size, seed):
        return substream(seed, DOMAIN_WORKER, 0).integers(0, pool_size, stop)

    band_of = functools.cache(hoeffding_band)

    def iterate_of(config):
        regime = (config.mu, config.sigma, config.n_requests, config.seed)
        workers = (config.capability_lo, config.capability_hi, config.pool_size, config.seed)
        requests, pool = requests_of(*regime), pool_of(*workers)
        band = band_of(config.delta, requests.size)
        # only fixed-worker reads picks, and only a cell that draws just rows
        # and uniforms the law at the pool's mean
        law = picks = None
        if config.strategy.kind is StrategyKind.FIXED_WORKER:
            picks = picks_of(config.pool_size, config.seed)
        elif _reads_rows_then_uniforms(config):
            law = law_of(config.strategy, regime, workers)
        return lambda blocks: run_iteration(config, requests, pool, law, band, blocks,
                                            record_trace=blocks.index < trace_stop, picks=picks)

    return iterate_of


def run_experiment(config: ExperimentConfig, trace_iterations: int = 0,
                   iterations: Optional[range] = None,
                   group: Optional[Group] = None) -> ExperimentSummary:
    """A cell's iterations, taken from ``group``, its ``Group`` from
    ``simulate_groups``, or when None from ``simulate_groups([config],
    trace_iterations, iterations)``: either way what the cell gets alone.
    ``bootstrap_grid`` makes the intervals from each ``decided_efforts``."""
    return (group or simulate_groups([config], trace_iterations, iterations)[0]).take(config)


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
