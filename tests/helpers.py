"""Reference definitions that only the tests read.

``effort_of`` counts a strategy's raw labels from rows of votes, against which
the tests check the law of the votes (``simulator.vote_law``), and
``min_n_for_decision`` is the decision floor of the Hoeffding rule.
``annotation_set`` builds recorded votes through ``parse_annotations``.
``lone_iteration`` runs one iteration of a grid cell alone, as ``trace`` runs
it, and ``cell_draws`` catches the requests and pool that a cell's
iterations share; both go through ``run_experiment``, whose group's set-up
alone makes them. ``lone_replay`` reads one iteration of a replay cell off
``replay_experiment``, whose group's set-up alone makes a replay cell's law
and band.
``reference_reveal`` is the stream layout's request order, written apart from
``simulator.Blocks``, and ``reference_worker`` fixed-worker's worker, for the
tests that replay an iteration's draws.
``traced_peak`` is the most memory that numpy and Python held during a call.
``assert_max_three_stops_as_three_workers`` compares the iterations of a
max-three cell with those of its n-workers:3 twin.
"""
import io
import math
import tracemalloc
from unittest import mock

import numpy as np

from twochoice import simulator
from twochoice.decision import hoeffding_tolerance
from twochoice.replay import parse_annotations, replay_experiment
from twochoice.rng import DOMAIN_WORKER, substream
from twochoice.simulator import run_experiment
from twochoice.strategies import StrategyKind


def effort_of(strategy, votes) -> np.ndarray:
    """Raw labels each request spends, given its row of votes_needed() votes."""
    votes = np.asarray(votes)
    if votes.ndim != 2 or votes.shape[1] != strategy.votes_needed():
        raise ValueError(f"{strategy.name} needs an (n, {strategy.votes_needed()}) vote matrix, "
                         f"got shape {votes.shape}")
    if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
        return 2 + (votes[:, 0] != votes[:, 1])
    return np.full(len(votes), votes.shape[1])


def min_n_for_decision(delta: float) -> int:
    """Smallest n at which any label stream could decide, i.e. where t < 0.5.

    Closed form: the least n with n > -2 ln(delta). Computed via floor plus
    a local scan so exact integer boundaries (delta = e^{-k/2}) are not
    tripped up by floating-point rounding.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    n = max(1, math.floor(-2.0 * math.log(delta)) + 1)
    while not hoeffding_tolerance(delta, n) < 0.5:
        n += 1
    while n > 1 and hoeffding_tolerance(delta, n - 1) < 0.5:
        n -= 1
    return n


def annotation_set(votes: dict, label: str = ""):
    """The AnnotationSet of {request_id: {worker_id: label}}, parsed from
    the CSV rows that hold those votes, requests in dict order."""
    rows = "".join(f"{request},{worker},{value}\n" for request, by_worker in votes.items()
                   for worker, value in by_worker.items())
    return parse_annotations(io.StringIO("request_id,worker_id,label\n" + rows),
                             experiment_label=label)


def lone_iteration(config, index: int, record_trace: bool = False):
    """Iteration ``index`` of ``config``'s grid cell, run alone as ``trace``
    runs it: ``run_experiment`` on that iteration only."""
    [result] = run_experiment(config, trace_iterations=int(record_trace),
                              iterations=range(index, index + 1)).per_iteration
    return result


def lone_replay(annotations, strategy, delta: float, seed: int, index: int = 0):
    """Iteration ``index`` of the replay cell (``annotations``, ``strategy``,
    ``delta``, ``seed``): the last of ``replay_experiment`` run for
    ``index + 1`` iterations."""
    return replay_experiment(annotations, strategy, delta, index + 1, seed).per_iteration[index]


def cell_draws(config):
    """The RequestSet and WorkerPool that ``run_experiment`` draws for
    ``config``'s grid cell, caught as it runs the cell's first iteration."""
    caught = {}

    def catch(name):
        sample = getattr(simulator, name)

        def catching(*args):
            caught[name] = sample(*args)
            return caught[name]
        return mock.patch.object(simulator, name, catching)

    with catch("sample_difficulties"), catch("sample_capabilities"):
        run_experiment(config, iterations=range(1))
    return caught["sample_difficulties"], caught["sample_capabilities"]


def reference_reveal(rng, n_total: int):
    """Yield an iteration's request order as the stream layout draws it,
    one block at a time: FIRST_BLOCK rows, then twice the block before, the
    last cut at the supply. A block picks ``rng.choice(left, size,
    replace=False)`` of the ``left`` rows not yet revealed, counted in row
    order, or ``rng.permutation(left)`` when it takes all of them."""
    hidden = np.arange(n_total)
    size = simulator.FIRST_BLOCK
    while hidden.size:
        if size >= hidden.size:
            yield hidden[rng.permutation(hidden.size)]
            return
        rows = hidden[rng.choice(hidden.size, size, replace=False)]
        yield rows
        hidden = np.setdiff1d(hidden, rows, assume_unique=True)
        size *= 2


def reference_worker(config, iteration: int) -> int:
    """The pool index of fixed-worker's worker in iteration ``iteration``
    of ``config``'s grid cell, as the stream layout draws it: the last of
    ``iteration + 1`` picks from the cell's worker stream."""
    picks = substream(config.seed, DOMAIN_WORKER, 0).integers(0, config.pool_size, iteration + 1)
    return int(picks[iteration])


def traced_peak(fn, *args) -> int:
    """The peak, in bytes, of the memory that tracemalloc saw allocated
    during ``fn(*args)``; numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_max_three_stops_as_three_workers(max_three, three_workers):
    """The iterations of two cells' ``ExperimentSummary`` on the same
    streams stop at the same n with the same verdict, n-workers:3 spends
    3n labels and max-three from 2n up to that, less on some iteration."""
    pairs = list(zip(max_three.per_iteration, three_workers.per_iteration, strict=True))
    for split, full in pairs:
        assert (split.verdict, split.n_at_decision) == (full.verdict, full.n_at_decision)
        assert full.effort == 3 * full.n_at_decision
        assert 2 * full.n_at_decision <= split.effort <= full.effort
    assert any(split.effort < full.effort for split, full in pairs)
