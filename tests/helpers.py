"""Reference definitions that only the tests read.

``effort_of`` counts a strategy's raw labels from rows of votes, against which
the tests check the law of the votes (``simulator.vote_law``), and
``min_n_for_decision`` is the decision floor of the Hoeffding rule.
``annotation_set`` builds recorded votes through ``parse_annotations``.
``lone_iteration`` runs one iteration of a grid cell alone, as ``trace`` runs
it, and ``cell_draws`` catches the requests and pool that a cell's
iterations share; both go through ``run_experiment``, which alone makes them.
"""
import io
import math
from unittest import mock

import numpy as np

from twochoice import simulator
from twochoice.decision import hoeffding_tolerance
from twochoice.replay import parse_annotations
from twochoice.rng import DOMAIN_ITERATION, substream
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
    runs it: ``run_experiment`` on that iteration's stream only."""
    [result] = run_experiment(config, trace_iterations=int(record_trace), streams=[
        substream(config.seed, DOMAIN_ITERATION, index)]).per_iteration
    return result


def cell_draws(config):
    """The RequestSet and WorkerPool that ``run_experiment`` draws for
    ``config``'s grid cell, caught as it runs the cell on no streams."""
    caught = {}

    def catch(name):
        sample = getattr(simulator, name)

        def catching(*args):
            caught[name] = sample(*args)
            return caught[name]
        return mock.patch.object(simulator, name, catching)

    with catch("sample_difficulties"), catch("sample_capabilities"):
        run_experiment(config, streams=[])
    return caught["sample_difficulties"], caught["sample_capabilities"]
