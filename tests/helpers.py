"""Reference definitions that only the tests read.

``effort_of`` counts a strategy's raw labels from rows of votes, against which
the tests check the law of the votes (``simulator.vote_law``), and
``min_n_for_decision`` is the decision floor of the Hoeffding rule.
``annotation_set`` builds recorded votes through ``parse_annotations``, and
``iteration_stream`` is the generator of one iteration of a grid cell.
"""
import io
import math

import numpy as np

from twochoice.decision import hoeffding_tolerance
from twochoice.replay import parse_annotations
from twochoice.rng import DOMAIN_ITERATION, substream
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


def iteration_stream(config, index: int) -> np.random.Generator:
    """The generator of iteration ``index`` of ``config``'s grid cell, as
    ``run_experiment`` hands it to ``run_iteration``."""
    return substream(config.seed, DOMAIN_ITERATION, index)
