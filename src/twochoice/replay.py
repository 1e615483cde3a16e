"""Replay labelling strategies over a recorded two-choice annotation set.

The input is real crowd data: request pairs, each voted on by several
workers. A replay iteration shuffles the requests, samples the votes a
strategy needs per request without replacement from that request's
recorded votes, and feeds them through the simulator's block driver, so
votes are picked block by block and none past the stopping block. No label
is ever fabricated and no recorded vote is reused within one (request,
iteration).

Fixed-worker cannot be replayed: recorded crowd data has no single worker
who voted on every request.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .decision import Verdict
from .rng import DOMAIN_BOOTSTRAP, DOMAIN_ITERATION, as_generator, distinct_columns, substream
from .simulator import ExperimentSummary, bootstrap_ci, run_blocks
# majority_vote is unused here but stays importable: perfbench/worker.py
# wraps replay.majority_vote in its traced launches
from .strategies import Strategy, StrategyKind, majority_vote  # noqa: F401

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("request_id", "worker_id", "label")


class DataFormatError(ValueError):
    """Malformed annotation data; the message points at the offending spot."""


@dataclass(frozen=True)
class AnnotatedRequest:
    request_id: str
    votes: tuple  # ((worker_id, label), ...) in input order

    def __post_init__(self):
        seen = set()
        for worker_id, label in self.votes:
            if worker_id in seen:
                raise DataFormatError(
                    f"worker {worker_id!r} voted twice on request {self.request_id!r}")
            seen.add(worker_id)
            if label not in (0, 1):
                raise DataFormatError(f"label must be 0 or 1, got {label!r}")
        if not self.votes:
            raise DataFormatError(f"request {self.request_id!r} has no votes")


@dataclass(frozen=True)
class AnnotationSet:
    requests: tuple
    worker_ids: frozenset
    experiment_label: str

    def __len__(self) -> int:
        return len(self.requests)

    @cached_property
    def vote_matrix(self) -> tuple:
        """(labels, counts): an (n_requests, max_votes) int8 label matrix
        and the number of votes in each row.

        Row i holds request i's labels sorted by worker id, so replay does
        not depend on input row order, followed by zero padding. Built once
        per annotation set.
        """
        counts = np.array([len(req.votes) for req in self.requests], dtype=np.int64)
        labels = np.zeros((counts.size, int(counts.max())), dtype=np.int8)
        for row, req in zip(labels, self.requests):
            row[:len(req.votes)] = [label for _, label in sorted(req.votes)]
        return labels, counts


@dataclass(frozen=True)
class ReplayResult:
    decided: bool
    verdict: Verdict
    n_at_decision: int
    effort: int


def parse_annotations(source, mapping: Optional[dict] = None,
                      experiment_label: str = "") -> AnnotationSet:
    """Read request/worker/label rows from CSV into an AnnotationSet.

    The expected header is request_id,worker_id,label with binary labels;
    extra columns are ignored. ``mapping`` adapts foreign schemas: keys
    request_id/worker_id/label name the actual columns, and an optional
    label_map dict translates raw label values to 0/1.
    """
    mapping = mapping or {}
    columns = {key: mapping.get(key, key) for key in REQUIRED_COLUMNS}
    label_map = mapping.get("label_map")

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return parse_annotations(handle, mapping, experiment_label or Path(source).stem)
    if isinstance(source, (bytes, bytearray)):
        source = io.StringIO(source.decode("utf-8"))
    elif isinstance(source, io.RawIOBase) or (hasattr(source, "read") and
                                              isinstance(source.read(0), bytes)):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.DictReader(source)
    if not reader.fieldnames:
        raise DataFormatError("empty annotation file")
    missing = [col for col in columns.values() if col not in reader.fieldnames]
    if missing:
        raise DataFormatError(f"missing columns {missing} in header {reader.fieldnames}")

    votes_by_request: dict = {}
    seen_pairs = set()
    workers = set()
    for row in reader:
        line = reader.line_num
        request_id = row[columns["request_id"]]
        worker_id = row[columns["worker_id"]]
        raw = row[columns["label"]]
        if request_id is None or worker_id is None or raw is None:
            raise DataFormatError(f"line {line}: short row")
        if label_map is not None:
            if raw not in label_map:
                raise DataFormatError(f"line {line}: label {raw!r} not in label_map")
            label = int(label_map[raw])
        else:
            try:
                label = int(raw)
            except ValueError:
                raise DataFormatError(f"line {line}: label {raw!r} is not an integer") from None
        if label not in (0, 1):
            raise DataFormatError(f"line {line}: label must be 0 or 1, got {raw!r}")
        if (request_id, worker_id) in seen_pairs:
            raise DataFormatError(
                f"duplicate vote by worker {worker_id!r} on request {request_id!r}")
        seen_pairs.add((request_id, worker_id))
        workers.add(worker_id)
        votes_by_request.setdefault(request_id, []).append((worker_id, label))

    if not votes_by_request:
        raise DataFormatError("no annotation rows")
    requests = tuple(
        AnnotatedRequest(request_id=rid, votes=tuple(votes))
        for rid, votes in votes_by_request.items()
    )
    return AnnotationSet(requests=requests, worker_ids=frozenset(workers),
                         experiment_label=experiment_label)


def _check_replayable(annotations: AnnotationSet, strategy: Strategy) -> None:
    if strategy.kind is StrategyKind.FIXED_WORKER:
        raise ValueError("fixed-worker cannot be replayed on recorded data")
    demand = strategy.votes_needed()
    shortest = int(annotations.vote_matrix[1].min())
    if demand > shortest:
        raise ValueError(
            f"strategy {strategy.name} needs {demand} votes per request "
            f"but some request has only {shortest}")


def replay_iteration(annotations: AnnotationSet, strategy: Strategy, delta: float,
                     iteration_index: int, seed: int) -> ReplayResult:
    """One replay pass: shuffled requests, recorded votes, sequential stop.

    The rows are permuted once; each block then picks its own rows' votes.
    """
    _check_replayable(annotations, strategy)
    labels, counts = annotations.vote_matrix
    rng = substream(seed, DOMAIN_ITERATION, iteration_index)
    order = rng.permutation(counts.size)

    def draw(start, stop):
        rows = order[start:stop]
        picks = distinct_columns(rng, counts[rows], strategy.votes_needed())
        return np.take_along_axis(labels[rows], picks, axis=1)

    result = run_blocks(draw, counts.size, strategy, delta)
    return ReplayResult(decided=result.decided, verdict=result.verdict,
                        n_at_decision=result.n_at_decision, effort=result.effort)


def replay_experiment(annotations: AnnotationSet, strategy: Strategy, delta: float,
                      iterations: int, seed: int,
                      bootstrap_confidence: float = 0.99,
                      bootstrap_resamples: int = 10_000) -> ExperimentSummary:
    """Aggregate replay iterations the same way the simulator aggregates."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    _check_replayable(annotations, strategy)
    results = [replay_iteration(annotations, strategy, delta, i, seed) for i in range(iterations)]
    decided_efforts = [r.effort for r in results if r.decided]
    ratio = len(decided_efforts) / iterations
    if decided_efforts:
        mean_effort = float(np.mean(decided_efforts))
        ci_low, ci_high = bootstrap_ci(decided_efforts, bootstrap_confidence,
                                       bootstrap_resamples,
                                       substream(seed, DOMAIN_BOOTSTRAP, 0))
    else:
        mean_effort = float("nan")
        ci_low = ci_high = float("nan")
    return ExperimentSummary(mean_effort=mean_effort, ci_low=ci_low, ci_high=ci_high,
                             decision_ratio=ratio, per_iteration=results)


def fleiss_kappa(annotations: AnnotationSet, seed: int = 0) -> float:
    """Fleiss kappa over the two label categories.

                 P-bar - Pe-bar
        kappa = ----------------
                  1 - Pe-bar

    with per-request agreement P_i = sum_j n_ij (n_ij - 1) / (k (k - 1)).
    Requests must share a common vote count k; when counts differ, every
    request is subsampled (seeded, uniform) down to the smallest k, which
    is logged. If all votes land in one category, expected agreement is 1
    and kappa is defined as 1.
    """
    labels, counts = annotations.vote_matrix
    k = int(counts.min())
    if k < 2:
        raise ValueError("fleiss_kappa needs at least 2 votes on every request")
    if counts.max() != k:
        log.warning("unequal vote counts (%d..%d); subsampling every request to k=%d",
                    k, counts.max(), k)
        labels = np.take_along_axis(labels, distinct_columns(as_generator(seed), counts, k), axis=1)

    ones = labels.sum(axis=1, dtype=np.float64)
    zeros = k - ones
    per_item = (ones * (ones - 1) + zeros * (zeros - 1)) / (k * (k - 1))
    p_bar = float(per_item.mean())
    p1 = float(ones.sum()) / (k * len(labels))
    pe_bar = p1 * p1 + (1.0 - p1) * (1.0 - p1)
    if pe_bar == 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)
