"""Replay labelling strategies over a recorded two-choice annotation set.

The input is real crowd data: request pairs, each voted on by several
workers. A replay iteration runs through the simulator's block driver: it
reveals a shuffled request order block by block and samples the votes a
strategy needs per request without replacement from that request's
recorded votes, so no row past the stopping block is revealed or picked.
No label is ever fabricated and no recorded vote is reused within one
(request, iteration).

Fixed-worker cannot be replayed: recorded crowd data has no single worker
who voted on every request.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .rng import DOMAIN_ITERATION, as_generator, distinct_columns, substream
# bootstrap_ci and majority_vote are unused here but stay importable:
# perfbench/worker.py wraps replay.bootstrap_ci and replay.majority_vote in
# its traced launches
from .simulator import (  # noqa: F401
    ExperimentSummary, IterationResult, bootstrap_ci, run_blocks, summarize)
from .strategies import Strategy, StrategyKind, majority_vote  # noqa: F401

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("request_id", "worker_id", "label")


class DataFormatError(ValueError):
    """Malformed annotation data; the message points at the offending spot."""


@dataclass(frozen=True, eq=False)
class AnnotationSet:
    """Recorded votes as a padded matrix, built once per annotation set.

    ``labels`` is an (n_requests, max_votes) int8 matrix: row i holds
    request i's labels sorted by worker id, so replay does not depend on
    input row order, followed by zero padding. ``counts[i]`` is the number
    of votes in row i.
    """

    request_ids: tuple
    labels: np.ndarray
    counts: np.ndarray
    worker_ids: frozenset
    experiment_label: str

    def __len__(self) -> int:
        return len(self.request_ids)

    @classmethod
    def from_votes(cls, votes: dict, experiment_label: str = "") -> "AnnotationSet":
        """Build from {request_id: {worker_id: label}}, requests in dict order.

        One vote per (request, worker) holds by construction; a request
        without votes and a label outside {0, 1} are rejected.
        """
        if not votes:
            raise DataFormatError("no annotation rows")
        counts = np.array([len(by_worker) for by_worker in votes.values()], dtype=np.int64)
        if not counts.all():
            empty = list(votes)[int(np.argmin(counts))]
            raise DataFormatError(f"request {empty!r} has no votes")
        flat = np.array([by_worker[w] for by_worker in votes.values() for w in sorted(by_worker)])
        bad = (flat != 0) & (flat != 1)
        if bad.any():
            raise DataFormatError(f"label must be 0 or 1, got {flat[bad][0].item()!r}")
        labels = np.zeros((counts.size, int(counts.max())), dtype=np.int8)
        # a row-major mask fills each row's leading counts[i] cells in order
        labels[np.arange(labels.shape[1]) < counts[:, None]] = flat
        workers = frozenset(w for by_worker in votes.values() for w in by_worker)
        return cls(request_ids=tuple(votes), labels=labels, counts=counts,
                   worker_ids=workers, experiment_label=experiment_label)


def parse_annotations(source, mapping: Optional[dict] = None,
                      experiment_label: str = "") -> AnnotationSet:
    """Read request/worker/label rows from CSV into an AnnotationSet.

    The expected header is request_id,worker_id,label with binary labels;
    extra columns are ignored and blank lines skipped. ``mapping`` adapts
    foreign schemas: keys request_id/worker_id/label name the actual
    columns, and an optional label_map dict translates raw label values
    to 0/1.
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

    reader = csv.reader(source)
    header = next(reader, None)
    if not header:
        raise DataFormatError("empty annotation file")
    missing = [col for col in columns.values() if col not in header]
    if missing:
        raise DataFormatError(f"missing columns {missing} in header {header}")
    request_col, worker_col, label_col = (header.index(columns[key]) for key in REQUIRED_COLUMNS)
    width = max(request_col, worker_col, label_col) + 1

    votes: dict = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) < width:
            raise DataFormatError(f"line {line}: short row")
        request_id, worker_id, raw = row[request_col], row[worker_col], row[label_col]
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
        by_worker = votes.setdefault(request_id, {})
        if worker_id in by_worker:
            raise DataFormatError(f"line {line}: duplicate vote by worker {worker_id!r} "
                                  f"on request {request_id!r}")
        by_worker[worker_id] = label
    return AnnotationSet.from_votes(votes, experiment_label)


def _check_replayable(annotations: AnnotationSet, strategy: Strategy) -> None:
    if strategy.kind is StrategyKind.FIXED_WORKER:
        raise ValueError("fixed-worker cannot be replayed on recorded data")
    demand = strategy.votes_needed()
    shortest = int(annotations.counts.min())
    if demand > shortest:
        raise ValueError(
            f"strategy {strategy.name} needs {demand} votes per request "
            f"but some request has only {shortest}")


def replay_iteration(annotations: AnnotationSet, strategy: Strategy, delta: float,
                     iteration_index: int, seed: int) -> IterationResult:
    """One replay pass: shuffled requests, recorded votes, sequential stop.

    The block driver reveals the shuffled rows block by block; each block
    then picks its own rows' votes.
    """
    _check_replayable(annotations, strategy)
    labels, counts = annotations.labels, annotations.counts
    rng = substream(seed, DOMAIN_ITERATION, iteration_index)

    def draw(rows):
        picks = distinct_columns(rng, counts[rows], strategy.votes_needed())
        return np.take_along_axis(labels[rows], picks, axis=1)

    return run_blocks(draw, counts.size, strategy, delta, rng)


def replay_experiment(annotations: AnnotationSet, strategy: Strategy, delta: float,
                      iterations: int, seed: int,
                      bootstrap_confidence: float = 0.99,
                      bootstrap_resamples: int = 10_000) -> ExperimentSummary:
    """Aggregate replay iterations the same way the simulator aggregates."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    results = [replay_iteration(annotations, strategy, delta, i, seed) for i in range(iterations)]
    return summarize(results, seed, bootstrap_confidence, bootstrap_resamples)


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
    labels, counts = annotations.labels, annotations.counts
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
