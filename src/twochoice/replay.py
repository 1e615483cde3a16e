"""Replay labelling strategies over a recorded two-choice annotation set.

The input is real crowd data: request pairs, each voted on by several
workers. A replay iteration runs through the simulator's block driver: it
reveals a shuffled request order block by block and draws each revealed
request's final label and effort from the exact law of the votes a
strategy would pick, without replacement, from that request's recorded
votes, so no row past the stopping block is revealed or drawn. No label is
ever fabricated and no recorded vote is counted twice within one
(request, iteration). Every cell of a replay grid reads its iteration
streams alike, so the grid's cells form one ``simulator.Group``
(``replay_group``) and run in one lockstep pass.

Fixed-worker cannot be replayed: recorded crowd data has no single worker
who voted on every request.
"""
from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .decision import Band, hoeffding_band
from .simulator import Blocks, ExperimentSummary, Group, IterationResult, run_blocks, vote_law
from .strategies import Strategy, StrategyKind
# unused here but kept importable: perfbench/worker.py wraps replay.substream,
# replay.bootstrap_ci and replay.majority_vote in its traced launches
from .rng import substream  # noqa: F401
from .simulator import bootstrap_ci  # noqa: F401
from .strategies import majority_vote  # noqa: F401

REQUIRED_COLUMNS = ("request_id", "worker_id", "label")


class DataFormatError(ValueError):
    """Malformed annotation data; the message points at the offending spot."""


@dataclass(frozen=True, eq=False)
class AnnotationSet:
    """Recorded votes as per-request tallies: request i holds ``ones[i]``
    A-votes (label 1) in ``counts[i]`` votes. Replay's law and Fleiss kappa
    read nothing else, so input row order cannot matter.
    """

    request_ids: tuple
    ones: np.ndarray
    counts: np.ndarray
    worker_ids: frozenset
    experiment_label: str

    def __len__(self) -> int:
        return len(self.request_ids)


def parse_annotations(source, mapping: Optional[dict] = None,
                      experiment_label: str = "") -> AnnotationSet:
    """Read request/worker/label rows from CSV into an AnnotationSet.

    ``source`` is a path, a binary stream (read as UTF-8) or a text stream;
    a byte-order mark before the header is ignored. The expected header is
    request_id,worker_id,label with binary labels; extra columns are ignored
    and blank lines skipped. ``mapping`` adapts foreign schemas: keys
    request_id/worker_id/label name the actual columns, and an optional
    label_map dict translates raw label values to 0/1. Requests keep the
    order of their first rows.
    """
    mapping = mapping or {}
    columns = {key: mapping.get(key, key) for key in REQUIRED_COLUMNS}
    label_map = mapping.get("label_map")

    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return parse_annotations(handle, mapping, experiment_label or Path(source).stem)
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.reader(source)
    votes: dict = {}
    try:
        header = next(reader, None)
        if not header:
            raise DataFormatError("empty annotation file")
        header[0] = header[0].removeprefix("\ufeff")  # a spreadsheet export's byte-order mark
        missing = [col for col in columns.values() if col not in header]
        if missing:
            raise DataFormatError(f"missing columns {missing} in header {header}")
        request_col, worker_col, label_col = (header.index(columns[k]) for k in REQUIRED_COLUMNS)
        width = max(request_col, worker_col, label_col) + 1
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < width:
                raise DataFormatError(f"line {line}: short row")
            request_id, worker_id, raw = row[request_col], row[worker_col], row[label_col]
            if label_map is not None and raw not in label_map:
                raise DataFormatError(f"line {line}: label {raw!r} not in label_map")
            try:
                label = int(raw if label_map is None else label_map[raw])
            except ValueError:
                raise DataFormatError(f"line {line}: label {raw!r} is not an integer") from None
            if label not in (0, 1):
                raise DataFormatError(f"line {line}: label must be 0 or 1, got {raw!r}")
            by_worker = votes.setdefault(request_id, {})
            if worker_id in by_worker:
                raise DataFormatError(f"line {line}: duplicate vote by worker {worker_id!r} "
                                      f"on request {request_id!r}")
            by_worker[worker_id] = label
    except UnicodeDecodeError as exc:
        where = getattr(source, "name", "annotation data")
        raise DataFormatError(f"{where}: expected UTF-8 text, got byte "
                              f"{exc.object[exc.start]:#04x}") from None
    if not votes:
        raise DataFormatError("no annotation rows")
    by_request = votes.values()
    return AnnotationSet(
        request_ids=tuple(votes),
        ones=np.array([sum(by_worker.values()) for by_worker in by_request], dtype=np.int64),
        counts=np.array([len(by_worker) for by_worker in by_request], dtype=np.int64),
        worker_ids=frozenset(worker for by_worker in by_request for worker in by_worker),
        experiment_label=experiment_label)


def replay_law(annotations: AnnotationSet, strategy: Strategy) -> np.ndarray:
    """``vote_law`` of each request's votes, picked uniformly without
    replacement from its recorded votes: with j A-votes among the first t
    picks of a request holding ``ones`` A-votes in ``count``, pick t is A
    with probability (ones - j) / (count - t). A strategy that cannot be
    replayed on ``annotations`` is a ValueError."""
    if strategy.kind is StrategyKind.FIXED_WORKER:
        raise ValueError("fixed-worker cannot be replayed on recorded data")
    ones, counts = annotations.ones, annotations.counts
    demand, shortest = strategy.votes_needed(), int(counts.min())
    if demand > shortest:
        raise ValueError(
            f"strategy {strategy.name} needs {demand} votes per request "
            f"but some request has only {shortest}")
    return vote_law(strategy, lambda t, j: (ones - j) / (counts - t))


def replay_iteration(annotations: AnnotationSet, strategy: Strategy, law: np.ndarray,
                     band: Band, blocks: Blocks) -> IterationResult:
    """One replay pass on the cell's ``law`` and ``band`` (``_replay_setup``
    makes them) and the iteration's ``blocks``. ``annotations`` is unread here:
    perfbench's traced launches count each call's requests as ``len(args[0])``."""
    return run_blocks(strategy, lambda rows: law.take(rows, axis=1), blocks, band)


def _replay_setup(annotations: AnnotationSet):
    """A replay ``Group``'s pass set-up: the one place where replay laws and
    bands are made, one law per strategy and one band per delta."""
    law_of = functools.cache(lambda strategy: replay_law(annotations, strategy))
    band_of = functools.cache(lambda delta: hoeffding_band(delta, len(annotations)))

    def iterate_of(cell):
        strategy, delta = cell
        law, band = law_of(strategy), band_of(delta)
        return lambda blocks: replay_iteration(annotations, strategy, law, band, blocks)

    return iterate_of


def replay_group(annotations: AnnotationSet, cells: list, iterations: int, seed: int) -> Group:
    """The one ``simulator.Group`` of a replay grid's (strategy, delta)
    ``cells``: iteration i of each draws from ``substream(seed,
    DOMAIN_ITERATION, i)``, and every cell reads its streams alike."""
    return Group(cells, seed, range(iterations), len(annotations),
                 functools.partial(_replay_setup, annotations))


def replay_experiment(annotations: AnnotationSet, strategy: Strategy, delta: float,
                      iterations: int, seed: int, group: Optional[Group] = None
                      ) -> ExperimentSummary:
    """The replay cell (``strategy``, ``delta``) on ``annotations``, taken
    from ``group``, the grid's ``replay_group``, or from a group of the cell
    alone when None; either way the cell gets what it gets alone."""
    cell = (strategy, delta)
    return (group or replay_group(annotations, [cell], iterations, seed)).take(cell)


def fleiss_kappa(annotations: AnnotationSet, seed: int = 0) -> float:
    """Fleiss kappa over the two label categories.

                 P-bar - Pe-bar
        kappa = ----------------
                  1 - Pe-bar

    with per-request agreement P_i = sum_j n_ij (n_ij - 1) / (k (k - 1)).
    Requests must share a common vote count k; when counts differ, every
    request is subsampled (seeded, uniform) down to the smallest k, which
    is logged: one hypergeometric draw of k votes' A-votes per request. If
    all votes land in one category, expected agreement is 1 and kappa is
    defined as 1.
    """
    ones, counts = annotations.ones, annotations.counts
    k = int(counts.min())
    if k < 2:
        raise ValueError("fleiss_kappa needs at least 2 votes on every request")
    if counts.max() != k:
        # imported here, so that a run that never warns, as no simulate run
        # does, never loads logging
        import logging
        logging.getLogger(__name__).warning(
            "unequal vote counts (%d..%d); subsampling every request to k=%d", k, counts.max(), k)
        ones = np.random.default_rng(seed).hypergeometric(ones, counts - ones, k)

    zeros = k - ones
    per_item = (ones * (ones - 1) + zeros * (zeros - 1)) / (k * (k - 1))
    p_bar = float(per_item.mean())
    p1 = float(ones.sum()) / (k * len(ones))
    pe_bar = p1 * p1 + (1.0 - p1) * (1.0 - p1)
    if pe_bar == 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)
