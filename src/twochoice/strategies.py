"""The four labelling strategies, the vote-matrix majority and effort accounting.

Every strategy holds a row of k votes per request and its final label is
the majority of that row: k = 1 for fixed-worker and one-worker, N for
majority-of-N, and 3 for max-three, whose third vote is only consulted
when the first two disagree and cannot change the majority otherwise.

Effort counts raw worker labels consumed to produce one final label:
fixed-worker and one-worker spend 1, majority-of-N spends N, and
max-three spends 2 when the first two workers agree, else 3.

Simulate and replay draw each final label and its effort from the law of
the votes (``simulator.vote_law``) rather than from a vote matrix;
``majority_vote`` and ``Strategy.effort`` are the reference the tests
check that law against.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class StrategyKind(enum.Enum):
    FIXED_WORKER = "fixed-worker"
    ONE_WORKER = "one-worker"
    N_WORKERS_MAJORITY = "n-workers"
    MAX_THREE_WORKERS = "max-three"


@dataclass(frozen=True)
class Strategy:
    """A labelling strategy; n_workers applies to majority voting only."""

    kind: StrategyKind
    n_workers: Optional[int] = None

    def __post_init__(self):
        if self.kind is StrategyKind.N_WORKERS_MAJORITY:
            if self.n_workers is None:
                raise ValueError("n-workers strategy requires n_workers")
            if self.n_workers < 3 or self.n_workers % 2 == 0:
                raise ValueError(f"N must be odd and >= 3, got {self.n_workers}")
        elif self.n_workers is not None:
            raise ValueError(f"n_workers only applies to n-workers, not {self.kind.value}")

    @property
    def name(self) -> str:
        if self.kind is StrategyKind.N_WORKERS_MAJORITY:
            return f"n-workers:{self.n_workers}"
        return self.kind.value

    @classmethod
    def from_name(cls, text: str) -> "Strategy":
        """Parse a strategy name: fixed-worker, one-worker, max-three, n-workers:<odd N>."""
        text = text.strip()
        if text.startswith("n-workers:"):
            raw = text.split(":", 1)[1]
            try:
                n = int(raw)
            except ValueError:
                raise ValueError(f"invalid worker count {raw!r} in {text!r}") from None
            return cls(kind=StrategyKind.N_WORKERS_MAJORITY, n_workers=n)
        for kind in (StrategyKind.FIXED_WORKER, StrategyKind.ONE_WORKER, StrategyKind.MAX_THREE_WORKERS):
            if text == kind.value:
                return cls(kind=kind)
        raise ValueError(f"unknown strategy {text!r}")

    def votes_needed(self) -> int:
        """Worst-case raw labels per request."""
        if self.kind is StrategyKind.N_WORKERS_MAJORITY:
            return self.n_workers
        if self.kind is StrategyKind.MAX_THREE_WORKERS:
            return 3
        return 1

    def effort(self, votes) -> np.ndarray:
        """Raw labels each request spends, given its row of votes_needed() votes."""
        votes = np.asarray(votes)
        if votes.ndim != 2 or votes.shape[1] != self.votes_needed():
            raise ValueError(f"{self.name} needs an (n, {self.votes_needed()}) vote matrix, "
                             f"got shape {votes.shape}")
        if self.kind is StrategyKind.MAX_THREE_WORKERS:
            return 2 + (votes[:, 0] != votes[:, 1])
        return np.full(len(votes), votes.shape[1])


def majority_vote(votes) -> np.ndarray:
    """Label held by more than half of each row of an (n, k) vote matrix; k must be odd."""
    votes = np.asarray(votes)
    if votes.ndim != 2:
        raise ValueError(f"majority vote needs an (n, k) vote matrix, got shape {votes.shape}")
    k = votes.shape[1]
    if k == 0 or k % 2 == 0:
        raise ValueError(f"majority vote needs an odd, nonempty row of votes, got {k} votes")
    # more than half of an odd k is more than k // 2
    return (votes.sum(axis=1) > k // 2).view(np.int8)
