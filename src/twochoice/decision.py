"""Sequential stopping rule on the running proportion of first-model picks.

With n final labels observed and X-bar their mean, the one-sided Hoeffding
bound delta <= exp(-2 n t^2) gives the tolerance

    t = sqrt(-ln(delta) / (2 n))

and we call the first model better as soon as X-bar - t > 0.5 (the second
model when X-bar + t < 0.5), each with probability at least 1 - delta.

The bound is checked after every final label, i.e. the fixed-n tolerance is
applied at every n without a correction for continuous monitoring. That is
deliberate: this engine measures the labelling effort of exactly that
stopping behaviour, it does not try to repair its statistics.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# The verdict boundary: the share of first-model picks under no preference.
MIDLINE = 0.5


class Verdict(enum.Enum):
    UNDECIDED = "undecided"
    A_IS_BETTER = "a-is-better"
    A_PRIME_IS_BETTER = "a-prime-is-better"


@dataclass(frozen=True)
class DecisionState:
    """Running tally after n final labels.

    lower/upper expose the error band around the mean so callers can log
    (n, mean, lower, upper, verdict) traces for plotting.
    """

    n: int = 0
    count_a: int = 0
    mean: float = 0.0
    tolerance: float = math.inf
    verdict: Verdict = Verdict.UNDECIDED

    @property
    def lower(self) -> float:
        return self.mean - self.tolerance

    @property
    def upper(self) -> float:
        return self.mean + self.tolerance


def hoeffding_tolerance(delta: float, n: int) -> float:
    """t = sqrt(-ln(delta) / (2 n))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(-math.log(delta) / (2.0 * n))


def update(state: DecisionState, label: int, delta: float) -> DecisionState:
    """Fold one final label into the state and re-evaluate the verdict at
    failure probability ``delta``.

    Callers normally stop at the first non-undecided verdict; updating past
    it is legal (the verdict keeps tracking the current band) so traces can
    run to the end of the data.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    n = state.n + 1
    count_a = state.count_a + label
    mean = count_a / n
    tol = hoeffding_tolerance(delta, n)
    if mean - tol > MIDLINE:
        verdict = Verdict.A_IS_BETTER
    elif mean + tol < MIDLINE:
        verdict = Verdict.A_PRIME_IS_BETTER
    else:
        verdict = Verdict.UNDECIDED
    return DecisionState(n=n, count_a=count_a, mean=mean, tolerance=tol, verdict=verdict)


def hoeffding_band(delta: float, n_max: int) -> np.ndarray:
    """The tolerances t for n = 1..n_max, element n - 1 for n labels.

    Computed once per (delta, request supply) and sliced by ``first_crossing``
    block by block; each element is the same float as
    ``hoeffding_tolerance(delta, n)``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return np.sqrt(-math.log(delta) / (2.0 * np.arange(1, n_max + 1, dtype=np.int64)))


def first_crossing(finals, band: np.ndarray, n: int = 0,
                   count: int = 0) -> tuple[Verdict, int, np.ndarray, np.ndarray]:
    """Scan a stream of final labels for the first n whose band clears 0.5.

    Vectorised form of folding the labels through ``update`` one at a time
    and stopping at the first verdict. ``band`` is ``hoeffding_band`` over
    at least n + len(finals) labels. ``n`` and ``count`` are the labels and
    first-model picks already seen before this stream, so a stream can be
    scanned block by block. Returns the verdict, the running n it came at
    (the end of the stream when undecided), and the running means and
    tolerances for this stream's labels up to that n.
    """
    end = n + len(finals)
    ns = np.arange(n + 1, end + 1, dtype=np.int64)
    counts = finals.cumsum(dtype=np.int64)
    if count:
        counts += count
    means = counts / ns
    tolerances = band[n:end]
    a_hit = means - tolerances > MIDLINE
    hit = means + tolerances < MIDLINE
    hit |= a_hit
    stop = int(hit.argmax())
    if not hit[stop]:
        return Verdict.UNDECIDED, end, means, tolerances
    verdict = Verdict.A_IS_BETTER if a_hit[stop] else Verdict.A_PRIME_IS_BETTER
    return verdict, n + stop + 1, means[:stop + 1], tolerances[:stop + 1]

