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

The vectorised scan (``first_crossing``) tests the running count of
first-model picks against integer thresholds that ``hoeffding_band``
derives once per band; they give the same verdict as the float test above
at every n and count.
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


@dataclass(frozen=True)
class Band:
    """The Hoeffding band over n = 1..n_max labels, element n - 1 for n.

    ``tolerances`` holds t for each n, the same floats as
    ``hoeffding_tolerance(delta, n)``. ``hi`` and ``lo`` hold the A-counts
    at which n labels decide: a count c gives ``update``'s verdict for A
    exactly when c >= hi[n - 1], that is when the float test
    c / n - t > 0.5 holds, and for A' exactly when c <= lo[n - 1], when
    c / n + t < 0.5 holds. hi is n + 1 where no count decides for A, lo is
    -1 where none decides for A'.
    """

    tolerances: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def hoeffding_band(delta: float, n_max: int) -> Band:
    """The band for n = 1..n_max labels at failure probability ``delta``.

    Computed once per (delta, request supply) and sliced by ``first_crossing``
    block by block.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    tolerances = np.sqrt(-math.log(delta) / (2.0 * ns))

    def for_a(counts):
        return counts / ns - tolerances > MIDLINE

    def for_a_prime(counts):
        return counts / ns + tolerances < MIDLINE

    # Each float test is monotone in the count, since rounding is, so each
    # threshold is one integer per n. n (0.5 -+ t) estimates it, but misses
    # by a count where t is a whole number of half counts (delta = exp(-2)
    # at n = 4); step each estimate by one until it sits on its threshold.
    hi = np.clip(np.ceil(ns * (MIDLINE + tolerances)), 1, ns + 1).astype(np.int64)
    lo = np.clip(np.floor(ns * (MIDLINE - tolerances)), -1, ns).astype(np.int64)
    while True:
        hi_up = (hi <= ns) & ~for_a(hi)
        hi_down = for_a(hi - 1)
        lo_up = for_a_prime(lo + 1)
        lo_down = (lo >= 0) & ~for_a_prime(lo)
        if not (hi_up.any() or hi_down.any() or lo_up.any() or lo_down.any()):
            return Band(tolerances=tolerances, lo=lo, hi=hi)
        hi += hi_up
        hi -= hi_down
        lo += lo_up
        lo -= lo_down


def first_crossing(finals, band: Band, n: int = 0,
                   count: int = 0) -> tuple[Verdict, int, np.ndarray]:
    """Scan a stream of final labels for the first n whose band clears 0.5.

    Vectorised form of folding the labels through ``update`` one at a time
    and stopping at the first verdict: the running A-count is tested
    against the band's integer thresholds. ``band`` covers at least
    n + len(finals) labels. ``n`` and ``count`` are the labels and
    first-model picks already seen before this stream, so a stream can be
    scanned block by block. Returns the verdict, the running n it came at
    (the end of the stream when undecided), and the running A-counts of
    this stream up to that n; the mean at running n is its count / n.
    """
    counts = np.add.accumulate(finals, dtype=np.int64)
    if count:
        counts += count
    end = n + counts.size
    hi = band.hi[n:end]
    hit = counts >= hi
    hit |= counts <= band.lo[n:end]
    stop = int(hit.argmax())
    if not hit[stop]:
        return Verdict.UNDECIDED, end, counts
    verdict = Verdict.A_IS_BETTER if counts[stop] >= hi[stop] else Verdict.A_PRIME_IS_BETTER
    return verdict, n + stop + 1, counts[:stop + 1]
