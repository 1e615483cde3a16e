import math

import numpy as np
import pytest

from twochoice.decision import (
    DecisionState,
    Verdict,
    first_crossing,
    hoeffding_band,
    hoeffding_tolerance,
    update,
)

from helpers import min_n_for_decision


class TestHoeffdingTolerance:
    # frozen against a 40-digit mpmath evaluation of sqrt(-ln(delta) / (2n))
    def test_known_values(self):
        assert hoeffding_tolerance(0.001, 1000) == pytest.approx(0.05876970001191999, abs=1e-15)
        assert hoeffding_tolerance(0.001, 500) == pytest.approx(0.08311290681345550, abs=1e-15)
        assert hoeffding_tolerance(math.exp(-2), 1) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing_in_n(self):
        values = [hoeffding_tolerance(0.001, n) for n in range(1, 400)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_delta(self):
        deltas = [1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9]
        values = [hoeffding_tolerance(d, 100) for d in deltas]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("delta,n", [(0.0, 10), (1.0, 10), (-0.5, 10), (0.001, 0)])
    def test_invalid_parameters(self, delta, n):
        with pytest.raises(ValueError):
            hoeffding_tolerance(delta, n)


class TestHoeffdingBand:
    def test_each_element_is_the_scalar_tolerance(self):
        for delta in (0.05, 0.001, 1e-6):
            band = hoeffding_band(delta, 5000)
            assert band.tolist() == [hoeffding_tolerance(delta, n) for n in range(1, 5001)]

    def test_a_slice_scans_like_the_whole_stream(self):
        # a stream scanned in two pieces, the second resumed from the
        # first's n and count, reads the same band as one scan
        labels = (np.random.default_rng(3).random(3000) < 0.53).astype(np.int8)
        band = hoeffding_band(0.01, 3000)
        whole = first_crossing(labels, band)
        head = first_crossing(labels[:1000], band)
        assert head[0] is Verdict.UNDECIDED
        tail = first_crossing(labels[1000:], band, 1000, int(labels[:1000].sum()))
        assert tail[:2] == whole[:2]
        assert np.concatenate([head[2], tail[2]]).tolist() == whole[2].tolist()

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan])
    def test_invalid_delta(self, delta):
        with pytest.raises(ValueError):
            hoeffding_band(delta, 10)


class TestUpdate:
    def test_crossing_decides_for_a(self):
        state = DecisionState(n=999, count_a=560, mean=560 / 999,
                              tolerance=hoeffding_tolerance(0.001, 999))
        state = update(state, 1, 0.001)
        assert state.n == 1000
        assert state.mean == pytest.approx(0.561)
        assert state.tolerance == pytest.approx(0.0587697, abs=1e-7)
        assert state.verdict is Verdict.A_IS_BETTER

    def test_short_of_the_line_stays_undecided(self):
        state = DecisionState(n=999, count_a=550, mean=550 / 999,
                              tolerance=hoeffding_tolerance(0.001, 999))
        state = update(state, 0, 0.001)
        assert state.n == 1000
        assert state.mean == pytest.approx(0.550)
        assert state.verdict is Verdict.UNDECIDED

    def test_first_label_cannot_decide(self):
        state = update(DecisionState(), 1, 0.001)
        assert state.n == 1
        assert state.mean == 1.0
        assert state.tolerance > 0.5
        assert state.verdict is Verdict.UNDECIDED

    def test_bounds_exposed_for_tracing(self):
        state = update(DecisionState(), 1, 0.01)
        assert state.lower == state.mean - state.tolerance
        assert state.upper == state.mean + state.tolerance

    def test_rejects_non_binary_label(self):
        with pytest.raises(ValueError):
            update(DecisionState(), 2, 0.01)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_rejects_delta_outside_the_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta must lie in"):
            update(DecisionState(), 1, delta)


class TestMinNForDecision:
    @pytest.mark.parametrize("delta,expected", [(0.001, 14), (0.01, 10), (0.0001, 19)])
    def test_known_values(self, delta, expected):
        assert min_n_for_decision(delta) == expected

    def test_exact_integer_boundary(self):
        # -2 ln(e^-2) = 4 exactly: strict inequality pushes to n = 5
        assert min_n_for_decision(math.exp(-2)) == 5

    def test_is_minimal(self):
        for delta in (0.2, 0.05, 0.003, 1e-5, 1e-8):
            n = min_n_for_decision(delta)
            assert hoeffding_tolerance(delta, n) < 0.5
            if n > 1:
                assert hoeffding_tolerance(delta, n - 1) >= 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            min_n_for_decision(0.0)


def _run_stream(labels, delta):
    state = DecisionState()
    states = []
    for label in labels:
        state = update(state, int(label), delta)
        states.append(state)
    return states


class TestStreamProperties:
    def test_no_decision_before_min_n(self):
        rng = np.random.default_rng(17)
        for delta in (0.01, 0.001):
            floor = min_n_for_decision(delta)
            for _ in range(100):
                labels = rng.integers(0, 2, size=floor - 1)
                assert all(s.verdict is Verdict.UNDECIDED for s in _run_stream(labels, delta))

    def test_unanimous_stream_decides_exactly_at_min_n(self):
        for delta in (0.01, 0.001, 0.0001):
            floor = min_n_for_decision(delta)
            states = _run_stream([1] * floor, delta)
            assert all(s.verdict is Verdict.UNDECIDED for s in states[:-1])
            assert states[-1].verdict is Verdict.A_IS_BETTER

    def test_complement_stream_mirrors_verdicts(self):
        rng = np.random.default_rng(23)
        mirror = {Verdict.A_IS_BETTER: Verdict.A_PRIME_IS_BETTER,
                  Verdict.A_PRIME_IS_BETTER: Verdict.A_IS_BETTER,
                  Verdict.UNDECIDED: Verdict.UNDECIDED}
        for _ in range(50):
            labels = (rng.random(120) < 0.8).astype(int)
            forward = _run_stream(labels, 0.01)
            flipped = _run_stream(1 - labels, 0.01)
            for a, b in zip(forward, flipped):
                assert mirror[a.verdict] is b.verdict

    def test_verdict_monotone_in_evidence_at_fixed_n(self):
        def state_at(n, count):
            label = int(count > 0)
            prev = DecisionState(n=n - 1, count_a=count - label)
            return update(prev, label, 0.01)

        for n in (20, 57, 200):
            decided = [state_at(n, count).verdict is Verdict.A_IS_BETTER
                       for count in range(n + 1)]
            # once a count is enough for the verdict, every larger count is too
            first = decided.index(True) if True in decided else len(decided)
            assert all(decided[first:])
            assert not any(decided[:first])


class TestFirstCrossing:
    """The vectorised scan against the scalar update path as reference."""

    def test_matches_scalar_updates(self):
        rng = np.random.default_rng(29)
        verdicts = set()
        for _ in range(300):
            delta = float(rng.choice([0.05, 0.01, 0.001]))
            labels = (rng.random(int(rng.integers(1, 150))) < rng.uniform(0.2, 0.8)).astype(np.int8)
            band = hoeffding_band(delta, len(labels))
            verdict, n, means = first_crossing(labels, band)
            states = _run_stream(labels, delta)
            stop = next((i for i, s in enumerate(states) if s.verdict is not Verdict.UNDECIDED),
                        len(states) - 1)
            assert verdict is states[stop].verdict
            assert n == stop + 1
            assert means.tolist() == [s.mean for s in states[:n]]
            assert (means - band[:n]).tolist() == [s.lower for s in states[:n]]
            assert (means + band[:n]).tolist() == [s.upper for s in states[:n]]
            verdicts.add(verdict)
        assert verdicts == set(Verdict)

    def test_unanimous_stream_stops_at_min_n(self):
        for delta in (0.01, 0.001, 0.0001):
            floor = min_n_for_decision(delta)
            band = hoeffding_band(delta, 100)
            assert first_crossing(np.ones(100, np.int8), band)[:2] == (Verdict.A_IS_BETTER, floor)
            assert first_crossing(np.zeros(100, np.int8), band)[:2] == \
                (Verdict.A_PRIME_IS_BETTER, floor)
