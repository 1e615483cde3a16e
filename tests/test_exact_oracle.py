"""The exact stopping-rule oracle against facts that do not depend on it."""
import math

import numpy as np
import pytest

from exact_oracle import cell_expectation, majority_tail, stopping_law
from helpers import min_n_for_decision


def brute_force(q, delta, n_requests):
    """P(decided), P(first model wins), E[tau | decided] by enumerating every
    label sequence of length n_requests."""
    seqs = (np.arange(2**n_requests)[:, None] >> np.arange(n_requests)) & 1
    ns = np.arange(1, n_requests + 1)
    means = seqs.cumsum(axis=1) / ns
    t = np.sqrt(-np.log(delta) / (2 * ns))
    first = means - t > 0.5
    hit = first | (means + t < 0.5)
    ones = seqs.sum(axis=1)
    weight = q**ones * (1 - q) ** (n_requests - ones)
    decided = hit.any(axis=1)
    stop = hit.argmax(axis=1)
    p_decided = weight[decided].sum()
    p_first = weight[decided & first[np.arange(len(stop)), stop]].sum()
    mean_tau = (weight[decided] * (stop[decided] + 1)).sum() / p_decided
    return p_decided, p_first, mean_tau


class TestStoppingLaw:
    @pytest.mark.parametrize("delta, floor", [(0.001, 14), (0.01, 10), (0.05, 6)])
    def test_certain_labels_decide_at_the_decision_floor(self, delta, floor):
        law = stopping_law([1.0, 0.0], delta, 60)
        assert min_n_for_decision(delta) == floor
        assert np.array_equal(law.p_decided, [1.0, 1.0])
        assert np.array_equal(law.p_first_wins, [1.0, 0.0])
        assert np.array_equal(law.mean_tau, [floor, floor])

    @pytest.mark.parametrize("delta", [0.2, 0.05, 0.001])
    def test_matches_enumeration_of_all_label_sequences(self, delta):
        qs = (0.1, 0.35, 0.5, 0.62, 0.9)
        law = stopping_law(qs, delta, 16)
        for i, q in enumerate(qs):
            p_decided, p_first, mean_tau = brute_force(q, delta, 16)
            assert law.p_decided[i] == pytest.approx(p_decided, rel=1e-12, abs=1e-15)
            assert law.p_first_wins[i] == pytest.approx(p_first, rel=1e-12, abs=1e-15)
            if p_decided > 0:
                assert law.mean_tau[i] == pytest.approx(mean_tau, rel=1e-12)
            else:
                assert math.isnan(law.mean_tau[i])

    @pytest.mark.parametrize("delta", [0.05, 0.001])
    def test_fair_labels_favour_neither_model(self, delta):
        law = stopping_law(0.5, delta, 3000)
        assert 0.0 < law.p_decided[0] < 1.0
        assert law.p_first_wins[0] == pytest.approx(law.p_decided[0] / 2, rel=1e-12)

    def test_mirrored_label_probabilities_mirror_the_verdict(self):
        law = stopping_law([0.56, 0.44], 0.001, 2000)
        assert law.p_decided[0] == pytest.approx(law.p_decided[1], rel=1e-12)
        assert law.mean_tau[0] == pytest.approx(law.mean_tau[1], rel=1e-12)
        assert law.p_first_wins[0] == pytest.approx(law.p_decided[1] - law.p_first_wins[1],
                                                    rel=1e-12)


class TestCellExpectation:
    def test_majority_tail_closed_forms(self):
        p = np.linspace(0.0, 1.0, 11)
        assert np.allclose(majority_tail(p, 1), p, rtol=0, atol=1e-15)
        assert np.allclose(majority_tail(p, 3), 3 * p**2 - 2 * p**3, rtol=0, atol=1e-15)

    def test_fixed_worker_equals_one_worker_in_a_uniform_pool(self):
        difficulties = np.linspace(0.0, 0.2, 50)
        caps = np.full(7, 0.9)
        fixed = cell_expectation("fixed-worker", difficulties, caps, 0.01, 400)
        one = cell_expectation("one-worker", difficulties, caps, 0.01, 400)
        assert fixed.p_decided == pytest.approx(one.p_decided, rel=1e-12)
        assert fixed.mean_effort == pytest.approx(one.mean_effort, rel=1e-12)

    def test_effort_scales_with_labels_per_request(self):
        difficulties = np.full(10, 0.3)
        caps = np.full(5, 1.0)
        p = 0.65
        law = stopping_law(majority_tail(p, 3), 0.01, 300)
        n3 = cell_expectation("n-workers:3", difficulties, caps, 0.01, 300)
        max3 = cell_expectation("max-three", difficulties, caps, 0.01, 300)
        assert n3.mean_effort == pytest.approx(3 * law.mean_tau[0], rel=1e-12)
        assert max3.mean_effort == pytest.approx((2 + 2 * p * (1 - p)) * law.mean_tau[0],
                                                 rel=1e-12)
