import math
import random
import statistics

import numpy as np
import pytest

from twochoice.eval_model import (
    RequestSet,
    WorkerPool,
    sample_capabilities,
    sample_difficulties,
)
from twochoice.simulator import final_law
from twochoice.strategies import Strategy


def selection_probability(c, d):
    """P(first model's item is picked) at capability c and difficulty d:
    row 0 of one-worker's final_law."""
    return final_law(Strategy.from_name("one-worker"), np.atleast_1d(np.float64(d)), c)[0]


class TestSampleCapabilities:
    def test_within_configured_interval(self):
        pool = sample_capabilities(0.8, 1.0, 100, np.random.default_rng(7))
        assert pool.pool_size == 100
        assert np.all(pool.capabilities >= 0.8)
        assert np.all(pool.capabilities <= 1.0)

    def test_degenerate_interval(self):
        pool = sample_capabilities(0.5, 0.5, 3, np.random.default_rng(1))
        assert pool.capabilities.tolist() == [0.5, 0.5, 0.5]

    def test_law_of_large_numbers(self):
        # cross-checked against the stdlib uniform sampler as an independent oracle
        pool = sample_capabilities(0.0, 1.0, 10**5, np.random.default_rng(42))
        oracle = random.Random(42)
        oracle_mean = statistics.fmean(oracle.uniform(0.0, 1.0) for _ in range(10**5))
        assert abs(pool.capabilities.mean() - 0.5) < 0.01
        assert abs(oracle_mean - 0.5) < 0.01

    def test_deterministic_under_seed(self):
        a = sample_capabilities(0.8, 1.0, 50, np.random.default_rng(11))
        b = sample_capabilities(0.8, 1.0, 50, np.random.default_rng(11))
        assert np.array_equal(a.capabilities, b.capabilities)

    @pytest.mark.parametrize("lo,hi,size", [(-0.1, 0.5, 3), (0.5, 1.1, 3), (0.7, 0.6, 3), (0.5, 0.9, 0)])
    def test_invalid_parameters(self, lo, hi, size):
        with pytest.raises(ValueError):
            sample_capabilities(lo, hi, size, np.random.default_rng(0))


class TestSampleDifficulties:
    def test_within_bounds_and_mean(self):
        reqs = sample_difficulties(0.25, 0.1, 3500, np.random.default_rng(3))
        assert reqs.size == 3500
        assert np.all(reqs.difficulties >= -1.0)
        assert np.all(reqs.difficulties <= 1.0)
        assert abs(reqs.difficulties.mean() - 0.25) < 0.01

    def test_zero_variance(self):
        reqs = sample_difficulties(1.0, 0.0, 5, np.random.default_rng(0))
        assert reqs.difficulties.tolist() == [1.0] * 5

    def test_empirical_std(self):
        # truncation at +-1 is negligible for sigma=0.1 around 0; compare the
        # stdlib gaussian as an independent oracle for the same moment
        reqs = sample_difficulties(0.0, 0.1, 10**5, np.random.default_rng(9))
        oracle = random.Random(9)
        oracle_std = statistics.pstdev(oracle.gauss(0.0, 0.1) for _ in range(10**5))
        assert abs(reqs.difficulties.std() - 0.1) < 0.005
        assert abs(oracle_std - 0.1) < 0.005

    def test_rejection_keeps_everything_in_range(self):
        reqs = sample_difficulties(0.9, 0.5, 2000, np.random.default_rng(5))
        assert np.all(reqs.difficulties <= 1.0)
        assert np.all(reqs.difficulties >= -1.0)

    def test_deterministic_under_seed(self):
        a = sample_difficulties(0.125, 0.1, 200, np.random.default_rng(21))
        b = sample_difficulties(0.125, 0.1, 200, np.random.default_rng(21))
        assert np.array_equal(a.difficulties, b.difficulties)

    @pytest.mark.parametrize("mu,sigma,n", [(1.5, 0.1, 5), (-1.2, 0.1, 5), (0.0, -0.1, 5), (0.0, 0.1, 0)])
    def test_invalid_parameters(self, mu, sigma, n):
        with pytest.raises(ValueError):
            sample_difficulties(mu, sigma, n, np.random.default_rng(0))

    @pytest.mark.parametrize("mu,sigma,field", [
        (0.0, math.nan, "sigma"), (0.0, math.inf, "sigma"), (math.nan, 0.1, "mu"),
        (math.inf, 0.1, "mu")])
    def test_non_finite_parameters_are_rejected_before_any_draw(self, mu, sigma, field):
        # a NaN or infinite sigma rejects every normal draw, so sampling
        # would never end; a generator that refuses to draw turns a missed
        # check into a failure instead of a hang
        class NoDraws(np.random.Generator):
            def normal(self, *args, **kwargs):
                raise AssertionError("drew a difficulty before validating the parameters")

        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            sample_difficulties(mu, sigma, 5, NoDraws(np.random.PCG64(0)))


class TestSelectionProbability:
    def test_certain_pick(self):
        assert selection_probability(1.0, 1.0).tolist() == [1.0]

    @pytest.mark.parametrize("d", [-1.0, -0.3, 0.0, 0.4, 1.0])
    def test_incapable_worker_is_a_coin_flip(self, d):
        assert selection_probability(0.0, d).tolist() == [0.5]

    def test_direct_evaluation(self):
        assert selection_probability(0.9, 0.25)[0] == pytest.approx(0.6125, abs=1e-15)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            c = rng.uniform(0, 1)
            d = rng.uniform(-1, 1)
            total = selection_probability(c, d) + selection_probability(c, -d)
            assert total[0] == pytest.approx(1.0, abs=2**-50)

    def test_monotone_in_difficulty(self):
        for c in (0.0, 0.3, 0.8, 1.0):
            probs = selection_probability(c, np.linspace(-1, 1, 41))
            assert (np.diff(probs) >= 0).all()


class TestTypes:
    def test_pool_is_immutable(self):
        pool = sample_capabilities(0.8, 1.0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            pool.capabilities[0] = 0.5

    def test_requests_are_immutable(self):
        reqs = sample_difficulties(0.1, 0.1, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            reqs.difficulties[0] = 0.0

    @pytest.mark.parametrize("caps", [[0.5, 1.2], [-0.1, 0.5], [0.5, math.nan]])
    def test_pool_rejects_out_of_range(self, caps):
        with pytest.raises(ValueError, match=r"all capabilities must lie in \[0, 1\]"):
            WorkerPool(capabilities=np.array(caps))

    @pytest.mark.parametrize("diffs", [[0.0, -1.5], [1.5, 0.0], [math.nan, 0.0]])
    def test_requests_reject_out_of_range(self, diffs):
        with pytest.raises(ValueError, match=r"all difficulties must lie in \[-1, 1\]"):
            RequestSet(difficulties=np.array(diffs))

    @pytest.mark.parametrize("record,field", [(WorkerPool, "capabilities"),
                                              (RequestSet, "difficulties")])
    def test_record_keeps_its_own_copy(self, record, field):
        # the caller's array stays writable, and writing to it after the
        # record is built does not reach the record
        values = np.array([0.25, 0.5])
        built = record(values)
        assert values.flags.writeable
        values[0] = 0.75
        assert getattr(built, field).tolist() == [0.25, 0.5]
