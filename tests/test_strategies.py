import math

import numpy as np
import pytest

from twochoice.eval_model import sample_capabilities
from twochoice.rng import distinct_columns
from twochoice.simulator import draw_votes
from twochoice.strategies import Strategy, StrategyKind, majority_vote

from test_acceptance import FALSE_ALARM_RATE


def pool_of(value, size):
    return sample_capabilities(value, value, size, seed=0)


def apply(name_or_strategy, difficulties, pool, seed):
    """Votes, final labels and effort of a strategy over a run of requests."""
    strategy = name_or_strategy
    if isinstance(strategy, str):
        strategy = Strategy.from_name(strategy)
    votes = draw_votes(strategy, np.asarray(difficulties, dtype=np.float64),
                       pool.capabilities, np.random.default_rng(seed))
    return votes, majority_vote(votes), strategy.effort(votes)


class TestMajorityVote:
    def test_two_of_three(self):
        assert majority_vote([[1, 1, 0]]).tolist() == [1]

    def test_unanimity(self):
        assert majority_vote([[0, 0, 0, 0, 0]]).tolist() == [0]

    def test_four_against_three(self):
        votes = [1, 0, 1, 0, 1, 0, 1]
        assert majority_vote([votes]).tolist() == [1]
        assert sum(votes) > len(votes) // 2  # brute-force count agrees

    def test_rows_are_independent(self):
        rng = np.random.default_rng(5)
        votes = rng.integers(0, 2, size=(200, 5))
        expected = [int(sum(row) > 2) for row in votes.tolist()]
        assert majority_vote(votes).tolist() == expected

    @pytest.mark.parametrize("votes", [np.zeros((1, 0)), [[1, 0]], [[1, 1, 0, 0]]])
    def test_rejects_even_or_empty(self, votes):
        with pytest.raises(ValueError):
            majority_vote(votes)


class TestMaxThreeFinal:
    """Max-three decides on two agreeing votes; only a split calls a third."""

    def test_agreement_skips_the_tiebreaker(self):
        strategy = Strategy.from_name("max-three")
        for value in (0, 1):
            for third in (0, 1):
                row = [[value, value, third]]
                assert majority_vote(row).tolist() == [value]
                assert strategy.effort(row).tolist() == [2]
        # certain picks always agree: the third column is never drawn
        votes, finals, effort = apply(strategy, [1.0] * 50 + [-1.0] * 50, pool_of(1.0, 10), 0)
        assert finals.tolist() == [1] * 50 + [0] * 50
        assert votes[:, 2].tolist() == [0] * 100
        assert effort.tolist() == [2] * 100

    def test_disagreement_invokes_supplier_once(self):
        strategy = Strategy.from_name("max-three")
        for third in (0, 1):
            for row in ([[1, 0, third]], [[0, 1, third]]):
                assert majority_vote(row).tolist() == [third]
                assert strategy.effort(row).tolist() == [3]
        # one third vote per split row, drawn in row order after the first
        # two columns, each at the pool's mean capability
        pool = sample_capabilities(0.5, 1.0, 10, seed=1)
        difficulties = np.linspace(-0.3, 0.3, 400)
        votes, _, _ = apply(strategy, difficulties, pool, 21)
        twin = np.random.default_rng(21)
        prob = (pool.capabilities.mean() * difficulties + 1) / 2
        first_two = (twin.random((2, 400)) < prob).T
        split = first_two[:, 0] != first_two[:, 1]
        third = twin.random(int(split.sum())) < prob[split]
        assert np.array_equal(votes[:, :2], first_two)
        assert np.array_equal(votes[split, 2], third)
        assert not votes[~split, 2].any()


class TestStrategyType:
    def test_names_round_trip(self):
        for name in ("fixed-worker", "one-worker", "max-three", "n-workers:5"):
            assert Strategy.from_name(name).name == name

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="N must be odd"):
            Strategy.from_name("n-workers:4")

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            Strategy.from_name("n-workers:1")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.from_name("two-workers")

    def test_n_workers_only_for_majority(self):
        with pytest.raises(ValueError):
            Strategy(kind=StrategyKind.ONE_WORKER, n_workers=3)

    def test_final_label_checks_effort(self):
        # effort is only defined for a row of exactly votes_needed() votes
        with pytest.raises(ValueError, match="vote matrix"):
            Strategy.from_name("n-workers:3").effort([[1]])
        with pytest.raises(ValueError, match="vote matrix"):
            Strategy.from_name("one-worker").effort([1, 0])


class TestApplyStrategy:
    """A strategy applied end to end: simulated votes, row majority, effort."""

    def test_one_worker_deterministic_corner(self):
        votes, finals, effort = apply("one-worker", [1.0], pool_of(1.0, 10), 3)
        assert finals.tolist() == [1]
        assert effort.tolist() == [1]

    def test_majority_unanimous_for_a_prime(self):
        votes, finals, effort = apply("n-workers:5", [-1.0], pool_of(1.0, 10), 3)
        assert finals.tolist() == [0]
        assert effort.tolist() == [5]
        assert votes.tolist() == [[0, 0, 0, 0, 0]]

    def test_effort_accounting_over_random_draws(self):
        rng = np.random.default_rng(8)
        pool = sample_capabilities(0.6, 1.0, 30, seed=1)
        difficulties = rng.uniform(-1, 1, size=300)
        for name in ("one-worker", "fixed-worker"):
            votes, finals, effort = apply(name, difficulties, pool, rng)
            assert votes.shape == (300, 1)
            assert np.array_equal(finals, votes[:, 0])
            assert (effort == 1).all()
        votes, finals, effort = apply("n-workers:7", difficulties, pool, rng)
        assert (effort == 7).all()
        assert finals.tolist() == [int(sum(row) > 3) for row in votes.tolist()]
        votes, finals, effort = apply("max-three", difficulties, pool, rng)
        assert set(effort.tolist()) <= {2, 3}
        assert np.array_equal(effort == 2, votes[:, 0] == votes[:, 1])
        assert np.array_equal(finals, np.where(effort == 2, votes[:, 0], votes[:, 2]))
        # the effort spent up to a stopping point is the prefix sum
        for n in (0, 1, 14, 299, 300):
            assert Strategy.from_name("max-three").total_effort(votes, n) == effort[:n].sum()

    def test_max_three_disagreement_rate_at_coin_flip(self):
        # at P(a)=0.5 the two first voters disagree with probability 2*0.5*0.5
        trials = 10**5
        _, _, effort = apply("max-three", np.zeros(trials), pool_of(1.0, 10), 12)
        assert abs((effort == 3).mean() - 0.5) < 0.01

    def test_majority_of_three_matches_binomial_closed_form(self):
        # P(a) = 0.6125 via c=1, d=0.225; closed form 3 p^2 (1-p) + p^3
        p = 0.6125
        expected = 3 * p**2 * (1 - p) + p**3
        assert expected == pytest.approx(0.66590234375, abs=1e-15)
        trials = 10**5
        _, finals, _ = apply("n-workers:3", np.full(trials, 0.225), pool_of(1.0, 10), 40)
        tolerance = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(finals.mean() - expected) < tolerance

    def test_pool_never_mutated(self):
        pool = sample_capabilities(0.8, 1.0, 10, seed=2)
        before = pool.capabilities.copy()
        for name in ("one-worker", "fixed-worker", "max-three", "n-workers:3"):
            apply(name, np.full(50, 0.3), pool, 0)
        assert np.array_equal(pool.capabilities, before)

    def test_distinct_voters_needs_a_big_enough_pool(self):
        strategy = Strategy(kind=StrategyKind.N_WORKERS_MAJORITY, n_workers=5, distinct_voters=True)
        with pytest.raises(ValueError, match="distinct"):
            apply(strategy, [0.5], pool_of(1.0, 3), 0)

    def test_distinct_voters_smoke(self):
        strategy = Strategy(kind=StrategyKind.N_WORKERS_MAJORITY, n_workers=5, distinct_voters=True)
        votes, finals, effort = apply(strategy, [1.0], pool_of(1.0, 5), 0)
        assert finals.tolist() == [1]
        assert effort.tolist() == [5]
        # five distinct voters out of a pool of five: every worker once
        picks = distinct_columns(np.random.default_rng(0), np.full(20, 5), 5)
        assert all(sorted(row) == [0, 1, 2, 3, 4] for row in picks.tolist())


def binomial_p_value(k, n, p):
    """Two-sided p-value of k successes in n Binomial(n, p) trials: twice
    the smaller tail, summed from log pmf terms so that no term underflows
    at large n."""
    j = np.arange(n)
    log_ratio = np.log((n - j) / (j + 1)) + math.log(p / (1 - p))
    pmf = np.exp(n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(log_ratio))))
    return min(1.0, 2 * min(pmf[:k + 1].sum(), pmf[k:].sum()))


def two_stage_votes(capabilities, difficulty, shape, rng):
    """Reference sampler: a uniform voter from the pool for every vote, then
    a Bernoulli vote at that voter's own capability."""
    voters = rng.integers(0, capabilities.size, size=shape)
    return (rng.random(shape) < (capabilities[voters] * difficulty + 1) / 2).astype(np.int8)


class TestVoterFreeVotes:
    """Votes drawn at the pool's mean capability, without voter indices,
    against the exact rates and a two-stage voter-then-vote sampler."""

    TRIALS = 100_000
    D = 0.6
    POOLS = {"zero-one": np.array([0.0, 1.0]),
             "uniform": sample_capabilities(0.5, 1.0, 7, seed=4).capabilities}
    # 3 rates x 2 pools x 2 samplers share the family-wise rate
    CHECKS = 12

    def rates(self, votes_of):
        """One-worker's pick rate, the n-workers:3 majority rate and
        max-three's disagreement rate from a vote source."""
        one = votes_of("one-worker", 1)[:, 0].sum()
        majority = majority_vote(votes_of("n-workers:3", 3)).sum()
        max_three = votes_of("max-three", 3)
        return one, majority, (max_three[:, 0] != max_three[:, 1]).sum()

    @pytest.mark.parametrize("pool_name", sorted(POOLS))
    @pytest.mark.parametrize("sampler", ["draw_votes", "two-stage"])
    def test_rates_match_exact_values(self, pool_name, sampler):
        capabilities = self.POOLS[pool_name]
        p = (capabilities.mean() * self.D + 1) / 2
        exact = (p, 3 * p**2 * (1 - p) + p**3, 2 * p * (1 - p))
        rng = np.random.default_rng(len(pool_name) + len(sampler))
        difficulties = np.full(self.TRIALS, self.D)

        def votes_of(name, k):
            if sampler == "two-stage":
                return two_stage_votes(capabilities, self.D, (self.TRIALS, k), rng)
            return draw_votes(Strategy.from_name(name), difficulties, capabilities, rng)

        for count, rate in zip(self.rates(votes_of), exact):
            assert binomial_p_value(int(count), self.TRIALS, rate) > FALSE_ALARM_RATE / self.CHECKS

    def test_fixed_worker_votes_at_its_own_capability(self):
        # a capability-1 worker always picks A at d = 1; the pool's mean
        # capability would pick it only 3 times in 4
        votes = draw_votes(Strategy.from_name("fixed-worker"), np.full(1000, 1.0),
                           np.array([0.0, 1.0]), np.random.default_rng(0), worker=1)
        assert votes.all()

    @pytest.mark.parametrize("name", ["n-workers:3", "max-three"])
    def test_distinct_voters_never_repeat_a_voter(self, name):
        # two workers always pick A and one flips coins: three distinct
        # voters always include both sure ones, so every final label is A,
        # which a repeated coin-flipper would break on some row
        base = Strategy.from_name(name)
        strategy = Strategy(kind=base.kind, n_workers=base.n_workers, distinct_voters=True)
        capabilities = np.array([1.0, 0.0, 1.0])
        difficulties = np.full(20_000, 1.0)
        votes = draw_votes(strategy, difficulties, capabilities, np.random.default_rng(6))
        assert majority_vote(votes).all()
        # the voters are distinct_columns' picks, drawn before the votes
        twin = np.random.default_rng(6)
        voters = distinct_columns(twin, np.full(difficulties.size, 3), 3)
        assert all(len(set(row)) == 3 for row in voters.tolist())
        upfront = 2 if name == "max-three" else 3
        first = twin.random((upfront, difficulties.size)).T
        assert np.array_equal(votes[:, :upfront],
                              first < (capabilities[voters[:, :upfront]] + 1) / 2)


class TestDistinctColumns:
    def test_never_picks_past_a_rows_count(self):
        counts = np.array([3, 11, 5, 3, 7])
        picks = distinct_columns(np.random.default_rng(2), np.tile(counts, 400), 3)
        assert (picks < np.tile(counts, 400)[:, None]).all()
        assert all(len(set(row)) == 3 for row in picks.tolist())

    def test_uniform_over_a_rows_columns(self):
        # rows of 4 votes padded to 7 columns: each real column comes first
        # with probability 1/4
        trials = 40_000
        counts = np.where(np.arange(2 * trials) % 2, 4, 7)
        picks = distinct_columns(np.random.default_rng(9), counts, 1)[counts == 4, 0]
        freq = np.bincount(picks, minlength=7) / trials
        assert freq[4:].tolist() == [0, 0, 0]
        assert np.abs(freq[:4] - 0.25).max() < 4 * math.sqrt(0.25 * 0.75 / trials)

    def test_rejects_more_picks_than_the_shortest_row(self):
        with pytest.raises(ValueError, match="distinct"):
            distinct_columns(np.random.default_rng(0), np.array([5, 2, 5]), 3)
