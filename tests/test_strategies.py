import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from twochoice.eval_model import RequestSet, WorkerPool, sample_capabilities
from twochoice.replay import replay_law
from twochoice.rng import distinct_columns
from twochoice import simulator
from twochoice.simulator import ExperimentConfig, draw_finals, final_law, vote_law
from twochoice.strategies import Strategy, StrategyKind, majority_vote

from helpers import annotation_set, effort_of, lone_iteration, reference_worker
from test_acceptance import FALSE_ALARM_RATE, binomial_tails
from test_simulator import chi2_sf, enumerated_law


def finals_and_effort(strategy, law, rng):
    """``draw_finals``' final labels, and the labels each row spends: its
    labels_per_row, plus one on a row whose first two votes split."""
    finals, labels_per_row, splits = draw_finals(strategy, law, rng.random(law.shape[1]))
    effort = np.full(finals.size, labels_per_row)
    if splits is not None:
        effort += splits
    return finals, effort


def pool_of(value, size):
    return sample_capabilities(value, value, size, np.random.default_rng(0))


def apply(name_or_strategy, difficulties, pool, seed, distinct_voters=False):
    """Final labels and per-request effort of a strategy over a run of
    requests, drawn as the simulator draws them: from the law at k distinct
    voters per request under distinct_voters, else at the pool's mean
    capability."""
    strategy = name_or_strategy
    if isinstance(strategy, str):
        strategy = Strategy.from_name(strategy)
    difficulties = np.asarray(difficulties, dtype=np.float64)
    rng = np.random.default_rng(seed)
    capability = pool.capabilities.mean()
    k = strategy.votes_needed()
    if distinct_voters and k > 1:
        capability = pool.capabilities[distinct_columns(rng, difficulties.size,
                                                        pool.pool_size, k).T]
    return finals_and_effort(strategy, final_law(strategy, difficulties, capability), rng)


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
                assert effort_of(strategy, row).tolist() == [2]
        # certain picks always agree: no third vote is ever spent
        finals, effort = apply(strategy, [1.0] * 50 + [-1.0] * 50, pool_of(1.0, 10), 0)
        assert finals.tolist() == [1] * 50 + [0] * 50
        assert effort.tolist() == [2] * 100

    def test_disagreement_invokes_supplier_once(self):
        strategy = Strategy.from_name("max-three")
        for third in (0, 1):
            for row in ([[1, 0, third]], [[0, 1, third]]):
                assert majority_vote(row).tolist() == [third]
                assert effort_of(strategy, row).tolist() == [3]
        # one uniform per request at the pool's mean capability: the first
        # two votes agree on A below p^2 and split, calling the third vote
        # once, from there up to p^2 + 2p(1 - p); the split rows' final
        # label is A on the first p of that stretch
        pool = sample_capabilities(0.5, 1.0, 10, np.random.default_rng(1))
        difficulties = np.linspace(-0.3, 0.3, 400)
        finals, effort = apply(strategy, difficulties, pool, 21)
        u = np.random.default_rng(21).random(400)
        p = (pool.capabilities.mean() * difficulties + 1) / 2
        split = (p * p <= u) & (u < p * p + 2 * p * (1 - p))
        assert np.array_equal(effort, np.where(split, 3, 2))
        assert np.array_equal(finals, u < p * p + 2 * p * p * (1 - p))
        assert 0 < split.sum() < 400


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
            effort_of(Strategy.from_name("n-workers:3"), [[1]])
        with pytest.raises(ValueError, match="vote matrix"):
            effort_of(Strategy.from_name("one-worker"), [1, 0])


class TestApplyStrategy:
    """A strategy applied end to end: final labels and effort per request."""

    def test_one_worker_deterministic_corner(self):
        finals, effort = apply("one-worker", [1.0], pool_of(1.0, 10), 3)
        assert finals.tolist() == [1]
        assert effort.tolist() == [1]

    def test_majority_unanimous_for_a_prime(self):
        finals, effort = apply("n-workers:5", [-1.0], pool_of(1.0, 10), 3)
        assert finals.tolist() == [0]
        assert effort.tolist() == [5]

    def test_effort_accounting_over_random_draws(self):
        rng = np.random.default_rng(8)
        pool = sample_capabilities(0.6, 1.0, 30, np.random.default_rng(1))
        difficulties = rng.uniform(-1, 1, size=300)
        for name in ("one-worker", "fixed-worker"):
            finals, effort = apply(name, difficulties, pool, rng)
            assert finals.shape == (300,) and set(finals.tolist()) <= {0, 1}
            assert (effort == 1).all()
        finals, effort = apply("n-workers:7", difficulties, pool, rng)
        assert (effort == 7).all()
        finals, effort = apply("max-three", difficulties, pool, rng)
        assert set(effort.tolist()) == {2, 3}

    def test_max_three_disagreement_rate_at_coin_flip(self):
        # at P(a)=0.5 the two first voters disagree with probability 2*0.5*0.5
        trials = 10**5
        _, effort = apply("max-three", np.zeros(trials), pool_of(1.0, 10), 12)
        assert abs((effort == 3).mean() - 0.5) < 0.01

    def test_majority_of_three_matches_binomial_closed_form(self):
        # P(a) = 0.6125 via c=1, d=0.225; closed form 3 p^2 (1-p) + p^3
        p = 0.6125
        expected = 3 * p**2 * (1 - p) + p**3
        assert expected == pytest.approx(0.66590234375, abs=1e-15)
        trials = 10**5
        finals, _ = apply("n-workers:3", np.full(trials, 0.225), pool_of(1.0, 10), 40)
        tolerance = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(finals.mean() - expected) < tolerance

    def test_pool_never_mutated(self):
        pool = sample_capabilities(0.8, 1.0, 10, np.random.default_rng(2))
        before = pool.capabilities.copy()
        for name in ("one-worker", "fixed-worker", "max-three", "n-workers:3"):
            apply(name, np.full(50, 0.3), pool, 0)
        assert np.array_equal(pool.capabilities, before)

    def test_distinct_voters_needs_a_big_enough_pool(self):
        with pytest.raises(ValueError, match="distinct"):
            apply("n-workers:5", [0.5], pool_of(1.0, 3), 0, distinct_voters=True)

    def test_distinct_voters_smoke(self):
        finals, effort = apply("n-workers:5", [1.0], pool_of(1.0, 5), 0, distinct_voters=True)
        assert finals.tolist() == [1]
        assert effort.tolist() == [5]
        # five distinct voters out of a pool of five: every worker once
        picks = distinct_columns(np.random.default_rng(0), 20, 5, 5)
        assert all(sorted(row) == [0, 1, 2, 3, 4] for row in picks.tolist())


def binomial_p_value(k, n, p):
    """Two-sided p-value of k successes in n Binomial(n, p) trials: twice
    the smaller tail."""
    return min(1.0, 2 * min(binomial_tails(k, n, p)))


def majority_rate(p, k):
    """P(more than half of k Bernoulli(p) votes are 1), summed term by term."""
    return sum(math.comb(k, j) * p**j * (1 - p) ** (k - j) for j in range(k // 2 + 1, k + 1))


def two_stage_votes(capabilities, difficulty, shape, rng):
    """Reference sampler: a uniform voter from the pool for every vote, then
    a Bernoulli vote at that voter's own capability."""
    voters = rng.integers(0, capabilities.size, size=shape)
    return (rng.random(shape) < (capabilities[voters] * difficulty + 1) / 2).astype(np.int8)


class TestVoterFreeVotes:
    """Final labels and effort drawn from the closed-form law at the pool's
    mean capability, one uniform per request, against the exact rates and
    a two-stage sampler that draws a voter, then that voter's vote, for
    every vote."""

    TRIALS = 100_000
    D = 0.6
    POOLS = {"zero-one": np.array([0.0, 1.0]),
             "uniform": sample_capabilities(0.5, 1.0, 7, np.random.default_rng(4)).capabilities}
    # 6 rates x 2 pools x 2 samplers share the family-wise rate
    CHECKS = 24

    def rates(self, finals_of):
        """One-worker's pick rate, the n-workers:3/5/7 majority rates, and
        max-three's final-label and split (effort 3) rates, as counts."""
        one, _ = finals_of("one-worker")
        majorities = [finals_of(f"n-workers:{k}")[0].sum() for k in (3, 5, 7)]
        max_three, effort = finals_of("max-three")
        return [one.sum(), *majorities, max_three.sum(), (effort == 3).sum()]

    @pytest.mark.parametrize("pool_name", sorted(POOLS))
    @pytest.mark.parametrize("sampler", ["law", "two-stage"])
    def test_rates_match_exact_values(self, pool_name, sampler):
        capabilities = self.POOLS[pool_name]
        p = (capabilities.mean() * self.D + 1) / 2
        exact = [p, *(majority_rate(p, k) for k in (3, 5, 7)), majority_rate(p, 3),
                 2 * p * (1 - p)]
        rng = np.random.default_rng(len(pool_name) + len(sampler))
        difficulties = np.full(self.TRIALS, self.D)

        def finals_of(name):
            strategy = Strategy.from_name(name)
            if sampler == "law":
                law = final_law(strategy, difficulties, capabilities.mean())
                return finals_and_effort(strategy, law, rng)
            votes = two_stage_votes(capabilities, self.D, (self.TRIALS, strategy.votes_needed()),
                                    rng)
            return majority_vote(votes), effort_of(strategy, votes)

        for count, rate in zip(self.rates(finals_of), exact):
            assert binomial_p_value(int(count), self.TRIALS, rate) > FALSE_ALARM_RATE / self.CHECKS

    def test_max_three_outcomes_match_their_law(self):
        # the four (final, effort) outcomes: agree on A, split then A,
        # split then A', agree on A'
        p = (self.POOLS["uniform"].mean() * self.D + 1) / 2
        expected = np.array([p * p, 2 * p * p * (1 - p), 2 * p * (1 - p) ** 2, (1 - p) ** 2])
        strategy = Strategy.from_name("max-three")
        law = final_law(strategy, np.full(self.TRIALS, self.D), self.POOLS["uniform"].mean())
        finals, labels_per_row, splits = draw_finals(
            strategy, law, np.random.default_rng(31).random(self.TRIALS))
        assert labels_per_row == 2 and splits.dtype == bool
        effort = labels_per_row + splits
        observed = np.array([((finals == final) & (effort == spent)).sum()
                             for final, spent in ((1, 2), (1, 3), (0, 3), (0, 2))])
        assert observed.sum() == self.TRIALS
        statistic = float((((observed - self.TRIALS * expected) ** 2)
                           / (self.TRIALS * expected)).sum())
        assert chi2_sf(statistic, 3) > FALSE_ALARM_RATE

    def test_fixed_worker_votes_at_its_own_capability(self, monkeypatch):
        # a capability-1 worker always picks A at d = 1; the pool's mean
        # capability would pick it only 3 times in 4
        config = ExperimentConfig(capability_lo=0.0, capability_hi=1.0, pool_size=2, mu=1.0,
                                  sigma=0.0, n_requests=1000,
                                  strategy=Strategy.from_name("fixed-worker"), delta=1e-9,
                                  iterations=1, seed=0)
        pool = WorkerPool(capabilities=np.array([0.0, 1.0]))
        requests = RequestSet(difficulties=np.full(1000, 1.0))
        # the cell's requests and pool, in place of its draws
        monkeypatch.setattr(simulator, "sample_difficulties", lambda *args: requests)
        monkeypatch.setattr(simulator, "sample_capabilities", lambda *args: pool)
        checked = 0
        for iteration in range(10):
            # the iteration's worker comes from the cell's worker stream
            if reference_worker(config, iteration) == 1:
                result = lone_iteration(config, iteration, record_trace=True)
                # every label is A: the mean is 1 at every n
                assert result.trace.tolist() == list(range(1, result.n_at_decision + 1))
                checked += 1
        assert checked

    @pytest.mark.parametrize("name, k", [("one-worker", 1), ("fixed-worker", 1)])
    def test_single_vote_law_draws_layout_four_votes(self, name, k):
        # one uniform per request, drawn as rng.random(n), is the one vote
        # layout 4 drew as rng.random((1, n)) at the same probability
        difficulties = np.random.default_rng(7).uniform(-1, 1, 5000)
        strategy = Strategy.from_name(name)
        finals, labels_per_row, splits = draw_finals(
            strategy, final_law(strategy, difficulties, 0.85),
            np.random.default_rng(8).random(difficulties.size))
        twin = np.random.default_rng(8).random((k, difficulties.size))
        assert np.array_equal(finals, (twin < (0.85 * difficulties + 1.0) / 2.0)[0])
        assert (labels_per_row, splits) == (1, None)

    @pytest.mark.parametrize("name", ["n-workers:3", "max-three"])
    def test_distinct_voters_never_repeat_a_voter(self, name):
        # two workers always pick A and one flips coins: three distinct
        # voters always include both sure ones, so every final label is A,
        # which a repeated coin-flipper would break on some row
        pool = WorkerPool(capabilities=np.array([1.0, 0.0, 1.0]))
        finals, _ = apply(name, np.full(20_000, 1.0), pool, 6, distinct_voters=True)
        assert finals.all()


def hypergeometric_law(strategy, ones, count):
    """P(final label A), P(first two picks A) and P(they split), exactly,
    for k picks without replacement from ``count`` votes of which ``ones``
    are A."""
    k = strategy.votes_needed()
    final = sum(Fraction(math.comb(ones, j) * math.comb(count - ones, k - j), math.comb(count, k))
                for j in range(k // 2 + 1, k + 1))
    if count < 2:
        return final, None, None
    pairs = Fraction(1, count * (count - 1))
    return final, ones * (ones - 1) * pairs, 2 * ones * (count - ones) * pairs


STRATEGY_NAMES = ["one-worker", "n-workers:3", "n-workers:5", "n-workers:7", "n-workers:9",
                  "n-workers:11", "max-three"]


class TestVoteLaw:
    """vote_law's cut points against exact closed forms and enumerations,
    within a few float64 rounding errors."""

    TOLERANCE = 1e-15

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_majority_is_the_binomial_tail(self, k):
        p = np.linspace(0.0, 1.0, 41)
        law = vote_law(Strategy.from_name(f"n-workers:{k}"), lambda t, j: p)
        exact = [float(sum(math.comb(k, j) * Fraction(x) ** j * (1 - Fraction(x)) ** (k - j)
                           for j in range(k // 2 + 1, k + 1))) for x in p.tolist()]
        assert law.shape == (1, p.size)
        assert np.abs(law[0] - exact).max() < self.TOLERANCE

    def test_max_three_closed_forms(self):
        p = np.linspace(0.0, 1.0, 41)
        law = vote_law(Strategy.from_name("max-three"), lambda t, j: p)
        assert law.shape == (3, p.size)
        assert np.abs(law[0] - p * p * (3 - 2 * p)).max() < self.TOLERANCE
        assert np.array_equal(law[1], p * p)
        assert np.abs(law[2] - law[1] - 2 * p * (1 - p)).max() < self.TOLERANCE
        # the split stretch holds the split rows whose final label is A
        assert (law[1] <= law[0]).all() and (law[0] <= law[2]).all()

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_replay_law_is_hypergeometric(self, name):
        # every (ones, count) with count <= 11 the strategy can replay
        strategy = Strategy.from_name(name)
        k = strategy.votes_needed()
        cases = [(ones, count) for count in range(k, 12) for ones in range(count + 1)]
        annotations = annotation_set(
            {f"r{i}": {f"w{j:02d}": int(j < ones) for j in range(count)}
             for i, (ones, count) in enumerate(cases)})
        law = replay_law(annotations, strategy)
        exact = [hypergeometric_law(strategy, ones, count) for ones, count in cases]
        assert np.abs(law[0] - [float(final) for final, _, _ in exact]).max() < self.TOLERANCE
        if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
            assert np.abs(law[1] - [float(both) for _, both, _ in exact]).max() < self.TOLERANCE
            assert np.abs(law[2] - [float(both + split) for _, both, split in exact]).max() \
                < self.TOLERANCE

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_distinct_voter_law_is_poisson_binomial(self, name):
        # a different probability for every vote, against all 2^k patterns
        strategy = Strategy.from_name(name)
        k = strategy.votes_needed()
        prob = np.random.default_rng(k).random((300, k))
        prob[:20] = np.round(prob[:20])  # certain votes
        law = vote_law(strategy, lambda t, j: prob[:, t])
        final, both, either = enumerated_law(strategy, prob)
        assert np.abs(law[0] - final).max() < self.TOLERANCE
        if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
            assert np.abs(law[1] - both).max() < self.TOLERANCE
            assert np.abs(law[2] - either).max() < self.TOLERANCE

    def test_caller_probabilities_are_not_mutated(self):
        p = np.linspace(0.0, 1.0, 11)
        before = p.copy()
        for name in STRATEGY_NAMES:
            vote_law(Strategy.from_name(name), lambda t, j: p)
        assert np.array_equal(p, before)


class TestLawDrawsMatchVoteSamplers:
    """Replay's and distinct voters' law draws, one uniform per request,
    against reference samplers that pick each request's votes and count
    them, both against the exact final-label and max-three split rates."""

    TRIALS = 100_000
    # request 0 holds 5 A-votes in 9; request 1 holds 11 votes
    RECORDED = {"r0": {f"w{j}": v for j, v in enumerate([1, 0, 1, 1, 0, 0, 1, 0, 1])},
                "r1": {f"w{j}": 1 for j in range(11)}}
    D = 0.6
    CAPABILITIES = sample_capabilities(0.5, 1.0, 7, np.random.default_rng(4)).capabilities
    NAMES = ["one-worker", "n-workers:3", "n-workers:5", "n-workers:7", "max-three"]
    # 6 rates x 2 sources x 2 samplers share the family-wise rate
    CHECKS = 24

    def exact_rates(self, source):
        """One-worker's, the n-workers:3/5/7 and max-three final-label
        rates, and max-three's split rate."""
        if source == "replay":
            laws = [hypergeometric_law(Strategy.from_name(name), 5, 9) for name in self.NAMES]
            return [float(final) for final, _, _ in laws] + [float(laws[-1][2])]
        p = (self.CAPABILITIES * self.D + 1) / 2
        rates = []
        for name in self.NAMES:
            # distinct voters are a uniform ordered draw without replacement
            voters = np.array(list(itertools.permutations(range(p.size),
                                                          Strategy.from_name(name).votes_needed())))
            final, both, either = enumerated_law(Strategy.from_name(name), p[voters])
            rates.append(final.mean())
        return rates + [(either - both).mean()]

    def draw(self, source, sampler, strategy, rng):
        k = strategy.votes_needed()
        if source == "replay":
            if sampler == "law":
                law = replay_law(annotation_set(self.RECORDED), strategy)
                return finals_and_effort(strategy, law[:, np.zeros(self.TRIALS, dtype=np.int64)],
                                         rng)
            recorded = np.array(list(self.RECORDED["r0"].values()))
            votes = recorded[distinct_columns(rng, self.TRIALS, recorded.size, k)]
        else:
            if sampler == "law":
                return apply(strategy, np.full(self.TRIALS, self.D),
                             WorkerPool(capabilities=self.CAPABILITIES), rng,
                             distinct_voters=True)
            voters = distinct_columns(rng, self.TRIALS, self.CAPABILITIES.size, k)
            votes = rng.random((self.TRIALS, k)) < (self.CAPABILITIES[voters] * self.D + 1) / 2
        return majority_vote(votes), effort_of(strategy, votes)

    @pytest.mark.parametrize("source", ["replay", "distinct"])
    @pytest.mark.parametrize("sampler", ["law", "votes"])
    def test_rates_match_exact_values(self, source, sampler):
        rng = np.random.default_rng(len(source) * 10 + len(sampler))
        counts = []
        for name in self.NAMES:
            finals, effort = self.draw(source, sampler, Strategy.from_name(name), rng)
            counts.append(int(finals.sum()))
        counts.append(int((effort == 3).sum()))
        for count, rate in zip(counts, self.exact_rates(source)):
            assert binomial_p_value(count, self.TRIALS, rate) > FALSE_ALARM_RATE / self.CHECKS


class TestDistinctColumns:
    def test_picks_distinct_columns_in_range(self):
        picks = distinct_columns(np.random.default_rng(2), 2000, 7, 3)
        assert picks.shape == (2000, 3)
        assert ((picks >= 0) & (picks < 7)).all()
        assert all(len(set(row)) == 3 for row in picks.tolist())

    def test_uniform_over_a_rows_columns(self):
        # each of 4 columns comes first with probability 1/4
        trials = 40_000
        picks = distinct_columns(np.random.default_rng(9), trials, 4, 1)[:, 0]
        freq = np.bincount(picks, minlength=4) / trials
        assert np.abs(freq - 0.25).max() < 4 * math.sqrt(0.25 * 0.75 / trials)

    def test_rejects_more_picks_than_columns(self):
        with pytest.raises(ValueError, match="distinct"):
            distinct_columns(np.random.default_rng(0), 3, 2, 3)
