import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from twochoice import decision, simulator
from twochoice.decision import DecisionConfig, DecisionState, Verdict
from twochoice.eval_model import RequestSet, WorkerPool, sample_capabilities, sample_difficulties
from twochoice.rng import (
    DOMAIN_ITERATION, DOMAIN_POOL, DOMAIN_REQUESTS, as_generator, substream)
from twochoice.simulator import (
    FIRST_BLOCK,
    ExperimentConfig,
    bootstrap_ci,
    run_blocks,
    reveal_order,
    run_experiment,
    run_iteration,
)
from twochoice.strategies import Strategy

from test_acceptance import FALSE_ALARM_RATE


def make_config(**overrides):
    base = dict(capability_lo=0.8, capability_hi=1.0, pool_size=50,
                mu=0.3, sigma=0.1, n_requests=500,
                strategy=Strategy.from_name("one-worker"),
                delta=0.001, iterations=20, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def base_inputs(config):
    requests = sample_difficulties(config.mu, config.sigma, config.n_requests,
                                   substream(config.seed, DOMAIN_REQUESTS, 0))
    pool = sample_capabilities(config.capability_lo, config.capability_hi, config.pool_size,
                               substream(config.seed, DOMAIN_POOL, 0))
    return requests, pool


class TestRunIteration:
    def test_deterministic(self):
        config = make_config()
        requests, pool = base_inputs(config)
        a = run_iteration(config, requests, pool, 3, record_trace=True)
        b = run_iteration(config, requests, pool, 3, record_trace=True)
        assert a == b

    def test_iterations_are_independent_streams(self):
        config = make_config()
        requests, pool = base_inputs(config)
        results = {i: run_iteration(config, requests, pool, i) for i in (0, 1, 5)}
        assert len({r.effort for r in results.values()}) > 1 or \
               len({r.n_at_decision for r in results.values()}) > 1

    def test_effort_identities(self):
        for name, check in [
            ("one-worker", lambda r: r.effort == r.n_at_decision),
            ("fixed-worker", lambda r: r.effort == r.n_at_decision),
            ("n-workers:7", lambda r: r.effort == 7 * r.n_at_decision),
            ("max-three", lambda r: 2 * r.n_at_decision <= r.effort <= 3 * r.n_at_decision),
        ]:
            config = make_config(strategy=Strategy.from_name(name))
            requests, pool = base_inputs(config)
            for i in range(25):
                assert check(run_iteration(config, requests, pool, i))

    def test_strong_signal_decides_fast(self):
        # P(a) per request is 0.86..0.955, so the band clears 0.5 around n=22
        config = make_config(mu=0.9, sigma=0.01, pool_size=100, n_requests=200)
        requests, pool = base_inputs(config)
        results = [run_iteration(config, requests, pool, i) for i in range(100)]
        assert all(r.decided for r in results)
        assert all(r.verdict is Verdict.A_IS_BETTER for r in results)
        assert np.mean([r.n_at_decision for r in results]) < 40

    def test_no_signal_rarely_decides(self):
        config = make_config(mu=0.0, sigma=0.0, n_requests=200)
        requests, pool = base_inputs(config)
        results = [run_iteration(config, requests, pool, i) for i in range(200)]
        undecided = [r for r in results if not r.decided]
        assert len(undecided) >= 190
        assert all(r.n_at_decision == 200 for r in undecided)
        assert all(r.effort == 200 for r in undecided)

    def test_negative_difficulty_decides_for_a_prime(self):
        config = make_config(mu=-0.4)
        requests, pool = base_inputs(config)
        result = run_iteration(config, requests, pool, 0)
        assert result.decided
        assert result.verdict is Verdict.A_PRIME_IS_BETTER

    def test_trace_matches_scalar_decision_updates(self):
        # reconstruct the label stream from the trace means and replay it
        # through the scalar update path: verdicts and bounds must agree.
        # The second case takes the first iteration that decides past
        # three blocks' worth of requests, so past two block boundaries.
        short = make_config(n_requests=300)
        long = make_config(mu=0.05, n_requests=8000)
        cases = [(short, run_iteration(short, *base_inputs(short), 7, record_trace=True))]
        for iteration in range(50):
            result = run_iteration(long, *base_inputs(long), iteration, record_trace=True)
            if result.decided and result.n_at_decision > 3 * FIRST_BLOCK:
                cases.append((long, result))
                break
        else:
            pytest.fail("no iteration decides past three blocks")
        for config, result in cases:
            assert len(result.trace) == result.n_at_decision
            dconfig = DecisionConfig(delta=config.delta)
            state = DecisionState()
            prev_count = 0
            for (n, mean, lower, upper) in result.trace:
                count = round(mean * n)
                state = decision.update(state, count - prev_count, dconfig)
                prev_count = count
                assert state.n == n
                assert state.mean == pytest.approx(mean, abs=0)
                assert state.lower == pytest.approx(lower, abs=0)
                assert state.upper == pytest.approx(upper, abs=0)
                if n < result.n_at_decision:
                    assert state.verdict is Verdict.UNDECIDED
            assert state.verdict is result.verdict

    def test_fixed_worker_is_drawn_once_per_iteration(self):
        # a worker of capability 1 votes d > 0 on every request, one of
        # capability 0 flips coins; a worker redrawn per block would show
        # up as coin flips in a later block
        config = make_config(capability_lo=0.0, capability_hi=1.0, pool_size=2,
                             n_requests=5000, strategy=Strategy.from_name("fixed-worker"))
        pool = WorkerPool(capabilities=np.array([0.0, 1.0]))
        requests = RequestSet(difficulties=np.tile([1.0, -1.0], 2500), mu=0.0, sigma=0.0)
        for iteration in range(20):
            # the twin replays layout 4: the worker, then per block of
            # 1024, 2048 and the remaining 1928 requests the block's rows
            # and one vote's uniform per row
            twin = substream(config.seed, DOMAIN_ITERATION, iteration)
            if twin.integers(0, pool.pool_size) != 1:
                continue
            unseen, blocks = np.arange(requests.size), []
            for size in (1024, 2048):
                rows = unseen[twin.choice(unseen.size, size, replace=False)]
                twin.random((1, size))
                blocks.append(rows)
                unseen = np.setdiff1d(unseen, rows)
            blocks.append(unseen[twin.permutation(unseen.size)])
            order = np.concatenate(blocks)
            result = run_iteration(config, requests, pool, iteration, record_trace=True)
            if result.n_at_decision > 3 * FIRST_BLOCK:
                break
        else:
            pytest.fail("no iteration picks the capability-1 worker and runs past three blocks")
        counts = [round(mean * n) for (n, mean, _, _) in result.trace]
        votes = np.diff(counts, prepend=0)
        expected = requests.difficulties[order[:result.n_at_decision]] > 0
        assert np.array_equal(votes, expected)

    def test_majority_first_label_matches_binomial_closed_form(self):
        # vectorised voting path vs the same closed form as the scalar one
        expected = 0.66590234375  # 3 p^2 (1-p) + p^3 at p = 0.6125
        config = make_config(capability_lo=1.0, capability_hi=1.0, mu=0.225, sigma=0.0,
                             n_requests=3, strategy=Strategy.from_name("n-workers:3"))
        requests, pool = base_inputs(config)
        trials = 4000
        wins = 0
        for i in range(trials):
            first = run_iteration(config, requests, pool, i, record_trace=True).trace[0]
            wins += int(first[1] == 1.0)
        tolerance = 3 * math.sqrt(expected * (1 - expected) / trials)
        assert abs(wins / trials - expected) < tolerance


def _crossing_labels(target, length, flip):
    """Labels whose band first clears 0.5 at exactly n = target, and the
    delta that makes it so: alternating 1, 0 for 2m labels keeps the mean
    at most 1/(2n) above 0.5, then all 1s cross at the first n with
    n/2 - m > sqrt(n ln(1/delta) / 2); ln(1/delta) puts that root at
    target - 1/2. flip mirrors the stream, so it crosses for A'."""
    pairs = target // 2 - 60
    root = target - 0.5
    delta = math.exp(-2.0 * (root / 2.0 - pairs) ** 2 / root)
    labels = np.ones(length, dtype=np.int8)
    labels[1:2 * pairs:2] = 0
    return (1 - labels if flip else labels), delta


def _max_three_votes(labels, seed):
    """A max-three vote matrix whose row majorities are the labels, the
    first two votes split on a random half of the rows, and its effort."""
    split = np.random.default_rng(seed).random(len(labels)) < 0.5
    votes = np.zeros((len(labels), 3), dtype=np.int8)
    votes[:, 0] = labels
    votes[:, 1] = np.where(split, 1 - labels, labels)
    votes[:, 2] = np.where(split, labels, 0)
    return votes, 2 + split


def _fold(labels, delta):
    """Scalar reference: fold decision.update over the labels, stopping at
    the first verdict."""
    state, states, config = DecisionState(), [], DecisionConfig(delta=delta)
    for label in labels.tolist():
        state = decision.update(state, label, config)
        states.append(state)
        if state.verdict is not Verdict.UNDECIDED:
            break
    return states


class TestBlockDriver:
    """run_blocks on crafted vote streams against the scalar update fold."""

    def _check(self, labels, delta, expected_blocks):
        votes, effort = _max_three_votes(labels, seed=len(expected_blocks))
        drawn, revealed = [], []

        def draw(rows):
            # the crafted stream is laid out in the order the rows arrive
            start = drawn[-1][1] if drawn else 0
            drawn.append((start, start + len(rows)))
            revealed.extend(rows.tolist())
            return votes[start:start + len(rows)]

        max_three = Strategy.from_name("max-three")
        result = run_blocks(draw, len(votes), max_three, delta, np.random.default_rng(0),
                            record_trace=True)
        assert len(set(revealed)) == len(revealed) == drawn[-1][1]
        assert set(revealed) <= set(range(len(votes)))
        states = _fold(labels, delta)
        assert result.verdict is states[-1].verdict
        assert result.decided is (states[-1].verdict is not Verdict.UNDECIDED)
        assert result.n_at_decision == len(states)
        assert result.effort == effort[:len(states)].sum()
        assert result.trace == [(s.n, s.mean, s.lower, s.upper) for s in states]
        assert drawn == expected_blocks
        return result

    @pytest.mark.parametrize("target, flip, blocks", [
        (1023, False, [(0, 1024)]),
        (1024, True, [(0, 1024)]),
        (1025, False, [(0, 1024), (1024, 3072)]),
        (3072, True, [(0, 1024), (1024, 3072)]),
    ])
    def test_first_crossing_at_block_boundary(self, target, flip, blocks):
        labels, delta = _crossing_labels(target, 5000, flip)
        result = self._check(labels, delta, blocks)
        assert result.n_at_decision == target
        assert result.verdict is (Verdict.A_PRIME_IS_BETTER if flip else Verdict.A_IS_BETTER)

    def test_undecided_stream_draws_every_block_once(self):
        labels = np.tile(np.array([1, 0], dtype=np.int8), 2500)
        result = self._check(labels, 0.01, [(0, 1024), (1024, 3072), (3072, 5000)])
        assert not result.decided and result.n_at_decision == 5000


def chi2_sf(x, df):
    """P(X > x) for X ~ chi-square(df): one minus the regularised lower
    incomplete gamma function at (df / 2, x / 2), summed as its series."""
    a, half = df / 2.0, x / 2.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= half / (a + n)
        total += term
    return 1.0 - total * math.exp(a * math.log(half) - half - math.lgamma(a))


class TestRevealOrder:
    """reveal_order: a uniform random order, revealed one block at a time."""

    def test_chi2_sf_closed_forms(self):
        # df 2 is exp(-x / 2); df 1 is erfc(sqrt(x / 2))
        for x in (0.5, 3.0, 40.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-9)

    @pytest.mark.parametrize("sizes", [(1, 2, 1), (2, 2)])
    def test_every_order_of_four_rows_is_equally_likely(self, sizes):
        trials = 12_000
        rng = np.random.default_rng(sum(sizes) * 10 + len(sizes))
        orders = list(itertools.permutations(range(4)))
        tally = dict.fromkeys(orders, 0)
        for _ in range(trials):
            blocks = list(reveal_order(rng, 4, sizes))
            assert [len(rows) for rows in blocks] == list(sizes)
            order = tuple(np.concatenate(blocks).tolist())
            assert sorted(order) == [0, 1, 2, 3]  # every row exactly once
            tally[order] += 1
        expected = trials / len(orders)
        statistic = sum((count - expected) ** 2 / expected for count in tally.values())
        # two schedules share the family-wise rate
        assert chi2_sf(statistic, len(orders) - 1) > FALSE_ALARM_RATE / 2

    @pytest.mark.parametrize("sizes", [(4,), (9, 3)])
    def test_a_block_taking_the_whole_supply_is_a_permutation(self, sizes):
        blocks = list(reveal_order(np.random.default_rng(11), 4, sizes))
        assert len(blocks) == 1
        assert blocks[0].tolist() == np.random.default_rng(11).permutation(4).tolist()

    def test_stops_when_the_rows_run_out(self):
        blocks = list(reveal_order(np.random.default_rng(12), 5, itertools.repeat(2)))
        assert [len(rows) for rows in blocks] == [2, 2, 1]
        assert sorted(np.concatenate(blocks).tolist()) == [0, 1, 2, 3, 4]


class TestRunExperiment:
    def test_deterministic(self):
        config = make_config(iterations=10)
        assert run_experiment(config) == run_experiment(config)

    def test_per_iteration_matches_standalone_runs(self):
        config = make_config(iterations=5)
        requests, pool = base_inputs(config)
        summary = run_experiment(config)
        for i, result in enumerate(summary.per_iteration):
            assert result == run_iteration(config, requests, pool, i)

    def test_mean_over_decided_iterations_only(self):
        config = make_config(mu=0.12, sigma=0.05, n_requests=260, iterations=60)
        summary = run_experiment(config)
        decided = [r.effort for r in summary.per_iteration if r.decided]
        assert 0 < len(decided) < 60  # this configuration leaves some undecided
        assert summary.decision_ratio == len(decided) / 60
        assert summary.mean_effort == pytest.approx(np.mean(decided))
        assert summary.ci_low <= summary.mean_effort <= summary.ci_high

    def test_zero_decided_is_flagged_not_crashed(self):
        config = make_config(mu=0.0, sigma=0.0, n_requests=60, iterations=10)
        summary = run_experiment(config)
        assert summary.decision_ratio == 0.0
        assert math.isnan(summary.mean_effort)
        assert math.isnan(summary.ci_low)

    def test_resample_flags_change_streams_deterministically(self):
        fixed = make_config(iterations=6)
        redraw = dataclasses.replace(fixed, resample_difficulties_per_iteration=True,
                                     resample_pool_per_iteration=True)
        assert run_experiment(redraw) == run_experiment(redraw)
        fixed_efforts = [r.effort for r in run_experiment(fixed).per_iteration]
        redraw_efforts = [r.effort for r in run_experiment(redraw).per_iteration]
        assert fixed_efforts != redraw_efforts

    def test_harder_regimes_cost_more(self):
        means = []
        for mu in (0.4, 0.2, 0.1):
            config = make_config(mu=mu, n_requests=2000, iterations=120)
            means.append(run_experiment(config).mean_effort)
        assert means[0] < means[1] < means[2]

    def test_trace_only_for_leading_iterations(self):
        config = make_config(iterations=4)
        summary = run_experiment(config, trace_iterations=2)
        assert summary.per_iteration[0].trace is not None
        assert summary.per_iteration[1].trace is not None
        assert summary.per_iteration[2].trace is None


class TestBootstrapCI:
    def test_constant_sample(self):
        assert bootstrap_ci([5, 5, 5, 5], 0.99, 1000, seed=0) == (5.0, 5.0)

    def test_bounded_by_sample_range(self):
        lo, hi = bootstrap_ci([0, 100], 0.99, 10_000, seed=1)
        assert 0.0 <= lo <= hi <= 100.0

    def test_against_independent_bootstrap(self):
        # oracle: a separately coded percentile bootstrap on the stdlib RNG
        data = list(range(1, 101))
        lo, hi = bootstrap_ci(data, 0.99, 10_000, seed=2)
        oracle = random.Random(2)
        means = sorted(
            sum(oracle.choice(data) for _ in range(len(data))) / len(data)
            for _ in range(10_000)
        )
        o_lo = means[int(0.005 * len(means))]
        o_hi = means[int(0.995 * len(means)) - 1]
        assert lo <= 50.5 <= hi
        assert (hi - lo) == pytest.approx(o_hi - o_lo, rel=0.15)

    def test_working_memory_is_bounded(self):
        data = np.random.default_rng(3).integers(100, 5000, 1000)
        tracemalloc.start()
        try:
            bootstrap_ci(data, 0.99, 10_000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    # the default block, and blocks of one and of three rows, whose odd
    # number of draws leaves half a 64-bit word to the next block
    @pytest.mark.parametrize("size, block_bytes", [
        (1000, simulator.BOOTSTRAP_BLOCK_BYTES), (7, 8 * 7), (1001, 8 * 1001 * 3)])
    def test_interval_does_not_depend_on_block_size(self, monkeypatch, size, block_bytes):
        data = np.random.default_rng(5).integers(100, 5000, size).astype(np.float64)
        monkeypatch.setattr(simulator, "BOOTSTRAP_BLOCK_BYTES", block_bytes)
        lo, hi = bootstrap_ci(data, 0.99, 10_000, seed=6)
        # reference: every resample drawn by one call
        picks = as_generator(6).integers(0, size, size=(10_000, size))
        alpha = (1.0 - 0.99) / 2.0
        ref_lo, ref_hi = np.quantile(data[picks].mean(axis=1), [alpha, 1.0 - alpha])
        assert (lo, hi) == (float(ref_lo), float(ref_hi))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], 0.99, 100, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], 1.0, 100, seed=0)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], 0.99, 0, seed=0)


class TestConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(ValueError):
            make_config(delta=0.0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            make_config(iterations=0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            make_config(seed=-1)

    def test_bad_capability_bounds(self):
        for lo, hi in ((-0.1, 0.5), (0.5, 1.1), (0.9, 0.8)):
            with pytest.raises(ValueError, match="capability bounds"):
                make_config(capability_lo=lo, capability_hi=hi)
        make_config(capability_lo=0.0, capability_hi=0.0)
        make_config(capability_lo=1.0, capability_hi=1.0)

    def test_bad_pool_size(self):
        with pytest.raises(ValueError, match="pool_size"):
            make_config(pool_size=0)
