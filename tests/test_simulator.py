import collections
import dataclasses
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from twochoice import decision, simulator
from twochoice.cli import _TraceRows, main, simulate_grid
from twochoice.config import load_simulate_config
from twochoice.decision import DecisionState, Verdict, hoeffding_band
from twochoice.eval_model import RequestSet, WorkerPool
from twochoice.rng import DOMAIN_BOOTSTRAP, DOMAIN_ITERATION, distinct_columns, substream
from twochoice.simulator import (
    FIRST_BLOCK,
    Blocks,
    ExperimentConfig,
    bootstrap_ci,
    bootstrap_grid,
    run_blocks,
    run_experiment,
    simulate_groups,
)
from twochoice.strategies import Strategy, StrategyKind, majority_vote

from helpers import (
    assert_max_three_stops_as_three_workers,
    cell_draws,
    lone_iteration,
    reference_reveal,
    reference_worker,
    traced_peak,
)
from test_acceptance import FALSE_ALARM_RATE


def make_config(**overrides):
    base = dict(capability_lo=0.8, capability_hi=1.0, pool_size=50,
                mu=0.3, sigma=0.1, n_requests=500,
                strategy=Strategy.from_name("one-worker"),
                delta=0.001, iterations=20, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunIteration:
    def test_deterministic(self):
        config = make_config()
        assert lone_iteration(config, 3, record_trace=True) == lone_iteration(
            config, 3, record_trace=True)

    def test_iterations_are_independent_streams(self):
        config = make_config()
        results = {i: lone_iteration(config, i) for i in (0, 1, 5)}
        assert len({r.effort for r in results.values()}) > 1 or \
               len({r.n_at_decision for r in results.values()}) > 1

    def test_effort_identities(self):
        for name, check in [
            ("one-worker", lambda r: r.effort == r.n_at_decision),
            ("fixed-worker", lambda r: r.effort == r.n_at_decision),
            ("n-workers:7", lambda r: r.effort == 7 * r.n_at_decision),
            ("max-three", lambda r: 2 * r.n_at_decision <= r.effort <= 3 * r.n_at_decision),
        ]:
            config = make_config(strategy=Strategy.from_name(name), iterations=25)
            for result in run_experiment(config).per_iteration:
                assert check(result)

    def test_strong_signal_decides_fast(self):
        # P(a) per request is 0.86..0.955, so the band clears 0.5 around n=22
        config = make_config(mu=0.9, sigma=0.01, pool_size=100, n_requests=200, iterations=100)
        results = run_experiment(config).per_iteration
        assert all(r.decided for r in results)
        assert all(r.verdict is Verdict.A_IS_BETTER for r in results)
        assert np.mean([r.n_at_decision for r in results]) < 40

    def test_no_signal_rarely_decides(self):
        config = make_config(mu=0.0, sigma=0.0, n_requests=200, iterations=200)
        results = run_experiment(config).per_iteration
        undecided = [r for r in results if not r.decided]
        assert len(undecided) >= 190
        assert all(r.n_at_decision == 200 for r in undecided)
        assert all(r.effort == 200 for r in undecided)

    def test_negative_difficulty_decides_for_a_prime(self):
        result = lone_iteration(make_config(mu=-0.4), 0)
        assert result.decided
        assert result.verdict is Verdict.A_PRIME_IS_BETTER

    def test_trace_matches_scalar_decision_updates(self):
        # reconstruct the label stream from the trace's running counts and
        # replay it through the scalar update path: verdicts, and the trace
        # rows' means and bounds, must agree exactly. The second case takes
        # the first iteration that decides past three blocks' worth of
        # requests, so past two block boundaries.
        short = make_config(n_requests=300)
        long = make_config(mu=0.05, n_requests=8000)
        cases = [(short, lone_iteration(short, 7, record_trace=True))]
        for iteration in range(50):
            result = lone_iteration(long, iteration, record_trace=True)
            if result.decided and result.n_at_decision > 3 * FIRST_BLOCK:
                cases.append((long, result))
                break
        else:
            pytest.fail("no iteration decides past three blocks")
        for config, result in cases:
            assert len(result.trace) == result.n_at_decision
            rows = _TraceRows([result.trace], hoeffding_band(config.delta, config.n_requests))
            points = list(rows.points(result.trace))
            assert len(points) == result.n_at_decision
            state = DecisionState()
            prev_count = 0
            for count, (n, mean, lower, upper) in zip(result.trace, points):
                state = decision.update(state, count - prev_count, config.delta)
                prev_count = count
                assert (state.n, state.count_a) == (n, count)
                assert (state.mean, state.lower, state.upper) == (mean, lower, upper)
                if n < result.n_at_decision:
                    assert state.verdict is Verdict.UNDECIDED
            assert state.verdict is result.verdict

    def test_fixed_worker_is_drawn_once_per_iteration(self, monkeypatch):
        # a worker of capability 1 votes d > 0 on every request, one of
        # capability 0 flips coins; a worker redrawn per block would show
        # up as coin flips in a later block
        config = make_config(capability_lo=0.0, capability_hi=1.0, pool_size=2,
                             n_requests=5000, strategy=Strategy.from_name("fixed-worker"))
        pool = WorkerPool(capabilities=np.array([0.0, 1.0]))
        requests = RequestSet(difficulties=np.tile([1.0, -1.0], 2500))
        # the cell's requests and pool, in place of its draws
        monkeypatch.setattr(simulator, "sample_difficulties", lambda *args: requests)
        monkeypatch.setattr(simulator, "sample_capabilities", lambda *args: pool)
        for iteration in range(20):
            # the worker comes from the cell's worker stream; the twin
            # replays, per block of 1024, 2048 and the remaining 1928
            # requests, the block's rows and one vote's uniform per row
            if reference_worker(config, iteration) != 1:
                continue
            twin = substream(config.seed, DOMAIN_ITERATION, iteration)
            unseen, blocks = np.arange(requests.size), []
            for size in (1024, 2048):
                rows = unseen[twin.choice(unseen.size, size, replace=False)]
                twin.random((1, size))
                blocks.append(rows)
                unseen = np.setdiff1d(unseen, rows)
            blocks.append(unseen[twin.permutation(unseen.size)])
            order = np.concatenate(blocks)
            result = lone_iteration(config, iteration, record_trace=True)
            if result.n_at_decision > 3 * FIRST_BLOCK:
                break
        else:
            pytest.fail("no iteration picks the capability-1 worker and runs past three blocks")
        votes = np.diff(result.trace, prepend=0)
        expected = requests.difficulties[order[:result.n_at_decision]] > 0
        assert np.array_equal(votes, expected)

    def test_fixed_worker_of_an_iteration_does_not_depend_on_the_iteration_count(
            self, monkeypatch):
        # iteration i's worker depends only on (seed, pool size, i): alone,
        # as the last of i + 1 iterations, or among 1000
        config = make_config(capability_lo=0.0, capability_hi=1.0, n_requests=300,
                             strategy=Strategy.from_name("fixed-worker"))
        taken, index = {}, []
        run, final_law = simulator.run_iteration, simulator.final_law

        def iteration(config, requests, pool, law, band, blocks, **kwargs):
            index[:] = [blocks.index]
            try:
                return run(config, requests, pool, law, band, blocks, **kwargs)
            finally:
                index.clear()

        def block_law(strategy, difficulties, capability):
            if index:  # a block's law, at the iteration's worker
                taken.setdefault(index[0], set()).add(capability)
            return final_law(strategy, difficulties, capability)

        monkeypatch.setattr(simulator, "run_iteration", iteration)
        monkeypatch.setattr(simulator, "final_law", block_law)
        run_experiment(dataclasses.replace(config, iterations=1000))
        among_all = dict(taken)
        assert len(among_all) == 1000 and len(set().union(*among_all.values())) > 1
        _, pool = cell_draws(config)
        for i in (0, 1, 7, 255, 256, 999):
            taken.clear()
            lone_iteration(config, i)
            alone = taken[i]
            taken.clear()
            run_experiment(dataclasses.replace(config, iterations=i + 1))
            assert alone == taken[i] == among_all[i] == {
                pool.capabilities[reference_worker(config, i)]}

    def test_majority_first_label_matches_binomial_closed_form(self):
        # vectorised voting path vs the same closed form as the scalar one
        expected = 0.66590234375  # 3 p^2 (1-p) + p^3 at p = 0.6125
        trials = 4000
        config = make_config(capability_lo=1.0, capability_hi=1.0, mu=0.225, sigma=0.0,
                             n_requests=3, strategy=Strategy.from_name("n-workers:3"),
                             iterations=trials)
        wins = sum(result.trace[0] == 1
                   for result in run_experiment(config, trace_iterations=trials).per_iteration)
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


def _max_three_splits(n, seed):
    """Max-three's split mask on n rows whose first two votes split on a
    random half of them."""
    return np.random.default_rng(seed).random(n) < 0.5


def _fold(labels, delta):
    """Scalar reference: fold decision.update over the labels, stopping at
    the first verdict."""
    state, states = DecisionState(), []
    for label in labels.tolist():
        state = decision.update(state, label, delta)
        states.append(state)
        if state.verdict is not Verdict.UNDECIDED:
            break
    return states


class TestBlockDriver:
    """run_blocks on crafted label streams against the scalar update fold."""

    def _check(self, labels, delta, expected_blocks, labels_per_row, splits):
        # every row spends labels_per_row labels, and one more where splits,
        # max-three's mask of rows whose first two votes split, is True
        drawn, revealed = [], []
        blocks = Blocks(np.random.default_rng(0), len(labels), 0)
        # a law that draw_finals reads as the crafted stream whatever the
        # uniform u in [0, 1): the final label is u < label, and max-three's
        # first two votes split where 0 <= u < split
        if splits is None:
            strategy, law = Strategy.from_name(f"n-workers:{labels_per_row}"), labels[None, :]
        else:
            strategy = Strategy.from_name("max-three")
            law = np.stack((labels, np.zeros(len(labels)), splits))
        law = law.astype(np.float64)

        def block_law(rows):
            # the crafted stream is laid out in the order the rows arrive, and
            # a block's law is made before its uniforms are drawn
            assert len(blocks._uniforms) == len(drawn)
            start = drawn[-1][1] if drawn else 0
            stop = start + len(rows)
            drawn.append((start, stop))
            revealed.extend(rows.tolist())
            return law[:, start:stop]

        band = hoeffding_band(delta, len(labels))
        result = run_blocks(strategy, block_law, blocks, band, record_trace=True)
        assert len(set(revealed)) == len(revealed) == drawn[-1][1]
        assert set(revealed) <= set(range(len(labels)))
        states = _fold(labels, delta)
        assert result.verdict is states[-1].verdict
        assert result.decided is (states[-1].verdict is not Verdict.UNDECIDED)
        assert result.n_at_decision == len(states)
        assert type(result.effort) is int
        assert result.effort == labels_per_row * len(states) + (
            0 if splits is None else int(splits[:len(states)].sum()))
        assert result.trace.tolist() == [s.count_a for s in states]
        assert list(_TraceRows([result.trace], band).points(result.trace)) == [
            (s.n, s.mean, s.lower, s.upper) for s in states]
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
        result = self._check(labels, delta, blocks, 2, _max_three_splits(5000, len(blocks)))
        assert result.n_at_decision == target
        assert result.verdict is (Verdict.A_PRIME_IS_BETTER if flip else Verdict.A_IS_BETTER)

    def test_undecided_stream_draws_every_block_once(self):
        labels = np.tile(np.array([1, 0], dtype=np.int8), 2500)
        result = self._check(labels, 0.01, [(0, 1024), (1024, 3072), (3072, 5000)], 2,
                             _max_three_splits(5000, 3))
        assert not result.decided and result.n_at_decision == 5000

    def test_split_rows_count_only_up_to_the_stop(self):
        # max-three stops partway into its second block: every row splits,
        # and the second block's rows past the stop, drawn with it, spend
        # nothing
        labels, delta = _crossing_labels(2000, 5000, False)
        result = self._check(labels, delta, [(0, 1024), (1024, 3072)], 2,
                             np.ones(5000, dtype=bool))
        assert result.effort == 3 * 2000

    @pytest.mark.parametrize("target, blocks", [
        (1023, [(0, 1024)]), (1025, [(0, 1024), (1024, 3072)])])
    def test_effort_shared_by_every_row(self, target, blocks):
        labels, delta = _crossing_labels(target, 5000, False)
        result = self._check(labels, delta, blocks, 5, None)
        assert result.effort == 5 * target


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
    """Blocks reveals a uniform random order, one doubling block at a time,
    as run_blocks reads it."""

    # no stream of 5 labels decides at this delta, so every row is revealed
    DELTA = 1e-9

    @staticmethod
    def reveal(n_total, rng):
        """The blocks of rows run_blocks reads over n_total rows."""
        blocks = []

        def block_law(rows):
            blocks.append(rows)
            return np.zeros((1, rows.size))

        result = run_blocks(Strategy.from_name("one-worker"), block_law, Blocks(rng, n_total, 0),
                            hoeffding_band(TestRevealOrder.DELTA, n_total))
        assert not result.decided and result.n_at_decision == n_total
        return blocks

    def test_chi2_sf_closed_forms(self):
        # df 2 is exp(-x / 2); df 1 is erfc(sqrt(x / 2))
        for x in (0.5, 3.0, 40.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-9)

    @pytest.mark.parametrize("first_block, sizes", [(1, [1, 2, 1]), (2, [2, 2])])
    def test_every_order_of_four_rows_is_equally_likely(self, monkeypatch, first_block, sizes):
        trials = 12_000
        rng = np.random.default_rng(sum(sizes) * 10 + len(sizes))
        orders = list(itertools.permutations(range(4)))
        tally = dict.fromkeys(orders, 0)
        monkeypatch.setattr(simulator, "FIRST_BLOCK", first_block)
        for _ in range(trials):
            blocks = self.reveal(4, rng)
            assert [len(rows) for rows in blocks] == sizes
            order = tuple(np.concatenate(blocks).tolist())
            assert sorted(order) == [0, 1, 2, 3]  # every row exactly once
            tally[order] += 1
        expected = trials / len(orders)
        statistic = sum((count - expected) ** 2 / expected for count in tally.values())
        # two schedules share the family-wise rate
        assert chi2_sf(statistic, len(orders) - 1) > FALSE_ALARM_RATE / 2

    @pytest.mark.parametrize("first_block", [4, 9])
    def test_a_block_taking_the_whole_supply_is_a_permutation(self, monkeypatch, first_block):
        monkeypatch.setattr(simulator, "FIRST_BLOCK", first_block)
        blocks = self.reveal(4, np.random.default_rng(11))
        assert len(blocks) == 1
        assert blocks[0].tolist() == np.random.default_rng(11).permutation(4).tolist()

    def test_stops_when_the_rows_run_out(self, monkeypatch):
        monkeypatch.setattr(simulator, "FIRST_BLOCK", 2)
        blocks = self.reveal(5, np.random.default_rng(12))
        assert [len(rows) for rows in blocks] == [2, 3]
        assert sorted(np.concatenate(blocks).tolist()) == [0, 1, 2, 3, 4]


def layout4_labels(config, requests, pool, iteration, n):
    """The first n final labels and their effort as stream layout 4 drew
    them for one-worker and fixed-worker: per block the rows, then one vote
    per row, at the pool's mean capability or at fixed-worker's worker,
    which since layout 9 comes from the cell's worker stream."""
    twin = substream(config.seed, DOMAIN_ITERATION, iteration)
    capability = pool.capabilities.mean()
    if config.strategy.kind is StrategyKind.FIXED_WORKER:
        capability = pool.capabilities[reference_worker(config, iteration)]
    labels = []
    for rows in reference_reveal(twin, requests.size):
        votes = twin.random((1, rows.size)) < (capability * requests.difficulties[rows] + 1.0) / 2.0
        labels.extend(majority_vote(votes.T).tolist())
        if len(labels) >= n:
            return labels[:n], n


def enumerated_law(strategy, prob):
    """P(final label A), P(first two votes A) and that plus P(they split)
    for votes at the (n, k) probabilities ``prob``: each row's vote
    patterns, all 2^k of them, weighed and summed exactly (math.fsum)."""
    k = strategy.votes_needed()
    patterns = np.array(list(itertools.product((0, 1), repeat=k)), dtype=bool)
    weight = np.where(patterns, prob[:, None, :], 1.0 - prob[:, None, :]).prod(axis=2)

    def total(mask):
        return np.array([math.fsum(row) for row in weight[:, mask].tolist()])

    final = total(patterns.sum(axis=1) > k // 2)
    if k == 1:
        return final, None, None
    both = total(patterns[:, 0] & patterns[:, 1])
    return final, both, both + total(patterns[:, 0] ^ patterns[:, 1])


def layout6_distinct_labels(config, requests, pool, iteration, n):
    """The first n final labels and their effort under distinct voters in
    stream layout 6: per block the rows, then k distinct voters per row,
    then one uniform per row, read off the law of the voters' votes."""
    twin = substream(config.seed, DOMAIN_ITERATION, iteration)
    strategy, k = config.strategy, config.strategy.votes_needed()
    labels, effort = [], []
    for rows in reference_reveal(twin, requests.size):
        d = requests.difficulties[rows]
        voters = distinct_columns(twin, d.size, pool.pool_size, k)
        final, both, either = enumerated_law(strategy, (pool.capabilities[voters] * d[:, None]
                                                        + 1.0) / 2.0)
        u = twin.random(d.size)
        labels.extend((u < final).astype(int).tolist())
        if strategy.kind is StrategyKind.MAX_THREE_WORKERS:
            effort.extend(np.where((both <= u) & (u < either), 3, 2).tolist())
        else:
            effort.extend([k] * d.size)
        if len(labels) >= n:
            return labels[:n], sum(effort[:n])


def traced_labels(result):
    """Each request's final label, recovered from the running counts."""
    return np.diff(result.trace, prepend=0).tolist()


class TestLayoutFourPins:
    """One-worker and fixed-worker draw what layout 4 drew, fixed-worker's
    worker apart."""

    @pytest.mark.parametrize("name", ["one-worker", "fixed-worker"])
    def test_labels_and_effort_match_layout_four(self, name):
        config = make_config(mu=0.05, n_requests=4000, strategy=Strategy.from_name(name))
        requests, pool = cell_draws(config)
        past_first_block = 0
        for iteration in range(6):
            result = lone_iteration(config, iteration, record_trace=True)
            assert (traced_labels(result), result.effort) == layout4_labels(
                config, requests, pool, iteration, result.n_at_decision)
            past_first_block += result.n_at_decision > FIRST_BLOCK
        assert past_first_block


class TestLayoutSixPins:
    """Distinct voters draw the rows, the voters, then one uniform per row."""

    @pytest.mark.parametrize("name", ["n-workers:3", "max-three", "n-workers:5"])
    def test_distinct_voter_labels_and_effort_match_layout_six(self, name):
        config = make_config(mu=0.05, n_requests=4000, strategy=Strategy.from_name(name),
                             distinct_voters=True)
        requests, pool = cell_draws(config)
        past_first_block = 0
        for iteration in range(6):
            result = lone_iteration(config, iteration, record_trace=True)
            assert (traced_labels(result), result.effort) == layout6_distinct_labels(
                config, requests, pool, iteration, result.n_at_decision)
            past_first_block += result.n_at_decision > FIRST_BLOCK
        assert past_first_block


class TestRunExperiment:
    def test_deterministic(self):
        config = make_config(iterations=10)
        assert run_experiment(config) == run_experiment(config)

    def test_per_iteration_matches_standalone_runs(self):
        # iteration i run alone on its own stream, as trace runs it, is
        # iteration i of the whole cell
        config = make_config(iterations=5)
        summary = run_experiment(config)
        for i, result in enumerate(summary.per_iteration):
            assert result == lone_iteration(config, i)

    @pytest.mark.parametrize("name, flag", [
        *(pytest.param(name, None, id=name)
          for name in ("one-worker", "fixed-worker", "max-three", "n-workers:5")),
        ("n-workers:3", "distinct_voters"), ("max-three", "resample_difficulties_per_iteration"),
        ("one-worker", "resample_pool_per_iteration")])
    def test_per_iteration_matches_standalone_runs_past_first_block(self, name, flag):
        # every law source: the cell's, the iteration's one worker, each
        # block's distinct voters, and the law of the iteration's own draws
        flags = {flag: True} if flag else {}
        config = make_config(iterations=5, mu=0.08, n_requests=3000,
                             strategy=Strategy.from_name(name), **flags)
        summary = run_experiment(config, trace_iterations=5)
        assert max(r.n_at_decision for r in summary.per_iteration) > FIRST_BLOCK
        for i, result in enumerate(summary.per_iteration):
            assert result == lone_iteration(config, i, record_trace=True)

    def test_mean_over_decided_iterations_only(self):
        config = make_config(mu=0.12, sigma=0.05, n_requests=260, iterations=60)
        summary = run_experiment(config)
        decided = [r.effort for r in summary.per_iteration if r.decided]
        assert 0 < len(decided) < 60  # this configuration leaves some undecided
        assert summary.decision_ratio == len(decided) / 60
        assert summary.mean_effort == pytest.approx(np.mean(decided))
        assert summary.decided_efforts.dtype == np.int64
        assert summary.decided_efforts.tolist() == decided
        [(low, high)] = bootstrap_grid([decided], config.seed, 0.99, 2000)
        assert low <= summary.mean_effort <= high

    def test_zero_decided_is_flagged_not_crashed(self):
        config = make_config(mu=0.0, sigma=0.0, n_requests=60, iterations=10)
        summary = run_experiment(config)
        assert summary.decision_ratio == 0.0
        assert math.isnan(summary.mean_effort)
        assert summary.decided_efforts.tolist() == []
        [(low, high)] = bootstrap_grid([summary.decided_efforts], config.seed, 0.99, 2000)
        assert math.isnan(low) and math.isnan(high)

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

    def test_trace_memory_is_its_counts(self):
        # a trace holds one int64 running count per label read, beside the
        # working memory the cell needs untraced; near no signal every
        # label of the 4000-request supply is read
        config = make_config(mu=0.0, sigma=0.0, n_requests=4000, iterations=40)
        untraced = traced_peak(run_experiment, config)
        held = []
        peak = traced_peak(lambda: held.append(run_experiment(config, trace_iterations=40)))
        points = sum(result.n_at_decision for result in held[0].per_iteration)
        assert points > 120_000
        assert peak - untraced < 16 * points

    @pytest.mark.parametrize("name, flag, whole_supply", [
        ("one-worker", None, 1), ("fixed-worker", None, 0),
        ("max-three", "distinct_voters", 0), ("n-workers:3", "distinct_voters", 0),
        ("one-worker", "distinct_voters", 1),
        ("one-worker", "resample_difficulties_per_iteration", 0),
        ("max-three", "resample_pool_per_iteration", 0)])
    def test_only_a_law_that_is_read_is_made(self, monkeypatch, name, flag, whole_supply):
        # the cell's setup makes the whole-supply law at the pool's mean only
        # for a cell that reads it: not fixed-worker, not distinct voters at
        # k > 1 and not a resample flag, whose iterations make their own
        flags = {flag: True} if flag else {}
        config = make_config(strategy=Strategy.from_name(name), iterations=3, **flags)
        made, in_iteration = [], []
        run, final_law = simulator.run_iteration, simulator.final_law

        def iteration(*args, **kwargs):
            in_iteration.append(True)
            try:
                return run(*args, **kwargs)
            finally:
                in_iteration.pop()

        def law(strategy, difficulties, capability):
            if not in_iteration:
                made.append(difficulties.size)
            return final_law(strategy, difficulties, capability)

        monkeypatch.setattr(simulator, "run_iteration", iteration)
        monkeypatch.setattr(simulator, "final_law", law)
        run_experiment(config)
        assert made == [config.n_requests] * whole_supply

    def test_max_three_stops_where_three_workers_do(self):
        # max-three's final label is the majority of three votes, the law of
        # n-workers:3 bit for bit, so on one iteration stream both cells
        # stop at the same n with the same verdict; only effort differs
        config = load_simulate_config(Path(__file__).parents[1] / "configs"
                                      / "simulate_smoke.yaml")
        cells = {(cell.strategy.name, cell.mu, cell.delta): cell
                 for cell in simulate_grid(config)}
        for (name, mu, delta), three in cells.items():
            if name != "n-workers:3":
                continue
            max_three = cells["max-three", mu, delta]
            requests, pool = cell_draws(three)
            capability = pool.capabilities.mean()
            assert np.array_equal(
                simulator.final_law(max_three.strategy, requests.difficulties, capability)[0],
                simulator.final_law(three.strategy, requests.difficulties, capability)[0])
            assert_max_three_stops_as_three_workers(run_experiment(max_three),
                                                    run_experiment(three))


class TestGroups:
    """simulate_groups and a group's lockstep pass: each cell of a group
    gets, iteration by iteration, what it gets alone."""

    @staticmethod
    def grid() -> list:
        """Twelve cells that share streams, then three of the first regime:
        a fixed-worker cell, which joins the first group, and two that run
        alone.

        Two regimes of 2500 requests and one of 1800, each with one-worker
        and max-three at two deltas; then the fixed-worker, a distinct_voters
        n-workers:3 and a resampling max-three cell.
        """
        shared = dict(capability_lo=0.7, capability_hi=1.0, pool_size=30, iterations=8, seed=3,
                      sigma=0.1)
        cells = [make_config(**shared, mu=mu, n_requests=n, strategy=Strategy.from_name(name),
                             delta=delta)
                 for mu, n in ((0.05, 2500), (0.3, 2500), (0.1, 1800))
                 for name in ("one-worker", "max-three") for delta in (0.01, 0.001)]
        return cells + [make_config(**shared, mu=0.05, n_requests=2500, delta=0.01,
                                    strategy=Strategy.from_name(name), **flags)
                        for name, flags in (("fixed-worker", {}),
                                            ("n-workers:3", {"distinct_voters": True}),
                                            ("max-three",
                                             {"resample_difficulties_per_iteration": True}))]

    def test_cells_of_one_seed_and_supply_share_a_group(self):
        cells = self.grid()
        groups = simulate_groups(cells)
        assert all(group is groups[0] for group in groups[:8] + groups[12:13])
        assert all(group is groups[8] for group in groups[8:12])
        assert groups[0].cells == (*cells[:8], cells[12])
        assert groups[8].cells == tuple(cells[8:12])
        for cell, group in zip(cells[13:], groups[13:]):
            assert group.cells == (cell,)
        # distinct voters at k = 1 draw nothing between a block's rows and
        # its uniforms; another seed or iteration count reads other streams
        one = cells[0]
        others = [dataclasses.replace(one, distinct_voters=True, delta=0.1),
                  dataclasses.replace(one, seed=4), dataclasses.replace(one, iterations=9)]
        assert [len(group.cells) for group in simulate_groups([one, *others])] == [2, 2, 1, 1]

    @pytest.mark.parametrize("trace_iterations", [0, 3])
    def test_each_cell_gets_what_it_gets_alone(self, trace_iterations):
        cells = self.grid()
        alone = [run_experiment(cell, trace_iterations=trace_iterations) for cell in cells]
        groups = simulate_groups(cells, trace_iterations)
        # the cells ask in reverse grid order: whichever asks first runs the pass
        grouped = {i: run_experiment(cells[i], group=groups[i])
                   for i in reversed(range(len(cells)))}
        for i, summary in enumerate(alone):
            assert grouped[i] == summary
            assert [r.trace is not None for r in summary.per_iteration] == \
                [j < trace_iterations for j in range(8)]
        # in some iteration one cell of the first group stops in the first
        # block and another draws the second block live
        stops = np.array([[r.n_at_decision for r in summary.per_iteration]
                          for summary in alone[:8]])
        assert ((stops.min(axis=0) <= FIRST_BLOCK) & (stops.max(axis=0) > FIRST_BLOCK)).any()

    @pytest.mark.parametrize("trace_iterations", [0, 3])
    def test_cells_of_an_iteration_read_one_blocks(self, monkeypatch, trace_iterations):
        grid = self.grid()
        cells = [*grid[:8], grid[12]]  # the first group, fixed-worker last
        group = simulate_groups(cells, trace_iterations)[0]
        calls, run = [], simulator.run_iteration

        def spy(config, requests, pool, law, band, blocks, **kwargs):
            calls.append((config, blocks, kwargs["record_trace"]))
            return run(config, requests, pool, law, band, blocks, **kwargs)

        monkeypatch.setattr(simulator, "run_iteration", spy)
        summaries = [run_experiment(cell, group=group) for cell in cells]
        # one call per cell and iteration, traced ones too, iteration by
        # iteration, every cell in grid order on the iteration's one Blocks
        assert len(calls) == len(cells) * 8
        for i in range(0, len(calls), len(cells)):
            iteration = calls[i:i + len(cells)]
            assert [config for config, _, _ in iteration] == cells
            assert len({id(blocks) for _, blocks, _ in iteration}) == 1
            assert {traced for _, _, traced in iteration} == {i // len(cells) < trace_iterations}
        for summary in summaries:
            assert [r.trace is not None for r in summary.per_iteration] == \
                [j < trace_iterations for j in range(8)]

    def test_a_failing_cell_fails_alone(self, monkeypatch):
        cells = self.grid()[:8]
        alone = [run_experiment(cell) for cell in cells]
        cells[1] = dataclasses.replace(cells[1], delta=1.0)  # its band cannot be made
        calls, run = collections.Counter(), simulator.run_iteration

        def failing(config, requests, pool, law, band, blocks, **kwargs):
            calls[config] += 1
            if config is cells[0] and calls[config] == 3:
                # the first cell to reach iteration 2's first block reveals
                # its rows and fails before drawing its uniforms
                blocks.rows(0)
                raise RuntimeError("iteration 2 failed")
            return run(config, requests, pool, law, band, blocks, **kwargs)

        monkeypatch.setattr(simulator, "run_iteration", failing)
        group = simulate_groups(cells)[0]
        with pytest.raises(RuntimeError, match="iteration 2 failed"):
            run_experiment(cells[0], group=group)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\), got 1.0"):
            run_experiment(cells[1], group=group)
        for i in range(2, len(cells)):
            assert run_experiment(cells[i], group=group) == alone[i]
        assert calls[cells[0]] == 3 and cells[1] not in calls

    def test_a_group_draws_its_streams_once(self, monkeypatch, tmp_path):
        # a traced smoke-grid simulate: its twelve cells form two groups, one
        # per request supply, and each group draws its iteration streams once
        smoke = Path(__file__).parents[1] / "configs" / "simulate_smoke.yaml"
        traced = tmp_path / "traced.yaml"
        traced.write_text(smoke.read_text(encoding="utf-8") + "trace_iterations: 2\n",
                          encoding="utf-8")
        calls, streams = [], simulator.iteration_streams

        def spy(*args):
            calls.append(args)
            return streams(*args)

        monkeypatch.setattr(simulator, "iteration_streams", spy)
        assert main(["simulate", "--config", str(traced), "--out", str(tmp_path / "out")]) == 0
        cells = simulate_grid(load_simulate_config(traced))
        assert len(cells) == 12 and len(set(simulate_groups(cells, 2))) == 2
        assert calls == [(0, DOMAIN_ITERATION, 50, 0)] * 2


def lone_ci(sample, confidence, resamples, rng):
    """The (low, high) interval of one sample, bootstrapped as a (1, n) stack."""
    [interval] = bootstrap_ci([sample], confidence, resamples, rng).tolist()
    return tuple(interval)


class TestBootstrapCI:
    def test_constant_sample(self):
        assert lone_ci([5, 5, 5, 5], 0.99, 1000, np.random.default_rng(0)) == (5.0, 5.0)

    def test_bounded_by_sample_range(self):
        lo, hi = lone_ci([0, 100], 0.99, 10_000, np.random.default_rng(1))
        assert 0.0 <= lo <= hi <= 100.0

    def test_against_independent_bootstrap(self):
        # oracle: a separately coded percentile bootstrap on the stdlib RNG
        data = list(range(1, 101))
        lo, hi = lone_ci(data, 0.99, 10_000, np.random.default_rng(2))
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
        # a cell alone of 1000 decided iterations: 80 kB of means beside one
        # index block and the copy gathered from the sample
        data = np.random.default_rng(3).integers(100, 5000, 1000)
        peak = traced_peak(lone_ci, data, 0.99, 10_000, np.random.default_rng(4))
        assert peak < 8 * 10_000 + 2 * simulator.BOOTSTRAP_BLOCK_BYTES + 64 * 2**10

    # the default block, and blocks of one and of three rows, whose odd
    # number of draws leaves half a 64-bit word to the next block; normal
    # floats, whose sums round, pin each block's means to the bits of
    # ndarray.mean, and not only on integer-valued data; a stack of several
    # rows of whole numbers sums its blocks from resample counts
    @pytest.mark.parametrize("rows, size, block_bytes, floats", [
        (1, 1000, simulator.BOOTSTRAP_BLOCK_BYTES, False), (1, 7, 8 * 7, False),
        (1, 1001, 8 * 1001 * 3, False), (1, 1000, simulator.BOOTSTRAP_BLOCK_BYTES, True),
        (1, 1000, 8 * 1000, True), (3, 1000, simulator.BOOTSTRAP_BLOCK_BYTES, False),
        (3, 7, 8 * 7, False), (3, 1001, 8 * 1001 * 3, False)])
    def test_interval_does_not_depend_on_block_size(self, monkeypatch, rows, size, block_bytes,
                                                     floats):
        rng = np.random.default_rng(5)
        stack = (rng.normal(1000.0, 300.0, (rows, size)) if floats
                 else rng.integers(100, 5000, (rows, size)).astype(np.float64))
        monkeypatch.setattr(simulator, "BOOTSTRAP_BLOCK_BYTES", block_bytes)
        bounds = bootstrap_ci(stack, 0.99, 10_000, np.random.default_rng(6))
        # reference: every resample drawn by one call
        picks = np.random.default_rng(6).integers(0, size, size=(10_000, size))
        alpha = (1.0 - 0.99) / 2.0
        for row, interval in zip(stack, bounds.tolist()):
            assert interval == np.quantile(row[picks].mean(axis=1), [alpha, 1.0 - alpha]).tolist()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lone_ci([], 0.99, 100, np.random.default_rng(0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                lone_ci([1.0, bad], 0.99, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lone_ci([1.0], 1.0, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lone_ci([1.0], 0.99, 0, np.random.default_rng(0))

    def test_stack_gives_each_row_its_lone_interval(self):
        stack = np.random.default_rng(7).integers(100, 5000, (4, 300)).astype(np.float64)
        bounds = bootstrap_ci(stack, 0.95, 3000, np.random.default_rng(8))
        assert bounds.shape == (4, 2)
        for row, (lo, hi) in zip(stack, bounds.tolist()):
            assert (lo, hi) == lone_ci(row, 0.95, 3000, np.random.default_rng(8))

    def test_stack_working_memory_is_bounded(self):
        # a grid's group of 15 cells of 1000 decided iterations: 1.2 MB of
        # means beside one index block, its counts and their float64 copy
        stack = np.random.default_rng(3).integers(100, 5000, (15, 1000)).astype(np.float64)
        peak = traced_peak(bootstrap_ci, stack, 0.99, 10_000, np.random.default_rng(4))
        assert peak < 8 * 15 * 10_000 + 3 * simulator.BOOTSTRAP_BLOCK_BYTES + 64 * 2**10

    # efforts, and values with n * max|x| just below 2**53, the counts
    # guard: row 0 holds the largest value throughout, so its sums reach
    # the guard's edge
    @pytest.mark.parametrize("rows", [2, 14, 15])
    @pytest.mark.parametrize("size", [1, 7, 999, 1000])
    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    @pytest.mark.parametrize("at_guard", [False, True])
    def test_whole_numbers_count_as_they_gather(self, monkeypatch, rows, size, block_rows,
                                                at_guard):
        largest = (2**53 - 1) // size if at_guard else 5000
        stack = np.random.default_rng(size).integers(-largest, largest + 1, (rows, size))
        stack[0] = largest
        stack = stack.astype(np.float64)
        counted = spy_on(monkeypatch, "bincount", np)
        # each row alone gathers, at the default block, the same indices
        gathered = np.stack([simulator.resample_means(row[None], 2000, np.random.default_rng(6))[0]
                             for row in stack])
        assert counted == []
        if block_rows is not None:
            monkeypatch.setattr(simulator, "BOOTSTRAP_BLOCK_BYTES", 8 * size * block_rows)
        block = max(1, simulator.BOOTSTRAP_BLOCK_BYTES // (8 * size))
        means = simulator.resample_means(stack, 2000, np.random.default_rng(6))
        assert len(counted) == math.ceil(2000 / block)
        assert means.tobytes() == gathered.tobytes()
        bounds = bootstrap_ci(stack, 0.99, 2000, np.random.default_rng(6))
        assert bounds.tobytes() == simulator.percentile_interval(gathered, 0.99).tobytes()

    @pytest.mark.parametrize("stack", [
        # not whole numbers
        np.array([[1.0, 2.0, 3.5], [4.0, 5.0, 6.0]]),
        # whole, but 3 * max|x| reaches 2**53
        np.array([[1.0, 2.0, 3.0], [-(2.0**53 // 3 + 1), 0.0, 1.0]]),
        # whole, but a sample alone
        np.array([[1.0, 2.0, 3.0]])])
    def test_other_stacks_gather_and_each_row_gets_its_lone_interval(self, monkeypatch, stack):
        counted = spy_on(monkeypatch, "bincount", np)
        bounds = bootstrap_ci(stack, 0.9, 500, np.random.default_rng(3))
        assert counted == []
        for row, (lo, hi) in zip(stack, bounds.tolist()):
            assert (lo, hi) == lone_ci(row, 0.9, 500, np.random.default_rng(3))

    def test_stack_must_be_two_dimensional(self):
        # one sample alone is a (1, n) stack, not an (n,) array
        with pytest.raises(ValueError, match=r"\(k, n\) stack, got shape \(3,\)"):
            bootstrap_ci(np.ones(3), 0.99, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones((2, 3, 4)), 0.99, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones((3, 0)), 0.99, 100, np.random.default_rng(0))


def spy_on(monkeypatch, name, module=simulator):
    """Record the shape of the first argument of each call to
    ``module.name``."""
    calls = []
    wrapped = getattr(module, name)

    def spy(array, *args, **kwargs):
        calls.append(np.shape(array))
        return wrapped(array, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestPercentileInterval:
    # 0.75 puts the virtual indices of 5 means at 0.5 and 3.5, and 0.5 those
    # of 3 means at 0.5 and 1.5, where numpy interpolates from the upper
    # value; a lone mean of -0.0 keeps its sign only as numpy reads the last
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 1000, 10_000])
    @pytest.mark.parametrize("confidence", [0.5, 0.75, 0.99, 0.999999])
    def test_matches_np_quantile_bit_for_bit(self, size, confidence):
        rng = np.random.default_rng(size)
        rows = np.stack([rng.normal(1000.0, 300.0, size), rng.normal(0.0, 1e-3, size),
                         rng.integers(0, 4, size), np.full(size, 1234.5), np.full(size, -0.0),
                         rng.integers(100, 5000, size) / 1000.0])
        alpha = (1.0 - confidence) / 2.0
        expected = np.array([np.quantile(row, [alpha, 1.0 - alpha]) for row in rows])
        assert simulator.percentile_interval(rows.copy(), confidence).tobytes() == \
            expected.tobytes()


class TestBootstrapGrid:
    def test_each_cell_gets_its_lone_interval(self):
        # cells of one size share their resample indices; each interval is
        # still that of the cell alone on a fresh bootstrap stream
        rng = np.random.default_rng(9)
        samples = [rng.integers(10, 900, size).tolist() for size in (50, 50, 49, 0, 50)]
        intervals = bootstrap_grid(samples, 11, 0.99, 2500)
        assert len(intervals) == 5
        for sample, interval in zip(samples, intervals):
            if sample:
                assert interval == lone_ci(sample, 0.99, 2500, substream(11, DOMAIN_BOOTSTRAP, 0))
        assert all(math.isnan(bound) for bound in intervals[3])

    def test_one_bootstrap_per_sample_size(self, monkeypatch):
        calls = spy_on(monkeypatch, "bootstrap_ci")
        samples = [[1, 2, 3], [4, 5, 6, 7], [], [8, 9, 10], [11, 12, 13, 14], [15, 16, 17]]
        bootstrap_grid(samples, 0, 0.9, 100)
        assert calls == [(3, 3), (2, 4)]

    def test_a_large_group_is_bootstrapped_in_chunks(self, monkeypatch):
        # 200 cells of one size at 2000 resamples would hold 3.2 MB of
        # means; chunks of 131 cells hold at most BOOTSTRAP_MEANS_BYTES,
        # 2 MiB, and every cell still gets its lone interval
        calls = spy_on(monkeypatch, "bootstrap_ci")
        rng = np.random.default_rng(13)
        samples = [rng.integers(10, 900, 20).tolist() for _ in range(200)]
        intervals = bootstrap_grid(samples, 5, 0.95, 2000)
        assert calls == [(131, 20), (69, 20)]
        assert all(8 * rows * 2000 <= simulator.BOOTSTRAP_MEANS_BYTES for rows, _ in calls)
        for sample, interval in zip(samples, intervals):
            assert interval == lone_ci(sample, 0.95, 2000, substream(5, DOMAIN_BOOTSTRAP, 0))

    def test_empty_grid_and_empty_cells(self):
        assert bootstrap_grid([], 0, 0.99, 100) == []
        assert all(math.isnan(bound) for interval in bootstrap_grid([[], []], 0, 0.99, 100)
                   for bound in interval)


class TestConfigValidation:
    """ExperimentConfig is a plain record: each value is checked by the
    function that uses it, so run_experiment rejects a bad one before its
    first iteration runs."""

    @pytest.fixture
    def iterations_run(self, monkeypatch):
        """The generator of each iteration run_experiment has started."""
        started, run = [], simulator.run_iteration

        def counted(config, requests, pool, law, band, rng, **kwargs):
            started.append(rng)
            return run(config, requests, pool, law, band, rng, **kwargs)

        monkeypatch.setattr(simulator, "run_iteration", counted)
        return started

    def test_bad_delta(self, iterations_run):
        with pytest.raises(ValueError):
            run_experiment(make_config(delta=0.0))
        assert iterations_run == []

    def test_bad_iterations(self, iterations_run):
        with pytest.raises(ValueError):
            run_experiment(make_config(iterations=0))
        assert iterations_run == []

    def test_bad_seed(self, iterations_run):
        with pytest.raises(ValueError):
            run_experiment(make_config(seed=-1))
        assert iterations_run == []

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
        ("iterations", 0, "iterations must be >= 1, got 0")])
    def test_streams_are_checked_before_the_cell(self, iterations_run, field, value, message):
        # a bad seed or iteration count is named before a bad delta, which
        # the cell's band would name
        with pytest.raises(ValueError, match=message):
            run_experiment(make_config(**{field: value}, delta=0.0))
        assert iterations_run == []

    def test_bad_capability_bounds(self, iterations_run):
        for lo, hi in ((-0.1, 0.5), (0.5, 1.1), (0.9, 0.8)):
            with pytest.raises(ValueError, match="capability bounds"):
                run_experiment(make_config(capability_lo=lo, capability_hi=hi))
        assert iterations_run == []
        run_experiment(make_config(capability_lo=0.0, capability_hi=0.0))
        run_experiment(make_config(capability_lo=1.0, capability_hi=1.0))

    def test_bad_pool_size(self, iterations_run):
        with pytest.raises(ValueError, match="pool_size"):
            run_experiment(make_config(pool_size=0))
        assert iterations_run == []

    @pytest.mark.parametrize("field, value", [
        ("sigma", math.nan), ("sigma", math.inf), ("sigma", -0.1), ("mu", math.nan),
        ("mu", -math.inf), ("mu", 1.5)])
    def test_bad_difficulty_parameters(self, iterations_run, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            run_experiment(make_config(**{field: value}))
        assert iterations_run == []

    def test_bad_request_count(self, iterations_run):
        # sample_difficulties checks it, and names its own parameter
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            run_experiment(make_config(n_requests=0))
        assert iterations_run == []

    @pytest.mark.parametrize("field, value, message", [
        ("delta", 1.0, r"delta must lie in \(0, 1\), got 1.0"),
        ("seed", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
    ])
    def test_standalone_iteration_checks_what_it_uses(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            # a standalone iteration takes its stream as trace does, so the
            # seed is checked where the stream is made
            lone_iteration(make_config(**{field: value}), 0)
