"""Acceptance suite: one test per release criterion, one printed line each.

The default configuration is worker capabilities Unif(0.8, 1.0), pool 100,
difficulty sigma 0.1, decision probability 0.999 and 1000 iterations per
cell. The statistical criteria check the simulator against the exact law of
the process PAPER.md states (``exact_oracle``: a first-exit recursion of the
Hoeffding rule over the cell's own realized pool and request set), within
the Monte Carlo error of the cell:

* 01: each cell's mean effort lies within z standard errors of the exact
  expectation;
* 03: the one-worker effort ratio between the two hardest regimes (4000
  iterations per cell) lies within z delta-method errors of the exact ratio;
* 10: each cell's count of undecided iterations is a plausible draw from
  Binomial(iterations, exact P(undecided)).

The same two checks run over every cell of configs/simulate_smoke.yaml
(``TestSmokeGridExactLaw``), so a change to how votes are drawn is checked
against the law on a second grid within seconds.

z comes from one family-wise false-alarm rate, FALSE_ALARM_RATE, split over
the cells a criterion checks. It was fixed before the checks were run and
is never tuned to the seed.

``REFERENCE`` is an effort table pinned by an earlier version of this suite.
Neither PAPER.md nor any other document says where it came from, and the
stated process cannot produce it: every cell lies 1.15x to 2.25x above the
exact expectation. It is kept unchanged and printed next to the exact and
measured values, and a check confirms criterion 01 would reject it.

Criteria that need the published crowd-annotation datasets look for
$TWOCHOICE_AMT_DIR (files v1_vs_cga.csv, v2_vs_cga_r1.csv,
v2_vs_cga_r2.csv) and fall back to hand-computed cases and property
checks when the data is not available.
"""
import math
import os
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
import yaml

from twochoice.cli import main, simulate_grid
from twochoice.config import load_simulate_config
from twochoice.decision import hoeffding_tolerance
from twochoice.eval_model import sample_capabilities
from twochoice.replay import fleiss_kappa, parse_annotations, replay_experiment
from twochoice.simulator import (
    ExperimentConfig, draw_finals, final_law, run_experiment)
from twochoice.strategies import Strategy

from exact_oracle import cell_expectation
from helpers import annotation_set, cell_draws, lone_iteration, min_n_for_decision

SEED = 0
DELTA = 0.001
REGIMES = {0.25: 3500, 0.125: 5000, 0.0625: 15000}
STRATEGIES = ("n-workers:7", "n-workers:5", "max-three", "fixed-worker", "one-worker")

# (strategy, mu) -> (reference mean effort, 99% CI low, 99% CI high)
REFERENCE = {
    ("n-workers:7", 0.25): (866, 841, 888),
    ("n-workers:5", 0.25): (722, 700, 742),
    ("max-three", 0.25): (461, 447, 476),
    ("fixed-worker", 0.25): (344, 331, 357),
    ("one-worker", 0.25): (338, 325, 349),
    ("n-workers:7", 0.125): (3647, 3536, 3767),
    ("n-workers:5", 0.125): (3141, 3040, 3236),
    ("max-three", 0.125): (2011, 1952, 2080),
    ("fixed-worker", 0.125): (1454, 1404, 1502),
    ("one-worker", 0.125): (1440, 1399, 1489),
    ("n-workers:7", 0.0625): (13302, 12965, 13609),
    ("n-workers:5", 0.0625): (10850, 10607, 11114),
    ("max-three", 0.0625): (6729, 6551, 6900),
    ("fixed-worker", 0.0625): (4526, 4376, 4685),
    ("one-worker", 0.0625): (4491, 4356, 4636),
}

# Family-wise chance that a statistical criterion fails on a correct
# simulator. Each criterion splits it evenly over the cells it checks.
FALSE_ALARM_RATE = 1e-5

AMT_DIR = os.environ.get("TWOCHOICE_AMT_DIR")
AMT_FILES = {"v1": "v1_vs_cga.csv", "r1": "v2_vs_cga_r1.csv", "r2": "v2_vs_cga_r2.csv"}


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})", flush=True)


def cell_config(strategy_name, mu, iterations):
    return ExperimentConfig(
        capability_lo=0.8, capability_hi=1.0, pool_size=100,
        mu=mu, sigma=0.1, n_requests=REGIMES[mu],
        strategy=Strategy.from_name(strategy_name),
        delta=DELTA, iterations=iterations, seed=SEED)


def z_bound(checks):
    """Two-sided normal quantile for FALSE_ALARM_RATE split over `checks`."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM_RATE / (2 * checks))


def binomial_tails(k, n, p):
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p), with 0 <= p < 1.

    Each pmf term is exponentiated from its own logarithm, the log of
    (1 - p)^n plus the running sum of the log ratios between neighbouring
    terms, so no term underflows because (1 - p)^n does.
    """
    j = np.arange(n)
    with np.errstate(divide="ignore"):  # p = 0 puts every term past j = 0 at log 0
        log_ratio = np.log((n - j) / (j + 1)) + np.log(p / (1 - p))
    pmf = np.exp(n * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(log_ratio))))
    return min(1.0, float(pmf[:k + 1].sum())), min(1.0, float(pmf[k:].sum()))


@dataclass(frozen=True)
class Measured:
    mean: float  # mean effort over decided iterations
    se: float  # standard error of that mean
    undecided: int
    iterations: int


def measure(config):
    summary = run_experiment(config)
    efforts = np.array([r.effort for r in summary.per_iteration if r.decided], dtype=np.float64)
    return Measured(mean=summary.mean_effort,
                    se=float(efforts.std(ddof=1) / math.sqrt(efforts.size)),
                    undecided=config.iterations - efforts.size, iterations=config.iterations)


@pytest.fixture(scope="session")
def reference_grid():
    """Measured effort and undecided count per cell at the pinned 1000 iterations."""
    return {(name, mu): measure(cell_config(name, mu, 1000))
            for mu in REGIMES for name in STRATEGIES}


@pytest.fixture(scope="session")
def ordering_grid():
    # the 7-vs-5 worker gap is a few percent, so the ordering check runs at
    # higher precision than the reference grid to keep Monte-Carlo noise
    # below the real differences
    return {(name, mu): measure(cell_config(name, mu, 4000))
            for mu in REGIMES
            for name in ("n-workers:7", "n-workers:5", "max-three", "one-worker")}


def exact_cell(config):
    """Exact expectation of a cell, from the same pool and request draws
    that run_experiment makes for it."""
    requests, pool = cell_draws(config)
    return cell_expectation(config.strategy.name, requests.difficulties, pool.capabilities,
                            config.delta, config.n_requests)


@pytest.fixture(scope="session")
def exact_grid():
    """Exact expectation per cell of the reference grid."""
    return {(name, mu): exact_cell(cell_config(name, mu, 1))
            for mu in REGIMES for name in STRATEGIES}


def amt_set(key):
    if not AMT_DIR:
        return None
    path = Path(AMT_DIR) / AMT_FILES[key]
    return parse_annotations(path) if path.exists() else None


def make_set(vote_lists):
    return annotation_set(
        {f"r{i}": {f"w{i}_{j}": int(v) for j, v in enumerate(votes)}
         for i, votes in enumerate(vote_lists)}, "synthetic")


class TestCriterion01ReferenceEffortGrid:
    # The test name predates the exact oracle; the band is now z standard
    # errors of the cell around its exact expectation (module docstring).
    def test_mean_effort_within_widened_reference_ci(self, reference_grid, exact_grid):
        z = z_bound(len(REFERENCE))
        failures = []
        for (name, mu), (ref_mean, _, _) in REFERENCE.items():
            cell = reference_grid[(name, mu)]
            exact = exact_grid[(name, mu)].mean_effort
            ok = abs(cell.mean - exact) <= z * cell.se
            print(f"  cell {name:>12s} mu={mu:<7}: REFERENCE {ref_mean:6d}  exact {exact:8.1f}  "
                  f"measured {cell.mean:8.1f}  band +-{z * cell.se:6.1f} "
                  f"({100 * z * cell.se / exact:.1f}%)  z={(cell.mean - exact) / cell.se:+.2f}  "
                  f"{'ok' if ok else 'OUT'}", flush=True)
            if not ok:
                failures.append((name, mu, cell.mean, exact))
        report("01 reference-effort-grid", not failures,
               f"{len(REFERENCE) - len(failures)}/{len(REFERENCE)} cells within "
               f"{z:.2f} standard errors of the exact expectation")
        assert not failures, f"cells outside the band around the exact expectation: {failures}"

    def test_band_rejects_reference_table(self, reference_grid, exact_grid):
        z = z_bound(len(REFERENCE))
        accepted = [(name, mu) for (name, mu), (ref_mean, _, _) in REFERENCE.items()
                    if abs(ref_mean - exact_grid[(name, mu)].mean_effort)
                    <= z * reference_grid[(name, mu)].se]
        assert not accepted, f"REFERENCE means inside the criterion 01 band: {accepted}"


class TestCriterion02StrategyOrdering:
    def test_effort_strictly_decreases_with_cheaper_strategies(self, ordering_grid):
        chain = ("n-workers:7", "n-workers:5", "max-three", "one-worker")
        violations = []
        for mu in REGIMES:
            efforts = [ordering_grid[(name, mu)].mean for name in chain]
            for (a, ea), (b, eb) in zip(zip(chain, efforts), zip(chain[1:], efforts[1:])):
                if not ea > eb:
                    violations.append(f"mu={mu}: {a}={ea:.0f} <= {b}={eb:.0f}")
        report("02 strategy-ordering", not violations,
               "7W > 5W > max3 > 1W in every regime" if not violations else "; ".join(violations))
        assert not violations


class TestCriterion03DifficultyScaling:
    def test_one_worker_effort_ratio_between_hard_regimes(self, ordering_grid, exact_grid):
        hard = ordering_grid[("one-worker", 0.0625)]
        mid = ordering_grid[("one-worker", 0.125)]
        ratio = hard.mean / mid.mean
        exact = (exact_grid[("one-worker", 0.0625)].mean_effort
                 / exact_grid[("one-worker", 0.125)].mean_effort)
        half = z_bound(1) * ratio * math.hypot(hard.se / hard.mean, mid.se / mid.mean)
        ok = abs(ratio - exact) <= half
        report("03 difficulty-scaling", ok,
               f"one-worker effort ratio mu=0.0625/mu=0.125 = {ratio:.3f} over "
               f"{hard.iterations} iterations, exact {exact:.3f} +- {half:.3f}; "
               f"the pinned range [2.5, 3.7] is not reachable under the stated process")
        assert ok, f"ratio {ratio:.3f} outside exact {exact:.3f} +- {half:.3f}"


class TestCriterion04HoeffdingFormula:
    def test_tolerance_matches_high_precision_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        worst = 0.0
        for delta in (0.5, 0.1, 0.01, 0.001, 0.0001, 1e-6, 1e-9):
            for n in (1, 2, 5, 14, 100, 337, 1000, 4491, 10**4, 10**6):
                exact = float(mpmath.sqrt(-mpmath.log(mpmath.mpf(str(delta))) / (2 * n)))
                worst = max(worst, abs(hoeffding_tolerance(delta, n) - exact))
        floors = [min_n_for_decision(d) for d in (0.001, 0.01, 0.0001)]
        ok = worst <= 1e-12 and floors == [14, 10, 19]
        report("04 hoeffding-formula", ok,
               f"max |t - closed form| = {worst:.2e}; min n for delta 1e-3/1e-2/1e-4 = {floors}")
        assert worst <= 1e-12
        assert floors == [14, 10, 19]


class TestCriterion05EffortIdentities:
    def test_randomized_runs_obey_effort_accounting(self):
        rng = np.random.default_rng(123)
        checked = 0
        failures = []
        for run in range(10_000):
            names = ("one-worker", "fixed-worker", "max-three", "n-workers:3",
                     "n-workers:5", "n-workers:7", "n-workers:9")
            name = names[run % len(names)]
            config = ExperimentConfig(
                capability_lo=float(rng.uniform(0.0, 0.6)),
                capability_hi=float(rng.uniform(0.6, 1.0)),
                pool_size=int(rng.integers(1, 40)),
                mu=float(rng.uniform(-0.6, 0.6)),
                sigma=float(rng.uniform(0.0, 0.3)),
                n_requests=int(rng.integers(20, 80)),
                strategy=Strategy.from_name(name),
                delta=float(rng.choice([0.05, 0.01, 0.001])),
                iterations=1, seed=int(rng.integers(0, 2**32)))
            result = lone_iteration(config, 0)
            n = result.n_at_decision
            if name in ("one-worker", "fixed-worker"):
                ok = result.effort == n
            elif name == "max-three":
                ok = 2 * n <= result.effort <= 3 * n
            else:
                ok = result.effort == int(name.split(":")[1]) * n
            checked += 1
            if not ok:
                failures.append((name, config.seed))
        report("05 effort-identities", not failures,
               f"{checked} randomized runs, {len(failures)} violations")
        assert not failures


class TestCriterion06BinomialMajorityOracle:
    def test_majority_of_three_matches_closed_form(self):
        p = 0.6125  # all capabilities 1.0, difficulty 0.225
        expected = 3 * p**2 * (1 - p) + p**3
        pool = sample_capabilities(1.0, 1.0, 10, np.random.default_rng(0))
        strategy = Strategy.from_name("n-workers:3")
        rng = np.random.default_rng(2024)
        trials = 10**5
        law = final_law(strategy, np.full(trials, 0.225), pool.capabilities.mean())
        finals, _, _ = draw_finals(strategy, law, rng.random(trials))
        freq = float(finals.mean())
        tolerance = 3 * math.sqrt(expected * (1 - expected) / trials)
        ok = abs(freq - expected) < tolerance
        report("06 binomial-majority-oracle", ok,
               f"majority-of-3 at p=0.6125: {freq:.5f} vs closed form {expected:.5f} "
               f"(3-sigma {tolerance:.5f})")
        assert ok


class TestCriterion07FleissKappa:
    def test_hand_cases_and_dataset_values(self):
        exact_one = fleiss_kappa(make_set([[1, 1, 1], [0, 0, 0]]))
        exact_third = fleiss_kappa(make_set([[1, 1, 0], [1, 0, 0]]))
        hand_ok = exact_one == 1.0 and abs(exact_third - (-1 / 3)) < 1e-12

        rng = np.random.default_rng(6)
        votes = [[int(rng.random() < 0.7) for _ in range(10)] for _ in range(50)]
        flipped = [[1 - v for v in row] for row in votes]
        swap_ok = math.isclose(fleiss_kappa(make_set(votes)), fleiss_kappa(make_set(flipped)),
                               rel_tol=0, abs_tol=1e-12)
        bounded_ok = all(
            fleiss_kappa(make_set([[int(rng.random() < q) for _ in range(8)] for _ in range(30)])) <= 1.0
            for q in (0.3, 0.5, 0.8)
        )

        expected = {"v1": 0.69, "r1": 0.27, "r2": 0.38}
        dataset_notes = []
        dataset_ok = True
        for key, want in expected.items():
            annotations = amt_set(key)
            if annotations is None:
                dataset_notes.append(f"{AMT_FILES[key]} unavailable")
                continue
            got = fleiss_kappa(annotations)
            if abs(got - want) > 0.02:
                dataset_ok = False
            dataset_notes.append(f"{key}: kappa {got:.3f} vs {want} +-0.02")

        ok = hand_ok and swap_ok and bounded_ok and dataset_ok
        report("07 fleiss-kappa", ok,
               f"hand cases exact (1, -1/3); swap-invariant; bounded; {'; '.join(dataset_notes)}")
        assert hand_ok and swap_ok and bounded_ok and dataset_ok


class TestCriterion08ReplayDecisionRatios:
    def test_reference_ratios_or_monotone_fallback(self):
        deltas = (0.01, 0.001, 0.0001)
        notes = []
        ok = True

        targets = {"r1": (0.95, 0.80, 0.49), "r2": (1.00, 1.00, 0.96)}
        have_data = False
        for key, wants in targets.items():
            annotations = amt_set(key)
            if annotations is None:
                continue
            have_data = True
            for delta, want in zip(deltas, wants):
                summary = replay_experiment(annotations, Strategy.from_name("one-worker"),
                                            delta, 100, seed=SEED)
                if abs(summary.decision_ratio - want) > 0.05:
                    ok = False
                notes.append(f"{key}@{delta}: {summary.decision_ratio:.2f} vs {want:.2f}")

        rng = np.random.default_rng(14)
        synthetic = make_set([[int(rng.random() < 0.66) for _ in range(10)] for _ in range(150)])
        ratios = [replay_experiment(synthetic, Strategy.from_name("one-worker"),
                                    delta, 100, seed=SEED).decision_ratio
                  for delta in deltas]
        monotone = ratios[0] >= ratios[1] >= ratios[2] and ratios[2] > 0
        ok = ok and monotone
        mode = "reference datasets" if have_data else "datasets unavailable, property fallback"
        notes.append("monotone ratios " + "/".join(f"{r:.2f}" for r in ratios))
        report("08 replay-decision-ratios", ok, f"{mode}; {'; '.join(notes)}")
        assert ok


class TestCriterion09Determinism:
    def test_byte_identical_outputs_across_reruns_and_jobs(self, tmp_path):
        config = tmp_path / "grid.yaml"
        config.write_text(yaml.safe_dump({
            "workers": {"lo": 0.8, "hi": 1.0, "pool_size": 30},
            "regimes": [{"mu": 0.35, "sigma": 0.1, "n_requests": 400},
                        {"mu": 0.2, "sigma": 0.1, "n_requests": 800}],
            "strategies": ["one-worker", "max-three", "n-workers:5"],
            "deltas": [0.01, 0.001],
            "iterations": 60,
            "seed": 11,
        }), encoding="utf-8")
        outputs = {}
        for name, jobs in (("first", 1), ("second", 1), ("eight", 8)):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            outputs[name] = ((out / "summary.csv").read_bytes(),
                             (out / "manifest.yaml").read_bytes())
        same_rerun = outputs["first"][0] == outputs["second"][0]
        same_jobs = outputs["first"][0] == outputs["eight"][0]
        same_manifest = outputs["first"][1] == outputs["second"][1] == outputs["eight"][1]
        ok = same_rerun and same_jobs and same_manifest
        report("09 determinism", ok,
               f"rerun identical: {same_rerun}; --jobs 1 vs 8 identical: {same_jobs}")
        assert ok


class TestCriterion10DecisionsAlwaysReached:
    # The stated process does not promise a verdict in every iteration: at
    # mu=0.0625 a few in ten thousand iterations run out of requests. Each
    # cell's undecided count must be a plausible Binomial draw at the exact
    # undecided probability, at the same family-wise rate as criterion 01.
    def test_every_iteration_decides_at_default_probability(self, reference_grid, exact_grid):
        per_side = FALSE_ALARM_RATE / (2 * len(reference_grid))
        outliers = {}
        for cell, measured in reference_grid.items():
            p_undecided = max(0.0, 1.0 - exact_grid[cell].p_decided)
            at_most, at_least = binomial_tails(measured.undecided, measured.iterations, p_undecided)
            if measured.undecided or p_undecided * measured.iterations > 0.01:
                print(f"  cell {cell[0]:>12s} mu={cell[1]:<7}: undecided {measured.undecided} "
                      f"of {measured.iterations}, expected {p_undecided * measured.iterations:.3f}",
                      flush=True)
            if min(at_most, at_least) < per_side:
                outliers[cell] = (measured.undecided, p_undecided)
        total = sum(m.undecided for m in reference_grid.values())
        expected = sum((1.0 - exact_grid[c].p_decided) * m.iterations
                       for c, m in reference_grid.items())
        report("10 decisions-always-reached", not outliers,
               f"{total} undecided iterations over 15 cells, exact expectation {expected:.2f}"
               + (f"; implausible cells: {outliers}" if outliers else ""))
        assert not outliers


class TestSmokeGridExactLaw:
    # Criteria 01 and 10 over the smoke grid: each cell's mean effort within
    # z standard errors of the exact expectation, and its undecided count a
    # plausible Binomial draw, at the same family-wise FALSE_ALARM_RATE.
    def test_every_cell_matches_exact_law(self):
        config = load_simulate_config(Path(__file__).parents[1] / "configs" / "simulate_smoke.yaml")
        cells = simulate_grid(config)
        z = z_bound(len(cells))
        per_side = FALSE_ALARM_RATE / (2 * len(cells))
        failures = []
        for cell in cells:
            measured, exact = measure(cell), exact_cell(cell)
            p_undecided = max(0.0, 1.0 - exact.p_decided)
            tails = binomial_tails(measured.undecided, measured.iterations, p_undecided)
            ok = (abs(measured.mean - exact.mean_effort) <= z * measured.se
                  and min(tails) >= per_side)
            print(f"  cell {cell.strategy.name:>12s} mu={cell.mu:<4} delta={cell.delta:<6}: "
                  f"exact {exact.mean_effort:7.1f}  measured {measured.mean:7.1f}  "
                  f"z={(measured.mean - exact.mean_effort) / measured.se:+.2f}  undecided "
                  f"{measured.undecided} of {measured.iterations}, expected "
                  f"{p_undecided * measured.iterations:.2f}  {'ok' if ok else 'OUT'}", flush=True)
            if not ok:
                failures.append((cell.strategy.name, cell.mu, cell.delta))
        assert not failures, f"smoke cells off the exact law: {failures}"


class TestBinomialTails:
    # The criteria's tail helper against a 40-digit mpmath sum, including
    # supplies where (1 - p)^n underflows to 0.0 in double precision.
    @pytest.mark.parametrize("k, n, p", [
        (520, 800, 0.65), (0, 1000, 2.6e-4), (3, 1000, 7.1e-4), (1, 1000, 0.0),
        (0, 4000, 0.0), (2450, 5000, 0.5), (70, 2000, 0.05), (2000, 2000, 0.999)])
    def test_matches_high_precision_sum(self, k, n, p):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        q = mpmath.mpf(p)
        pmf = [mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j) for j in range(n + 1)]
        at_most, at_least = binomial_tails(k, n, p)
        assert at_most == pytest.approx(float(mpmath.fsum(pmf[:k + 1])), rel=1e-9, abs=1e-300)
        assert at_least == pytest.approx(float(mpmath.fsum(pmf[k:])), rel=1e-9, abs=1e-300)
