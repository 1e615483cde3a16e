import io
import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from twochoice.decision import Verdict
from twochoice.replay import (
    DataFormatError,
    fleiss_kappa,
    parse_annotations,
    replay_experiment,
    replay_iteration,
)
from twochoice.rng import DOMAIN_ITERATION, substream
from twochoice.strategies import Strategy

from helpers import annotation_set


def csv_stream(text):
    return io.StringIO(text.strip() + "\n")


def make_set(vote_lists, label="synthetic"):
    return annotation_set(
        {f"r{i}": {f"w{i}_{j}": int(v) for j, v in enumerate(votes)}
         for i, votes in enumerate(vote_lists)}, label)


class TestParseAnnotations:
    def test_tallies_per_request(self):
        annotations = parse_annotations(csv_stream(
            "request_id,worker_id,label\nr2,w3,1\nr1,w9,1\nr2,w1,0\nr2,w2,1"),
            experiment_label="set")
        assert annotations.ones.tolist() == [2, 1]
        assert annotations.counts.tolist() == [3, 1]
        assert annotations.request_ids == ("r2", "r1")
        assert annotations.worker_ids == {"w1", "w2", "w3", "w9"}
        assert annotations.experiment_label == "set"
        assert len(annotations) == 2

    def test_minimal_file(self):
        parsed = parse_annotations(csv_stream(
            "request_id,worker_id,label\nr1,w1,1\nr1,w2,1\nr1,w3,0"))
        assert len(parsed) == 1
        assert parsed.request_ids == ("r1",)
        assert parsed.ones.tolist() == [2]
        assert parsed.counts.tolist() == [3]
        assert parsed.worker_ids == {"w1", "w2", "w3"}

    def test_bad_label_cites_line_number(self):
        text = "request_id,worker_id,label\n" + \
               "\n".join(f"r1,w{i},1" for i in range(1, 6)) + "\nr1,w9,2"
        with pytest.raises(DataFormatError, match="line 7"):
            parse_annotations(csv_stream(text))

    def test_blank_lines_are_skipped(self):
        parsed = parse_annotations(csv_stream(
            "request_id,worker_id,label\n\nr1,w1,1\n\nr2,w1,0\nr1,w2,0\n"))
        assert parsed.request_ids == ("r1", "r2")
        assert parsed.ones.tolist() == [1, 0]
        assert parsed.counts.tolist() == [2, 1]

    def test_short_row_cites_line_number(self):
        with pytest.raises(DataFormatError, match="line 4: short row"):
            parse_annotations(csv_stream(
                "request_id,worker_id,label\nr1,w1,1\n\nr1,w2"))

    def test_duplicate_vote_names_the_pair(self):
        with pytest.raises(DataFormatError, match=r"'w1'.*'r1'"):
            parse_annotations(csv_stream(
                "request_id,worker_id,label\nr1,w1,1\nr1,w1,0"))

    def test_empty_file(self):
        with pytest.raises(DataFormatError, match="empty"):
            parse_annotations(csv_stream(""))

    def test_header_only(self):
        with pytest.raises(DataFormatError, match="no annotation rows"):
            parse_annotations(csv_stream("request_id,worker_id,label"))

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="missing columns"):
            parse_annotations(csv_stream("request_id,voter,label\nr1,w1,1"))

    def test_extra_columns_ignored(self):
        parsed = parse_annotations(csv_stream(
            "request_id,worker_id,label,elapsed\nr1,w1,1,12.5"))
        assert parsed.request_ids == ("r1",)
        assert parsed.ones.tolist() == [1]
        assert parsed.counts.tolist() == [1]

    def test_mapping_adapts_foreign_schema(self):
        parsed = parse_annotations(
            csv_stream("pair,turker,choice\np1,t1,A\np1,t2,B"),
            mapping={"request_id": "pair", "worker_id": "turker", "label": "choice",
                     "label_map": {"A": 1, "B": 0}})
        assert parsed.request_ids == ("p1",)
        assert parsed.ones.tolist() == [1]
        assert parsed.counts.tolist() == [2]

    def test_unmapped_label_value_is_an_error(self):
        with pytest.raises(DataFormatError, match="label_map"):
            parse_annotations(
                csv_stream("request_id,worker_id,label\nr1,w1,C"),
                mapping={"label_map": {"A": 1, "B": 0}})

    def test_bytes_input(self):
        parsed = parse_annotations(io.BytesIO(b"request_id,worker_id,label\nr1,w1,0\n"))
        assert parsed.request_ids == ("r1",)
        assert parsed.ones.tolist() == [0]
        assert parsed.counts.tolist() == [1]

    def test_byte_order_mark_is_ignored_from_every_source(self, tmp_path):
        # a byte-order mark left on the header would hide request_id
        text = "\ufeffrequest_id,worker_id,label\nr2,w1,1\nr1,w1,0\nr1,w2,1\n"
        path = tmp_path / "votes.csv"
        path.write_text(text, encoding="utf-8")
        sources = (path, io.BytesIO(text.encode("utf-8")), io.StringIO(text))
        for source in sources:
            parsed = parse_annotations(source, experiment_label="votes")
            assert parsed.request_ids == ("r2", "r1")
            assert parsed.ones.tolist() == [1, 1]
            assert parsed.counts.tolist() == [1, 2]
            assert parsed.worker_ids == {"w1", "w2"}
            assert parsed.experiment_label == "votes"

    def test_file_path_input(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("request_id,worker_id,label\nr1,w1,1\n", encoding="utf-8")
        parsed = parse_annotations(path)
        assert parsed.experiment_label == "votes"


class TestOrderInvariance:
    def test_row_order_and_worker_names_do_not_matter(self):
        rng = np.random.default_rng(21)
        votes = [[(f"r{i}", f"w{j}", int(rng.random() < p)) for j in range(rng.integers(4, 10))]
                 for i, p in enumerate(rng.uniform(0.3, 0.9, 300))]
        rows = [vote for request in votes for vote in request]
        # requests keep their first-appearance order; every other row, and
        # each request's first row, is shuffled, and workers are renamed so
        # that their sort order changes
        firsts = [request[rng.integers(len(request))] for request in votes]
        rest = sorted(set(rows) - set(firsts))
        names = {f"w{j}": f"x{n}" for j, n in enumerate(rng.permutation(9))}
        shuffled = [(r, names[w], v) for r, w, v in
                    firsts + [rest[i] for i in rng.permutation(len(rest))]]

        def parse(lines):
            return parse_annotations(csv_stream("request_id,worker_id,label\n" + "\n".join(
                f"{r},{w},{v}" for r, w, v in lines)))

        a, b = parse(rows), parse(shuffled)
        assert a.request_ids == b.request_ids
        assert a.ones.tolist() == b.ones.tolist()
        assert a.counts.tolist() == b.counts.tolist()
        assert a.counts.min() < a.counts.max()  # kappa subsamples
        assert fleiss_kappa(a, seed=2) == fleiss_kappa(b, seed=2)
        for name in ("one-worker", "max-three", "n-workers:3"):
            strategy = Strategy.from_name(name)
            assert replay_experiment(a, strategy, 0.01, 20, seed=5) == \
                replay_experiment(b, strategy, 0.01, 20, seed=5)


class TestReplayIteration:
    def test_unanimous_set_decides_at_the_floor(self):
        votes = make_set([[1] * 10 for _ in range(20)])
        one_worker = Strategy.from_name("one-worker")
        result = replay_iteration(votes, one_worker, 0.001, substream(4, DOMAIN_ITERATION, 0))
        assert result.decided
        assert result.verdict is Verdict.A_IS_BETTER
        assert result.n_at_decision == 14
        assert result.effort == 14
        stricter = replay_iteration(votes, one_worker, 0.0001, substream(4, DOMAIN_ITERATION, 0))
        assert stricter.n_at_decision == 19

    def test_no_signal_never_decides(self):
        votes = make_set([[1] * 5 + [0] * 5 for _ in range(30)])
        for name in ("one-worker", "max-three", "n-workers:5"):
            result = replay_iteration(votes, Strategy.from_name(name), 0.001,
                                      substream(9, DOMAIN_ITERATION, 0))
            assert not result.decided
            assert result.n_at_decision == 30

    def test_fixed_worker_rejected(self):
        votes = make_set([[1] * 4 for _ in range(20)])
        with pytest.raises(ValueError, match="fixed-worker"):
            replay_iteration(votes, Strategy.from_name("fixed-worker"), 0.001,
                             substream(0, DOMAIN_ITERATION, 0))

    def test_vote_demand_must_fit(self):
        votes = make_set([[1] * 10 for _ in range(20)])
        with pytest.raises(ValueError, match="needs 11"):
            replay_iteration(votes, Strategy.from_name("n-workers:11"), 0.001,
                             substream(0, DOMAIN_ITERATION, 0))
        with pytest.raises(ValueError, match="needs 3"):
            replay_iteration(make_set([[1, 0] for _ in range(20)]),
                             Strategy.from_name("max-three"), 0.001,
                             substream(0, DOMAIN_ITERATION, 0))

    def test_majority_on_exactly_k_votes_uses_every_vote(self):
        # 3-of-5 majority is 1 for every request, whatever the subsample order
        votes = make_set([[1, 1, 0, 0, 1] for _ in range(25)])
        result = replay_iteration(votes, Strategy.from_name("n-workers:5"), 0.01,
                                  substream(77, DOMAIN_ITERATION, 0))
        assert result.decided
        assert result.verdict is Verdict.A_IS_BETTER
        assert result.n_at_decision == 10  # unanimous finals decide at the floor
        assert result.effort == 50

    def test_short_requests_read_only_their_own_votes(self):
        # requests of 3 votes replay next to requests of 11; a law that read
        # another request's count would break the unanimous majorities and
        # delay the decision
        votes = make_set([[1] * 3, [1] * 11] * 15)
        for name in ("one-worker", "max-three", "n-workers:3"):
            strategy = Strategy.from_name(name)
            for i in range(20):
                result = replay_iteration(votes, strategy, 0.001,
                                          substream(12, DOMAIN_ITERATION, i))
                assert result.verdict is Verdict.A_IS_BETTER
                assert result.n_at_decision == 14
                assert result.effort == 14 * (1 if name == "one-worker" else
                                              2 if name == "max-three" else 3)

    def test_row_order_within_request_does_not_matter(self):
        a = parse_annotations(csv_stream(
            "request_id,worker_id,label\n" +
            "\n".join(f"r{i},w{j},{(i + j) % 2}" for i in range(20) for j in range(6))))
        b = parse_annotations(csv_stream(
            "request_id,worker_id,label\n" +
            "\n".join(f"r{i},w{j},{(i + j) % 2}" for i in range(20) for j in reversed(range(6)))))
        for name in ("one-worker", "max-three", "n-workers:3"):
            strategy = Strategy.from_name(name)
            ra = replay_iteration(a, strategy, 0.01, substream(5, DOMAIN_ITERATION, 2))
            rb = replay_iteration(b, strategy, 0.01, substream(5, DOMAIN_ITERATION, 2))
            assert ra == rb


class TestReplayExperiment:
    def test_deterministic(self):
        votes = make_set([[1] * 7 + [0] * 3 for _ in range(40)])
        strategy = Strategy.from_name("one-worker")
        assert replay_experiment(votes, strategy, 0.01, 50, seed=3) == \
               replay_experiment(votes, strategy, 0.01, 50, seed=3)

    def test_effort_identity_for_majorities(self):
        votes = make_set([[1] * 7 + [0] * 3 for _ in range(40)])
        summary = replay_experiment(votes, Strategy.from_name("n-workers:7"), 0.01, 30, seed=1)
        for result in summary.per_iteration:
            assert result.effort == 7 * result.n_at_decision

    def test_decision_ratio_monotone_in_confidence(self):
        rng = np.random.default_rng(14)
        votes = make_set([
            [int(rng.random() < 0.66) for _ in range(10)] for _ in range(150)
        ])
        strategy = Strategy.from_name("one-worker")
        ratios = [replay_experiment(votes, strategy, delta, 60, seed=8).decision_ratio
                  for delta in (0.01, 0.001, 0.0001)]
        assert ratios[0] >= ratios[1] >= ratios[2]
        assert 0.0 < ratios[2] and ratios[0] <= 1.0

    @pytest.mark.parametrize("name", ["one-worker", "max-three"])
    def test_per_iteration_matches_standalone_runs(self, name):
        # replay_experiment takes its streams from iteration_streams and hands each
        # the cell's law and band; a standalone run takes its own substream
        rng = np.random.default_rng(4)
        votes = make_set([[int(rng.random() < 0.52) for _ in range(9)] for _ in range(2500)])
        strategy = Strategy.from_name(name)
        summary = replay_experiment(votes, strategy, 0.001, 12, seed=9)
        assert max(r.n_at_decision for r in summary.per_iteration) > 1024
        for i, result in enumerate(summary.per_iteration):
            assert result == replay_iteration(votes, strategy, 0.001,
                                              substream(9, DOMAIN_ITERATION, i))

    def test_never_fabricates_labels(self):
        # a request with a lone dissent can outvote it at most once per iteration
        votes = make_set([[0] * 9 + [1] for _ in range(30)])
        summary = replay_experiment(votes, Strategy.from_name("n-workers:9"), 0.01, 20, seed=6)
        assert all(r.verdict in (Verdict.A_PRIME_IS_BETTER, Verdict.UNDECIDED)
                   for r in summary.per_iteration)

    def test_needs_an_iteration(self):
        votes = make_set([[1, 0, 1] for _ in range(5)])
        with pytest.raises(ValueError, match="iterations must be >= 1, got 0"):
            replay_experiment(votes, Strategy.from_name("one-worker"), 0.01, 0, seed=0)


class TestFleissKappa:
    def test_perfect_agreement(self):
        assert fleiss_kappa(make_set([[1, 1, 1], [0, 0, 0]])) == 1.0

    def test_hand_computed_two_request_example(self):
        # P-bar = 1/3, Pe-bar = 1/2 -> kappa = -1/3
        kappa = fleiss_kappa(make_set([[1, 1, 0], [1, 0, 0]]))
        assert kappa == pytest.approx(-1 / 3, abs=1e-12)

    def test_single_request_with_mixed_votes_is_nonpositive(self):
        assert fleiss_kappa(make_set([[1, 1, 0]])) <= 0.0

    def test_category_swap_invariance(self):
        rng = np.random.default_rng(3)
        votes = [[int(rng.random() < 0.7) for _ in range(8)] for _ in range(40)]
        flipped = [[1 - v for v in row] for row in votes]
        assert fleiss_kappa(make_set(votes)) == pytest.approx(fleiss_kappa(make_set(flipped)))

    def test_all_votes_one_category_by_convention(self):
        assert fleiss_kappa(make_set([[1, 1, 1], [1, 1, 1]])) == 1.0

    def test_needs_two_votes_per_request(self):
        with pytest.raises(ValueError, match="at least 2"):
            fleiss_kappa(make_set([[1, 1, 1], [1]]))

    def test_unequal_counts_are_trimmed_with_warning(self, caplog):
        mixed = make_set([[1, 1, 0, 1], [1, 0, 0], [0, 0, 1]])
        with caplog.at_level(logging.WARNING, logger="twochoice.replay"):
            kappa = fleiss_kappa(mixed, seed=0)
        assert any("subsampling" in record.message for record in caplog.records)
        assert -1.0 <= kappa <= 1.0
        assert fleiss_kappa(mixed, seed=0) == kappa  # trim is seeded

    def test_bounded_above_by_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            votes = [[int(rng.random() < 0.5) for _ in range(6)] for _ in range(15)]
            assert fleiss_kappa(make_set(votes)) <= 1.0


def subsampled_kappa_law(vote_lists):
    """Expectation and sd of Fleiss kappa after every request is cut to the
    smallest vote count k by a uniform pick of k of its votes.

    A request holding m A-votes in c keeps j of them with the hypergeometric
    probability C(m, j) C(c - m, k - j) / C(c, k). The mean agreement
    P-bar and the A share p1 are averaged exactly over that law, in
    fractions; the sd is the delta method's, with the covariance of the two.
    """
    k, n = min(map(len, vote_lists)), len(vote_lists)
    agree_mean = share_mean = agree_var = share_var = cov = Fraction(0)
    for votes in vote_lists:
        c, m = len(votes), sum(votes)
        pmf = [Fraction(math.comb(m, j) * math.comb(c - m, k - j), math.comb(c, k))
               for j in range(k + 1)]
        agree = [Fraction(j * (j - 1) + (k - j) * (k - j - 1), k * (k - 1)) for j in range(k + 1)]
        ea = sum(p * a for p, a in zip(pmf, agree))
        ej = sum(p * j for j, p in enumerate(pmf))
        agree_mean += ea
        share_mean += ej
        agree_var += sum(p * (a - ea) ** 2 for p, a in zip(pmf, agree))
        share_var += sum(p * (j - ej) ** 2 for j, p in enumerate(pmf))
        cov += sum(p * (a - ea) * (j - ej) for j, (p, a) in enumerate(zip(pmf, agree)))
    p_bar, p1 = agree_mean / n, share_mean / (k * n)
    pe = p1 * p1 + (1 - p1) * (1 - p1)
    kappa = (p_bar - pe) / (1 - pe)
    d_agree, d_share = 1 / (1 - pe), (p_bar - 1) * (4 * p1 - 2) / (1 - pe) ** 2
    var = (d_agree ** 2 * agree_var / n ** 2 + d_share ** 2 * share_var / (k * n) ** 2
           + 2 * d_agree * d_share * cov / (n * k * n))
    return kappa, math.sqrt(var)


class TestKappaSubsampleOracle:
    def ragged_votes(self, seed):
        rng = np.random.default_rng(seed)
        return [(rng.random(rng.integers(3, 9)) < p).astype(int).tolist()
                for p in rng.uniform(0.2, 0.9, 2000)]

    def test_expectation_without_subsample_is_the_plain_kappa(self):
        rng = np.random.default_rng(8)
        votes = [(rng.random(6) < p).astype(int).tolist() for p in rng.uniform(0.2, 0.9, 200)]
        k, n = 6, len(votes)
        ones = [sum(v) for v in votes]
        p_bar = sum(Fraction(j * (j - 1) + (k - j) * (k - j - 1), k * (k - 1)) for j in ones) / n
        p1 = Fraction(sum(ones), k * n)
        pe = p1 * p1 + (1 - p1) * (1 - p1)
        expected, sd = subsampled_kappa_law(votes)
        assert expected == (p_bar - pe) / (1 - pe)
        assert sd == 0
        assert fleiss_kappa(make_set(votes)) == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_ragged_kappa_is_within_six_sd_of_the_exact_law(self, seed):
        votes = self.ragged_votes(seed)
        expected, sd = subsampled_kappa_law(votes)
        assert 0 < sd < 0.05
        assert abs(fleiss_kappa(make_set(votes), seed=seed) - float(expected)) < 6 * sd
