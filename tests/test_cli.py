import csv

import numpy as np
import pytest
import yaml

from twochoice.cli import fmt, main
from twochoice.config import ConfigError, load_replay_config, load_simulate_config
from twochoice.rng import STREAM_LAYOUT
from twochoice.simulator import run_experiment
from twochoice.cli import _experiment_config, simulate_grid

SMOKE = """
workers: {lo: 0.8, hi: 1.0, pool_size: 20}
regimes:
  - {mu: 0.4, sigma: 0.1, n_requests: 300}
strategies: [one-worker, n-workers:3]
deltas: [0.01, 0.001]
iterations: 25
seed: 7
bootstrap: {confidence: 0.99, resamples: 2000}
"""

REPLAY = """
strategies: [one-worker, max-three]
deltas: [0.01, 0.001]
iterations: 20
seed: 3
bootstrap: {confidence: 0.99, resamples: 1000}
"""


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.yaml"
    path.write_text(SMOKE, encoding="utf-8")
    return path


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(19)
    path = tmp_path / "votes.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "worker_id", "label"])
        for r in range(60):
            for k in range(10):
                writer.writerow([f"req{r}", f"w{r}_{k}", int(rng.random() < 0.7)])
    return path


class TestSimulateCommand:
    def test_writes_summary_and_manifest(self, smoke_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "summary.csv", encoding="utf-8")))
        assert len(rows) == 4  # 1 regime x 2 strategies x 2 deltas
        assert {row["strategy"] for row in rows} == {"one-worker", "n-workers:3"}
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        assert manifest["mode"] == "simulate"
        assert manifest["config"]["seed"] == 7
        assert manifest["stream_layout"] == STREAM_LAYOUT
        assert manifest["failed_cells"] == []

    def test_rerun_is_byte_identical_across_jobs(self, tmp_path):
        config = tmp_path / "traced.yaml"
        config.write_text(SMOKE + "trace_iterations: 3\n", encoding="utf-8")
        outs = []
        for name, jobs in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            outs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
        assert sorted(outs[0]) == ["summary.csv"] + [f"trace_{i:03d}.csv" for i in range(4)]
        assert outs[0] == outs[1] == outs[2]

    def test_seed_override_changes_results(self, smoke_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(smoke_config), "--out", str(a)])
        main(["simulate", "--config", str(smoke_config), "--out", str(b), "--seed", "99"])
        assert (a / "summary.csv").read_bytes() != (b / "summary.csv").read_bytes()

    def test_refuses_overwrite_without_force(self, smoke_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out),
                     "--force"]) == 0

    def test_force_removes_earlier_trace_files(self, tmp_path):
        traced = tmp_path / "traced.yaml"
        traced.write_text(SMOKE + "trace_iterations: 2\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(traced), "--out", str(out)]) == 0
        assert len(list(out.glob("trace_*.csv"))) == 4
        # files that only look like trace outputs stay
        for name in ("trace_0001.csv", "trace_abc.csv", "trace_001.csv.bak", "notes.csv"):
            (out / name).write_text("kept\n", encoding="utf-8")
        untraced = tmp_path / "untraced.yaml"
        untraced.write_text(SMOKE + "trace_iterations: 0\n", encoding="utf-8")
        assert main(["simulate", "--config", str(untraced), "--out", str(out),
                     "--force"]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.yaml", "notes.csv", "summary.csv", "trace_0001.csv",
            "trace_001.csv.bak", "trace_abc.csv"]

    def test_earlier_trace_files_refuse_a_run_without_force(self, smoke_config, tmp_path,
                                                            capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "trace_007.csv").write_text("iteration,n,mean,lower,upper\n", encoding="utf-8")
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 2
        assert "trace_007.csv" in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    def test_even_worker_count_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text(SMOKE.replace("n-workers:3", "n-workers:4"), encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "strategies[1]" in err
        assert "N must be odd" in err

    @pytest.mark.parametrize("value", ["-3", "2.7", "x"])
    def test_bad_trace_iterations_is_a_config_error(self, tmp_path, value):
        config = tmp_path / "bad.yaml"
        config.write_text(SMOKE + f"trace_iterations: {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"config\.trace_iterations"):
            load_simulate_config(config)

    @pytest.mark.parametrize("field", ["distinct_voters", "resample_difficulties_per_iteration",
                                       "resample_pool_per_iteration"])
    @pytest.mark.parametrize("value", ['"false"', "1", "null"])
    def test_flag_that_is_not_a_boolean_is_a_config_error(self, tmp_path, field, value):
        config = tmp_path / "bad.yaml"
        config.write_text(SMOKE + f"{field}: {value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"config\.{field}: expected bool"):
            load_simulate_config(config)

    @pytest.mark.parametrize("value, expected", [("true", True), ("false", False)])
    def test_boolean_flags_load(self, tmp_path, value, expected):
        config = tmp_path / "flags.yaml"
        config.write_text(SMOKE + f"distinct_voters: {value}\n"
                          f"resample_difficulties_per_iteration: {value}\n"
                          f"resample_pool_per_iteration: {value}\n", encoding="utf-8")
        loaded = load_simulate_config(config)
        assert loaded.distinct_voters is expected
        assert loaded.resample_difficulties_per_iteration is expected
        assert loaded.resample_pool_per_iteration is expected
        assert all(s.distinct_voters is expected for s in loaded.strategies)

    # a misspelt key at each level of the config: top level, workers, a
    # regime, bootstrap
    @pytest.mark.parametrize("old, new, where", [
        ("iterations: 25", "iterations: 25\ntrace_iteration: 2",
         r"config: unknown keys \['trace_iteration'\]"),
        ("pool_size: 20", "size: 3", r"config\.workers: unknown keys \['size'\]"),
        ("n_requests: 300", "n_request: 9", r"config\.regimes\[0\]: unknown keys \['n_request'\]"),
        ("resamples: 2000", "resample: 5", r"config\.bootstrap: unknown keys \['resample'\]"),
    ])
    def test_unknown_key_is_a_config_error(self, tmp_path, old, new, where):
        config = tmp_path / "typo.yaml"
        assert old in SMOKE
        config.write_text(SMOKE.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=where):
            load_simulate_config(config)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, smoke_config, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(smoke_config), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_field_is_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("workers: {lo: 0.8, hi: 1.0, pool_size: 5}\n", encoding="utf-8")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "regimes" in capsys.readouterr().err

    def test_partial_grid_failure_keeps_completed_rows(self, tmp_path, capsys):
        config = tmp_path / "partial.yaml"
        config.write_text(SMOKE.replace("pool_size: 20", "pool_size: 2")
                               .replace("n-workers:3", "n-workers:5")
                               + "distinct_voters: true\ntrace_iterations: 2\n",
                          encoding="utf-8")
        # 5 distinct voters cannot come out of a 2-worker pool; the
        # one-worker cells still complete, with their trace files (cells 0
        # and 1 of the grid), and both failed cells are reported and write
        # no trace file, serially and in parallel
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}"
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == 1
            errors = capsys.readouterr().err.splitlines()
            assert len(errors) == 2
            assert all("n-workers:5" in line for line in errors)
            rows = list(csv.DictReader(open(out / "summary.csv", encoding="utf-8")))
            assert {row["strategy"] for row in rows} == {"one-worker"}
            assert len(rows) == 2
            manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
            failed = manifest["failed_cells"]
            assert [(cell["strategy"], cell["mu"], cell["delta"]) for cell in failed] == \
                [("n-workers:5", 0.4, 0.01), ("n-workers:5", 0.4, 0.001)]
            assert all("distinct" in cell["error"] for cell in failed)
            assert sorted(path.name for path in out.glob("trace_*.csv")) == \
                ["trace_000.csv", "trace_001.csv"]
            for i in (0, 1):
                traced = list(csv.DictReader(open(out / f"trace_{i:03d}.csv", encoding="utf-8")))
                assert {row["iteration"] for row in traced} == {"0", "1"}

    def test_summary_round_trips(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(smoke_config), "--out", str(out)])
        config = load_simulate_config(smoke_config)
        rows = list(csv.DictReader(open(out / "summary.csv", encoding="utf-8")))
        for row, (regime, strategy, delta) in zip(rows, simulate_grid(config)):
            summary = run_experiment(_experiment_config(config, regime, strategy, delta),
                                     bootstrap_confidence=config.bootstrap_confidence,
                                     bootstrap_resamples=config.bootstrap_resamples)
            assert row["strategy"] == strategy.name
            assert row["mu"] == fmt(regime.mu)
            assert row["delta"] == fmt(delta)
            assert row["mean_effort"] == fmt(summary.mean_effort)
            assert row["ci_low"] == fmt(summary.ci_low)
            assert row["ci_high"] == fmt(summary.ci_high)
            assert row["decision_ratio"] == fmt(summary.decision_ratio)
            assert int(row["iterations"]) == config.iterations


class TestReplayCommand:
    def test_writes_tables_and_prints_kappa(self, smoke_config, dataset, tmp_path, capsys):
        out = tmp_path / "rep"
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(out)]) == 0
        assert "fleiss kappa" in capsys.readouterr().out
        effort = list(csv.DictReader(open(out / "effort.csv", encoding="utf-8")))
        assert len(effort) == 4
        assert all(row["mu"] == "" for row in effort)
        ratio = list(csv.DictReader(open(out / "decision_ratio.csv", encoding="utf-8")))
        assert [row["dataset"] for row in ratio] == ["votes"] * 4
        assert {row["strategy"] for row in ratio} == {"one-worker", "max-three"}
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        assert manifest["failed_cells"] == []

    def test_rerun_is_byte_identical_across_jobs(self, dataset, tmp_path):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"rep{jobs}"
            assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                         "--out", str(out), "--jobs", str(jobs)]) == 0
            tables.append([(out / name).read_bytes()
                           for name in ("effort.csv", "decision_ratio.csv")])
        assert tables[0] == tables[1]

    def test_partial_grid_failure_keeps_completed_rows(self, tmp_path, capsys):
        # one request holds only 8 votes, so n-workers:9 cannot be replayed;
        # the other cells still complete and both failed cells are reported,
        # serially and in parallel
        dataset = tmp_path / "short.csv"
        dataset.write_text("request_id,worker_id,label\n" + "".join(
            f"req{r},w{k},{(r + k) % 3 != 0:d}\n"
            for r in range(30) for k in range(8 if r == 0 else 10)), encoding="utf-8")
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY.replace("max-three", "n-workers:9"), encoding="utf-8")
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}"
            assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                         "--out", str(out), "--jobs", str(jobs)]) == 1
            errors = capsys.readouterr().err.splitlines()
            assert len(errors) == 2
            assert all("n-workers:9" in line for line in errors)
            effort = list(csv.DictReader(open(out / "effort.csv", encoding="utf-8")))
            assert [(row["strategy"], row["delta"]) for row in effort] == \
                [("one-worker", "0.01"), ("one-worker", "0.001")]
            ratio = list(csv.DictReader(open(out / "decision_ratio.csv", encoding="utf-8")))
            assert [row["strategy"] for row in ratio] == ["one-worker"] * 2
            manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
            failed = manifest["failed_cells"]
            assert [(cell["strategy"], cell["delta"]) for cell in failed] == \
                [("n-workers:9", 0.01), ("n-workers:9", 0.001)]
            assert all("needs 9" in cell["error"] for cell in failed)

    @pytest.mark.parametrize("old, new, where", [
        ("seed: 3", "seed: 3\nregimes: []", r"config: unknown keys \['regimes'\]"),
        ("confidence: 0.99", "confidense: 0.99",
         r"config\.bootstrap: unknown keys \['confidense'\]"),
    ])
    def test_unknown_key_is_a_config_error(self, tmp_path, old, new, where):
        config = tmp_path / "typo.yaml"
        assert old in REPLAY
        config.write_text(REPLAY.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=where):
            load_replay_config(config)

    def test_jobs_below_one_is_rejected(self, dataset, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--config", str(config), "--dataset", str(dataset),
                  "--out", str(tmp_path / "o"), "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs: must be >= 1, got 0" in capsys.readouterr().err

    def test_missing_dataset_names_path(self, smoke_config, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        missing = tmp_path / "nope.csv"
        assert main(["replay", "--config", str(config), "--dataset", str(missing),
                     "--out", str(tmp_path / "o")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_fixed_worker_rejected_in_replay_config(self, dataset, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY.replace("max-three", "fixed-worker"), encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(tmp_path / "o")]) == 2
        assert "fixed-worker" in capsys.readouterr().err

    def test_malformed_dataset_reports_line(self, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text("request_id,worker_id,label\nr1,w1,1\nr1,w2,5\n", encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "line 3" in capsys.readouterr().err


class TestTraceCommand:
    def test_writes_single_iteration_trace(self, smoke_config, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["trace", "--config", str(smoke_config), "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "trace.csv", encoding="utf-8")))
        assert rows
        assert set(rows[0]) == {"iteration", "n", "mean", "lower", "upper"}
        assert [int(r["n"]) for r in rows] == list(range(1, len(rows) + 1))
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        assert manifest["mode"] == "trace"
        assert manifest["cell"]["strategy"] == "one-worker"

    def test_cell_out_of_range(self, smoke_config, tmp_path, capsys):
        assert main(["trace", "--config", str(smoke_config), "--out", str(tmp_path / "t"),
                     "--cell", "99"]) == 2
        assert "--cell" in capsys.readouterr().err


    # the smoke config runs 25 iterations, 0..24
    @pytest.mark.parametrize("iteration", ["-1", "25", "5000"])
    def test_iteration_out_of_range(self, smoke_config, tmp_path, capsys, iteration):
        out = tmp_path / "t"
        assert main(["trace", "--config", str(smoke_config), "--out", str(out),
                     "--iteration", iteration]) == 2
        assert f"--iteration must be in [0, 24], got {iteration}" in capsys.readouterr().err
        assert not out.exists()

    def test_last_iteration_traces(self, smoke_config, tmp_path):
        assert main(["trace", "--config", str(smoke_config), "--out", str(tmp_path / "t"),
                     "--iteration", "24"]) == 0

class TestFloatFormat:
    def test_six_significant_digits(self):
        assert fmt(1440.123456) == "1440.12"
        assert fmt(0.000123456789) == "0.000123457"
        assert fmt(1.0) == "1"
        assert fmt(float("nan")) == "nan"
        assert fmt(13302) == "13302"
