import concurrent.futures
import csv
import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from twochoice import __version__, cli
from twochoice.cli import fmt, main
from twochoice.config import ConfigError, load_replay_config, load_simulate_config
from twochoice.rng import DOMAIN_BOOTSTRAP, STREAM_LAYOUT, substream
from twochoice.simulator import IterationResult, bootstrap_ci, run_experiment
from twochoice.cli import _TraceRows, simulate_grid

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


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records each pool's max_workers in
    ``built`` and runs every submitted job at once, in this process."""

    def __init__(self, built: list, max_workers: int):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_one_version_everywhere(smoke_config, tmp_path, capsys):
    # pyproject.toml and the package each write the version down; --version
    # and every manifest print the package's
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"] == \
        __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"twochoice {__version__}\n"
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
    assert manifest["twochoice_version"] == __version__
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

    def test_jobs_start_at_most_one_process_per_cell(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: InlineExecutor(built, max_workers))
        grid = Path(__file__).parents[1] / "configs" / "simulate_smoke.yaml"
        assert main(["simulate", "--config", str(grid), "--out", str(tmp_path / "grid"),
                     "--jobs", "64"]) == 0
        assert built == [12]  # one worker per cell of the smoke grid
        one_cell = tmp_path / "one.yaml"
        one_cell.write_text(SMOKE.replace("[one-worker, n-workers:3]", "[one-worker]")
                                 .replace("[0.01, 0.001]", "[0.01]"), encoding="utf-8")
        assert main(["simulate", "--config", str(one_cell), "--out", str(tmp_path / "one"),
                     "--jobs", "64"]) == 0
        assert built == [12]

    def test_one_process_run_never_loads_the_pool(self, smoke_config, dataset, tmp_path):
        # a fresh interpreter per command, so no module that the tests loaded
        # counts; logging is loaded only where replay warns of unequal vote
        # counts, which simulate and this dataset never make, and numpy.ma
        # only through np.quantile, which the bootstrap does not call
        src = str(Path(cli.__file__).resolve().parents[1])
        replay_config = tmp_path / "replay.yaml"
        replay_config.write_text(REPLAY, encoding="utf-8")
        for args in (["simulate", "--config", str(smoke_config), "--out", str(tmp_path / "sim"),
                      "--jobs", "1"],
                     ["replay", "--config", str(replay_config), "--dataset", str(dataset),
                      "--out", str(tmp_path / "replay"), "--jobs", "1"]):
            script = (f"import sys; sys.path.insert(0, {src!r}); from twochoice.cli import main; "
                      f"code = main({args!r}); "
                      "print(code, [name for name in ('multiprocessing', 'concurrent.futures', "
                      "'logging', 'numpy.ma') if name in sys.modules])")
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "0 []", args[0]

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
        # cell 1000's trace, from a larger grid, goes too
        (out / "trace_1000.csv").write_text("iteration,n,mean,lower,upper\n", encoding="utf-8")
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

    @pytest.mark.parametrize("name", ["trace_007.csv", "trace_1000.csv"])
    def test_earlier_trace_files_refuse_a_run_without_force(self, smoke_config, tmp_path,
                                                            capsys, name):
        out = tmp_path / "out"
        out.mkdir()
        (out / name).write_text("iteration,n,mean,lower,upper\n", encoding="utf-8")
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: refusing to overwrite 1 existing output(s) in {out}: {name} (use --force)\n"
        assert not (out / "summary.csv").exists()

    def test_refusal_names_the_first_five_outputs_in_cell_order(self, smoke_config, tmp_path,
                                                                 capsys):
        # a 1001-cell traced grid's outputs: one line, with trace_1000.csv
        # counted last rather than listed between trace_100.csv and trace_101.csv
        out = tmp_path / "out"
        out.mkdir()
        for i in range(1001):
            (out / f"trace_{i:03d}.csv").write_text("iteration,n,mean,lower,upper\n",
                                                    encoding="utf-8")
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: refusing to overwrite 1001 existing output(s) in {out}: trace_000.csv, "
            f"trace_001.csv, trace_002.csv, trace_003.csv, trace_004.csv, ... (use --force)\n")
        assert len(list(out.iterdir())) == 1001

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
        assert all(cell.distinct_voters is expected for cell in simulate_grid(loaded))

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

    # the loader draws nothing, so a regression fails these cases instead
    # of hanging in the difficulty sampler
    @pytest.mark.parametrize("old, new, field", [
        ("sigma: 0.1", "sigma: .nan", "sigma"), ("sigma: 0.1", "sigma: .inf", "sigma"),
        ("sigma: 0.1", "sigma: -.inf", "sigma"), ("mu: 0.4", "mu: .nan", "mu"),
        ("mu: 0.4", "mu: .inf", "mu")])
    def test_non_finite_regime_is_a_config_error(self, tmp_path, old, new, field):
        config = tmp_path / "nan.yaml"
        config.write_text(SMOKE.replace(old, new), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"config\.regimes\[0\]\.{field}: must be a finite"):
            load_simulate_config(config)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_rejected(self, smoke_config, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(smoke_config), "--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_is_reported(self, smoke_config, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        assert main(["simulate", "--config", str(smoke_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

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

    def test_failed_cells_take_no_part_in_the_grid_bootstrap(self, tmp_path, monkeypatch):
        config = tmp_path / "partial.yaml"
        config.write_text(SMOKE.replace("pool_size: 20", "pool_size: 2")
                               .replace("n-workers:3", "n-workers:5")
                               + "distinct_voters: true\n", encoding="utf-8")
        calls = []
        grid = cli.bootstrap_grid

        def spy(samples, *args):
            calls.append(samples)
            return grid(samples, *args)

        monkeypatch.setattr(cli, "bootstrap_grid", spy)
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}"
            assert main(["simulate", "--config", str(config), "--out", str(out),
                         "--jobs", str(jobs)]) == 1
            # one pass per grid, over the two one-worker cells only
            assert len(calls) == 1 and len(calls.pop()) == 2
            rows = list(csv.DictReader(open(out / "summary.csv", encoding="utf-8")))
            cells = simulate_grid(load_simulate_config(config))
            for row, cell in zip(rows, cells[:2]):
                [(low, high)] = bootstrap_ci([run_experiment(cell).decided_efforts], 0.99, 2000,
                                             substream(7, DOMAIN_BOOTSTRAP, 0)).tolist()
                assert (row["ci_low"], row["ci_high"]) == (fmt(low), fmt(high))

    def test_summary_round_trips(self, smoke_config, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--config", str(smoke_config), "--out", str(out)])
        config = load_simulate_config(smoke_config)
        rows = list(csv.DictReader(open(out / "summary.csv", encoding="utf-8")))
        for row, cell in zip(rows, simulate_grid(config)):
            summary = run_experiment(cell)
            # each cell's interval is a lone bootstrap of its decided efforts
            # on a fresh bootstrap stream, whatever other cells the grid holds
            [(low, high)] = bootstrap_ci([summary.decided_efforts], config.bootstrap_confidence,
                                         config.bootstrap_resamples,
                                         substream(config.seed, DOMAIN_BOOTSTRAP, 0)).tolist()
            assert row["strategy"] == cell.strategy.name
            assert row["mu"] == fmt(cell.mu)
            assert row["delta"] == fmt(cell.delta)
            assert row["mean_effort"] == fmt(summary.mean_effort)
            assert row["ci_low"] == fmt(low)
            assert row["ci_high"] == fmt(high)
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

    def test_byte_order_mark_replays_like_the_plain_file(self, dataset, tmp_path):
        # a spreadsheet's UTF-8 export starts with a byte-order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode("utf-8") + dataset.read_bytes())
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        for name, source in (("plain", dataset), ("marked", marked)):
            assert main(["replay", "--config", str(config), "--dataset", str(source),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "marked" / "effort.csv").read_bytes() == \
            (tmp_path / "plain" / "effort.csv").read_bytes()

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
        # replay always picks distinct recorded votes
        ("seed: 3", "seed: 3\ndistinct_voters: true", r"config: unknown keys \['distinct_voters'\]"),
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

    def test_dataset_that_is_a_directory_is_reported(self, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        folder = tmp_path / "votes"
        folder.mkdir()
        assert main(["replay", "--config", str(config), "--dataset", str(folder),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("encoding, byte", [("utf-16", "0xff"), ("latin-1", "0xe9")])
    def test_dataset_that_is_not_utf8_names_path(self, tmp_path, capsys, encoding, byte):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        dataset = tmp_path / "votes.csv"
        dataset.write_text("request_id,worker_id,label\nr1,caf\u00e9,1\nr1,w2,0\n",
                           encoding=encoding)
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            f"error: {dataset}: expected UTF-8 text, got byte {byte}\n"

    def test_fixed_worker_rejected_in_replay_config(self, dataset, tmp_path, capsys):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY.replace("max-three", "fixed-worker"), encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(tmp_path / "o")]) == 2
        assert "fixed-worker" in capsys.readouterr().err

    def test_single_vote_request_leaves_kappa_undefined(self, tmp_path, capsys):
        # r2 holds one vote: Fleiss kappa is undefined, one-worker still
        # replays and n-workers:3 fails on its own
        dataset = tmp_path / "votes.csv"
        dataset.write_text("request_id,worker_id,label\n"
                           "r1,w1,1\nr1,w2,1\nr2,w1,0\nr3,w1,1\nr3,w2,0\n", encoding="utf-8")
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY.replace("max-three", "n-workers:3").replace(
            "deltas: [0.01, 0.001]", "deltas: [0.01]"), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(out)]) == 1
        assert "fleiss kappa = n/a" in capsys.readouterr().out
        effort = list(csv.DictReader(open(out / "effort.csv", encoding="utf-8")))
        assert [row["strategy"] for row in effort] == ["one-worker"]
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        assert manifest["fleiss_kappa"] is None
        assert [cell["strategy"] for cell in manifest["failed_cells"]] == ["n-workers:3"]

    # the last three: a raw label that is neither text nor an integer, and
    # two raw labels that both read as the CSV text 1
    @pytest.mark.parametrize("label_map", ["[a, b]", "yes", "{A: 1, B: 2}", "{A: true, B: 0}",
                                           "{1.5: 1, B: 0}", "{true: 1, B: 0}",
                                           "{1: 1, '1': 0}"])
    def test_malformed_label_map_is_a_config_error(self, dataset, tmp_path, capsys, label_map):
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        mapping = tmp_path / "mapping.yaml"
        mapping.write_text(f"label_map: {label_map}\n", encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--mapping", str(mapping), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mapping.label_map: ")
        assert "Traceback" not in err

    def test_integer_label_map_keys_match_the_csv_text(self, dataset, tmp_path):
        # YAML reads `1: 1` as an integer key; the CSV holds the text "1"
        config = tmp_path / "replay.yaml"
        config.write_text(REPLAY, encoding="utf-8")
        recoded = tmp_path / "recoded.csv"
        recoded.write_text(dataset.read_text(encoding="utf-8").replace(",0\n", ",2\n"),
                           encoding="utf-8")
        mapping = tmp_path / "mapping.yaml"
        mapping.write_text("label_map: {1: 1, 2: 0}\n", encoding="utf-8")
        assert main(["replay", "--config", str(config), "--dataset", str(dataset),
                     "--out", str(tmp_path / "plain")]) == 0
        assert main(["replay", "--config", str(config), "--dataset", str(recoded),
                     "--mapping", str(mapping), "--out", str(tmp_path / "mapped")]) == 0
        assert (tmp_path / "mapped" / "effort.csv").read_bytes() == \
            (tmp_path / "plain" / "effort.csv").read_bytes()

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

    @pytest.mark.parametrize("distinct, names", [(False, ("max-three", "fixed-worker")),
                                                  (True, ("n-workers:3",))])
    def test_trace_writes_the_rows_simulate_traced(self, tmp_path, distinct, names):
        # trace runs the cell on its one iteration's stream, which reads the
        # cell's law, or draws its own worker, or picks each block's distinct
        # voters, as that iteration does under simulate
        smoke = (Path(__file__).parents[1] / "configs" / "simulate_smoke.yaml").read_text(
            encoding="utf-8")
        config = tmp_path / "smoke.yaml"
        config.write_text(smoke.replace("n-workers:3]", "n-workers:3, fixed-worker]")
                          + f"trace_iterations: 2\ndistinct_voters: {str(distinct).lower()}\n",
                          encoding="utf-8")
        cells = [i for i, cell in enumerate(simulate_grid(load_simulate_config(config)))
                 if cell.strategy.name in names and cell.mu == 0.2 and cell.delta == 0.001]
        assert len(cells) == len(names)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
        for cell in cells:
            simulated = (tmp_path / "sim" / f"trace_{cell:03d}.csv").read_text(
                encoding="utf-8").splitlines()
            for iteration in (0, 1):
                out = tmp_path / f"trace_{cell}_{iteration}"
                assert main(["trace", "--config", str(config), "--out", str(out),
                             "--cell", str(cell), "--iteration", str(iteration)]) == 0
                traced = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
                rows = [line for line in simulated[1:] if line.startswith(f"{iteration},")]
                assert traced[0] == simulated[0]
                assert len(rows) > 1 and traced[1:] == rows


class TestTraceRowCount:
    """perfbench/worker.py counts the rows of each CSV as len() of the rows
    object handed to _write_csv, so len() must match what is written."""

    @staticmethod
    def _spy(monkeypatch):
        counted = {}
        write = cli._write_csv

        def spy(path, header, rows):
            counted[Path(path).name] = (len(rows), rows)
            write(path, header, rows)
        monkeypatch.setattr(cli, "_write_csv", spy)
        return counted

    @staticmethod
    def _data_rows(path):
        return list(csv.DictReader(open(path, encoding="utf-8")))

    def test_simulate_trace_rows(self, tmp_path, monkeypatch):
        counted = self._spy(monkeypatch)
        config = tmp_path / "traced.yaml"
        config.write_text(SMOKE + "trace_iterations: 3\n", encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        traces = sorted(name for name in counted if name.startswith("trace_"))
        assert traces == [f"trace_{i:03d}.csv" for i in range(4)]
        for name in traces:
            count, rows = counted[name]
            assert isinstance(rows, _TraceRows)
            written = self._data_rows(out / name)
            assert count == len(written) > 0
            assert {row["iteration"] for row in written} == {"0", "1", "2"}

    def test_trace_rows_of_a_later_iteration(self, smoke_config, tmp_path, monkeypatch):
        counted = self._spy(monkeypatch)
        out = tmp_path / "tr"
        assert main(["trace", "--config", str(smoke_config), "--out", str(out),
                     "--iteration", "3"]) == 0
        count, rows = counted["trace.csv"]
        assert isinstance(rows, _TraceRows)
        written = self._data_rows(out / "trace.csv")
        assert count == len(written) > 0
        assert {row["iteration"] for row in written} == {"3"}


class TestFloatFormat:
    def test_six_significant_digits(self):
        assert fmt(1440.123456) == "1440.12"
        assert fmt(0.000123456789) == "0.000123457"
        assert fmt(1.0) == "1"
        assert fmt(float("nan")) == "nan"
        assert fmt(13302) == "13302"

    @staticmethod
    def _csv(rows):
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        return text.getvalue()

    @pytest.mark.parametrize("values", [
        [1.0, 0.5, 1e-7, 123456.5, 1234567.0, -0.0, -0.25, -1e-7, -123456.5, -1234567.0,
         0.1 + 0.2, 2.0 / 3.0, 5e-5, 999999.5, 9999995.0],
        np.random.default_rng(17).uniform(-2.0, 2.0, 1000).tolist(),
    ], ids=["edge values", "random doubles"])
    def test_trace_rows_format_like_fmt(self, values):
        # the rows as they were formatted one fmt call per float
        trace = [(n, mean, mean - abs(lower), upper)
                 for n, (mean, lower, upper) in enumerate(zip(values, values[1:] + values[:1],
                                                              values[2:] + values[:2]), 1)]
        old = [[str(iteration), str(n), fmt(mean), fmt(lower), fmt(upper)]
               for iteration, part in ((12, trace[:5]), (13, trace[5:]))
               for n, mean, lower, upper in part]
        results = [IterationResult(verdict=None, n_at_decision=len(part), effort=0, trace=part)
                   for part in (trace[:5], trace[5:])]
        # each iteration's rows come as one string of lines, the bytes the
        # csv writer writes for the fmt fields
        new = list(_TraceRows(results, first=12))
        assert len(new) == 2
        assert "".join(new) == self._csv(old)
