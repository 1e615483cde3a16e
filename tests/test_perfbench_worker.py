"""The benchmark's contract with the package, checked on small inputs.

perfbench/worker.py imports twochoice from a source tree, stamps the first
iteration call, wraps named functions in spans and checks every grid cell's
iterations as the cell returns. A refactor of the package that renames or
reshapes what the worker relies on breaks its launches; these tests launch
the worker the way the benchmark does, in traced and in set-up mode, so
such a break shows here and not only in a benchmark run.

A grid's cells that read their iteration streams alike run in one lockstep
pass, but the worker still sees one ``run_iteration`` (``replay_iteration``)
call per cell and iteration through the module attribute, and one
``run_experiment`` (``replay_experiment``) call per cell, in grid order.
"""
import collections
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from twochoice import replay, simulator
from twochoice.cli import main, simulate_grid
from twochoice.config import load_replay_config, load_simulate_config

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
SMOKE = ROOT / "configs" / "simulate_smoke.yaml"


def launch(tmp_path, args, mode="trace"):
    """Run one worker launch, traced by default, and return its report."""
    report = tmp_path / "report.json"
    done = subprocess.run([sys.executable, str(WORKER), str(ROOT / "src"), str(report), mode,
                           *args], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(report.read_text(encoding="utf-8"))


def test_traced_simulate_launch(tmp_path):
    report = launch(tmp_path, ["simulate", "--config", str(SMOKE), "--out", str(tmp_path / "out"),
                               "--jobs", "1"])
    assert report["exit_code"] == 0
    assert isinstance(report["first_iteration"], float)
    cells = simulate_grid(load_simulate_config(SMOKE))
    assert [cell["strategy"] for cell in report["cells"]] == [c.strategy.name for c in cells]
    assert all(cell["violations"] == 0 for cell in report["cells"])
    # the grid's bootstrap is traced: one call per nonzero decided count
    with np.load(tmp_path / "report.json.spans.npz") as spans:
        name_ids = spans["name_ids"]
    boot = report["span_names"].index("simulator.bootstrap_ci")
    decided_counts = {cell["decided"] for cell in report["cells"]} - {0}
    assert (name_ids == boot).sum() == len(decided_counts)
    # the intervals are filled in after the grid, one per written row
    rows = list(csv.DictReader(open(tmp_path / "out" / "summary.csv", encoding="utf-8")))
    assert len(rows) == len(cells)
    assert all(float(row["ci_low"]) <= float(row["mean_effort"]) <= float(row["ci_high"])
               for row in rows)


def traced_smoke(tmp_path) -> Path:
    """The smoke grid with its first two iterations traced."""
    config = tmp_path / "traced.yaml"
    config.write_text(SMOKE.read_text(encoding="utf-8") + "trace_iterations: 2\n",
                      encoding="utf-8")
    return config


def counted(monkeypatch, module, name, key) -> collections.Counter:
    """The calls of ``module.name`` from here on, counted by ``key(args)``."""
    calls, inner = collections.Counter(), getattr(module, name)

    def counting(*args, **kwargs):
        calls[key(args)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_each_cell_and_iteration_calls_the_hooked_iteration_once(tmp_path, monkeypatch):
    config = traced_smoke(tmp_path)
    calls = counted(monkeypatch, simulator, "run_iteration", lambda args: args[0])
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    grid = load_simulate_config(config)
    assert calls == {cell: grid.iterations for cell in simulate_grid(grid)}

    args = replay_inputs(tmp_path, ["one-worker", "max-three", "n-workers:3"], [0.1, 0.01])
    # a replay call's cell is its strategy and its band's delta, read off t at n = 1
    calls = counted(monkeypatch, replay, "replay_iteration",
                    lambda args: (args[1].name, float(args[3].tolerances[0])))
    assert main(args) == 0
    grid = load_replay_config(tmp_path / "replay.yaml")
    assert len(calls) == 6 and set(calls.values()) == {grid.iterations}


def test_time_launches_record_each_cell(tmp_path):
    config = traced_smoke(tmp_path)
    report = launch(tmp_path, ["simulate", "--config", str(config), "--out",
                               str(tmp_path / "sim"), "--jobs", "1"], mode="time")
    cells = simulate_grid(load_simulate_config(config))
    assert report["exit_code"] == 0
    assert [(cell["strategy"], cell["results"]) for cell in report["cells"]] == \
        [(cell.strategy.name, cell.iterations) for cell in cells]
    assert all(cell["violations"] == 0 and cell["trace_rows"] > 0 for cell in report["cells"])
    rows = list(csv.DictReader(open(tmp_path / "sim" / "summary.csv", encoding="utf-8")))
    assert len(rows) == len(report["cells"])

    strategies, deltas = ["one-worker", "max-three", "n-workers:3"], [0.1, 0.01]
    report = launch(tmp_path, replay_inputs(tmp_path, strategies, deltas), mode="time")
    assert report["exit_code"] == 0
    assert [cell["strategy"] for cell in report["cells"]] == [s for s in strategies
                                                              for _ in deltas]
    assert all(cell["violations"] == 0 and cell["results"] == 10 for cell in report["cells"])
    rows = list(csv.DictReader(open(tmp_path / "out" / "effort.csv", encoding="utf-8")))
    assert len(rows) == len(report["cells"])


def test_setup_launch_stops_at_the_first_iteration(tmp_path):
    # setup_s is measured by launches that stop at the first run_iteration
    # call, so simulate must reach it through the hooked module attribute
    report = launch(tmp_path, ["simulate", "--config", str(SMOKE), "--out", str(tmp_path / "out"),
                               "--jobs", "1"], mode="setup")
    assert report["exit_code"] == 0
    assert isinstance(report["first_iteration"], float)
    assert report["cells"] == []
    assert not (tmp_path / "out" / "summary.csv").exists()


def replay_inputs(tmp_path, strategies, deltas):
    """A small votes file and replay config; the arguments of a replay launch."""
    votes = tmp_path / "votes.csv"
    rng = np.random.default_rng(5)
    with open(votes, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "worker_id", "label"])
        # unequal vote counts, as in the benchmark's file, so kappa subsamples
        for request in range(40):
            for worker in range(rng.integers(5, 10)):
                writer.writerow([f"r{request}", f"w{worker}", int(rng.random() < 0.8)])
    config = tmp_path / "replay.yaml"
    config.write_text(yaml.safe_dump({"strategies": strategies, "deltas": deltas,
                                      "iterations": 10, "seed": 0,
                                      "bootstrap": {"confidence": 0.99, "resamples": 200}}),
                      encoding="utf-8")
    return ["replay", "--config", str(config), "--dataset", str(votes),
            "--out", str(tmp_path / "out"), "--jobs", "1"]


def test_traced_replay_launch(tmp_path):
    strategies = ["one-worker", "max-three", "n-workers:3"]
    deltas = [0.1, 0.01]
    report = launch(tmp_path, replay_inputs(tmp_path, strategies, deltas))
    assert report["exit_code"] == 0
    assert isinstance(report["first_iteration"], float)
    assert [cell["strategy"] for cell in report["cells"]] == [s for s in strategies
                                                              for _ in deltas]
    assert all(cell["violations"] == 0 for cell in report["cells"])


def test_replay_setup_launch_stops_at_the_first_iteration(tmp_path):
    # replay reaches its first replay_iteration call through the hooked
    # module attribute, and no cell, interval or table comes after it
    report = launch(tmp_path, replay_inputs(tmp_path, ["one-worker", "max-three"], [0.1]),
                    mode="setup")
    assert report["exit_code"] == 0
    assert isinstance(report["first_iteration"], float)
    assert report["cells"] == []
    assert not (tmp_path / "out" / "effort.csv").exists()
