"""Command line front end: simulate, replay, trace.

Every run writes a manifest echo (the resolved configuration plus seed)
next to its outputs, so any CSV in an output directory can be regenerated
from that directory alone. Existing outputs are never overwritten unless
--force is given. Floats are written with 6 significant digits.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import (
    ConfigError,
    SimulateConfig,
    load_mapping,
    load_replay_config,
    load_simulate_config,
)
from .decision import Band, hoeffding_band
from .replay import fleiss_kappa, parse_annotations, replay_experiment, replay_group
from .simulator import ExperimentConfig, bootstrap_grid, run_experiment, simulate_groups
from .rng import STREAM_LAYOUT
# unused here but kept importable: perfbench/worker.py wraps cli.run_iteration,
# cli.substream, cli.sample_difficulties and cli.sample_capabilities in its
# traced launches
from .rng import substream  # noqa: F401
from .simulator import run_iteration  # noqa: F401
from .eval_model import sample_capabilities, sample_difficulties  # noqa: F401

SUMMARY_HEADER = ["strategy", "mu", "delta", "mean_effort", "ci_low", "ci_high",
                  "decision_ratio", "iterations"]
TRACE_HEADER = ["iteration", "n", "mean", "lower", "upper"]
TRACE_FILE = "trace_{:03d}.csv"  # cell i's trace under simulate
RATIO_HEADER = ["dataset", "strategy", "delta", "decision_ratio"]


def fmt(value) -> str:
    return "%.6g" % value


def simulate_grid(config: SimulateConfig) -> list:
    """One ExperimentConfig per grid cell, in canonical order: regimes, then
    strategies, then deltas. Every ExperimentConfig field that the grid
    config also has is copied by name."""
    shared = {field.name: getattr(config, field.name) for field in fields(ExperimentConfig)
              if hasattr(config, field.name)}
    return [ExperimentConfig(**shared, **vars(regime), strategy=strategy, delta=delta)
            for regime in config.regimes
            for strategy in config.strategies
            for delta in config.deltas]


def _run_simulate_cell(args):
    """One grid cell, taken from its ``group``: write its trace CSV if it has
    one, and return its mean effort, decision ratio and decided efforts. The
    trace is written here, in the worker process under --jobs, so no cell's
    trace rows outlive the cell."""
    cell, group, trace_path = args
    summary = run_experiment(cell, group=group)
    if trace_path is not None:
        _write_csv(trace_path, TRACE_HEADER,
                   _TraceRows(summary.traces, hoeffding_band(cell.delta, cell.n_requests)))
    return _cell_outcome(summary)


def _cell_outcome(summary) -> tuple:
    """A cell's mean effort, decision ratio and decided efforts, the last as
    an int64 array, 8 bytes per decided iteration until the bootstrap."""
    return summary.mean_effort, summary.decision_ratio, summary.decided_efforts


class _TraceRows:
    """The trace rows of traced iterations, numbered from ``first``, from
    each one's running A-counts and the cell's ``band``. Each iteration's
    rows are made as one string of CSV lines when the file is written;
    len() counts them without making any, for perfbench/worker.py."""

    def __init__(self, traces: list, band: Band, first: int = 0):
        self.traces = traces
        self.band = band
        self.first = first

    def __len__(self) -> int:
        return sum(len(trace) for trace in self.traces)

    def points(self, trace) -> zip:
        """n, mean, lower and upper of each label of ``trace``: the count over
        n, and that mean less and plus the band's tolerance at n."""
        counts = np.frombuffer(trace, dtype=np.int64)
        means = counts / np.arange(1, counts.size + 1, dtype=np.int64)
        tolerances = self.band.tolerances[:counts.size]
        return zip(range(1, counts.size + 1), means.tolist(), (means - tolerances).tolist(),
                   (means + tolerances).tolist())

    def __iter__(self):
        # the iteration, then n, mean, lower and upper of each trace point:
        # fmt's "%.6g" for the floats, as the csv writer would write them,
        # since no field holds a comma, a quote or a line break
        for i, trace in enumerate(self.traces, self.first):
            line = "%d,%%d,%%.6g,%%.6g,%%.6g\n" % i
            yield "".join([line % point for point in self.points(trace)])


def _prepare_out(out: Path, names: list, force: bool) -> None:
    """Make ``out``; without ``force``, refuse if any of ``names`` exists
    there, naming the first five of them in the order given."""
    out.mkdir(parents=True, exist_ok=True)
    if not force:
        existing = [name for name in names if (out / name).exists()]
        if existing:
            shown = ", ".join(existing[:5]) + (", ..." if len(existing) > 5 else "")
            raise ConfigError(f"refusing to overwrite {len(existing)} existing output(s) "
                              f"in {out}: {shown} (use --force)")


def _write_csv(path: Path, header: list, rows) -> None:
    """Write the header and ``rows``: lists of fields through the csv
    writer, or a ``_TraceRows``'s text as it is."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, _TraceRows):
            handle.writelines(rows)
        else:
            writer.writerows(rows)


def _write_manifest(out: Path, payload: dict) -> None:
    payload = {"twochoice_version": __version__, "stream_layout": STREAM_LAYOUT, **payload}
    (out / "manifest.yaml").write_text(
        yaml.safe_dump(payload, sort_keys=True), encoding="utf-8")


def _config_echo(config) -> dict:
    echo = {}
    for key, value in vars(config).items():
        if key == "strategies":
            value = [s.name for s in value]
        elif key == "regimes":
            value = [vars(r) for r in value]
        elif key == "deltas":
            value = list(value)
        echo[key] = value
    # delta is configured directly; echo the decision probability as well
    echo["decision_probabilities"] = [fmt(1.0 - d) for d in echo.get("deltas", [])]
    return echo


def cmd_simulate(args) -> int:
    config = load_simulate_config(args.config, seed_override=args.seed)
    out = Path(args.out)
    cells = simulate_grid(config)
    # every trace file in the directory counts as an output, this grid's or
    # an earlier one's, and --force removes them all before the grid runs; a
    # file is a trace file when TRACE_FILE names it for some cell index, and
    # the trace files are listed in cell-index order
    old_traces = sorted((p for p in out.glob("trace_*.csv")
                         if (index := p.stem.removeprefix("trace_")).isdecimal()
                         and p.name == TRACE_FILE.format(int(index))),
                        key=lambda p: int(p.stem.removeprefix("trace_")))
    _prepare_out(out, ["summary.csv", "manifest.yaml", *(p.name for p in old_traces)],
                 args.force)
    for path in old_traces:
        path.unlink()

    groups = simulate_groups(cells, config.trace_iterations)
    jobs = [(cell, group, out / TRACE_FILE.format(i) if config.trace_iterations else None)
            for i, (cell, group) in enumerate(zip(cells, groups))]
    outcomes = _run_grid(_run_simulate_cell, jobs, groups, args.jobs)
    rows, failed_cells = _tabulate([(cell.strategy, cell.mu, cell.delta) for cell in cells],
                                   outcomes, config)
    _write_csv(out / "summary.csv", SUMMARY_HEADER, rows)
    _write_manifest(out, {"mode": "simulate", "config": _config_echo(config),
                          "failed_cells": failed_cells})
    return _report_failures(failed_cells)


def _tabulate(cells: list, outcomes: list, config) -> tuple:
    """The SUMMARY_HEADER rows of the cells that ran, and the records of the
    cells that failed. A cell is its (strategy, mu, delta); replay's mu is
    None, blank in its row and no key of its record. The intervals come from
    one ``bootstrap_grid`` pass after the whole grid, in this process for any --jobs."""
    done = [pair for pair in zip(cells, outcomes) if not isinstance(pair[1], Exception)]
    intervals = bootstrap_grid([efforts for _, (_, _, efforts) in done], config.seed,
                               config.bootstrap_confidence, config.bootstrap_resamples)
    rows = [[strategy.name, "" if mu is None else fmt(mu), fmt(delta), fmt(mean),
             fmt(low), fmt(high), fmt(ratio), str(config.iterations)]
            for ((strategy, mu, delta), (mean, ratio, _)), (low, high) in zip(done, intervals)]
    failed = [{"strategy": strategy.name, **({} if mu is None else {"mu": mu}),
               "delta": delta, "error": str(outcome)}
              for (strategy, mu, delta), outcome in zip(cells, outcomes)
              if isinstance(outcome, Exception)]
    return rows, failed


def _run_grid(run_cell, jobs: list, groups: list, workers: int) -> list:
    """run_cell(job) for every job, where ``groups`` holds each job's cell's
    ``Group``: in grid order in this process, or, when there are more groups
    than one and ``workers`` allows, each group's jobs in grid order in one
    of min(workers, groups) processes, so that each group's pass runs once.
    Each entry is the cell's result or the exception it raised, so one
    failing grid cell keeps every other cell's row."""
    members: dict = {}
    for i, group in enumerate(groups):
        members.setdefault(group, []).append(i)
    workers = min(workers, len(members))
    if workers > 1:
        # imported here, so that a one-process run never loads
        # multiprocessing, which costs every launch import time and memory
        from concurrent.futures import ProcessPoolExecutor
        outcomes = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_jobs, run_cell, [jobs[i] for i in indices])
                       for indices in members.values()]
            for indices, future in zip(members.values(), futures):
                done = _outcome(future.result)
                if isinstance(done, Exception):  # the worker died: each cell of its group failed
                    done = [done] * len(indices)
                for i, outcome in zip(indices, done):
                    outcomes[i] = outcome
        return outcomes
    return _run_jobs(run_cell, jobs)


def _run_jobs(run_cell, jobs: list) -> list:
    return [_outcome(partial(run_cell, job)) for job in jobs]


def _outcome(call):
    try:
        return call()
    except Exception as exc:
        return exc


def _report_failures(failed_cells: list) -> int:
    """Print each failed cell to stderr; the exit status is 1 if any failed."""
    for cell in failed_cells:
        where = " ".join(f"{key}={cell[key]}" for key in ("mu", "delta") if key in cell)
        print(f"error: cell {cell['strategy']} {where}: {cell['error']}", file=sys.stderr)
    return 1 if failed_cells else 0


def _run_replay_cell(args):
    """One replay cell: its mean effort, decision ratio and decided efforts."""
    config, annotations, strategy, delta, group = args
    return _cell_outcome(replay_experiment(annotations, strategy, delta, config.iterations,
                                           config.seed, group=group))


def cmd_replay(args) -> int:
    config = load_replay_config(args.config, seed_override=args.seed)
    mapping = load_mapping(args.mapping) if args.mapping else None
    dataset = Path(args.dataset)
    annotations = parse_annotations(dataset, mapping)

    out = Path(args.out)
    _prepare_out(out, ["effort.csv", "decision_ratio.csv", "manifest.yaml"], args.force)

    # kappa needs two votes on every request; with fewer it is undefined,
    # and each cell still runs or fails on its own
    kappa = fleiss_kappa(annotations) if annotations.counts.min() >= 2 else None
    print(f"dataset {annotations.experiment_label}: {len(annotations)} requests, "
          f"{len(annotations.worker_ids)} workers, "
          f"fleiss kappa = {'n/a' if kappa is None else f'{kappa:.4f}'}")

    cells = [(strategy, delta) for strategy in config.strategies for delta in config.deltas]
    group = replay_group(annotations, cells, config.iterations, config.seed)
    jobs = [(config, annotations, strategy, delta, group) for strategy, delta in cells]
    outcomes = _run_grid(_run_replay_cell, jobs, [group] * len(jobs), args.jobs)
    rows, failed_cells = _tabulate([(strategy, None, delta) for strategy, delta in cells],
                                   outcomes, config)
    _write_csv(out / "effort.csv", SUMMARY_HEADER, rows)
    # decision_ratio.csv repeats each effort row's strategy, delta and ratio
    ratio = [SUMMARY_HEADER.index(name) for name in RATIO_HEADER[1:]]
    _write_csv(out / "decision_ratio.csv", RATIO_HEADER,
               [[annotations.experiment_label, *(row[i] for i in ratio)] for row in rows])
    _write_manifest(out, {
        "mode": "replay",
        "dataset": str(dataset),
        "mapping": mapping,
        "fleiss_kappa": kappa,
        "config": _config_echo(config),
        "failed_cells": failed_cells,
    })
    return _report_failures(failed_cells)


def cmd_trace(args) -> int:
    config = load_simulate_config(args.config, seed_override=args.seed)
    cells = simulate_grid(config)
    if not 0 <= args.cell < len(cells):
        raise ConfigError(f"--cell must be in [0, {len(cells) - 1}], got {args.cell}")
    if not 0 <= args.iteration < config.iterations:
        raise ConfigError(f"--iteration must be in [0, {config.iterations - 1}], "
                          f"got {args.iteration}")
    exp = cells[args.cell]

    out = Path(args.out)
    _prepare_out(out, ["trace.csv", "manifest.yaml"], args.force)

    # the cell with only this iteration: the iteration as simulate runs it
    iteration = range(args.iteration, args.iteration + 1)
    summary = run_experiment(exp, trace_iterations=1, iterations=iteration)
    [result] = summary.per_iteration
    band = hoeffding_band(exp.delta, exp.n_requests)
    _write_csv(out / "trace.csv", TRACE_HEADER, _TraceRows(summary.traces, band, args.iteration))
    _write_manifest(out, {
        "mode": "trace",
        "cell": {"strategy": exp.strategy.name, "mu": exp.mu, "delta": exp.delta},
        "iteration": args.iteration,
        "decided": result.decided,
        "verdict": result.verdict.value,
        "n_at_decision": result.n_at_decision,
        "effort": result.effort,
        "config": _config_echo(config),
    })
    print(f"{exp.strategy.name} mu={fmt(exp.mu)} delta={fmt(exp.delta)} iteration "
          f"{args.iteration}: {result.verdict.value} at n={result.n_at_decision}, "
          f"effort {result.effort}")
    return 0


def _jobs(text: str) -> int:
    """--jobs: a process count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twochoice",
        description="Two-choice evaluation: simulate labelling strategies or replay "
                    "recorded votes under a sequential stopping rule.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML experiment config")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")

    sim = sub.add_parser("simulate", parents=[common],
                         help="run the simulation grid and write summary.csv")
    sim.add_argument("--jobs", type=_jobs, default=1, help="parallel grid cells")
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("replay", parents=[common],
                         help="replay strategies over a recorded annotation CSV")
    rep.add_argument("--dataset", required=True, help="annotation CSV (request_id,worker_id,label)")
    rep.add_argument("--mapping", default=None, help="column-mapping YAML for foreign schemas")
    rep.add_argument("--jobs", type=_jobs, default=1, help="parallel grid cells")
    rep.set_defaults(func=cmd_replay)

    tra = sub.add_parser("trace", parents=[common],
                         help="write the bound trace of a single iteration")
    tra.add_argument("--cell", type=int, default=0, help="grid cell index (see simulate order)")
    tra.add_argument("--iteration", type=int, default=0, help="iteration index to trace")
    tra.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError and DataFormatError are ValueErrors; an OSError names the
    # path it could not open or create
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
