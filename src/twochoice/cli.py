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
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

import yaml

from . import __version__
from .config import (
    ConfigError,
    SimulateConfig,
    load_mapping,
    load_replay_config,
    load_simulate_config,
)
from .replay import DataFormatError, fleiss_kappa, parse_annotations, replay_experiment
from .simulator import ExperimentConfig, run_experiment, run_iteration
from .eval_model import sample_capabilities, sample_difficulties
from .rng import DOMAIN_POOL, DOMAIN_REQUESTS, STREAM_LAYOUT, substream

SUMMARY_HEADER = ["strategy", "mu", "delta", "mean_effort", "ci_low", "ci_high",
                  "decision_ratio", "iterations"]
TRACE_HEADER = ["iteration", "n", "mean", "lower", "upper"]
TRACE_FILES = "trace_[0-9][0-9][0-9].csv"
RATIO_HEADER = ["dataset", "strategy", "delta", "decision_ratio"]


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def simulate_grid(config: SimulateConfig) -> list:
    """Grid cells in their canonical order: regimes, then strategies, then deltas."""
    return [
        (regime, strategy, delta)
        for regime in config.regimes
        for strategy in config.strategies
        for delta in config.deltas
    ]


def _experiment_config(config: SimulateConfig, regime, strategy, delta) -> ExperimentConfig:
    return ExperimentConfig(
        capability_lo=config.capability_lo,
        capability_hi=config.capability_hi,
        pool_size=config.pool_size,
        mu=regime.mu,
        sigma=regime.sigma,
        n_requests=regime.n_requests,
        strategy=strategy,
        delta=delta,
        iterations=config.iterations,
        seed=config.seed,
        resample_difficulties_per_iteration=config.resample_difficulties_per_iteration,
        resample_pool_per_iteration=config.resample_pool_per_iteration,
    )


def _run_simulate_cell(args):
    """One grid cell: run it, write its trace CSV if it has one, and return
    its summary row. The trace is written here, in the worker process under
    --jobs, so no cell's trace rows outlive the cell."""
    config, regime, strategy, delta, trace_path = args
    summary = run_experiment(_experiment_config(config, regime, strategy, delta),
                             trace_iterations=config.trace_iterations,
                             bootstrap_confidence=config.bootstrap_confidence,
                             bootstrap_resamples=config.bootstrap_resamples)
    if trace_path is not None:
        _write_csv(trace_path, TRACE_HEADER,
                   _CellTraceRows(summary.per_iteration[:config.trace_iterations]))
    return [strategy.name, fmt(regime.mu), fmt(delta), fmt(summary.mean_effort),
            fmt(summary.ci_low), fmt(summary.ci_high), fmt(summary.decision_ratio),
            str(config.iterations)]


def _trace_rows(iteration: int, trace: list):
    return ([str(iteration), str(n), fmt(mean), fmt(lower), fmt(upper)]
            for n, mean, lower, upper in trace)


class _CellTraceRows:
    """The trace rows of a cell's traced iterations, formatted one at a time
    as the CSV writer takes them. len() counts them without formatting any;
    perfbench/worker.py's row counter reads it."""

    def __init__(self, results: list):
        self.results = results

    def __len__(self) -> int:
        return sum(len(result.trace) for result in self.results)

    def __iter__(self):
        for i, result in enumerate(self.results):
            yield from _trace_rows(i, result.trace)


def _prepare_out(out: Path, names: list, force: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if not force:
        existing = [name for name in names if (out / name).exists()]
        if existing:
            raise ConfigError(
                f"refusing to overwrite {existing} in {out} (use --force)")


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
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
    # an earlier one's, and --force removes them all before the grid runs
    old_traces = sorted(out.glob(TRACE_FILES))
    _prepare_out(out, ["summary.csv", "manifest.yaml", *(p.name for p in old_traces)],
                 args.force)
    for path in old_traces:
        path.unlink()

    jobs = [(config, regime, strategy, delta,
             out / f"trace_{i:03d}.csv" if config.trace_iterations else None)
            for i, (regime, strategy, delta) in enumerate(cells)]
    outcomes = _run_grid(_run_simulate_cell, jobs, args.jobs)
    failed_cells = [{"strategy": strategy.name, "mu": regime.mu, "delta": delta,
                     "error": str(outcome)}
                    for (_, regime, strategy, delta, _), outcome in zip(jobs, outcomes)
                    if isinstance(outcome, Exception)]
    _write_csv(out / "summary.csv", SUMMARY_HEADER,
               [row for row in outcomes if not isinstance(row, Exception)])
    _write_manifest(out, {"mode": "simulate", "config": _config_echo(config),
                          "failed_cells": failed_cells})
    return _report_failures(failed_cells)


def _run_grid(run_cell, jobs: list, workers: int) -> list:
    """run_cell(job) for every job, in ``workers`` processes when more than
    one. Each entry is the cell's result or the exception it raised, so that
    one failing grid cell keeps every other cell's row."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, job) for job in jobs]
            return [_outcome(future.result) for future in futures]
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
    config, annotations, strategy, delta = args
    summary = replay_experiment(annotations, strategy, delta, config.iterations, config.seed,
                                bootstrap_confidence=config.bootstrap_confidence,
                                bootstrap_resamples=config.bootstrap_resamples)
    return [strategy.name, "", fmt(delta), fmt(summary.mean_effort), fmt(summary.ci_low),
            fmt(summary.ci_high), fmt(summary.decision_ratio), str(config.iterations)]


def cmd_replay(args) -> int:
    config = load_replay_config(args.config, seed_override=args.seed)
    mapping = load_mapping(args.mapping) if args.mapping else None
    dataset = Path(args.dataset)
    if not dataset.exists():
        print(f"error: dataset not found: {dataset}", file=sys.stderr)
        return 2
    annotations = parse_annotations(dataset, mapping)

    out = Path(args.out)
    _prepare_out(out, ["effort.csv", "decision_ratio.csv", "manifest.yaml"], args.force)

    kappa = fleiss_kappa(annotations)
    print(f"dataset {annotations.experiment_label}: {len(annotations)} requests, "
          f"{len(annotations.worker_ids)} workers, fleiss kappa = {kappa:.4f}")

    jobs = [(config, annotations, strategy, delta)
            for strategy in config.strategies for delta in config.deltas]
    outcomes = _run_grid(_run_replay_cell, jobs, args.jobs)
    failed_cells = [{"strategy": strategy.name, "delta": delta, "error": str(outcome)}
                    for (_, _, strategy, delta), outcome in zip(jobs, outcomes)
                    if isinstance(outcome, Exception)]
    rows = [outcome for outcome in outcomes if not isinstance(outcome, Exception)]
    _write_csv(out / "effort.csv", SUMMARY_HEADER, rows)
    # decision_ratio.csv repeats each effort row's strategy, delta and ratio
    _write_csv(out / "decision_ratio.csv", RATIO_HEADER,
               [[annotations.experiment_label, row[0], row[2], row[6]] for row in rows])
    _write_manifest(out, {
        "mode": "replay",
        "dataset": str(dataset),
        "mapping": mapping,
        "fleiss_kappa": float(kappa),
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
    regime, strategy, delta = cells[args.cell]
    exp = _experiment_config(config, regime, strategy, delta)

    out = Path(args.out)
    _prepare_out(out, ["trace.csv", "manifest.yaml"], args.force)

    requests = sample_difficulties(exp.mu, exp.sigma, exp.n_requests,
                                   substream(exp.seed, DOMAIN_REQUESTS, 0))
    pool = sample_capabilities(exp.capability_lo, exp.capability_hi, exp.pool_size,
                               substream(exp.seed, DOMAIN_POOL, 0))
    result = run_iteration(exp, requests, pool, args.iteration, record_trace=True)
    _write_csv(out / "trace.csv", TRACE_HEADER, _trace_rows(args.iteration, result.trace))
    _write_manifest(out, {
        "mode": "trace",
        "cell": {"strategy": strategy.name, "mu": regime.mu, "delta": delta},
        "iteration": args.iteration,
        "decided": result.decided,
        "verdict": result.verdict.value,
        "n_at_decision": result.n_at_decision,
        "effort": result.effort,
        "config": _config_echo(config),
    })
    print(f"{strategy.name} mu={fmt(regime.mu)} delta={fmt(delta)} iteration {args.iteration}: "
          f"{result.verdict.value} at n={result.n_at_decision}, effort {result.effort}")
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
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
