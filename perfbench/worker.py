"""One workload process: import twochoice from a checkout, run its command
line once through ``twochoice.cli.main``, and report what happened.

    python3 worker.py <src dir> <report.json> <time|setup|trace> <cli args...>

Every mode stamps the first iteration call (the end of set-up) and checks
each grid cell's per-iteration results as the cell returns, timing the
checks so that the launcher can take them out of the workload's figures. ``setup`` stops
the process at the first iteration call. ``trace`` also wraps the public
functions of every module in spans, replacing each name in the namespace
of the module that calls it, and writes the spans next to the report when
the command returns. Nothing in the package is edited.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array


class SetupDone(BaseException):
    """Raised at the first iteration call in setup mode; not an Exception,
    so the command line's error handling lets it through."""


class Tracer:
    """In-memory spans: name id, parent span index, start and end (seconds)."""

    def __init__(self):
        self.names: list = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.counts: dict = {}

    def wrap(self, name, fn, on_result=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.monotonic
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr, name, on_result=None):
        setattr(module, attr, self.wrap(name, getattr(module, attr), on_result))

    def add(self, key, value):
        self.counts.setdefault(key, []).append(value)

    def dump(self, path):
        import numpy as np
        np.savez(path, name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts), ends=np.frombuffer(self.ends),
                 **{f"count:{key}": np.asarray(values) for key, values in self.counts.items()})
        return self.names


def install_tracer(tracer: Tracer, tc) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    cli, simulator, replay, decision = tc.cli, tc.simulator, tc.replay, tc.decision

    def iteration_counts(args, kwargs, result):
        tracer.add("sim.n", result.n_at_decision)
        tracer.add("sim.total", args[0].n_requests)
        tracer.add("sim.decided", int(result.decided))
        tracer.add("sim.effort", result.effort)

    def replay_counts(args, kwargs, result):
        tracer.add("replay.n", result.n_at_decision)
        tracer.add("replay.total", len(args[0]))

    def csv_counts(args, kwargs, result):
        tracer.add("cli.rows", len(args[2]))
        tracer.add("cli.bytes", os.path.getsize(args[0]))

    def manifest_counts(args, kwargs, result):
        tracer.add("cli.bytes", os.path.getsize(os.path.join(args[0], "manifest.yaml")))

    tracer.patch(cli, "load_simulate_config", "config.load")
    tracer.patch(cli, "load_replay_config", "config.load")
    tracer.patch(cli, "parse_annotations", "replay.parse_annotations")
    tracer.patch(cli, "fleiss_kappa", "replay.fleiss_kappa")
    tracer.patch(cli, "_run_simulate_cell", "cli.run_simulate_cell")
    tracer.patch(cli, "run_experiment", "simulator.run_experiment")
    tracer.patch(cli, "replay_experiment", "replay.replay_experiment")
    tracer.patch(cli, "run_iteration", "simulator.run_iteration", iteration_counts)
    tracer.patch(cli, "_write_csv", "cli.write", csv_counts)
    tracer.patch(cli, "_write_manifest", "cli.write", manifest_counts)
    for module in (cli, simulator):
        tracer.patch(module, "sample_difficulties", "eval_model.sample")
        tracer.patch(module, "sample_capabilities", "eval_model.sample")
    for module in (cli, simulator, replay):
        tracer.patch(module, "substream", "rng.substream")
    tracer.patch(simulator, "run_iteration", "simulator.run_iteration", iteration_counts)
    tracer.patch(simulator, "bootstrap_ci", "simulator.bootstrap_ci")
    tracer.patch(replay, "bootstrap_ci", "simulator.bootstrap_ci")
    tracer.patch(replay, "replay_iteration", "replay.replay_iteration", replay_counts)
    tracer.patch(replay, "majority_vote", "strategies.majority_vote")
    tracer.patch(decision, "update", "decision.update")


def iteration_violations(strategy_name: str, n_requests: int, results) -> int:
    """Iterations that break the effort identities or the request supply.

    n-workers:N spends exactly N labels per request read, max-three between
    2 and 3, one-worker and fixed-worker exactly 1; an iteration reads at
    least one request and never more than the supply, and an undecided one
    has read them all. A traced iteration has one band point per request read.
    """
    bad = 0
    for r in results:
        n, effort = r.n_at_decision, r.effort
        trace = getattr(r, "trace", None)
        if strategy_name.startswith("n-workers:"):
            ok = effort == int(strategy_name.split(":", 1)[1]) * n
        elif strategy_name == "max-three":
            ok = 2 * n <= effort <= 3 * n
        else:
            ok = effort == n
        ok = ok and 1 <= n <= n_requests and (r.decided or n == n_requests)
        ok = ok and (trace is None or len(trace) == n)
        bad += not ok
    return bad


def cell_record(strategy_name, n_requests, iterations, summary) -> dict:
    results = summary.per_iteration
    decided = [r.effort for r in results if r.decided]
    return {
        "strategy": strategy_name,
        "iterations": iterations,
        "n_requests": n_requests,
        "results": len(results),
        "decided": len(decided),
        "violations": iteration_violations(strategy_name, n_requests, results),
        "mean_effort": sum(decided) / len(decided) if decided else None,
        "effort_per_request": (sum(r.effort for r in results)
                               / sum(r.n_at_decision for r in results)),
        "trace_rows": sum(len(getattr(r, "trace", None) or ()) for r in results),
    }


def main(argv) -> int:
    src, report_path, mode = argv[1:4]
    cli_args = argv[4:]
    sys.path.insert(0, src)
    import twochoice
    import twochoice.cli
    if os.path.dirname(os.path.abspath(twochoice.__file__)) != os.path.join(src, "twochoice"):
        print(f"twochoice imported from {twochoice.__file__}, not {src}", file=sys.stderr)
        return 3
    cli, simulator, replay = twochoice.cli, twochoice.simulator, twochoice.replay

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        install_tracer(tracer, twochoice)

    report = {"first_iteration": None, "cells": []}

    def stamp_first(module, attr):
        inner = getattr(module, attr)

        def first(*args, **kwargs):
            report["first_iteration"] = time.monotonic()
            setattr(module, attr, inner)
            if mode == "setup":
                raise SetupDone
            return inner(*args, **kwargs)

        setattr(module, attr, first)

    stamp_first(simulator, "run_iteration")
    stamp_first(replay, "replay_iteration")

    run_experiment, replay_experiment = cli.run_experiment, cli.replay_experiment
    # in a traced launch the checks are a span of their own, so no layer's
    # self time includes them
    check = tracer.wrap("bench.check", cell_record) if tracer else cell_record
    report["check_s"] = report["check_cpu_s"] = 0.0

    def record(*args):
        # the launcher takes the checks' own time out of wall_s and cpu_s
        wall, cpu = time.monotonic(), time.process_time()
        result = check(*args)
        report["check_s"] += time.monotonic() - wall
        report["check_cpu_s"] += time.process_time() - cpu
        return result

    def checked_run(config, **kwargs):
        summary = run_experiment(config, **kwargs)
        report["cells"].append(record(config.strategy.name, config.n_requests,
                                      config.iterations, summary))
        return summary

    def checked_replay(annotations, strategy, delta, iterations, seed, **kwargs):
        summary = replay_experiment(annotations, strategy, delta, iterations, seed, **kwargs)
        report["cells"].append(record(strategy.name, len(annotations), iterations, summary))
        return summary

    cli.run_experiment, cli.replay_experiment = checked_run, checked_replay

    try:
        report["exit_code"] = cli.main(cli_args)
    except SetupDone:
        report["exit_code"] = 0
    report["end"] = time.monotonic()
    if tracer is not None:
        report["span_names"] = tracer.dump(report_path + ".spans.npz")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
