"""Maintenance commands for the benchmark; run from the root of a checkout.

    python3 perfbench/calibrate.py reference [--workload W ...]
        Launch the workloads (default all) once per reference seed and
        update their entries in reference.json: per grid cell, the mean
        over seeds of mean_effort, decision_ratio and raw labels per request
        read, and the tolerance run.py allows around each. Rerun only when a
        change is meant to move the results, and say so.

    python3 perfbench/calibrate.py spread --runs 10 [--workload W ...] [--trace 0|1]
        Run run.py for run_seconds (BENCHMARK.json) on seeds 1 to --runs
        per workload and print, per metric, the median and the distance
        between the first and third quartiles as a share of the median,
        with the run environment; --out also writes them as JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time

import run

REFERENCE_SEEDS = range(1001, 1031)
SIGMAS = 7.0


def reference(workloads: list) -> int:
    run.WORK.mkdir(exist_ok=True)
    path = run.HERE / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in workloads:
        spec = run.WORKLOADS[workload]
        config = run.yaml.safe_load((run.HERE / "workloads" / spec["config"]).read_text(encoding="utf-8"))
        per_seed = []
        for seed in REFERENCE_SEEDS:
            work = run.WORK / f"reference-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            cli_args, _ = run.workload_inputs(workload, seed, work)
            result = run.Launcher(run.ROOT / "src", work, cli_args, time.monotonic()).launch("time")
            if result["exit"] != 0:
                print(result["log"], file=sys.stderr)
                return 1
            rows = run.read_csv(result["out"] / spec["table"])[1:]
            per_seed.append([row + [cell["effort_per_request"]]
                             for row, cell in zip(rows, result["report"]["cells"])])
            shutil.rmtree(work)
            print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
        cells = []
        iterations = config["iterations"]
        for rows in zip(*per_seed):
            means = [float(r[3]) for r in rows]
            ratios = [float(r[6]) for r in rows]
            per_request = [r[8] for r in rows]
            mean, ratio = statistics.mean(means), statistics.mean(ratios)
            labels = statistics.mean(per_request)
            cells.append({
                "strategy": rows[0][0], "mu": rows[0][1], "delta": rows[0][2],
                "mean_effort": mean,
                "mean_tol": max(SIGMAS * statistics.stdev(means), 0.01 * mean),
                "decision_ratio": ratio,
                "ratio_tol": max(SIGMAS * statistics.stdev(ratios),
                                 SIGMAS * math.sqrt(ratio * (1 - ratio) / iterations),
                                 3.0 / iterations),
                "effort_per_request": labels,
                "per_request_tol": max(SIGMAS * statistics.stdev(per_request), 0.001 * labels),
            })
        table[workload] = {"seeds": list(REFERENCE_SEEDS), "cells": cells}
    table["tolerance"] = (
        f"mean_tol is {SIGMAS:g} standard deviations of a cell's mean_effort over the "
        f"seeds, at least 1% of it; ratio_tol is {SIGMAS:g} standard deviations of its "
        f"decision_ratio over the seeds or of a binomial proportion, at least 3 iterations; "
        f"per_request_tol is {SIGMAS:g} standard deviations of its raw labels per request "
        f"read over the seeds, at least 0.1% of it")
    path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


def spread(workloads: list, runs: int, trace: int, seconds: int, out) -> int:
    summary = {"environment": run.environment(), "seconds": seconds, "trace": trace,
               "seeds": list(range(1, runs + 1)), "workloads": {}}
    for workload in workloads:
        values: dict = {}
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            shown = {k: v for k, v in result["metrics"].items()
                     if trace == 0 or k.startswith("trace.")}
            print(f"{workload} seed {seed}: failed_frac={result['failed'] / result['attempted']:.4g} "
                  + " ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in shown.items()),
                  flush=True)
        rows = {}
        for key, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            rows[key] = {"median": median, "q1": q[0], "q3": q[2],
                         "iqr_frac": (q[2] - q[0]) / median if median else 0.0}
            print(f"  {workload} {key}: median {median:.5g}  iqr/median {rows[key]['iqr_frac']:.4f}")
        summary["workloads"][workload] = rows
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ref = sub.add_parser("reference")
    sp = sub.add_parser("spread")
    for p in (ref, sp):
        p.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--out", default=None)
    args = parser.parse_args()
    workloads = args.workload or list(run.WORKLOADS)
    if args.command == "reference":
        return reference(workloads)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    return spread(workloads, args.runs, args.trace, seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
