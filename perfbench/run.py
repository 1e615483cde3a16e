"""twochoice benchmark: run one named workload and print its metrics.

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 35 --trace 0

Run from the root of a twochoice checkout; the package is imported from
that checkout's ``src``. Each launch is a fresh ``python3`` process that
runs ``twochoice.cli.main`` once with ``--jobs 1`` (see worker.py), so the
figures cover interpreter start, imports, config load, the grid and the
output files. The seed is passed to the command line as ``--seed`` and, for
replay, also generates the votes file.

``--trace 0`` launches the workload until ``--seconds`` have passed (at
least twice), with set-up probes that stop at the first iteration call
before and between the launches, and reports wall_s, setup_s, cpu_s and
peak_rss_mb as medians.
``--trace 1`` alternates untraced and traced launches (at least two of
each) and reports the per-layer metrics of the traced ones (see
WORKLOADS.md). It is also the determinism self-check: every launch of the
seed must write byte-identical CSVs, and the count metrics (calls, rows,
bytes, decided share, stopping n, effort, share of requests read) must be
equal across the traced launches.

Every launch is checked: per-iteration effort identities, one output row
per grid cell with ci_low <= mean_effort <= ci_high, agreement with
reference.json within its stated tolerance, byte-identical outputs across
launches of one seed, the trace CSVs' error band recomputed from the
Hoeffding formula, and for replay the dataset's Fleiss kappa against an
independent computation. A cell failing any check counts as failed. The
last line of standard output is one JSON object with the results.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from votes import expected_kappa, write_votes  # noqa: E402

# At mean difficulty 0.2 every replay iteration decides and one launch takes
# about 4 s, so a run holds enough launches for a steady median (WORKLOADS.md).
VOTES = {"dataset_seed": 20211215, "pool_size": 100, "capability_lo": 0.8, "capability_hi": 1.0,
         "requests": 3000, "mu": 0.2, "sigma": 0.1, "min_votes": 7, "max_votes": 11}
WORKLOADS = {
    "sim-default": {"command": "simulate", "config": "sim-default.yaml", "table": "summary.csv"},
    "sim-exhaust": {"command": "simulate", "config": "sim-exhaust.yaml", "table": "summary.csv"},
    "replay-default": {"command": "replay", "config": "replay-default.yaml", "table": "effort.csv",
                       "votes": VOTES},
}
SETUP_PROBES = 6
MIN_LAUNCHES = 2
DEADLINE_S = 170.0


def fmt6(value: float) -> str:
    return f"{value:.6g}"


def workload_inputs(workload: str, seed: int, work: Path) -> tuple[list, dict | None]:
    """Command-line arguments for one workload and seed, writing the votes
    file into ``work`` when the workload replays one."""
    spec = WORKLOADS[workload]
    cli_args = [spec["command"], "--config", str(HERE / "workloads" / spec["config"]),
                "--seed", str(seed)]
    votes = None
    if "votes" in spec:
        votes = write_votes(work / "votes.csv", seed, spec["votes"])
        cli_args += ["--dataset", str(work / "votes.csv")]
    return cli_args, votes


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "platform": platform.platform()}


class Launcher:
    """Starts workload processes and measures each from outside."""

    def __init__(self, src: Path, work: Path, cli_args: list, started: float):
        self.src, self.work, self.cli_args, self.started = src, work, cli_args, started
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        # One thread per numeric library, so the figures are about the program.
        # glibc raises its mmap threshold when a large block is freed, up to
        # 32 MiB, so whether a later 16 MiB array reuses heap memory depends on
        # the order in which a seed's allocation sizes come; pinning the
        # threshold at that maximum stops peak RSS from jumping by ~27 MB
        # between seeds, at no cost in time.
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                        MALLOC_MMAP_THRESHOLD_=str(32 * 1024 * 1024))
        self.count = 0

    def launch(self, mode: str) -> dict:
        self.count += 1
        name = f"{mode}{self.count:03d}"
        out, report = self.work / name, self.work / f"{name}.json"
        argv = [sys.executable, str(HERE / "worker.py"), str(self.src), str(report), mode,
                *self.cli_args, "--out", str(out), "--jobs", "1"]
        limit = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        with open(self.work / f"{name}.log", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=self.work)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"mode": mode, "out": out, "exit": proc.returncode, "wall_s": end - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
                  "log": (self.work / f"{name}.log").read_text(encoding="utf-8", errors="replace"),
                  "report": None, "setup_s": None}
        if report.exists():
            result["report"] = json.loads(report.read_text(encoding="utf-8"))
            # the benchmark's own per-cell checks are not the program's time
            result["wall_s"] -= result["report"]["check_s"]
            result["cpu_s"] -= result["report"]["check_cpu_s"]
            first = result["report"].get("first_iteration")
            if first is not None:
                result["setup_s"] = first - start
            if mode == "trace":
                with np.load(f"{report}.spans.npz") as data:
                    result["spans"] = {key: data[key] for key in data.files}
        return result


# ---------------------------------------------------------------- checks

def read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def output_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix == ".csv"}


def check_trace_file(path: Path, delta: float, n_requests: int, rows_expected: int) -> str | None:
    """Recompute the Hoeffding band of every traced row; None when all hold."""
    rows = read_csv(path)[1:]
    if len(rows) != rows_expected:
        return f"{path.name}: {len(rows)} rows, expected {rows_expected}"
    log_delta = -math.log(delta)
    by_iteration: dict = {}
    for row in rows:
        by_iteration.setdefault(row[0], []).append([float(x) for x in row[1:]])
    for iteration, band in by_iteration.items():
        for i, (n, mean, lower, upper) in enumerate(band):
            tol = math.sqrt(log_delta / (2.0 * n))
            if n != i + 1 or abs(mean * n - round(mean * n)) > 1e-3 * max(1.0, n / 1000):
                return f"{path.name} iteration {iteration}: row {i} n={n} mean={mean}"
            if abs(lower - (mean - tol)) > 1e-5 or abs(upper - (mean + tol)) > 1e-5:
                return f"{path.name} iteration {iteration}: band at n={n} is not mean -+ t(n)"
            crossed = lower > 0.5 + 1e-5 or upper < 0.5 - 1e-5
            open_band = lower < 0.5 - 1e-5 and upper > 0.5 + 1e-5
            last = i == len(band) - 1
            if not last and crossed:
                return f"{path.name} iteration {iteration}: band crossed 0.5 at n={n} but went on"
            if last and n < n_requests and open_band:
                return f"{path.name} iteration {iteration}: stopped at n={n} inside the band"
    return None


def check_launch(result: dict, spec: dict, config: dict, reference: list, votes: dict | None,
                 first_hashes: dict | None, check_traces: bool) -> list:
    """One list entry per grid cell: None when the cell passed, else the reason."""
    cells = len(reference)
    report = result["report"]
    if result["exit"] != 0 or report is None:
        return [f"exit code {result['exit']}: {result['log'][-400:]}"] * cells
    out = result["out"]
    table = read_csv(out / spec["table"])
    rows, records = table[1:], report["cells"]
    if len(rows) != cells or len(records) != cells:
        return [f"{len(rows)} rows and {len(records)} cells, expected {cells}"] * cells
    whole = None
    if first_hashes is not None and output_hashes(out) != first_hashes:
        whole = "outputs differ from the first launch of this seed"
    if votes is not None:
        manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
        kappa, tol = votes["kappa"]
        if abs(manifest["fleiss_kappa"] - kappa) > tol:
            whole = f"fleiss kappa {manifest['fleiss_kappa']} vs independent {kappa:.5f} +- {tol:.5f}"
    failures = []
    for i, (row, record, ref) in enumerate(zip(rows, records, reference)):
        strategy, mu, delta, mean, ci_low, ci_high, ratio, iterations = row
        n_requests = votes["requests"] if votes is not None else None
        reason = whole
        if (strategy, mu, delta) != (ref["strategy"], ref["mu"], ref["delta"]):
            reason = f"row {i} is {strategy} {mu} {delta}, expected {ref['strategy']} {ref['mu']} {ref['delta']}"
        elif record["violations"]:
            reason = f"{record['violations']} iterations break the effort identities"
        elif record["results"] != int(iterations) or int(iterations) != config["iterations"]:
            reason = f"{record['results']} iterations, expected {config['iterations']}"
        elif n_requests is not None and record["n_requests"] != n_requests:
            reason = f"replay saw {record['n_requests']} requests, the file holds {n_requests}"
        elif record["mean_effort"] is None or mean != fmt6(record["mean_effort"]):
            reason = f"mean_effort {mean} vs recomputed {record['mean_effort']}"
        elif ratio != fmt6(record["decided"] / record["results"]):
            reason = f"decision_ratio {ratio} vs {record['decided']}/{record['results']}"
        elif not float(ci_low) <= float(mean) <= float(ci_high):
            reason = f"mean_effort {mean} outside [{ci_low}, {ci_high}]"
        elif abs(float(mean) - ref["mean_effort"]) > ref["mean_tol"]:
            reason = f"mean_effort {mean} vs reference {ref['mean_effort']:.6g} +- {ref['mean_tol']:.3g}"
        elif abs(float(ratio) - ref["decision_ratio"]) > ref["ratio_tol"]:
            reason = f"decision_ratio {ratio} vs reference {ref['decision_ratio']:.6g} +- {ref['ratio_tol']:.3g}"
        elif abs(record["effort_per_request"] - ref["effort_per_request"]) > ref["per_request_tol"]:
            reason = (f"{record['effort_per_request']:.6g} labels per request vs reference "
                      f"{ref['effort_per_request']:.6g} +- {ref['per_request_tol']:.3g}")
        elif check_traces and record["trace_rows"]:
            regime = config["regimes"][i // (len(config["strategies"]) * len(config["deltas"]))]
            reason = check_trace_file(out / f"trace_{i:03d}.csv", float(delta),
                                      regime["n_requests"], record["trace_rows"]) or whole
        failures.append(reason)
    return failures


# ---------------------------------------------------------------- per-layer metrics

def layer_metrics(result: dict) -> dict:
    """Per-layer figures of one traced launch, from its spans and counts."""
    spans, names = result["spans"], result["report"]["span_names"]
    name_ids, parents = spans["name_ids"], spans["parents"]
    starts, ends = spans["starts"], spans["ends"]
    dur = ends - starts
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
    own = dur - child

    def pick(name):
        return name_ids == names.index(name) if name in names else np.zeros(dur.size, bool)

    def count(key):
        return spans.get(f"count:{key}", np.zeros(0))

    def percentile(values, q):
        return float(np.percentile(values, q)) if values.size else 0.0

    m = {}
    for name in ("config.load", "eval_model.sample", "replay.parse_annotations",
                 "replay.fleiss_kappa", "cli.write"):
        m[f"{name}_ms"] = float(dur[pick(name)].sum() * 1e3)
    for name in ("rng.substream", "simulator.bootstrap_ci", "decision.update",
                 "strategies.majority_vote"):
        m[f"{name}.calls"] = int(pick(name).sum())
        m[f"{name}_ms"] = float(dur[pick(name)].sum() * 1e3)
    m["cli.run_simulate_cell.self_ms"] = float(own[pick("cli.run_simulate_cell")].sum() * 1e3)
    for name in ("simulator.run_iteration", "replay.replay_iteration"):
        sel = pick(name)
        m[f"{name}.calls"] = int(sel.sum())
        m[f"{name}.p50_ms"] = percentile(dur[sel] * 1e3, 50)
        m[f"{name}.p99_ms"] = percentile(dur[sel] * 1e3, 99)
        m[f"{name}.self_ms"] = float(own[sel].sum() * 1e3)
    for prefix, key in (("simulator", "sim"), ("replay", "replay")):
        total = count(f"{key}.total").sum()
        m[f"{prefix}.requests_read_frac"] = float(count(f"{key}.n").sum() / total) if total else 0.0
    stop_n = count("sim.n")
    m["simulator.decided_frac"] = float(count("sim.decided").mean()) if stop_n.size else 0.0
    m["simulator.stop_n.p50"] = percentile(stop_n, 50)
    m["simulator.stop_n.p90"] = percentile(stop_n, 90)
    m["simulator.effort_total"] = int(count("sim.effort").sum())
    m["cli.rows_written"] = int(count("cli.rows").sum())
    m["cli.bytes_written"] = int(count("cli.bytes").sum())

    report = result["report"]
    first, end = report["first_iteration"], report["end"]
    top = parents < 0
    covered = np.clip(ends[top], first, end) - np.clip(starts[top], first, end)
    window = end - first
    m["trace.unaccounted_frac"] = float((window - covered.sum()) / window)
    return m


COUNT_METRICS = ("calls", "rows_written", "bytes_written", "decided_frac", "stop_n.p50",
                 "stop_n.p90", "effort_total", "requests_read_frac")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_METRICS)


# ---------------------------------------------------------------- driver

def describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4, method="inclusive")
    return (f"n={len(values)} min={min(values):.4g} q1={q[0]:.4g} q3={q[2]:.4g} "
            f"max={max(values):.4g}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    src = ROOT / "src"
    if not (src / "twochoice" / "cli.py").is_file():
        print(f"error: no twochoice package under {src}; run from a checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[workload]
    config = yaml.safe_load((HERE / "workloads" / spec["config"]).read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]["cells"]

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        cli_args, votes = workload_inputs(workload, seed, work)
        if votes is not None:
            votes["kappa"] = expected_kappa(votes.pop("ones"), votes.pop("votes"))
        launcher = Launcher(src, work, cli_args, started)
        env = environment()
        print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
              f"cpu={env['cpu']!r} platform={env['platform']}")
        if votes is not None:
            print(f"votes.csv seed={seed} requests={votes['requests']} rows={votes['rows']} "
                  f"sha256={votes['sha256']} independent kappa={votes['kappa'][0]:.5f} "
                  f"+- {votes['kappa'][1]:.5f}")

        # set-up probes: some first, then one after each launch, so that their
        # median spans the whole run
        probes = [] if trace else [launcher.launch("setup") for _ in range(SETUP_PROBES)]
        timed, traced, failures = [], [], []
        first_hashes, identical = None, 0
        loop_start = time.monotonic()
        while True:
            batch = [launcher.launch("time")] + ([launcher.launch("trace")] if trace else [])
            for result in batch:
                failures += check_launch(result, spec, config, reference, votes, first_hashes,
                                         check_traces=first_hashes is None)
                if result["exit"] == 0:
                    hashes = output_hashes(result["out"])
                    first_hashes = first_hashes or hashes
                    identical += hashes == first_hashes
                shutil.rmtree(result["out"], ignore_errors=True)
            timed.append(batch[0])
            traced += batch[1:]
            if any(r["exit"] != 0 for r in batch):
                break
            if not trace:
                probes.append(launcher.launch("setup"))
            elapsed = time.monotonic() - loop_start
            per_batch = elapsed / len(timed)
            if len(timed) >= MIN_LAUNCHES and elapsed + per_batch > seconds:
                break
            if time.monotonic() - started + 2 * per_batch > DEADLINE_S:
                break
        if votes is not None:
            again = hashlib.sha256((work / "votes.csv").read_bytes()).hexdigest()
            if again != votes["sha256"]:
                failures = ["votes.csv changed during the run"] * len(failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(reason is not None for reason in failures)
    for reason in sorted({r for r in failures if r is not None}):
        print(f"FAILED: {reason}")
    print(f"{workload} seed={seed}: {len(failures)} cells checked, {failed} failed, "
          f"failed_frac={failed / len(failures):.4g}")

    def median_of(results, key):
        values = [r[key] for r in results if r[key] is not None]
        return (statistics.median(values) if values else None), values

    metrics = {}
    correct = failed == 0
    if not trace:
        units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
        for key, unit in units.items():
            value, values = median_of(probes + timed if key == "setup_s" else timed, key)
            metrics[key] = {"value": value, "unit": unit}
            print(f"{workload} {key} = {value} {unit} (median; {describe(values)})")
    else:
        per_launch = [layer_metrics(r) for r in traced if r["exit"] == 0]
        if len(per_launch) >= MIN_LAUNCHES:
            # determinism: the hashes of every launch's CSVs were compared
            # above; count metrics must also be equal across traced launches
            differ = [key for key in per_launch[0] if is_count(key)
                      and len({m[key] for m in per_launch}) != 1]
            for key in differ:
                print(f"FAILED: count {key} differs between traced launches: "
                      f"{[m[key] for m in per_launch]}")
            correct = correct and not differ
            print(f"{workload} determinism: {identical} of {len(timed) + len(traced)} launches "
                  f"wrote CSVs identical to the first; {sum(map(is_count, per_launch[0]))} count "
                  f"metrics equal over {len(per_launch)} traced launches: {not differ}")
            for key in per_launch[0]:
                metrics[key] = statistics.median(m[key] for m in per_launch)
            wall, _ = median_of(timed, "wall_s")
            wall_traced, _ = median_of(traced, "wall_s")
            metrics["trace.overhead_frac"] = wall_traced / wall - 1.0
            print(f"{workload} untraced wall_s {wall:.4g} s, traced {wall_traced:.4g} s, "
                  f"{len(traced)} traced launches")
        else:
            print(f"FAILED: {len(per_launch)} traced launches succeeded, {MIN_LAUNCHES} needed")
            correct = False
        for key, value in metrics.items():
            print(f"{workload} {key} = {value:.6g} {layer_unit(key)}")
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in metrics.items()}
    print(json.dumps({"correct": correct and bool(failures), "attempted": len(failures),
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    if ".stop_n." in name:
        return "requests"
    if name.endswith("effort_total"):
        return "labels"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
