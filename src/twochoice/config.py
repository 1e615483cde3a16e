"""Declarative experiment-grid configs for the command line.

A simulate config spans a grid of strategies x difficulty regimes x delta
values; a replay config spans strategies x deltas over one dataset. Keeping
the grid in one file (instead of shell loops) is what makes a whole result
table reproducible from a single manifest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .strategies import Strategy, StrategyKind


class ConfigError(ValueError):
    """Invalid config; the message names the offending field."""


@dataclass(frozen=True)
class Regime:
    mu: float
    sigma: float
    n_requests: int


@dataclass(frozen=True)
class SimulateConfig:
    capability_lo: float
    capability_hi: float
    pool_size: int
    regimes: tuple
    strategies: tuple
    deltas: tuple
    iterations: int
    seed: int
    bootstrap_confidence: float
    bootstrap_resamples: int
    resample_difficulties_per_iteration: bool
    resample_pool_per_iteration: bool
    distinct_voters: bool
    trace_iterations: int


@dataclass(frozen=True)
class ReplayConfig:
    strategies: tuple
    deltas: tuple
    iterations: int
    seed: int
    bootstrap_confidence: float
    bootstrap_resamples: int


REPLAY_KEYS = {"strategies", "deltas", "iterations", "seed", "bootstrap"}
SIMULATE_KEYS = REPLAY_KEYS | {"workers", "regimes", "resample_difficulties_per_iteration",
                               "resample_pool_per_iteration", "distinct_voters",
                               "trace_iterations"}
WORKERS_KEYS = {"lo", "hi", "pool_size"}
REGIME_KEYS = {"mu", "sigma", "n_requests"}
BOOTSTRAP_KEYS = {"confidence", "resamples"}
MAPPING_KEYS = {"request_id", "worker_id", "label", "label_map"}

_REQUIRED = object()


def _check_keys(data: dict, allowed: set, where: str) -> dict:
    """``data``, once it holds no key the loader does not read, so that a
    typo is not silently ignored."""
    unknown = set(data) - allowed
    if unknown:
        # YAML reads a key such as 1: as an int, which sorts only beside ints
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}; "
                          f"allowed: {sorted(allowed)}")
    return data


def _read(data, key, where: str, kind: type, default=_REQUIRED, ok=None, rule: str = ""):
    """``data[key]``, a mapping's key or a list's index, as a ``kind``, or
    ``default`` when the key is absent. An int is read as a float where a
    float is expected, and a YAML boolean is never a number. The value must
    pass ``ok``, which ``rule`` words for the error: "must <rule>"."""
    path = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
    if isinstance(data, dict) and key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    value = data[key]
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) and kind is not bool or not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    if ok is not None and not ok(value):
        raise ConfigError(f"{path}: must {rule}, got {value!r}")
    return value


def _shared(data: dict, seed_override, iterations=_REQUIRED) -> dict:
    """The fields that simulate and replay configs share, read from the top
    level; ``seed_override`` (``--seed``) replaces the file's seed."""
    if seed_override is not None:
        data = {**data, "seed": seed_override}
    boot = _check_keys(_read(data, "bootstrap", "config", dict, {}), BOOTSTRAP_KEYS,
                       "config.bootstrap")
    strategies = []
    for i, name in enumerate(_read(data, "strategies", "config", list, ok=bool,
                                   rule="not be empty")):
        try:
            strategies.append(Strategy.from_name(str(name)))
        except ValueError as exc:
            raise ConfigError(f"config.strategies[{i}]: {exc}") from None
    deltas = _read(data, "deltas", "config", list, ok=bool, rule="not be empty")
    return dict(
        strategies=tuple(strategies),
        deltas=tuple(_read(deltas, i, "config.deltas", float, ok=lambda d: 0 < d < 1,
                           rule="be a number in (0, 1)") for i in range(len(deltas))),
        iterations=_read(data, "iterations", "config", int, iterations, ok=lambda n: n >= 1,
                         rule="be >= 1"),
        seed=_read(data, "seed", "config", int, 0, ok=lambda s: 0 <= s < 2**64,
                   rule="be in [0, 2**64)"),
        bootstrap_confidence=_read(boot, "confidence", "config.bootstrap", float, 0.99,
                                   ok=lambda c: 0 < c < 1, rule="be in (0, 1)"),
        bootstrap_resamples=_read(boot, "resamples", "config.bootstrap", int, 10_000,
                                  ok=lambda n: n >= 1, rule="be >= 1"),
    )


def load_simulate_config(path, seed_override=None) -> SimulateConfig:
    data = _check_keys(_load_yaml(path), SIMULATE_KEYS, "config")
    workers = _check_keys(_read(data, "workers", "config", dict), WORKERS_KEYS, "config.workers")
    lo = _read(workers, "lo", "config.workers", float, ok=lambda c: 0 <= c <= 1,
               rule="be in [0, 1]")
    raw_regimes = _read(data, "regimes", "config", list, ok=bool, rule="not be empty")
    regimes = []
    for i in range(len(raw_regimes)):
        where = f"config.regimes[{i}]"
        entry = _check_keys(_read(raw_regimes, i, "config.regimes", dict), REGIME_KEYS, where)
        regimes.append(Regime(
            mu=_read(entry, "mu", where, float, ok=lambda mu: -1 <= mu <= 1,
                     rule="be a finite number in [-1, 1]"),
            # a NaN or infinite sigma would make every difficulty draw a
            # rejection, and the sampler would never return
            sigma=_read(entry, "sigma", where, float, ok=lambda sigma: 0 <= sigma < math.inf,
                        rule="be a finite number >= 0"),
            n_requests=_read(entry, "n_requests", where, int, ok=lambda n: n >= 1,
                             rule="be >= 1")))
    return SimulateConfig(
        capability_lo=lo,
        capability_hi=_read(workers, "hi", "config.workers", float, ok=lambda c: lo <= c <= 1,
                            rule=f"be in [{lo}, 1]"),
        pool_size=_read(workers, "pool_size", "config.workers", int, ok=lambda n: n >= 1,
                        rule="be >= 1"),
        regimes=tuple(regimes),
        **_shared(data, seed_override),
        resample_difficulties_per_iteration=_read(data, "resample_difficulties_per_iteration",
                                                  "config", bool, False),
        resample_pool_per_iteration=_read(data, "resample_pool_per_iteration", "config", bool,
                                          False),
        distinct_voters=_read(data, "distinct_voters", "config", bool, False),
        trace_iterations=_read(data, "trace_iterations", "config", int, 0, ok=lambda n: n >= 0,
                               rule="be >= 0"),
    )


def load_replay_config(path, seed_override=None) -> ReplayConfig:
    data = _check_keys(_load_yaml(path), REPLAY_KEYS, "config")
    shared = _shared(data, seed_override, iterations=100)
    for i, strategy in enumerate(shared["strategies"]):
        if strategy.kind is StrategyKind.FIXED_WORKER:
            raise ConfigError(f"config.strategies[{i}]: fixed-worker cannot be replayed")
    return ReplayConfig(**shared)


def load_mapping(path) -> dict:
    data = _check_keys(_load_yaml(path), MAPPING_KEYS, "mapping")
    for key in ("request_id", "worker_id", "label"):  # absent: parse_annotations' default
        _read(data, key, "mapping", str, None)
    label_map = data.get("label_map")
    if label_map is None:
        return data
    if not (isinstance(label_map, dict)
            and all(type(label) is int and label in (0, 1) for label in label_map.values())):
        raise ConfigError(f"mapping.label_map: expected a mapping from raw labels to 0 or 1, "
                          f"got {label_map!r}")
    # the CSV reader yields text, so an integer raw label (YAML's 1:) is
    # matched as its decimal string
    data["label_map"] = {}
    for raw, label in label_map.items():
        if type(raw) not in (str, int):
            raise ConfigError(f"mapping.label_map: raw label {raw!r} is not a string or an "
                              f"integer")
        if str(raw) in data["label_map"]:
            raise ConfigError(f"mapping.label_map: two raw labels read as {str(raw)!r}")
        data["label_map"][str(raw)] = label
    return data


def _load_yaml(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: expected UTF-8 text, got byte "
                          f"{exc.object[exc.start]:#04x}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data
