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

from .rng import check_seed
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
    bootstrap_confidence: float = 0.99
    bootstrap_resamples: int = 10_000
    resample_difficulties_per_iteration: bool = False
    resample_pool_per_iteration: bool = False
    distinct_voters: bool = False
    trace_iterations: int = 0


@dataclass(frozen=True)
class ReplayConfig:
    strategies: tuple
    deltas: tuple
    iterations: int
    seed: int
    bootstrap_confidence: float = 0.99
    bootstrap_resamples: int = 10_000


SIMULATE_KEYS = {"workers", "regimes", "strategies", "deltas", "iterations", "seed", "bootstrap",
                 "resample_difficulties_per_iteration", "resample_pool_per_iteration",
                 "distinct_voters", "trace_iterations"}
REPLAY_KEYS = {"strategies", "deltas", "iterations", "seed", "bootstrap"}
WORKERS_KEYS = {"lo", "hi", "pool_size"}
REGIME_KEYS = {"mu", "sigma", "n_requests"}
BOOTSTRAP_KEYS = {"confidence", "resamples"}
MAPPING_KEYS = {"request_id", "worker_id", "label", "label_map"}


def _check_keys(data: dict, allowed: set, where: str) -> None:
    """Reject keys the loader does not read, so a typo is not silently ignored."""
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind is not bool or not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _flag(data: dict, key: str, where: str) -> bool:
    """An optional on/off field: a YAML boolean, off when absent."""
    return _require(data, key, bool, where) if key in data else False


def _int_at_least(data: dict, key: str, where: str, minimum: int, default=None) -> int:
    if default is not None and key not in data:
        return default
    value = _require(data, key, int, where)
    if value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _strategies(data: dict, where: str, distinct: bool = False, allow_fixed: bool = True) -> tuple:
    raw = _require(data, "strategies", list, where)
    if not raw:
        raise ConfigError(f"{where}.strategies: must not be empty")
    out = []
    for i, name in enumerate(raw):
        try:
            strat = Strategy.from_name(str(name))
        except ValueError as exc:
            raise ConfigError(f"{where}.strategies[{i}]: {exc}") from None
        if distinct:
            strat = Strategy(kind=strat.kind, n_workers=strat.n_workers, distinct_voters=True)
        if not allow_fixed and strat.kind is StrategyKind.FIXED_WORKER:
            raise ConfigError(f"{where}.strategies[{i}]: fixed-worker cannot be replayed")
        out.append(strat)
    return tuple(out)


def _deltas(data: dict, where: str) -> tuple:
    raw = _require(data, "deltas", list, where)
    if not raw:
        raise ConfigError(f"{where}.deltas: must not be empty")
    out = []
    for i, value in enumerate(raw):
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0 < value < 1:
            raise ConfigError(f"{where}.deltas[{i}]: must be a number in (0, 1), got {value!r}")
        out.append(float(value))
    return tuple(out)


def _seed(data: dict, where: str, override=None) -> int:
    seed = override if override is not None else data.get("seed", 0)
    try:
        return check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"{where}.seed: {exc}") from None


def _bootstrap(data: dict, where: str) -> tuple:
    boot = data.get("bootstrap", {})
    if not isinstance(boot, dict):
        raise ConfigError(f"{where}.bootstrap: expected a mapping, got {boot!r}")
    _check_keys(boot, BOOTSTRAP_KEYS, f"{where}.bootstrap")
    confidence = boot.get("confidence", 0.99)
    if not isinstance(confidence, float) or not 0 < confidence < 1:
        raise ConfigError(f"{where}.bootstrap.confidence: must be in (0, 1), got {confidence!r}")
    resamples = boot.get("resamples", 10_000)
    if not isinstance(resamples, int) or isinstance(resamples, bool) or resamples < 1:
        raise ConfigError(f"{where}.bootstrap.resamples: must be >= 1, got {resamples!r}")
    return confidence, resamples


def load_simulate_config(path, seed_override=None) -> SimulateConfig:
    data = _load_yaml(path)
    where = "config"
    _check_keys(data, SIMULATE_KEYS, where)

    workers = _require(data, "workers", dict, where)
    _check_keys(workers, WORKERS_KEYS, f"{where}.workers")
    lo = _require(workers, "lo", float, f"{where}.workers")
    hi = _require(workers, "hi", float, f"{where}.workers")
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError(f"{where}.workers: need 0 <= lo <= hi <= 1, got ({lo}, {hi})")
    pool_size = _int_at_least(workers, "pool_size", f"{where}.workers", 1)

    raw_regimes = _require(data, "regimes", list, where)
    if not raw_regimes:
        raise ConfigError(f"{where}.regimes: must not be empty")
    regimes = []
    for i, entry in enumerate(raw_regimes):
        rwhere = f"{where}.regimes[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{rwhere}: expected a mapping, got {entry!r}")
        _check_keys(entry, REGIME_KEYS, rwhere)
        mu = _require(entry, "mu", float, rwhere)
        if not -1.0 <= mu <= 1.0:
            raise ConfigError(f"{rwhere}.mu: must be a finite number in [-1, 1], got {mu}")
        sigma = _require(entry, "sigma", float, rwhere)
        # a NaN or infinite sigma would make every difficulty draw a
        # rejection, and the sampler would never return
        if not 0.0 <= sigma < math.inf:
            raise ConfigError(f"{rwhere}.sigma: must be a finite number >= 0, got {sigma}")
        regimes.append(Regime(mu=mu, sigma=sigma,
                              n_requests=_int_at_least(entry, "n_requests", rwhere, 1)))

    confidence, resamples = _bootstrap(data, where)
    distinct = _flag(data, "distinct_voters", where)
    return SimulateConfig(
        capability_lo=lo,
        capability_hi=hi,
        pool_size=pool_size,
        regimes=tuple(regimes),
        strategies=_strategies(data, where, distinct),
        deltas=_deltas(data, where),
        iterations=_int_at_least(data, "iterations", where, 1),
        seed=_seed(data, where, seed_override),
        bootstrap_confidence=confidence,
        bootstrap_resamples=resamples,
        resample_difficulties_per_iteration=_flag(data, "resample_difficulties_per_iteration", where),
        resample_pool_per_iteration=_flag(data, "resample_pool_per_iteration", where),
        distinct_voters=distinct,
        trace_iterations=_int_at_least(data, "trace_iterations", where, 0, default=0),
    )


def load_replay_config(path, seed_override=None) -> ReplayConfig:
    data = _load_yaml(path)
    where = "config"
    _check_keys(data, REPLAY_KEYS, where)
    confidence, resamples = _bootstrap(data, where)
    return ReplayConfig(
        strategies=_strategies(data, where, allow_fixed=False),
        deltas=_deltas(data, where),
        iterations=_int_at_least(data, "iterations", where, 1, default=100),
        seed=_seed(data, where, seed_override),
        bootstrap_confidence=confidence,
        bootstrap_resamples=resamples,
    )


def load_mapping(path) -> dict:
    data = _load_yaml(path)
    _check_keys(data, MAPPING_KEYS, "mapping")
    return data


def _load_yaml(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return data
