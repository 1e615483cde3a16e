"""The YAML config loaders: every error names its field, every default is
pinned, and README's key table lists exactly the keys the loaders read."""
from pathlib import Path

import pytest

from twochoice.cli import main
from twochoice.config import (BOOTSTRAP_KEYS, MAPPING_KEYS, REGIME_KEYS, REPLAY_KEYS,
                              SIMULATE_KEYS, WORKERS_KEYS, ConfigError, load_mapping,
                              load_replay_config, load_simulate_config)

SIMULATE = """
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

LOADERS = {"simulate": (SIMULATE, load_simulate_config), "replay": (REPLAY, load_replay_config)}


def write(tmp_path, text) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


# (config kind, text replaced, its replacement, the whole error message)
ERRORS = [
    ("simulate", "iterations: 25", "", "config: missing required field 'iterations'"),
    ("simulate", "strategies: [one-worker, n-workers:3]", "strategies: one-worker",
     "config.strategies: expected list, got 'one-worker'"),
    ("simulate", "strategies: [one-worker, n-workers:3]", "strategies: []",
     "config.strategies: must not be empty, got []"),
    ("simulate", "one-worker,", "best-worker,",
     "config.strategies[0]: unknown strategy 'best-worker'"),
    ("replay", "strategies: [one-worker, max-three]", "strategies: [one-worker, fixed-worker]",
     "config.strategies[1]: fixed-worker cannot be replayed"),
    ("replay", "deltas: [0.01, 0.001]", "deltas: []", "config.deltas: must not be empty, got []"),
    ("simulate", "deltas: [0.01, 0.001]", "deltas: [0.01, 1]",
     "config.deltas[1]: must be a number in (0, 1), got 1.0"),
    ("simulate", "deltas: [0.01, 0.001]", "deltas: [0.0, 0.001]",
     "config.deltas[0]: must be a number in (0, 1), got 0.0"),
    ("simulate", "deltas: [0.01, 0.001]", "deltas: [0.01, x]",
     "config.deltas[1]: expected float, got 'x'"),
    ("replay", "deltas: [0.01, 0.001]", "deltas: [true]",
     "config.deltas[0]: expected float, got True"),
    ("simulate", "workers: {lo: 0.8, hi: 1.0, pool_size: 20}", "workers: 3",
     "config.workers: expected dict, got 3"),
    ("simulate", "lo: 0.8, hi: 1.0", "lo: 0.9, hi: 0.8",
     "config.workers.hi: must be in [0.9, 1], got 0.8"),
    ("simulate", "lo: 0.8", "lo: -0.1",
     "config.workers.lo: must be in [0, 1], got -0.1"),
    ("simulate", "hi: 1.0", "hi: 2",
     "config.workers.hi: must be in [0.8, 1], got 2.0"),
    ("simulate", "lo: 0.8", "lo: low", "config.workers.lo: expected float, got 'low'"),
    ("simulate", "pool_size: 20", "pool_size: 0", "config.workers.pool_size: must be >= 1, got 0"),
    ("simulate", "regimes:\n  - {mu: 0.4, sigma: 0.1, n_requests: 300}", "regimes: []",
     "config.regimes: must not be empty, got []"),
    ("simulate", "  - {mu: 0.4, sigma: 0.1, n_requests: 300}", "  - 3",
     "config.regimes[0]: expected dict, got 3"),
    ("simulate", "mu: 0.4", "mu: -2",
     "config.regimes[0].mu: must be a finite number in [-1, 1], got -2.0"),
    ("simulate", "sigma: 0.1", "sigma: -0.1",
     "config.regimes[0].sigma: must be a finite number >= 0, got -0.1"),
    ("simulate", "n_requests: 300", "n_requests: 0",
     "config.regimes[0].n_requests: must be >= 1, got 0"),
    ("simulate", "iterations: 25", "iterations: 0", "config.iterations: must be >= 1, got 0"),
    ("replay", "iterations: 20", "iterations: 2.5", "config.iterations: expected int, got 2.5"),
    ("simulate", "seed: 7", "seed: -1", "config.seed: must be in [0, 2**64), got -1"),
    ("replay", "seed: 3", "seed: 18446744073709551616",
     "config.seed: must be in [0, 2**64), got 18446744073709551616"),
    ("replay", "seed: 3", "seed: x", "config.seed: expected int, got 'x'"),
    ("simulate", "bootstrap: {confidence: 0.99, resamples: 2000}", "bootstrap: 3",
     "config.bootstrap: expected dict, got 3"),
    ("replay", "confidence: 0.99", "confidence: 1.5",
     "config.bootstrap.confidence: must be in (0, 1), got 1.5"),
    ("simulate", "confidence: 0.99", "confidence: high",
     "config.bootstrap.confidence: expected float, got 'high'"),
    ("replay", "resamples: 1000", "resamples: 0",
     "config.bootstrap.resamples: must be >= 1, got 0"),
    ("simulate", "resamples: 2000", "resamples: 2.5",
     "config.bootstrap.resamples: expected int, got 2.5"),
]


@pytest.mark.parametrize("kind, old, new, message", ERRORS)
def test_config_error_names_its_field(tmp_path, kind, old, new, message):
    base, load = LOADERS[kind]
    assert old in base
    with pytest.raises(ConfigError) as caught:
        load(write(tmp_path, base.replace(old, new)))
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_override_is_checked_like_the_file_seed(tmp_path, kind, seed):
    base, load = LOADERS[kind]
    with pytest.raises(ConfigError) as caught:
        load(write(tmp_path, base), seed_override=seed)
    assert str(caught.value) == f"config.seed: must be in [0, 2**64), got {seed}"


@pytest.mark.parametrize("load", [load_simulate_config, load_replay_config, load_mapping])
@pytest.mark.parametrize("text, message", [
    (None, "config file not found: {path}"),
    ("workers: [1,\n", "{path}: not valid YAML: "),
    ("- 1\n- 2\n", "{path}: top level must be a mapping"),
    ("", "{path}: top level must be a mapping"),
])
def test_unreadable_file_is_a_config_error(tmp_path, load, text, message):
    path = tmp_path / "config.yaml"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load(path)
    assert str(caught.value).startswith(message.format(path=path))


def test_minimal_configs_load_the_defaults(tmp_path):
    # an integer is read as a float where a float is expected
    simulate = load_simulate_config(write(tmp_path, """
workers: {lo: 0, hi: 1, pool_size: 20}
regimes: [{mu: 0, sigma: 0, n_requests: 300}]
strategies: [one-worker]
deltas: [0.01]
iterations: 25
"""))
    assert (simulate.capability_lo, simulate.capability_hi) == (0.0, 1.0)
    assert type(simulate.capability_lo) is float and type(simulate.regimes[0].mu) is float
    assert (simulate.seed, simulate.bootstrap_confidence, simulate.bootstrap_resamples) == \
        (0, 0.99, 10_000)
    assert (simulate.resample_difficulties_per_iteration, simulate.resample_pool_per_iteration,
            simulate.distinct_voters, simulate.trace_iterations) == (False, False, False, 0)
    replay = load_replay_config(write(tmp_path, "strategies: [one-worker]\ndeltas: [0.01]\n"))
    assert (replay.iterations, replay.seed, replay.bootstrap_confidence,
            replay.bootstrap_resamples) == (100, 0, 0.99, 10_000)


# YAML reads 1: as an integer key, so the unknown keys are of two types
@pytest.mark.parametrize("old, new, where", [
    ("seed: 7", "seed: 7\n1: 2\nfoo: 3", "config"),
    ("n_requests: 300", "n_requests: 300, 1: 2, foo: 3", "config.regimes[0]"),
    ("resamples: 2000", "resamples: 2000, 1: 2, foo: 3", "config.bootstrap"),
])
def test_unknown_keys_of_mixed_types_are_a_config_error(tmp_path, capsys, old, new, where):
    path = write(tmp_path, SIMULATE.replace(old, new))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: unknown keys [1, 'foo']; allowed: [")
    assert err.count("\n") == 1


def test_unknown_mapping_keys_of_mixed_types_are_a_config_error(tmp_path, capsys):
    mapping = tmp_path / "mapping.yaml"
    mapping.write_text("1: 2\nfoo: 3\n", encoding="utf-8")
    assert main(["replay", "--config", str(write(tmp_path, REPLAY)), "--dataset",
                 str(tmp_path / "votes.csv"), "--mapping", str(mapping),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mapping: unknown keys [1, 'foo']; allowed: [")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("request_id: 3\n", "mapping.request_id: expected str, got 3"),
    ("request_id: [a]\n", "mapping.request_id: expected str, got ['a']"),
])
def test_mapping_column_that_is_not_text_is_a_config_error(tmp_path, capsys, text, message):
    mapping = tmp_path / "mapping.yaml"
    mapping.write_text(text, encoding="utf-8")
    assert main(["replay", "--config", str(write(tmp_path, REPLAY)), "--dataset",
                 str(tmp_path / "votes.csv"), "--mapping", str(mapping),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_mapping_loads_as_written(tmp_path):
    # absent columns are left to parse_annotations' defaults, and a null
    # label_map means no map, so the manifest echoes the file's own keys
    mapping = tmp_path / "mapping.yaml"
    mapping.write_text("worker_id: annotator\nlabel_map: ~\n", encoding="utf-8")
    assert load_mapping(mapping) == {"worker_id": "annotator", "label_map": None}


@pytest.mark.parametrize("flag", ["--config", "--mapping"])
def test_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys, flag):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes("seed: café\n".encode("latin-1"))
    args = {"--config": str(write(tmp_path, REPLAY)), "--dataset": str(tmp_path / "votes.csv"),
            "--out": str(tmp_path / "o"), flag: str(bad)}
    assert main(["replay", *(part for pair in args.items() for part in pair)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: expected UTF-8 text, got byte 0xe9\n"


def test_readme_key_table_names_every_key_the_loaders_read():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config keys\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    keys = {}
    for key, files, *_ in rows:
        for kind in files.split(", "):
            keys.setdefault(kind, set()).add(key.strip("`"))

    def nested(kind, prefix):
        return {key.removeprefix(prefix) for key in keys[kind] if key.startswith(prefix)}

    assert {key for key in keys["simulate"] if "." not in key} == SIMULATE_KEYS
    assert {key for key in keys["replay"] if "." not in key} == REPLAY_KEYS
    assert keys["mapping"] == MAPPING_KEYS
    assert nested("simulate", "workers.") == WORKERS_KEYS
    assert nested("simulate", "regimes[i].") == REGIME_KEYS
    assert nested("simulate", "bootstrap.") == nested("replay", "bootstrap.") == BOOTSTRAP_KEYS
    assert keys.keys() == {"simulate", "replay", "mapping"}
