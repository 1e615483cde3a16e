"""Pinned output hashes: a small fixed corpus run through ``cli.main``, with
the sha256 of every CSV and manifest compared against a table recorded for it.

The corpus is a smoke-size simulate grid with distinct voters, fixed-worker
and traced iterations; a grid with both resample flags; a near-no-signal
grid whose supply fits in the first block, traced over the whole supply;
``trace`` over a shared-law, a distinct-voter, a fixed-worker, a resample and
a whole-supply max-three cell, and over two iterations whose bands print in
exponent form; and replay of two seeded votes files, a small one and one
whose supply runs past the first block. Each manifest is hashed with its
path-valued keys dropped, since the corpus runs in a fresh temporary
directory.

A change that keeps every output byte-identical keeps this test passing. A
change that alters an output on purpose, such as a new ``STREAM_LAYOUT``,
re-records the table with ``PYTHONPATH=src python tests/test_pinned_outputs.py``
and says why in CHANGES.md. numpy's generators draw every stream, so the
table holds only for the numpy version it was recorded with; under another
version the test skips.
"""
import hashlib
import random
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from twochoice import cli
from twochoice.rng import STREAM_LAYOUT

PINNED_LAYOUT = 9
PINNED_NUMPY = "2.4.6"

# manifest keys whose value is a path of the run's own directory
PATH_KEYS = {"dataset"}

DISTINCT = """
workers: {lo: 0.8, hi: 1.0, pool_size: 20}
regimes:
  - {mu: 0.4, sigma: 0.1, n_requests: 400}
  - {mu: 0.2, sigma: 0.1, n_requests: 900}
strategies: [one-worker, max-three, n-workers:3, fixed-worker]
deltas: [0.01, 0.001]
iterations: 30
trace_iterations: 2
distinct_voters: true
seed: 5
bootstrap: {confidence: 0.99, resamples: 1000}
"""

RESAMPLE = """
workers: {lo: 0.6, hi: 1.0, pool_size: 15}
regimes:
  - {mu: 0.15, sigma: 0.2, n_requests: 1500}
strategies: [one-worker, max-three, fixed-worker]
deltas: [0.01]
iterations: 30
resample_difficulties_per_iteration: true
resample_pool_per_iteration: true
seed: 11
bootstrap: {confidence: 0.95, resamples: 1000}
"""

# mu 0 and a supply below simulator.FIRST_BLOCK: nearly every iteration reads
# every request in one block, and its trace covers the whole supply
EXHAUST = """
workers: {lo: 0.8, hi: 1.0, pool_size: 30}
regimes:
  - {mu: 0.0, sigma: 0.1, n_requests: 700}
strategies: [one-worker, max-three, n-workers:3]
deltas: [0.01]
iterations: 25
trace_iterations: 3
seed: 7
bootstrap: {confidence: 0.99, resamples: 500}
"""

# At so small a delta the band is about 1 wide near n = 1000, so its lower
# bound passes close to 0 and prints in exponent form: iteration 6 at
# n = 919 (-8.95347e-06, first block), iteration 9 at n = 1030 (2.72665e-06,
# second block). Row n = 1 of every trace has an integer mean, 0 or 1.
EXPONENT = """
workers: {lo: 0.8, hi: 1.0, pool_size: 20}
regimes:
  - {mu: 0.0, sigma: 0.1, n_requests: 1200}
strategies: [one-worker]
deltas: [1.0e-200]
iterations: 40
seed: 3
bootstrap: {confidence: 0.95, resamples: 200}
"""

REPLAY = """
strategies: [one-worker, max-three, n-workers:3]
deltas: [0.05, 0.01]
iterations: 30
seed: 2
bootstrap: {confidence: 0.99, resamples: 1000}
"""

# Replay of 2500 requests of 9 votes at a chance near 0.52, past the first
# block of simulator.FIRST_BLOCK rows: each strategy has iterations that stop
# in the first block (one-worker's iteration 6 at n = 714), in the second,
# read through the mask of the rows the first revealed (one-worker's
# iterations 1 and 4 at n = 1220 and 2201), and one-worker and max-three
# have iterations that read all 2500 undecided.
REPLAY_LONG = """
strategies: [one-worker, max-three, n-workers:9]
deltas: [0.001]
iterations: 8
seed: 1
bootstrap: {confidence: 0.95, resamples: 200}
"""

# (config, cell, iteration); DISTINCT's cells 9, 13 and 15 are one-worker
# (the shared law), n-workers:3 (distinct voters) and fixed-worker at
# mu 0.2, delta 0.001; RESAMPLE's and EXHAUST's cell 1 is max-three
TRACES = [("distinct", 9, 1), ("distinct", 13, 0), ("distinct", 15, 3), ("resample", 1, 2),
          ("exhaust", 1, 4), ("exponent", 0, 6), ("exponent", 0, 9)]
SIMULATED = ["distinct", "resample", "exhaust"]

PINS = {
    "distinct/manifest.yaml": "5f260ce5bbfbf3fbe945794b5b06ab9bda092ce0fd35c62378c212c8e2e9ada5",
    "distinct/summary.csv": "74445f75553f8f64d8ceec939d601e3d97afcec88f98f08172bd6a6387d1d517",
    "distinct/trace_000.csv": "41d9e54d8e468885a2f5cffad8ec1280da918e0a7b150b65da3d345b71ba67dd",
    "distinct/trace_001.csv": "12db5e24aea132985f1dfba8ee2403ecc453c12f775bc16fb74f448ab1b6533a",
    "distinct/trace_002.csv": "626e7075eddaf6a6621bec0924297fbd6a1623a01f895f626b48537425f019e5",
    "distinct/trace_003.csv": "bd6b4e7ba4cd27016ee3f0b09eb4eeced9fcc23ed4771c316a4bc93797aaafc9",
    "distinct/trace_004.csv": "626e7075eddaf6a6621bec0924297fbd6a1623a01f895f626b48537425f019e5",
    "distinct/trace_005.csv": "bd6b4e7ba4cd27016ee3f0b09eb4eeced9fcc23ed4771c316a4bc93797aaafc9",
    "distinct/trace_006.csv": "a10c24d6b6d16f5d7fc98659ec5b442805396090ef9858645ff8d8ed1a4d702f",
    "distinct/trace_007.csv": "85c4161e9c4305db94ee79a1d9592409844e7d73d6aca9e7e63edddce62e607b",
    "distinct/trace_008.csv": "edbbe66d745a21a76860214c1ce9f07335fc6efb62c207cd9705817ce215c443",
    "distinct/trace_009.csv": "b43678dcc19f3ad57a32cb1fa830f494a98f404c1410087a5b0dba19411f84ec",
    "distinct/trace_010.csv": "9d523bb12d135c34fc1f61b206069a49505ebf0618903b90870b923f1df6d15a",
    "distinct/trace_011.csv": "db8c6cd64c18d49fef487db0f370488e4b84f3aa738ae18b39d140de04e1988f",
    "distinct/trace_012.csv": "9d523bb12d135c34fc1f61b206069a49505ebf0618903b90870b923f1df6d15a",
    "distinct/trace_013.csv": "db8c6cd64c18d49fef487db0f370488e4b84f3aa738ae18b39d140de04e1988f",
    "distinct/trace_014.csv": "06457a00dfda1253bdae671782f0ca9afad27bb02e3ca3f341de1f541e9f6144",
    "distinct/trace_015.csv": "75e7e9d6a2ccbee34393f1dffea338c7935a8cda9592bbc59ccc3a262a2ceec3",
    "exhaust/manifest.yaml": "38f767f984af5711db7a46beec434e3bbbe09e784ac3e25719b175674755c175",
    "exhaust/summary.csv": "a366de393adaff973041a29c59ab16b41308076472847c5de53abef2b9e8296a",
    "exhaust/trace_000.csv": "ce2b2654deb114d42eaeb1d7d1621781747e1168eb368b0f3a6a8ea8ef98f7df",
    "exhaust/trace_001.csv": "093f3859cf3f9518e7f3401473ea518289d9cde33dfa5bdf864d40bf3de13738",
    "exhaust/trace_002.csv": "093f3859cf3f9518e7f3401473ea518289d9cde33dfa5bdf864d40bf3de13738",
    "replay-long/decision_ratio.csv": "cb6605ca93145b2ea4f648d3f9163e5c5b5f557eafb3d3787c985468f5be4d37",
    "replay-long/effort.csv": "bced479b3c418f15e0323e17d90e3069fe357a6ec0f6b47d234e012ac49229e4",
    "replay-long/manifest.yaml": "8af0071738a1ca8964f95eafea5540c3090e1d91585f0a3c9b28284c7b9504fc",
    "replay/decision_ratio.csv": "cebcb945bc7e8dfedddaf3bf5bedc63f28ca76cb1969eb3c3ec7760565695a1a",
    "replay/effort.csv": "ef33d56a8ff4b0af018cd80c3f485a2f9464a3030706e0b74f550abfecdbe893",
    "replay/manifest.yaml": "b76231f2a36993fda3a36fb1b30c662feafc9187507f168e7fd8807b7b470a4c",
    "resample/manifest.yaml": "958c119efe1619572b3675057aeeac7a6f3612134a74733630d40a2ed65739f7",
    "resample/summary.csv": "8299fcb6923520cdbf4bd19261d8146c20b11ab466f9f13a03e90ece9500f677",
    "trace-distinct-13-0/manifest.yaml": "e4a668b4cfe986f3b9afbd3a785792d106ba10ca91829bd29219738d281379fb",
    "trace-distinct-13-0/trace.csv": "def95af31f1a0c7409f53d104de05f14dda0736637644e6097c6b41b4f026b07",
    "trace-distinct-15-3/manifest.yaml": "93aab92c9cb4ccd3e1ced32c7e6a263d7b41ae670a12b96216b9c55aacc411c7",
    "trace-distinct-15-3/trace.csv": "342a12e5c8f8c17405ab544dc51ff9d354e4bd125caecdf8e567ceeea7999343",
    "trace-distinct-9-1/manifest.yaml": "3f6fc1bbc739b658df0c7e5f563ec119d1eee1ee9cae9e1cb62d170c4ef9c14f",
    "trace-distinct-9-1/trace.csv": "a7ca063db33bebe2400da5c796ce7d53a1c4d53f5e9dc904be82b58c02983197",
    "trace-exhaust-1-4/manifest.yaml": "7b8a7ff34d1cba2cb7df48a751d9b1298a0435e1841da1a010a79d710290a931",
    "trace-exhaust-1-4/trace.csv": "674240f926ac0d21deed23c284e79b561c3bd17762c7f73bd7278d594b9c6572",
    "trace-exponent-0-6/manifest.yaml": "dc391c32028d47933012280e063d332e5f4c9a56f650a05cec52c6cfc75eb10b",
    "trace-exponent-0-6/trace.csv": "ea0f8e7a40733f083aaf2c71fce4db6931e6b685578a99ab8e0aeacf34a5e91f",
    "trace-exponent-0-9/manifest.yaml": "22f71d95381138892ddf81612b11c4d8cc845ac2ee5ea476302aa056f89f8ccc",
    "trace-exponent-0-9/trace.csv": "e27baefe93bd9647c1a4ccc727010cb91c1cc1dbaa10a0aa6fd954c82818e48b",
    "trace-resample-1-2/manifest.yaml": "c31529522b8b9b0ae323d440e6566eca8ce650b672eeb852fdab9dedccca3593",
    "trace-resample-1-2/trace.csv": "d1fad4f020c4a751f342d356a8c8310a00efd1f46d1b5abba1ac8184d63645fc",
}


def write_votes(path: Path, requests: int, votes: tuple, mean: float) -> None:
    """``requests`` requests of ``votes`` = (fewest, most) votes each, from 40
    workers who pick A with a per-request chance near ``mean``; drawn by the
    standard library's generator."""
    rng = random.Random(17)
    lines = ["request_id,worker_id,label"]
    for request in range(requests):
        chance = min(1.0, max(0.0, rng.gauss(mean, 0.15)))
        for worker in rng.sample(range(40), rng.randint(*votes)):
            lines.append(f"r{request},w{worker},{int(rng.random() < chance)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def output_hash(path: Path) -> str:
    """The sha256 of a CSV's bytes, or of a manifest re-dumped without its
    path-valued keys, as the package dumps it."""
    data = path.read_bytes()
    if path.name == "manifest.yaml":
        manifest = yaml.safe_load(data)
        for key in PATH_KEYS:
            manifest.pop(key, None)
        data = yaml.safe_dump(manifest, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_corpus(root: Path) -> dict:
    """Run the corpus with inputs and outputs under ``root``; return
    {output path relative to the output directory: sha256}."""
    inputs, out = root / "inputs", root / "out"
    inputs.mkdir()
    configs = {}
    for name, text in (("distinct", DISTINCT), ("resample", RESAMPLE), ("exhaust", EXHAUST),
                       ("exponent", EXPONENT), ("replay", REPLAY), ("replay-long", REPLAY_LONG)):
        configs[name] = inputs / f"{name}.yaml"
        configs[name].write_text(text, encoding="utf-8")
    write_votes(inputs / "votes.csv", 300, (3, 5), 0.6)
    write_votes(inputs / "votes-long.csv", 2500, (9, 9), 0.52)
    runs = [["simulate", "--config", str(configs[name]), "--out", str(out / name)]
            for name in SIMULATED]
    runs += [["replay", "--config", str(configs[name]), "--dataset", str(inputs / votes),
              "--out", str(out / name)]
             for name, votes in (("replay", "votes.csv"), ("replay-long", "votes-long.csv"))]
    runs += [["trace", "--config", str(configs[name]), "--cell", str(cell),
              "--iteration", str(iteration), "--out", str(out / f"trace-{name}-{cell}-{iteration}")]
             for name, cell, iteration in TRACES]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    return {path.relative_to(out).as_posix(): output_hash(path)
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_outputs_match_their_pins(tmp_path):
    assert STREAM_LAYOUT == PINNED_LAYOUT, (
        f"the pins were recorded at stream layout {PINNED_LAYOUT}, the package draws "
        f"layout {STREAM_LAYOUT}: re-record them")
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"the pins were recorded with numpy {PINNED_NUMPY}, this is numpy "
                    f"{np.__version__}")
    hashes = run_corpus(tmp_path)
    assert sorted(hashes) == sorted(PINS)
    assert [name for name in PINS if hashes[name] != PINS[name]] == []


if __name__ == "__main__":
    import contextlib
    import tempfile
    # the commands' own lines go to stderr, so stdout is the table alone
    with tempfile.TemporaryDirectory() as root, contextlib.redirect_stdout(sys.stderr):
        hashes = run_corpus(Path(root))
    for name, digest in hashes.items():
        print(f'    "{name}": "{digest}",')
