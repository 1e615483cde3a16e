"""Pinned output hashes: a small fixed corpus run through ``cli.main``, with
the sha256 of every CSV and manifest compared against a table recorded for it.

The corpus is a smoke-size simulate grid with distinct voters, fixed-worker
and traced iterations; a grid with both resample flags; a near-no-signal
grid whose supply fits in the first block, traced over the whole supply;
``trace`` over a shared-law, a distinct-voter, a fixed-worker, a resample and
a whole-supply max-three cell, and over two iterations whose bands print in
exponent form; and replay of a small seeded votes file. Each manifest is hashed with its path-valued
keys dropped, since the corpus runs in a fresh temporary directory.

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

PINNED_LAYOUT = 8
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

# (config, cell, iteration); DISTINCT's cells 9, 13 and 15 are one-worker
# (the shared law), n-workers:3 (distinct voters) and fixed-worker at
# mu 0.2, delta 0.001; RESAMPLE's and EXHAUST's cell 1 is max-three
TRACES = [("distinct", 9, 1), ("distinct", 13, 0), ("distinct", 15, 3), ("resample", 1, 2),
          ("exhaust", 1, 4), ("exponent", 0, 6), ("exponent", 0, 9)]
SIMULATED = ["distinct", "resample", "exhaust"]

PINS = {
    "distinct/manifest.yaml": "343e59d4ee2f503648f58e7641fb9da1b8400c4f529261ced67e67e1cea669b1",
    "distinct/summary.csv": "393cc2eb7b33643d6b0de3418448b7f99815ee61d970cc9695280f97fe270e4f",
    "distinct/trace_000.csv": "41d9e54d8e468885a2f5cffad8ec1280da918e0a7b150b65da3d345b71ba67dd",
    "distinct/trace_001.csv": "12db5e24aea132985f1dfba8ee2403ecc453c12f775bc16fb74f448ab1b6533a",
    "distinct/trace_002.csv": "626e7075eddaf6a6621bec0924297fbd6a1623a01f895f626b48537425f019e5",
    "distinct/trace_003.csv": "bd6b4e7ba4cd27016ee3f0b09eb4eeced9fcc23ed4771c316a4bc93797aaafc9",
    "distinct/trace_004.csv": "626e7075eddaf6a6621bec0924297fbd6a1623a01f895f626b48537425f019e5",
    "distinct/trace_005.csv": "bd6b4e7ba4cd27016ee3f0b09eb4eeced9fcc23ed4771c316a4bc93797aaafc9",
    "distinct/trace_006.csv": "5dc6f4d546930eefc14e5c6e8b84693e4782e966ed1d4d513ba81ada0f837d76",
    "distinct/trace_007.csv": "eca8def29ed075a28a465cb68652f247f061fa5a26f10b95758dede25a69aa83",
    "distinct/trace_008.csv": "edbbe66d745a21a76860214c1ce9f07335fc6efb62c207cd9705817ce215c443",
    "distinct/trace_009.csv": "b43678dcc19f3ad57a32cb1fa830f494a98f404c1410087a5b0dba19411f84ec",
    "distinct/trace_010.csv": "9d523bb12d135c34fc1f61b206069a49505ebf0618903b90870b923f1df6d15a",
    "distinct/trace_011.csv": "db8c6cd64c18d49fef487db0f370488e4b84f3aa738ae18b39d140de04e1988f",
    "distinct/trace_012.csv": "9d523bb12d135c34fc1f61b206069a49505ebf0618903b90870b923f1df6d15a",
    "distinct/trace_013.csv": "db8c6cd64c18d49fef487db0f370488e4b84f3aa738ae18b39d140de04e1988f",
    "distinct/trace_014.csv": "89ac10968cddc41797e01b3ce0659edb86be840a4e07ce30c2b82423261d0eff",
    "distinct/trace_015.csv": "00e22f82550dc1fc5d70a909ac2256fa11ff5a17c50a5676920d0470f3e3616b",
    "exhaust/manifest.yaml": "66eac6725d0e5a4bbd1f86800aa3775450955e1252326d4bb44a0bed222aabae",
    "exhaust/summary.csv": "a366de393adaff973041a29c59ab16b41308076472847c5de53abef2b9e8296a",
    "exhaust/trace_000.csv": "ce2b2654deb114d42eaeb1d7d1621781747e1168eb368b0f3a6a8ea8ef98f7df",
    "exhaust/trace_001.csv": "093f3859cf3f9518e7f3401473ea518289d9cde33dfa5bdf864d40bf3de13738",
    "exhaust/trace_002.csv": "093f3859cf3f9518e7f3401473ea518289d9cde33dfa5bdf864d40bf3de13738",
    "replay/decision_ratio.csv": "cebcb945bc7e8dfedddaf3bf5bedc63f28ca76cb1969eb3c3ec7760565695a1a",
    "replay/effort.csv": "ef33d56a8ff4b0af018cd80c3f485a2f9464a3030706e0b74f550abfecdbe893",
    "replay/manifest.yaml": "245bc07532047b77b58ad1d0c2c8eb7f711d5e11fdd87b9bc71c0191786eb961",
    "resample/manifest.yaml": "23aac15eda39c516b443f84c7572401733fd425152f1afa40a5a22d67e92d054",
    "resample/summary.csv": "e42ee0da63ad0f3e2d4844b5d54013aed86f61194c2ab0a9e22ef43f42386a13",
    "trace-distinct-13-0/manifest.yaml": "8b80be774bcb76d27018dbcd1830830b035d447155b6b38025bd55d1aa507f62",
    "trace-distinct-13-0/trace.csv": "def95af31f1a0c7409f53d104de05f14dda0736637644e6097c6b41b4f026b07",
    "trace-distinct-15-3/manifest.yaml": "17f76d0ff56b3edd9c7ba9d29e400a5c44e0bd7da734ca6caede986db1b8d8f2",
    "trace-distinct-15-3/trace.csv": "700af3997a6ccbb8e9b5e5c3f8e178e1737eb4a6eeb3aeadbe07d198f8d494a0",
    "trace-distinct-9-1/manifest.yaml": "5518e25e5baaae0378d714c85a5797ba7e24d1cccb14f039166884abcaf223cd",
    "trace-distinct-9-1/trace.csv": "a7ca063db33bebe2400da5c796ce7d53a1c4d53f5e9dc904be82b58c02983197",
    "trace-exhaust-1-4/manifest.yaml": "ff273654c3cf2742b0dff55245b12a7e69f91fdabb923a017e547c091ea2b7ee",
    "trace-exhaust-1-4/trace.csv": "674240f926ac0d21deed23c284e79b561c3bd17762c7f73bd7278d594b9c6572",
    "trace-exponent-0-6/manifest.yaml": "5824c893d9b4136085bdfbe85129098f8b9081cbcf56a146568a5803e340ab96",
    "trace-exponent-0-6/trace.csv": "ea0f8e7a40733f083aaf2c71fce4db6931e6b685578a99ab8e0aeacf34a5e91f",
    "trace-exponent-0-9/manifest.yaml": "fcd83eed263f3e0f6a3fd5f8d59be44aa31a24a775a92bb779ec619ca17d39a1",
    "trace-exponent-0-9/trace.csv": "e27baefe93bd9647c1a4ccc727010cb91c1cc1dbaa10a0aa6fd954c82818e48b",
    "trace-resample-1-2/manifest.yaml": "a2f3d5b38dd92cccb54ba83d4a6bf7fe3918305a54f97e1220773e5e68e6010a",
    "trace-resample-1-2/trace.csv": "d1fad4f020c4a751f342d356a8c8310a00efd1f46d1b5abba1ac8184d63645fc",
}


def write_votes(path: Path) -> None:
    """300 requests of 3 to 5 votes each, from 40 workers who pick A with a
    per-request chance near 0.6; drawn by the standard library's generator."""
    rng = random.Random(17)
    lines = ["request_id,worker_id,label"]
    for request in range(300):
        chance = min(1.0, max(0.0, rng.gauss(0.6, 0.15)))
        for worker in rng.sample(range(40), rng.randint(3, 5)):
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
                       ("exponent", EXPONENT), ("replay", REPLAY)):
        configs[name] = inputs / f"{name}.yaml"
        configs[name].write_text(text, encoding="utf-8")
    write_votes(inputs / "votes.csv")
    runs = [["simulate", "--config", str(configs[name]), "--out", str(out / name)]
            for name in SIMULATED]
    runs += [["replay", "--config", str(configs["replay"]), "--dataset",
              str(inputs / "votes.csv"), "--out", str(out / "replay")]]
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
