"""Seeded synthetic annotation file for the replay workload, and an
independent Fleiss kappa for it.

The votes follow the package's model, re-implemented here with plain numpy
so that a change to the package's random streams cannot change the
benchmark's input: a pool of workers with capability c ~ Unif(lo, hi),
requests with difficulty d ~ N(mu, sigma) redrawn until inside [-1, 1],
and one Bernoulli((c * d + 1) / 2) vote per (request, worker). Each request
gets a vote count drawn uniformly from [min_votes, max_votes] from distinct
workers, so Fleiss kappa has to subsample and every strategy up to
n-workers:<min_votes> can replay.

The votes themselves come from the spec's fixed ``dataset_seed``, like one
recorded dataset; the run seed renames the requests and workers and
shuffles the rows. With votes drawn afresh per seed (at mean difficulty
0.1), the realised signal of a 3000-request file changed so much that one
replay launch took from 4.0 to 9.3 s over ten seeds.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


def write_votes(path: Path, seed: int, spec: dict) -> dict:
    """Write request_id,worker_id,label rows; return counts and the SHA-256."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec["dataset_seed"]])))
    pool = spec["pool_size"]
    caps = rng.uniform(spec["capability_lo"], spec["capability_hi"], size=pool)
    n = spec["requests"]
    diffs = np.empty(0)
    while diffs.size < n:
        draw = rng.normal(spec["mu"], spec["sigma"], size=n)
        diffs = np.concatenate([diffs, draw[(draw >= -1.0) & (draw <= 1.0)]])
    diffs = diffs[:n]
    counts = rng.integers(spec["min_votes"], spec["max_votes"] + 1, size=n)
    votes = []
    for i in range(n):
        workers = rng.choice(pool, size=int(counts[i]), replace=False)
        labels = rng.random(workers.size) < (caps[workers] * diffs[i] + 1.0) / 2.0
        votes.append((workers, labels.astype(np.int64)))

    shuffle = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x766F746573])))
    request_names = shuffle.permutation(n)
    worker_names = shuffle.permutation(pool)
    lines = ["request_id,worker_id,label"]
    for i in shuffle.permutation(n):
        workers, labels = votes[i]
        for j in shuffle.permutation(workers.size):
            lines.append(f"r{request_names[i]:05d},w{worker_names[workers[j]]:03d},{labels[j]}")
    ones = [int(labels.sum()) for _, labels in votes]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "requests": n,
        "rows": len(lines) - 1,
        "ones": ones,
        "votes": counts.tolist(),
    }


def _hypergeom(total: int, ones: int, k: int) -> list:
    """P(j ones) when k of `total` votes, `ones` of them 1, are kept without replacement."""
    norm = math.comb(total, k)
    return [math.comb(ones, j) * math.comb(total - ones, k - j) / norm for j in range(k + 1)]


def expected_kappa(ones: list, votes: list) -> tuple[float, float]:
    """Fleiss kappa of the file after subsampling every request to the
    smallest vote count, as (expectation, tolerance).

    Per-request agreement and the share of ones are averaged exactly over
    the hypergeometric law of the subsample, so no random draw is involved.
    The tolerance is six standard deviations of the subsampled kappa, from
    the same law and the delta method with the two error terms added, which
    bounds them whatever their correlation.
    """
    k = min(votes)
    n = len(votes)
    agree_mean = agree_var = share_mean = share_var = 0.0
    for m, total in zip(ones, votes):
        pmf = _hypergeom(total, m, k)
        agree = [(j * (j - 1) + (k - j) * (k - j - 1)) / (k * (k - 1)) for j in range(k + 1)]
        mean_a = sum(p * a for p, a in zip(pmf, agree))
        agree_mean += mean_a
        agree_var += sum(p * (a - mean_a) ** 2 for p, a in zip(pmf, agree))
        mean_j = sum(p * j for j, p in enumerate(pmf))
        share_mean += mean_j
        share_var += sum(p * (j - mean_j) ** 2 for j, p in enumerate(pmf))
    p_bar = agree_mean / n
    p1 = share_mean / (k * n)
    pe = p1 * p1 + (1.0 - p1) * (1.0 - p1)
    kappa = (p_bar - pe) / (1.0 - pe)
    sd_agree = math.sqrt(agree_var) / n
    sd_share = math.sqrt(share_var) / (k * n)
    d_agree = 1.0 / (1.0 - pe)
    d_share = abs((p_bar - 1.0) / (1.0 - pe) ** 2 * (4.0 * p1 - 2.0))
    return kappa, 6.0 * (d_agree * sd_agree + d_share * sd_share)
