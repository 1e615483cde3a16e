"""Seeding helpers: one experiment seed fans out into independent substreams.

Every random draw in this package flows through a ``numpy.random.Generator``
derived here. Substreams are keyed by (seed, domain, index), so iteration i
always sees the same stream no matter how many other iterations ran before
it or in parallel.
"""
from __future__ import annotations

import numpy as np

SeedLike = int | np.random.Generator

# Substream domains. Values are part of the reproducibility contract:
# changing them changes every sampled number.
DOMAIN_REQUESTS = 0
DOMAIN_POOL = 1
DOMAIN_ITERATION = 2
DOMAIN_BOOTSTRAP = 3

# Version of the layout of draws within the substreams. Bump it whenever a
# change makes the same seed produce different numbers; manifests echo it.
# 2: replay's vote picks and Fleiss kappa's subsample use distinct_columns.
# 3: simulate's votes and replay's picks are drawn in doubling blocks of
#    requests (simulator.FIRST_BLOCK rows first), only up to the stopping
#    block.
# 4: the request order is revealed block by block (simulator.reveal_order),
#    and with-replacement votes are drawn at the pool's mean capability
#    without voter indices.
# 5: with-replacement n-workers:N and max-three draw one uniform per request
#    and read its final label and effort off the closed-form law
#    (simulator.final_law) instead of drawing each vote.
# 6: every final label comes from the law of its votes (simulator.vote_law):
#    replay draws its rows, then one uniform per row; distinct_voters draws
#    its rows, then the voter picks, then one uniform per row.
STREAM_LAYOUT = 6

_MAX_SEED = 2**64


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def as_generator(seed) -> np.random.Generator:
    """Accept either a seed integer or an existing Generator (used as-is)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(check_seed(seed))))


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, domain, index)."""
    ss = np.random.SeedSequence([check_seed(seed), domain, index])
    return np.random.Generator(np.random.PCG64(ss))


def distinct_columns(rng: np.random.Generator, counts, k: int) -> np.ndarray:
    """k distinct column indices per row, uniform over row i's first counts[i] columns.

    One random sort key per (row, column) over a block as wide as the
    largest count; columns at or past a row's count get key 2.0, above
    every uniform draw, so they are never picked.
    """
    counts = np.asarray(counts)
    if k > counts.min():
        raise ValueError(
            f"need {k} distinct voters per request but only {counts.min()} are available")
    keys = rng.random((counts.size, int(counts.max())))
    keys[np.arange(keys.shape[1]) >= counts[:, None]] = 2.0
    return np.argsort(keys, axis=1)[:, :k]
