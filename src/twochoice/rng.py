"""Seeding helpers: one experiment seed fans out into independent substreams.

Every random draw in this package but Fleiss kappa's subsample (one
hypergeometric draw per request from ``np.random.default_rng(seed)``) flows
through a Generator derived here; ``distinct_columns`` picks simulate's
distinct voters. Substreams are keyed by (seed, domain, index), so iteration
i always sees the same stream no matter how many other iterations ran before
it or in parallel. One derivation serves every key: stream i is row i % 256
of the words numpy's ``SeedSequence([seed, domain, i // 256])`` generates,
set straight into a PCG64. ``substream`` takes one stream: it generates the
block's words up to the stream's row, so its cost grows with index mod 256,
up to one whole block. ``iteration_streams`` walks a grid cell's streams a
block of 256 at a time on one reused Generator, so a cell pays for one
SeedSequence and one block of words per 256 iterations, and gives the same
numbers.
"""
from __future__ import annotations

import numpy as np

# Substream domains. Values are part of the reproducibility contract:
# changing them changes every sampled number.
DOMAIN_REQUESTS = 0
DOMAIN_POOL = 1
DOMAIN_ITERATION = 2
DOMAIN_BOOTSTRAP = 3
DOMAIN_WORKER = 4

# Version of the layout of draws within the substreams. Bump it whenever a
# change makes the same seed produce different numbers; manifests echo it.
# 2: replay's vote picks and Fleiss kappa's subsample use distinct_columns.
# 3: simulate's votes and replay's picks are drawn in doubling blocks of
#    requests (simulator.FIRST_BLOCK rows first), only up to the stopping
#    block.
# 4: the request order is revealed block by block (simulator.run_blocks),
#    and with-replacement votes are drawn at the pool's mean capability
#    without voter indices.
# 5: with-replacement n-workers:N and max-three draw one uniform per request
#    and read its final label and effort off the closed-form law
#    (simulator.final_law) instead of drawing each vote.
# 6: every final label comes from the law of its votes (simulator.vote_law):
#    replay draws its rows, then one uniform per row; distinct_voters draws
#    its rows, then the voter picks, then one uniform per row.
# 7: stream (seed, domain, i) is row i % 256 of
#    SeedSequence([seed, domain, i // 256]).generate_state(1024, np.uint64),
#    set straight into a PCG64, in place of PCG64(SeedSequence([seed,
#    domain, i])).
# 8: Fleiss kappa's subsample is one hypergeometric draw of A-votes per request.
# 9: fixed-worker's worker of iteration i is element i of
#    substream(seed, DOMAIN_WORKER, 0).integers(0, pool_size, n) for any
#    n > i, in place of the iteration stream's first draw; the iteration
#    stream draws only each block's rows, then its uniforms.
STREAM_LAYOUT = 9

_MAX_SEED = 2**64
_BLOCK_STREAMS = 256  # streams per SeedSequence


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def substream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, domain, index)."""
    return next(_streams(check_seed(seed), domain, index, index + 1))


def iteration_streams(seed: int, domain: int, count: int, start: int = 0):
    """Yield ``substream(seed, domain, i)`` for i = start .. start + count - 1,
    bit for bit, as one Generator whose state is reset before each yield.

    Each stream is valid only until the next one is taken: the caller must
    be done drawing from it by then. The seed and the count, a cell's
    iterations, are checked here, at the call.
    """
    if count < 1:
        raise ValueError(f"iterations must be >= 1, got {count}")
    return _streams(check_seed(seed), domain, start, start + count)


def _streams(seed: int, domain: int, start: int, stop: int):
    """Streams start .. stop - 1 of (seed, domain) on one reused Generator.

    Row r of a block's words sets the PCG64 directly: words 0-1 are its
    state and words 2-3 its increment, high word first, the increment made
    odd. generate_state's words depend only on their position, so a block
    is generated only up to the last row wanted.
    """
    rng = np.random.Generator(np.random.PCG64(0))  # its state is replaced before each yield
    bit_generator = rng.bit_generator
    while start < stop:
        block, row = divmod(start, _BLOCK_STREAMS)
        rows = min(_BLOCK_STREAMS, row + stop - start)
        words = np.random.SeedSequence([seed, domain, block]).generate_state(4 * rows, np.uint64)
        for hi_state, lo_state, hi_inc, lo_inc in words.reshape(rows, 4)[row:].tolist():
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": hi_state << 64 | lo_state,
                                             "inc": hi_inc << 64 | lo_inc | 1},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng
        start += rows - row


def distinct_columns(rng: np.random.Generator, rows: int, columns: int, k: int) -> np.ndarray:
    """k distinct uniform picks of ``columns`` columns per row: one sort key per cell."""
    if k > columns:
        raise ValueError(
            f"need {k} distinct voters per request but only {columns} are available")
    return np.argsort(rng.random((rows, columns)), axis=1)[:, :k]
