"""Seeding helpers: one experiment seed fans out into independent substreams.

Every random draw in this package flows through a ``numpy.random.Generator``
derived here. Substreams are keyed by (seed, domain, index), so iteration i
always sees the same stream no matter how many other iterations ran before
it or in parallel. ``substream`` is the reference: a fresh SeedSequence,
PCG64 and Generator per key. ``iteration_streams`` yields the same streams
for a run of indices, a grid cell's iterations, from one hashing pass and
one reused Generator, so a cell does not pay for a SeedSequence per
iteration; it changes no drawn number.
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

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) over a pool of
# four 32-bit words, and PCG64's multiplier (numpy/random/src/pcg64/pcg64.h).
# What they make of a seed is fixed by numpy's stream-compatibility policy
# (NEP 19); tests/test_rng.py checks iteration_streams against substream.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def iteration_streams(seed: int, domain: int, indices):
    """Yield ``substream(seed, domain, i)`` for each i in ``indices``, bit
    for bit, as one Generator whose state is reset before each yield.

    Each stream is valid only until the next one is taken: the caller must
    be done drawing from it by then. SeedSequence([seed, domain, i]) is
    hashed for every index at once in uint32 array arithmetic, and PCG64's
    seeding (pcg_setseq_128_srandom_r) is applied to one index at a time.
    A domain or an index outside [0, 2**32) spans more entropy words than
    that pass covers, and falls back to ``substream`` per index.
    """
    seed = check_seed(seed)
    if not (0 <= domain <= _MASK32
            and all(isinstance(i, (int, np.integer)) and 0 <= i <= _MASK32 for i in indices)):
        return (substream(seed, domain, i) for i in indices)
    return _reseeded(_pcg64_seeds(seed, domain, np.asarray(indices, dtype=np.uint32)))


def _entropy_words(value: int) -> list:
    """An entropy integer as SeedSequence splits it: 32-bit words, least
    significant first, one word for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pcg64_seeds(seed: int, domain: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, domain, i]).generate_state(4, np.uint64)`` for
    every i, as a (len(indices), 4) little-endian uint64 array.

    The entropy is seed's words, domain, then i, at most four words, so it
    fits the pool and only SeedSequence's pool-filling and all-pairs mixing
    rounds apply. The hash constants advance the same way for every index,
    so each round is one array operation over all of them.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    entropy = [*_entropy_words(seed), domain]
    entropy = [np.full(indices.shape, word, dtype=np.uint32) for word in entropy] + [indices]
    entropy += [np.zeros(indices.shape, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    const = _INIT_B
    words = np.empty((indices.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for w in range(2 * _POOL_SIZE):
        value = pool[w % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words[:, w] = value ^ (value >> _XSHIFT)
    # generate_state reads its uint32 words as little-endian uint64 pairs
    return words.astype("<u4", copy=False).view("<u8")


def _reseeded(seeds: np.ndarray):
    """One Generator, set in turn to the PCG64 state each row of ``seeds``
    gives: PCG64 takes words 0-1 as the initial state and words 2-3 as the
    sequence, high word first, and steps twice."""
    rng = np.random.Generator(np.random.PCG64(0))  # its state is replaced before each yield
    bit_generator = rng.bit_generator
    for row in seeds:
        hi_state, lo_state, hi_seq, lo_seq = row.tolist()
        inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
        state = ((inc + (hi_state << 64 | lo_state)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


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
