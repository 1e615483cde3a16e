"""The stream derivation: iteration_streams against substream, and substream
against SeedSequence's words."""
import time

import numpy as np
import pytest

from twochoice import rng
from twochoice.rng import DOMAIN_BOOTSTRAP, DOMAIN_ITERATION, iteration_streams, substream

SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
COUNT = 600  # two full blocks of 256 streams and a partial one


def assert_same_stream(stream, reference):
    # the generator is reused: the odd count of bounded integers below
    # leaves half a 64-bit word buffered, and the next stream's state
    # check fails if that half word carried over
    assert stream.bit_generator.state == reference.bit_generator.state
    assert stream.random(4).tolist() == reference.random(4).tolist()
    assert stream.integers(0, 1000, 5).tolist() == reference.integers(0, 1000, 5).tolist()
    assert stream.random() == reference.random()


@pytest.mark.parametrize("domain", [DOMAIN_ITERATION, DOMAIN_BOOTSTRAP])
@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_substream(seed, domain):
    streams = iteration_streams(seed, domain, COUNT)
    for index, stream in enumerate(streams):
        assert_same_stream(stream, substream(seed, domain, index))
    assert index == COUNT - 1


@pytest.mark.parametrize("index", [0, 1, 255, 256, 511, 10**6, 2**40])
@pytest.mark.parametrize("seed, domain", [(0, DOMAIN_ITERATION), (2**63 + 5, DOMAIN_ITERATION),
                                          (2**64 - 1, DOMAIN_BOOTSTRAP)])
def test_substream_is_its_row_of_seedsequence_words(seed, domain, index):
    words = np.random.SeedSequence([seed, domain, index // 256]).generate_state(1024, np.uint64)
    w0, w1, w2, w3 = (int(word) for word in words.reshape(256, 4)[index % 256])
    assert substream(seed, domain, index).bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {"state": w0 * 2**64 + w1, "inc": (w2 * 2**64 + w3) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


@pytest.mark.parametrize("start", [1, 250, 511])
def test_streams_from_a_start_equal_substream(start):
    # a count of 10 from 250 or 511 runs across a block of 256 streams
    for index, stream in enumerate(iteration_streams(5, DOMAIN_ITERATION, 10, start), start):
        assert_same_stream(stream, substream(5, DOMAIN_ITERATION, index))


def test_domains_are_distinct():
    domains = {name: value for name, value in vars(rng).items() if name.startswith("DOMAIN_")}
    assert len(domains) >= 5
    assert len(set(domains.values())) == len(domains)


def test_random_access_is_constant_time():
    def cost(index):
        start = time.perf_counter()
        for _ in range(50):
            substream(12345, DOMAIN_ITERATION, index)
        return time.perf_counter() - start

    cost(255)  # warm up
    last_row = min(cost(255) for _ in range(3))
    for index in (10**6, 2**40):
        assert min(cost(index) for _ in range(3)) < 2 * last_row


@pytest.mark.parametrize("seed", [-1, True, 2**64, 1.5])
def test_rejects_what_check_seed_rejects(seed):
    with pytest.raises(ValueError, match="seed"):
        iteration_streams(seed, DOMAIN_ITERATION, 3)
