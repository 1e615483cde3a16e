"""iteration_streams against substream, the per-key reference."""
import pytest

from twochoice.rng import DOMAIN_BOOTSTRAP, DOMAIN_ITERATION, iteration_streams, substream

SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
INDICES = [*range(50), 1000, 2**31, 2**32 - 1]


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
    streams = iteration_streams(seed, domain, INDICES)
    for index, stream in zip(INDICES, streams, strict=True):
        assert_same_stream(stream, substream(seed, domain, index))


@pytest.mark.parametrize("indices", [[2**32], [5, 2**32 + 7, 2**40], [2**64 - 1]])
def test_indices_past_32_bits_fall_back_to_substream(indices):
    streams = iteration_streams(2**63 + 5, DOMAIN_ITERATION, indices)
    for index, stream in zip(indices, streams, strict=True):
        assert_same_stream(stream, substream(2**63 + 5, DOMAIN_ITERATION, index))


@pytest.mark.parametrize("seed", [-1, True, 2**64, 1.5])
def test_rejects_what_check_seed_rejects(seed):
    with pytest.raises(ValueError, match="seed"):
        iteration_streams(seed, DOMAIN_ITERATION, range(3))
