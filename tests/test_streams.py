"""Monte Carlo chunk streams: the one-pass SFC64 states against numpy's own seeding.

expectations._chunk_states restates numpy's SeedSequence and SFC64 seeding
steps, so a numpy release that changed either fails here. This file needs
numpy and pytest only, so it also runs on the oldest supported numpy.
"""

import numpy as np
import pytest

import metabcrb.expectations as expectations
from metabcrb import MonteCarlo, SensingPrior, expect_over_prior
from metabcrb.expectations import MC_CHUNK

SEEDS = (0, 1, 2, 7, 2**31, 2**32 + 5, 2**64 + 3, 2**130 + 99)
KEYS = (0, 1, 5, 1954, 0x626F6F74, 2**32 - 1)  # small keys and keys with high bits set


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The stream of chunk chunk_index under seed, built by numpy's own SeedSequence and SFC64."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(chunk_index,))))


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_states_are_numpys(seed):
    states = expectations._chunk_states(seed, np.array(KEYS))
    assert states.shape == (len(KEYS), 4) and states.dtype == np.uint64
    for key, state in zip(KEYS, states):
        want = chunk_rng(seed, key).bit_generator.state["state"]["state"]
        assert np.array_equal(state, want), (seed, key)


@pytest.mark.parametrize("seed", (0, 2**64 + 3))
def test_chunk_streams_draw_as_numpys(seed):
    # the first 512 normals of each stream, and what follows them, bitwise those of a
    # fresh numpy generator; the one re-set generator carries nothing between chunks
    keys = (0, 3, 1954, 0x626F6F74)
    streams = expectations._chunk_streams(expectations._chunk_states(seed, np.array(keys)))
    for key, rng in zip(keys, streams):
        ref = chunk_rng(seed, key)
        assert np.array_equal(rng.standard_normal(MC_CHUNK), ref.standard_normal(MC_CHUNK))
        assert np.array_equal(rng.standard_gamma(0.5, 9), ref.standard_gamma(0.5, 9))
        assert np.array_equal(rng.integers(0, 100, 7), ref.integers(0, 100, 7))


def test_draws_past_32_bit_chunk_keys_raise_before_any_work():
    # chunk keys are one 32-bit word: no chunk index may reach 2^32
    def fn(rngs, count, size):
        raise AssertionError("no chunk may run")

    with pytest.raises(ValueError, match=r"fewer than 2\*\*32 \* 512"):
        expectations._map_chunks(fn, 0, 2**32 * MC_CHUNK)
    with pytest.raises(ValueError, match=r"fewer than 2\*\*32 \* 512"):
        expect_over_prior(lambda c: c, SensingPrior(0.0, 1.0), MonteCarlo(samples=2**32 * MC_CHUNK + 1))
