"""Bulk per-path streams against the one-path reference.

path_streams re-implements numpy's SeedSequence hashing as array rounds
(intertwine._seedseq), so these tests pin that algorithm: a numpy release
that changes it fails here, not in a golden report.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intertwine._seedseq import SeedState, seed_states
from intertwine.rng import path_generator, path_streams

# numpy reads 0, 1 and 2^32 - 1 as one 32-bit entropy word, 2^32 and 2^64 - 1 as two
PINNED_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


@given(master=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**40), width=st.integers(0, 64))
@example(master=7, lo=5, width=0)
def test_path_streams_equal_path_generators(master, lo, width):
    streams = path_streams(master, lo, lo + width)
    assert len(streams) == width
    for i, got in zip(range(lo, lo + width), streams):
        want = path_generator(master, i)
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal(8).tobytes() == want.standard_normal(8).tobytes()


def test_seed_sequence_states_pinned_against_numpy():
    # a child seed below 2^32 is one entropy word to numpy, so these seeds are
    # fed to the array hash directly: path_streams cannot be steered to them
    states = seed_states(np.array(PINNED_SEEDS, dtype=np.uint64))
    assert states.dtype == np.uint64 and states.shape == (len(PINNED_SEEDS), 4)
    for seed, row in zip(PINNED_SEEDS, states):
        assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert np.random.PCG64(SeedState(row)).state == np.random.PCG64(seed).state


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_streams_clone_to_the_same_continuation(clone):
    stream = path_streams(11, 3, 4)[0]
    stream.standard_normal(5)
    twin = clone(stream)
    assert twin.standard_normal(8).tobytes() == stream.standard_normal(8).tobytes()
