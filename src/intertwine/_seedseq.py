"""numpy's SeedSequence, as array rounds over many seeds at once.

``seed_states`` gives the words that ``np.random.PCG64(seed)`` seeds from,
for a whole array of 64-bit seeds; ``SeedState`` hands one row of them to
PCG64, whose own C code then does the 128-bit seeding.  The algorithm and
its constants are numpy's (numpy/random/bit_generator.pyx): tests/test_rng.py
pins them against numpy, so a release that changes them fails there.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's constants, on 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """Row k is SeedSequence(int(seeds[k])).generate_state(4, np.uint64), the
    words PCG64 seeds from, for a uint64 array ``seeds``.

    numpy reads a seed as its little-endian 32-bit words, one word below 2^32
    and two above; it hashes the pool words past the entropy as 0, so the
    two-word form with a zero high word is exact for every seed.
    """
    words = [(seeds & 0xFFFFFFFF).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    words += [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (pool[dst] * np.uint32(_MIX_MULT_L)
                         - hashmix(pool[src]) * np.uint32(_MIX_MULT_R))
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    out = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_out = _hasher(_INIT_B, _MULT_B)
    for k in range(2 * _POOL_SIZE):
        out[:, k] = hash_out(pool[k % _POOL_SIZE])
    # numpy views the word pairs as little-endian uint64
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _hasher(init: int, mult: int):
    """numpy's SeedSequence word hash: the k-th call xors its uint32 words with
    the k-th hash constant and multiplies them by the next.  The constants
    step alike for every row, so they stay Python ints."""
    const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hash_words


class SeedState(ISeedSequence):
    """One path's precomputed SeedSequence state, handed to PCG64, whose
    seeding asks only for generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state
