"""Deterministic stream derivation for reproducible (parallel) Monte Carlo.

Every stochastic routine in the package draws from a numpy Generator.  Monte
Carlo drivers derive one independent stream per path (or per named check)
from a single master seed with a fixed 64-bit mixing function, so results
are bit-identical for a given seed no matter how work is chunked or how
many workers run.

Path i of a master seed owns Generator(PCG64(child_seed(seed, i))), which
path_generator builds one at a time.  path_streams builds a range of them
at once and gives the same streams bit for bit: the SplitMix64 child seeds
and numpy's SeedSequence hashing of them (``_seedseq``) run as array rounds,
and PCG64's own seeding reads each path's precomputed SeedSequence state.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(z):
    """SplitMix64 finalizer: a fixed 64-bit avalanche permutation.  ``z`` is a
    Python int or a uint64 array, whose arithmetic wraps as the masks do."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(master_seed: int, index):
    """Seed for sub-stream ``index`` of ``master_seed`` (worker independent);
    a uint64 array of indices gives the array of their seeds."""
    return mix64((master_seed & _MASK64) ^ mix64(index & _MASK64))


def named_seed(master_seed: int, name: str) -> int:
    """Seed for a named sub-stream; the name is hashed stably (not id-based)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return child_seed(master_seed, int.from_bytes(digest, "little"))


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def path_generator(master_seed: int, path_index: int) -> np.random.Generator:
    """The stream owned by one Monte Carlo path."""
    return generator(child_seed(master_seed, path_index))


def path_streams(master_seed: int, lo: int, hi: int) -> list:
    """[path_generator(master_seed, i) for i in range(lo, hi)], built in bulk
    (path indices are non-negative: a negative ``lo`` raises OverflowError)."""
    # numpy.random loads on first use, not when the package is imported
    from ._seedseq import SeedState, seed_states

    seeds = child_seed(master_seed, np.arange(lo, hi, dtype=np.uint64))
    return [np.random.Generator(np.random.PCG64(SeedState(row))) for row in seed_states(seeds)]
