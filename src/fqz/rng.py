"""Deterministic 64-bit random numbers (splitmix64).

Measurement sampling and per-shot seed derivation must be reproducible
across runs and platforms, so the generator is pinned down here rather
than left to a global or time-seeded source. splitmix64 is the standard
Steele/Lea/Flood generator; it is tiny, well mixed for consecutive
integer seeds, and not cryptographic. uniforms draws for a block of
shots at once.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x):
    """splitmix64 finalizer: the fixed mixing function for seed derivation.
    x is an int, or a numpy uint64 array to mix entry by entry."""
    x = x & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def shot_seed(root_seed: int, shot_index: int) -> int:
    """Seed for shot i of a batch: mix64(root_seed XOR i)."""
    return mix64((root_seed ^ shot_index) & _MASK)


class SplitMix64:
    """splitmix64 sequence generator with 64-bit state."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def uniforms(root_seed: int, first_shot: int, shots: int, depth: int) -> np.ndarray:
    """(shots, depth) float64 array whose entry [s, k] is the draw of the
    k-th measurement of shot i = first_shot + s, bit for bit:
    SplitMix64(g.next_u64()).next_float() at the k-th call on
    g = SplitMix64(shot_seed(root_seed, i)); x >> 11 fits in a float64."""
    seeds = mix64(np.arange(first_shot, first_shot + shots, dtype=np.uint64) ^ (root_seed & _MASK))
    x = mix64(mix64(seeds[:, None] + np.arange(1, depth + 1, dtype=np.uint64) * _GAMMA) + _GAMMA)
    return (x >> 11).astype(np.float64) * 2.0**-53
