"""Seeded splitmix64 stream shared by every randomized step.

All sampling (bootstraps, feature subsets, shuffles, k-means++ draws) goes
through this generator, so a seed fixes every random draw on every platform.
Integer arithmetic only; no numpy RNG state.

The bulk draws are defined by the scalar ones: ``next_block(n)`` equals n
``next()`` calls, row r of ``sample_sorted_rows`` is the r-th of that many
sequential partial Fisher-Yates draws with one ``bounded`` call per pick,
and ``shuffle`` is the classic Fisher-Yates loop with one ``bounded(i + 1)``
per position, from the top. Both take all their bounds from one
``next_block`` and leave the stream where the scalar loops would.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """One splitmix64 output for state ``x``. Pure function."""
    z = (x + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master: int, index: int) -> int:
    """Independent child seed: ``master XOR mix64(index)``.

    Used for per-tree, per-fold and per-dataset streams so parallel and
    serial execution see identical randomness.
    """
    return (master ^ mix64(index)) & MASK64


class SplitMix64:
    """Sequential splitmix64 stream."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        z = self.state
        self.state = (z + _GOLDEN) & MASK64
        return mix64(z)

    def next_block(self, n: int):
        """n consecutive outputs as a uint64 array; identical to n next() calls."""
        start = self.state
        self.state = (self.state + n * _GOLDEN) & MASK64
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = (np.uint64(start) + steps * np.uint64(_GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def bounded(self, n: int) -> int:
        """Uniform-ish draw in [0, n). Modulo bias is < 2**-50 for any n
        that fits a dataset and is accepted for determinism's sake."""
        return self.next() % n

    def float64(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next() >> 11) * (1.0 / (1 << 53))

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates. Works on lists and 1-D numpy arrays.

        Position i, from the top down, swaps with ``bounded(i + 1)``; the
        bounds come from one block."""
        n = len(seq)
        if n < 2:
            return
        bounds = self.next_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        items = seq.tolist() if isinstance(seq, np.ndarray) else list(seq)
        for i, j in zip(range(n - 1, 0, -1), bounds.tolist()):
            items[i], items[j] = items[j], items[i]
        seq[:] = items

    def sample_sorted_rows(self, n: int, m: int, count: int) -> np.ndarray:
        """``count`` rows of m distinct indices from range(n), each ascending.

        Row r equals the r-th of ``count`` sequential partial Fisher-Yates
        draws: pick i swaps position i with ``i + bounded(n - i)``. When
        m >= n every row is range(n) and nothing is drawn."""
        if m >= n:
            return np.tile(np.arange(n, dtype=np.int64), (count, 1))
        raw = self.next_block(count * m).reshape(count, m)
        pick = (raw % np.arange(n, n - m, -1, dtype=np.uint64)).astype(np.int64)
        pick += np.arange(m)
        idx = np.tile(np.arange(n, dtype=np.int64), (count, 1))
        rows = np.arange(count)
        for i in range(m):
            j = pick[:, i]
            held = idx[:, i].copy()
            idx[:, i] = idx[rows, j]
            idx[rows, j] = held
        return np.sort(idx[:, :m], axis=1)
