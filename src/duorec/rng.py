"""Named, counter-based random streams.

Every source of randomness in the project (weight init, dropout masks,
batch shuffling, partner sampling) draws from an RngStream identified by
a (seed, label) pair. Streams are backed by the Philox counter-based
generator, so two streams with the same seed and label always produce the
same draws, and advancing one stream never disturbs another.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """A deterministic, independently addressable random stream.

    The Philox key is derived from (seed, label); the draw counter selects
    the block offset. Each request advances the counter by a block count
    large enough that successive requests never overlap.
    """

    def __init__(self, seed: int, label: str, counter: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.label = label
        self.counter = int(counter)
        digest = hashlib.sha256(f"{self.seed}:{label}".encode("utf-8")).digest()
        self._key = np.frombuffer(digest[:16], dtype=np.uint64)

    def child(self, suffix: str) -> "RngStream":
        """A fresh stream labeled ``<label>.<suffix>`` with counter 0."""
        return RngStream(self.seed, f"{self.label}.{suffix}")

    def _generator(self) -> np.random.Generator:
        bitgen = np.random.Philox(key=self._key)
        bitgen.advance(self.counter)
        return np.random.Generator(bitgen)

    def uniform(self, n: int, runs=None) -> np.ndarray:
        """n uniforms in [0, 1); one counter block covers four draws.

        ``runs``, a pair ``(starts, stops)`` of half-open intervals in
        [0, n), increasing and not overlapping, asks for those draws alone:
        ``uniform(n)[start:stop]`` for each run, concatenated. Only the
        counter blocks the runs touch are generated, and the counter
        advances as for ``uniform(n)``.
        """
        gen = self._generator()
        out = gen.random(n) if runs is None else _draw_runs(gen, n, *runs)
        self.counter += -(-n // 4)
        return out

    def normal(self, n: int, std: float = 1.0) -> np.ndarray:
        """n gaussians; extra counter headroom for ziggurat rejections."""
        gen = self._generator()
        out = gen.standard_normal(n) * std
        self.counter += n + 4
        return out

    def truncated_normal(self, n: int, std: float) -> np.ndarray:
        """Gaussian draws clipped to two standard deviations."""
        return np.clip(self.normal(n, std), -2.0 * std, 2.0 * std)

    def integers(self, low: int, high: int, n: int) -> np.ndarray:
        """n integers uniform on [low, high)."""
        u = self.uniform(n)
        return low + np.minimum((u * (high - low)).astype(np.int64), high - low - 1)

    def permutation(self, n: int) -> np.ndarray:
        """A permutation of range(n), derived from n uniform keys."""
        return np.argsort(self.uniform(n), kind="stable")

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, label={self.label!r}, counter={self.counter})"


# Runs closer than this many draws share one call, which draws through the
# gap: skipping it with advance() and a second call costs about 5 us, the
# time it takes to generate some 500 draws (NumPy 2.4, x86-64).
_MIN_SKIP = 512


def _draw_runs(gen: np.random.Generator, n: int, starts, stops) -> np.ndarray:
    """``gen.random(n)[start:stop]`` for each run, concatenated.

    Philox is counter-based: draw i is lane ``i % 4`` of the ``i // 4``-th
    block after ``gen``'s position. Runs are drawn in groups; each group
    advances the counter to the block that holds its first draw and
    generates its own draws only.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    gaps = starts[1:] - stops[:-1]
    if (starts.ndim != 1 or starts.shape != stops.shape or starts.size == 0
            or starts[0] < 0 or stops[-1] > n or lengths.min() <= 0
            or gaps.size and gaps.min() < 0):
        raise ValueError(f"runs must be increasing, non-overlapping intervals in [0, {n})")
    cut = np.flatnonzero(gaps >= _MIN_SKIP)                    # a group ends at run cut
    first = np.concatenate(([0], cut + 1))
    lo = starts[first] & ~3                                    # groups start on a block edge
    hi = stops[np.concatenate((cut, [-1]))]
    at = np.concatenate(([0], np.cumsum(hi - lo)))             # groups' places in buf
    buf = np.empty(at[-1])
    bitgen = gen.bit_generator
    blocks = 0                                                 # generated so far
    for g0, g1, a in zip(lo.tolist(), hi.tolist(), at.tolist()):
        bitgen.advance((g0 >> 2) - blocks)
        gen.random(out=buf[a:a + g1 - g0])
        blocks = (g1 + 3) >> 2
    # draw i of a group sits at buf[i + at - lo]; run k starts the output's
    # draws at sum(lengths[:k])
    shift = np.repeat(at[:-1] - lo, np.diff(np.concatenate((first, [starts.size]))))
    dst = np.cumsum(lengths) - lengths
    return buf[np.repeat(starts + shift - dst, lengths) + np.arange(dst[-1] + lengths[-1])]
