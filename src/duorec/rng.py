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
        self._gen: np.random.Generator | None = None           # built on the first draw

    def child(self, suffix: str) -> "RngStream":
        """A fresh stream labeled ``<label>.<suffix>`` with counter 0."""
        return RngStream(self.seed, f"{self.label}.{suffix}")

    def _generator(self) -> np.random.Generator:
        """This stream's generator, positioned at its counter.

        Built once; each later draw resets it to the fresh state (counter 0,
        empty buffer): about 1.6 us against 11 us for a new Philox (NumPy 2.4).
        """
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self._key))
        else:
            zero = np.zeros(4, dtype=np.uint64)
            self._gen.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": zero, "key": self._key},
                "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._gen.bit_generator.advance(self.counter)
        return self._gen

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
# gap and copies the runs out of it. A group of its own costs about 5 us
# (advance(), a call and its loop turn), the time it takes to generate some
# 700-800 draws (NumPy 2.4, x86-64).
_MIN_SKIP = 768


def _draw_runs(gen: np.random.Generator, n: int, starts, stops) -> np.ndarray:
    """``gen.random(n)[start:stop]`` for each run, concatenated.

    Philox is counter-based: draw i is lane ``i % 4`` of the ``i // 4``-th
    block after ``gen``'s position. Runs are drawn in groups; each group
    advances the counter to the block that holds its first draw, generates
    its own span of draws only, and writes its runs into their place in the
    output. A group of one run is generated there directly: the lanes before
    its first draw land on the three values in front of it, which are put
    back. A longer group draws through its gaps and takes its runs out.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    lengths = stops - starts
    gaps = starts[1:] - stops[:-1]
    if (starts.ndim != 1 or starts.shape != stops.shape or starts.size == 0
            or starts[0] < 0 or stops[-1] > n or lengths.min() <= 0
            or gaps.size and gaps.min() < 0):
        raise ValueError(f"runs must be increasing, non-overlapping intervals in [0, {n})")
    cut = (np.flatnonzero(gaps >= _MIN_SKIP) + 1).tolist()    # first run of each later group
    dst = np.cumsum(lengths) - lengths + 3                     # run k's place in buf
    at, s, e = dst.tolist(), starts.tolist(), stops.tolist()
    buf = np.empty(at[-1] + e[-1] - s[-1])                     # the output, behind 3 spare slots
    bitgen = gen.bit_generator
    blocks = 0                                                 # generated so far
    for r0, r1 in zip([0] + cut, cut + [len(s)]):
        lo, hi = s[r0] & ~3, e[r1 - 1]                         # groups start on a block edge
        bitgen.advance((lo >> 2) - blocks)
        blocks = (hi + 3) >> 2
        end = at[r1 - 1] + e[r1 - 1] - s[r1 - 1]
        if r1 - r0 == 1:
            a = at[r0] - (s[r0] - lo)
            held = buf[a:at[r0]].tolist()
            gen.random(out=buf[a:end])
            buf[a:at[r0]] = held
        else:
            # draw i of the span is gen's draw lo + i; run k starts at buf[at[k]]
            shift = np.repeat(starts[r0:r1] - lo - dst[r0:r1], lengths[r0:r1])
            np.take(gen.random(hi - lo), shift + np.arange(at[r0], end), out=buf[at[r0]:end])
    return buf[3:]
