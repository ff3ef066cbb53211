"""Named, counter-based random streams.

Every source of randomness in the project (weight init, dropout masks,
batch shuffling, partner sampling) draws from an RngStream identified by
a (seed, label) pair. Streams are backed by the Philox counter-based
generator, so two streams with the same seed and label always produce the
same draws, and advancing one stream never disturbs another.

Floats (uniforms, gaussians) come through NumPy's Generator. Dropout
masks read the raw output instead: ``lanes`` cuts each counter block's
256 bits into sixteen 16-bit lanes, four times the keep tests that four
float64 uniforms would give (Salmon et al. 2011, "Parallel Random
Numbers: As Easy as 1, 2, 3").
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

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1); one counter block covers four draws."""
        out = self._generator().random(n)
        self.counter += -(-n // 4)
        return out

    def lanes(self, n: int) -> np.ndarray:
        """n uint16 lanes of raw Philox output; one counter block covers 16.

        Lane i is bits 16*(i % 4) to 16*(i % 4) + 15 of the (i // 4)-th raw
        64-bit word. Reading the words as little-endian uint16 gives exactly
        those shifts on any host, and copies nothing on a little-endian one.
        """
        words = self._generator().bit_generator.random_raw(-(-n // 4))
        self.counter += -(-n // 16)
        return words.astype("<u8", copy=False).view("<u2")[:n]

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
