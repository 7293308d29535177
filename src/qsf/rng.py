"""Seeded, splittable random streams: uniforms, and normal and Gamma variates.

Every stream is identified by a ``(seed, stream_id)`` pair feeding a
counter-based Philox generator, so identical pairs reproduce identical
sequences and distinct pairs give statistically independent streams.
Child streams are derived by hashing, which keeps derivation stable
across processes and immune to creation order.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import numpy.random  # NumPy 2 defers it to first use; load it with this module

_MASK64 = (1 << 64) - 1


class _PhiloxKey(numpy.random.bit_generator.ISeedSequence):
    """Seed that hands Philox its 128-bit key ``(seed << 64) | stream_id``.

    ``Philox(key=...)`` would first build an OS-entropy ``SeedSequence``
    whose state the key then overrides; that costs about as much again as
    the generator itself. Philox asks its seed for two 64-bit words, which
    become the key words low word first, so the stream is the one of
    ``Philox(key=...)`` bit for bit. Any other request raises, so that a
    NumPy that seeds Philox differently fails loudly instead of moving
    every stream.
    """

    def __init__(self, seed: int, stream_id: int):
        self.seed = seed
        self.stream_id = stream_id

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"Philox asked its seed for {n_words} words of {np.dtype(dtype)}, "
                "not the 2 uint64 key words"
            )
        return np.array([self.stream_id, self.seed], dtype=np.uint64)


def derive_stream_id(seed: int, stream_id: int, tags: tuple) -> int:
    """Hash a parent stream identity plus tags into a new 64-bit stream id."""
    payload = repr((int(seed) & _MASK64, int(stream_id) & _MASK64, tags))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """Single-owner uniform source over the open interval (0, 1).

    The generator is built on the first draw, so a stream that only derives
    children never builds one. The stream only reads forward and keeps no
    read-ahead of its own: every uniform is read by :meth:`random_array`,
    from the generator, with every exact zero skipped. Philox yields its
    doubles in the same order whatever the request sizes, so interleaving
    scalar and array requests is deterministic: together they read one
    logical sequence, the nonzero values of the generator's in order.
    :meth:`normal` and :meth:`gamma` read the same generator, so they take
    their place in that sequence too. One stream must not be shared across
    threads.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream keyed by ``tags`` (ints or strings)."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, tags))

    def random(self) -> float:
        """One uniform draw from the open interval (0, 1)."""
        return float(self.random_array(1)[0])

    def random_array(self, n: int) -> np.ndarray:
        """The next ``n`` values of the logical sequence: the generator's,
        every exact zero skipped, so each lies in the open interval (0, 1)."""
        out = self._generator().random(n)
        if np.count_nonzero(out) == n:  # a cheaper test than out.all() on short arrays
            return out
        out = out[out > 0.0]
        return np.concatenate((out, self.random_array(n - len(out))))

    def _generator(self) -> np.random.Generator:
        """The generator, built on first use."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, self.stream_id)))
        return self._gen

    def normal(self, n: int) -> np.ndarray:
        """``n`` standard normal variates, read from the generator after every
        earlier draw, by NumPy's ziggurat: no cosine and no SIMD ufunc."""
        return self._generator().standard_normal(n)

    def gamma(self, shape: float, n: int) -> np.ndarray:
        """``n`` standard Gamma(shape) variates, read from the generator after
        every earlier draw, so successive calls read fresh variates."""
        return self._generator().standard_gamma(shape, n)

    def exponential(self, rate: float) -> float:
        """Exponential variate with the given rate, by inverse transform."""
        return -math.log(self.random()) / rate

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
