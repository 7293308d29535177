"""Seeded, splittable uniform random streams.

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
_EMPTY = np.empty(0)


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
    children never builds one. The stream keeps no read-ahead of its own:
    every request is served by the generator, after any values put back by
    :meth:`unread`. Philox yields its doubles in the same order whatever the
    request sizes, so interleaving scalar and array requests is
    deterministic: together they read one logical sequence. One stream must
    not be shared across threads.
    """

    __slots__ = ("seed", "stream_id", "_gen", "_back")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None
        self._back = _EMPTY  # values put back by unread(), read before the generator

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream keyed by ``tags`` (ints or strings)."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, tags))

    def random(self) -> float:
        """One uniform draw from the open interval (0, 1)."""
        while True:
            v = self.raw(1)[0]
            if v > 0.0:
                return float(v)

    def raw(self, n: int) -> np.ndarray:
        """The next ``n`` values of the logical sequence, exact zeros included."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(_PhiloxKey(self.seed, self.stream_id)))
        back = self._back
        if not len(back):
            return self._gen.random(n)
        if n <= len(back):
            self._back = back[n:]
            return back[:n]
        out = np.empty(n, dtype=np.float64)
        out[: len(back)] = back
        self._gen.random(out=out[len(back) :])
        self._back = _EMPTY
        return out

    def unread(self, values: np.ndarray) -> None:
        """Put ``values``, the last ones taken by :meth:`raw`, back on the stream.

        The next draws read them again, in order, before the rest of the
        sequence; a caller that took more raw values than it used returns
        the tail this way.
        """
        self._back = np.concatenate((values, self._back))

    def random_array(self, n: int) -> np.ndarray:
        """``n`` uniforms in (0, 1), consumed from the same logical stream.

        An exact zero is replaced in place by a scalar draw made after the
        whole array.
        """
        out = self.raw(n)
        if not out.all():
            for i in np.flatnonzero(out == 0.0):
                out[i] = self.random()
        return out

    def exponential(self, rate: float) -> float:
        """Exponential variate with the given rate, by inverse transform."""
        return -math.log(self.random()) / rate

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
