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

_MASK64 = (1 << 64) - 1
_FIRST_FILL = 16  # a fresh stream's first buffer; later fills double up to _BUFFER
_BUFFER = 8192
_EMPTY = np.empty(0)


def derive_stream_id(seed: int, stream_id: int, tags: tuple) -> int:
    """Hash a parent stream identity plus tags into a new 64-bit stream id."""
    payload = repr((int(seed) & _MASK64, int(stream_id) & _MASK64, tags))
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """Single-owner uniform source over the open interval (0, 1).

    Scalar draws are served from an internal buffer that starts small and
    doubles up to ``_BUFFER`` values, so a stream that is drawn from a few
    times never pays for a large fill. Philox yields its doubles in the same
    order whatever the chunk sizes, so interleaving scalar, list and array
    requests is deterministic: together they read one logical sequence. One
    stream must not be shared across threads.
    """

    __slots__ = ("seed", "stream_id", "_gen", "_buf", "_pos", "_fill")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = (self.seed << 64) | self.stream_id
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._buf = _EMPTY
        self._pos = 0
        self._fill = _FIRST_FILL

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream keyed by ``tags`` (ints or strings)."""
        return RngStream(self.seed, derive_stream_id(self.seed, self.stream_id, tags))

    def random(self) -> float:
        """One uniform draw from the open interval (0, 1)."""
        buf, pos = self._buf, self._pos
        while True:
            if pos >= len(buf):
                buf, pos = self._refill(), 0
            v = buf[pos]
            pos += 1
            if v > 0.0:
                self._pos = pos
                return float(v)

    def _refill(self) -> np.ndarray:
        """Replace the spent buffer with the next fill; double the fill after."""
        buf = self._buf = self._gen.random(self._fill)
        self._pos = 0
        self._fill = min(2 * self._fill, _BUFFER)
        return buf

    def raw(self, n: int) -> np.ndarray:
        """The next ``n`` values of the logical sequence, exact zeros included.

        What is left of the buffer comes first. A remainder at least as long
        as the next buffer fill is drawn straight from the generator, which
        leaves the buffer empty and in step; a shorter one goes through a
        buffer refill.
        """
        buf, pos = self._buf, self._pos
        avail = len(buf) - pos
        if n <= avail:
            self._pos = pos + n
            return buf[pos : pos + n].copy()
        out = np.empty(n, dtype=np.float64)
        out[:avail] = buf[pos:]
        rest = n - avail
        if rest >= self._fill:
            self._buf, self._pos = _EMPTY, 0
            self._gen.random(out=out[avail:])
        else:
            out[avail:] = self._refill()[:rest]
            self._pos = rest
        return out

    def unread(self, values: np.ndarray) -> None:
        """Put ``values``, the last ones taken by :meth:`raw`, back on the stream.

        The next draws read them again, in order, before the rest of the
        sequence; a caller that took more raw values than it used returns
        the tail this way.
        """
        self._buf = np.concatenate((values, self._buf[self._pos :]))
        self._pos = 0

    def random_list(self, n: int) -> list:
        """The next ``n`` draws of :meth:`random`, as a Python list."""
        out = self.raw(n)
        if out.all():
            return out.tolist()
        vals = [v for v in out.tolist() if v > 0.0]  # skip exact zeros, as random() does
        while len(vals) < n:
            vals.append(self.random())
        return vals

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
