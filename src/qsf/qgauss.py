"""Heavy-tailed generalized Gaussian family indexed by an entropic parameter q.

The density (entropic index q < 3, width beta > 0, center mu) is

    p(x) = (1 / (beta^N K_{q,N})) * (1 - (1-q)/((3-q) beta^2) * |x - mu|^2)_+^{1/(1-q)}

where (y)_+ = max(y, 0). For q < 1 the support is the closed ball of radius
beta * sqrt((3-q)/(1-q)); for 1 <= q < 3 it is all of R^N with power-law
tails. q = 1 is handled as the exact Gaussian limit N(mu, beta^2 I), never by
numerical limiting. beta^2 is the q-variance (the second moment under the
escort density p^q / int p^q), not the ordinary variance.

Sampling uses the generalized Box-Muller transform: with q' = (1+q)/(3-q),

    z = sqrt(-2 * q_log(U1, q')) * cos(2 pi U2)

has exactly the standard (beta = 1, mu = 0) density above; at q = 1 this is
the classical Box-Muller transform. Density evaluation lives in qsf.oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .rng import RngStream

FULL_SPACE = "full-space"
BALL = "ball"

# Margin (absolute, in standard units) inside the compact support within which
# draws are rejected and redrawn: the estimator weight 1/(1 - |z|^2/R^2-ish)
# would overflow on the boundary shell.
BOUNDARY_MARGIN = 1e-12

# Blocks per raw draw of sample_vectors.
_CHUNK = 64


@dataclass(frozen=True)
class QGaussianSpec:
    """Distribution parameters: entropic index, width, dimension, center."""

    q: float
    beta: float = 1.0
    dim: int = 1
    mu: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.q < 3.0:
            raise ValueError(f"density is not normalizable for q >= 3 (got q={self.q})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive (got {self.beta})")
        if int(self.dim) < 1:
            raise ValueError(f"dim must be >= 1 (got {self.dim})")
        object.__setattr__(self, "dim", int(self.dim))
        mu = np.zeros(self.dim) if self.mu is None else np.asarray(self.mu, dtype=float)
        if mu.shape != (self.dim,):
            raise ValueError(f"mu must have shape ({self.dim},), got {mu.shape}")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class SupportRegion:
    """Support of the density: a ball for q < 1, all of R^N otherwise."""

    kind: str
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in (FULL_SPACE, BALL):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == BALL and not (self.radius is not None and self.radius > 0.0):
            raise ValueError("ball support requires a positive radius")
        if self.kind == FULL_SPACE and self.radius is not None:
            raise ValueError("full-space support carries no radius")


def q_log(x: float, q: float) -> float:
    """Deformed logarithm: (x^(1-q) - 1) / (1-q), natural log at q = 1."""
    if x <= 0.0:
        raise ValueError(f"q_log requires x > 0 (got {x})")
    if q == 1.0:
        return math.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def _q_log_array(x: np.ndarray, q: float) -> np.ndarray:
    if q == 1.0:
        return np.log(x)
    return (x ** (1.0 - q) - 1.0) / (1.0 - q)


def cutoff_radius(q: float, beta: float = 1.0) -> float:
    """Support radius beta * sqrt((3-q)/(1-q)) of the compact (q < 1) case."""
    if not q < 1.0:
        raise ValueError("the support is compact only for q < 1")
    return beta * math.sqrt((3.0 - q) / (1.0 - q))


def support(spec: QGaussianSpec) -> SupportRegion:
    """Support region of the distribution, centered at spec.mu."""
    if spec.q < 1.0:
        return SupportRegion(BALL, cutoff_radius(spec.q, spec.beta))
    return SupportRegion(FULL_SPACE)


def max_normalizable_q(dim: int) -> float:
    """Largest entropic index for which the dim-variate density is integrable."""
    return 1.0 + 2.0 / dim


def _box_muller_transform(u1: np.ndarray, u2: np.ndarray, q_prime: float) -> np.ndarray:
    """Generalized Box-Muller draws from uniforms u1, u2 of one shape."""
    r2 = -2.0 * _q_log_array(u1, q_prime)
    np.maximum(r2, 0.0, out=r2)  # guard rounding at u1 near the q'<1 cap
    return np.sqrt(r2) * np.cos(2.0 * math.pi * u2)


def _box_muller(rng: RngStream, q_prime: float, n: int) -> np.ndarray:
    """n generalized Box-Muller draws, without the support-boundary redraw."""
    u1 = rng.random_array(n)
    u2 = rng.random_array(n)
    return _box_muller_transform(u1, u2, q_prime)


def sample_batch(rng: RngStream, q: float, n: int) -> np.ndarray:
    """n independent draws from the standard (beta=1, mu=0) distribution.

    Draws within BOUNDARY_MARGIN of the compact-support radius (q < 1) are
    redrawn so downstream estimator weights stay finite.
    """
    if not q < 3.0:
        raise ValueError(f"sampling requires q < 3 (got q={q})")
    q_prime = (1.0 + q) / (3.0 - q)
    z = _box_muller(rng, q_prime, n)
    if q >= 1.0:
        return z
    radius = cutoff_radius(q)
    pending = (radius - np.abs(z) < BOUNDARY_MARGIN).nonzero()[0]
    while pending.size:
        redraw = _box_muller(rng, q_prime, pending.size)
        z[pending] = redraw
        pending = pending[radius - np.abs(redraw) < BOUNDARY_MARGIN]
    return z


def sample_scalar(rng: RngStream, q: float) -> float:
    """One draw from the standard univariate distribution (q-variance 1)."""
    return float(sample_batch(rng, q, 1)[0])


def sample_vector(rng: RngStream, q: float, dim: int) -> np.ndarray:
    """Vector of dim i.i.d. standard univariate draws (component-wise, not joint)."""
    return sample_batch(rng, q, int(dim))


def sample_vectors(rng: RngStream, q: float, dim: int) -> Iterator[np.ndarray]:
    """Endless iterator whose items equal successive ``sample_vector(rng, q, dim)``
    calls, bit for bit.

    The raw uniforms of ``_CHUNK`` blocks are taken in one draw, shaped
    (_CHUNK, 2, dim) as the per-block calls read them (dim values of u1, then
    dim of u2), and transformed by the same ufuncs at once; each item is a
    row view of the result. The first block with an exact-zero uniform, or
    (q < 1) a draw within BOUNDARY_MARGIN of the support radius, ends the
    chunk: its raw values and all after them go back on the stream, and that
    block is drawn by :func:`sample_vector` itself, which skips the zero or
    redraws.
    The stream must be private to the iterator, which reads ahead of the
    items it has yielded.
    """
    if not q < 3.0:
        raise ValueError(f"sampling requires q < 3 (got q={q})")
    dim = int(dim)
    q_prime = (1.0 + q) / (3.0 - q)
    radius = cutoff_radius(q) if q < 1.0 else None
    while True:
        raw = rng.raw(_CHUNK * 2 * dim).reshape(_CHUNK, 2, dim)
        with np.errstate(divide="ignore", invalid="ignore"):  # an exact zero in u1
            z = _box_muller_transform(raw[:, 0], raw[:, 1], q_prime)
        bad = ~raw.all(axis=(1, 2))
        if radius is not None:
            bad |= (radius - np.abs(z) < BOUNDARY_MARGIN).any(axis=1)
        k = int(bad.argmax()) if bad.any() else _CHUNK
        yield from z[:k]
        if k < _CHUNK:
            rng.unread(raw[k:].ravel())
            yield sample_vector(rng, q, dim)


def sample_matrix(rng: RngStream, q: float, rows: int, dim: int) -> np.ndarray:
    """(rows, dim) array of i.i.d. standard draws for vectorized estimators."""
    return sample_batch(rng, q, rows * dim).reshape(rows, dim)
