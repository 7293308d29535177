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

:func:`sample_batch` holds two full-size arrays at its peak, the uniforms
U1 and U2: it transforms them ARRAY_BLOCK = 65,536 values at a time, writes
each block of draws back over its U1 block, and looks for draws on the
q < 1 support boundary block by block too. The transform and the boundary
test are elementwise, so the draws have the bits of a whole-array transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

# Margin (absolute, in standard units) inside the compact support within which
# draws are rejected and redrawn: the estimator weight 1/(1 - |z|^2/R^2-ish)
# would overflow on the boundary shell.
BOUNDARY_MARGIN = 1e-12

# Values (qgauss) or rows (sfgrad) per block of full-size array work, 512 KB
# of doubles. Fixed: the estimator's Kahan blocks, and so its bits, depend on it.
ARRAY_BLOCK = 65536


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


def max_normalizable_q(dim: int) -> float:
    """Largest entropic index for which the dim-variate density is integrable."""
    return 1.0 + 2.0 / dim


def _box_muller_transform(u1: np.ndarray, u2: np.ndarray, q_prime: float) -> np.ndarray:
    """Generalized Box-Muller draws from uniforms u1, u2 of one shape."""
    r2 = -2.0 * _q_log_array(u1, q_prime)
    np.maximum(r2, 0.0, out=r2)  # guard rounding at u1 near the q'<1 cap
    return np.sqrt(r2) * np.cos(2.0 * math.pi * u2)


def _box_muller(rng: RngStream, q_prime: float, n: int) -> np.ndarray:
    """n generalized Box-Muller draws, without the support-boundary redraw.

    Each block of draws is written back over its block of the first uniform
    array, which the call returns.
    """
    z = rng.random_array(n)
    u2 = rng.random_array(n)
    for s in range(0, n, ARRAY_BLOCK):
        b = slice(s, s + ARRAY_BLOCK)
        z[b] = _box_muller_transform(z[b], u2[b], q_prime)
    return z


def _near_boundary(z: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the draws within BOUNDARY_MARGIN of the support radius."""
    near = np.empty(len(z), dtype=bool)
    for s in range(0, len(z), ARRAY_BLOCK):
        b = slice(s, s + ARRAY_BLOCK)
        np.less(radius - np.abs(z[b]), BOUNDARY_MARGIN, out=near[b])
    return np.flatnonzero(near)


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
    pending = _near_boundary(z, radius)
    while pending.size:
        redraw = _box_muller(rng, q_prime, pending.size)
        z[pending] = redraw
        pending = pending[_near_boundary(redraw, radius)]
    return z


def sample_vector(rng: RngStream, q: float, dim: int) -> np.ndarray:
    """Vector of dim i.i.d. standard univariate draws (component-wise, not joint)."""
    return sample_batch(rng, q, int(dim))


def sample_lanes(rngs: list, qs: list, dim: int, blocks: int) -> np.ndarray:
    """Perturbations of ``blocks`` blocks for K lanes, shaped (blocks, K, dim):
    entry [:, k] equals ``blocks`` successive ``sample_vector(rngs[k], qs[k],
    dim)`` calls, bit for bit.

    Each lane's raw uniforms for all its blocks come from its own stream in
    one draw, laid out (blocks, 2, dim) as the per-block calls read them
    (dim values of u1, then dim of u2). The lanes are stacked into one
    (K, blocks, 2, dim) array; each distinct q copies the u1 and u2 of its
    lanes into contiguous arrays and transforms them by the same ufuncs with
    the same scalar q' (elementwise, so the layout does not move a bit).

    A lane whose draw holds an exact-zero uniform, or (q < 1) a value
    within BOUNDARY_MARGIN of the support radius, keeps its blocks before
    the first such block; the raw values from there on go back on its
    stream, that block is drawn by :func:`sample_vector` itself, which skips
    the zero or redraws, and the rest of the lane's blocks are read again as
    a one-lane call. Each lane reads exactly its own blocks from its stream,
    no more.
    """
    groups = {}
    for k, q in enumerate(qs):
        groups.setdefault(q, []).append(k)
    for q in groups:  # before any draw, so a refused call leaves the streams as they were
        if not q < 3.0:
            raise ValueError(f"sampling requires q < 3 (got q={q})")
    raw = np.array([rng.raw(blocks * 2 * dim) for rng in rngs]).reshape(-1, blocks, 2, dim)
    out = np.empty((blocks, len(rngs), dim))
    # (K, blocks); the whole-array test first, as a per-block one costs more
    bad = np.zeros((len(rngs), blocks), dtype=bool) if raw.all() else ~raw.all(axis=(2, 3))
    for q, ks in groups.items():
        u = raw[ks].transpose(2, 1, 0, 3).copy()  # u1 and u2, each (blocks, lanes, dim)
        with np.errstate(divide="ignore", invalid="ignore"):  # an exact zero in u1
            z = _box_muller_transform(u[0], u[1], (1.0 + q) / (3.0 - q))
        out[:, ks] = z
        if q < 1.0:
            near = cutoff_radius(q) - np.abs(z) < BOUNDARY_MARGIN
            if near.any():
                bad[ks] |= near.any(axis=2).T
    if bad.any():
        for k in np.flatnonzero(bad.any(axis=1)).tolist():
            j = int(bad[k].argmax())
            rngs[k].unread(raw[k, j:].ravel())
            out[j, k] = sample_vector(rngs[k], qs[k], dim)
            if j + 1 < blocks:
                out[j + 1 :, k] = sample_lanes([rngs[k]], [qs[k]], dim, blocks - j - 1)[:, 0]
    return out


def sample_matrix(rng: RngStream, q: float, rows: int, dim: int) -> np.ndarray:
    """(rows, dim) array of i.i.d. standard draws for vectorized estimators."""
    return sample_batch(rng, q, rows * dim).reshape(rows, dim)
