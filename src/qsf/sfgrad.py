"""The weighted perturbation gradient estimator.

Smoothing a function J with the kernel family of :mod:`qsf.qgauss` gives

    S_{q,beta}[J](theta) = E[J(theta - beta z)],   z ~ standard kernel vector.

The gradient of the smoothed cost can be written as an expectation over the
same perturbations, which yields the estimator

    (1/(beta M)) sum_n  z(n) * J(theta + beta z(n)) * w(z(n)),
    w(z) = 1 / (1 - (1-q)/(3-q) |z|^2) = 1 / qgauss.weight_base(|z|^2, q),

whose mean, for z drawn from the joint dim-variate density (as
:func:`qsf.qgauss.sample_matrix` draws it), converges (beta -> 0) to
((3-q)/2) * grad J(theta) in every dimension. The positive factor is left
in, as it does not change descent directions; it is not
:func:`qsf.oracles.lambda_q`, E[w] = 1 + dim (1-q)/2, which is (3-q)/2 only
in dim 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .qgauss import QGaussianSpec, check_size, sample_matrix, squared_norm, weight_base
from .rng import RngStream

# Rows per block of estimate_gradient's draws and evaluations; the draws, and
# so the estimate's bits, depend on it.
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class GradEstimatorConfig:
    """Estimator shape: kernel (q, beta), dimension and perturbation count."""

    q: float
    beta: float
    dim: int
    num_perturbations: int  # perturbation count M

    def __post_init__(self):
        QGaussianSpec(self.q, self.beta, self.dim)
        check_size("num_perturbations", self.num_perturbations)


@dataclass(frozen=True)
class GradEstimate:
    """Estimator output: scaled gradient with per-component MC error."""

    value: np.ndarray
    stderr: np.ndarray


def estimate_gradient(
    f: Callable,
    theta: np.ndarray,
    cfg: GradEstimatorConfig,
    rng: RngStream,
    *,
    vectorized: bool = False,
) -> GradEstimate:
    """Weighted perturbation gradient estimate at theta from M perturbations.

    The mean tends (beta -> 0) to ((3-q)/2) * grad f(theta) in every dimension.
    The perturbations are drawn, ``f`` is evaluated and the terms
    z * f * w / beta are formed one block of ``BLOCK_ROWS`` rows at a time;
    each block's mean and squared deviations are merged into running ones
    (Chan, Golub & LeVeque 1979) and the block is dropped, so no array of
    more than ``BLOCK_ROWS`` rows is held. A block is held dim-major, as
    :func:`~qsf.qgauss.sample_matrix` draws it: every block is drawn into
    one (dim, rows) buffer per call, where its terms are formed, and its
    points theta + beta z are a fresh (dim, rows) array for each block, so
    each step is a few contiguous vector operations. ``f`` is evaluated
    once at each perturbed point, in row order (it may be a noisy oracle):
    pass ``vectorized=True`` when f maps an (n, dim) array to n values,
    shape (n,), and it is called once per block on the points' (rows, dim)
    transpose, an F-ordered view that ``f`` may keep; any other shape
    raises ValueError, and the array it returns is read, never written.
    At q = 1 the weight is exactly 1, so none is formed. A theta that is
    not finite raises ValueError before any draw, and a block whose terms
    are not all finite raises ConvergenceError, as does a block of draws
    near q = 1 + 2/dim whose rows are not all finite (before f sees it).
    The peak is a block's worth whatever M is: in dim 4 the ``tracemalloc``
    peak is 2.26 blocks of ``BLOCK_ROWS`` x dim values (the draws buffer,
    the block's normals or its points, and its costs), and a call takes as
    many page faults at M = 2^20 as at 2^16.
    Deterministic for a given rng.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cfg.dim,):
        raise ValueError(f"theta must have shape ({cfg.dim},), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be finite, got {theta!r}")
    m, dim = cfg.num_perturbations, cfg.dim
    mean = np.zeros(dim)
    m2 = np.zeros(dim)  # sum of squared deviations from mean
    # Every block is drawn into this one buffer, so its memory is not handed
    # back to the system and faulted in again between blocks.
    draws = np.empty(min(BLOCK_ROWS, m) * dim)
    for n in range(0, m, BLOCK_ROWS):  # n rows merged so far
        rows = min(BLOCK_ROWS, m - n)
        z = sample_matrix(rng, cfg.q, rows, dim, out=draws[: rows * dim].reshape(dim, rows))
        terms = z.T  # (dim, rows), C-contiguous
        pts = np.multiply(terms, cfg.beta)
        pts += theta[:, None]
        if vectorized:
            fv = np.asarray(f(pts.T), dtype=float)
            if fv.shape != (rows,):
                raise ValueError(f"a vectorized f must return shape ({rows},), got {fv.shape}")
        else:
            fv = np.fromiter((f(p) for p in pts.T), dtype=float, count=rows)
        del pts  # before the weights are formed
        if cfg.q == 1.0:  # w = 1, so the factors f * w / beta are f / beta
            w = fv / cfg.beta
        else:  # the factors f * w / beta, formed in place in the squared radii
            w = squared_norm(z)
            weight_base(w, cfg.q, out=w)
            np.divide(1.0, w, out=w)
            w *= fv
            w /= cfg.beta
        terms *= w
        block_mean = terms.sum(axis=1) / rows
        if not np.all(np.isfinite(block_mean)):
            raise ConvergenceError(f"non-finite gradient accumulation: {block_mean!r}")
        terms -= block_mean[:, None]
        share = rows / (n + rows)
        delta = block_mean - mean
        mean += delta * share
        m2 += np.square(terms, out=terms).sum(axis=1) + delta * delta * (n * share)
        del fv, w  # before the next block is drawn
    stderr = np.sqrt(m2 / m) / math.sqrt(m)  # ddof 0
    return GradEstimate(value=mean, stderr=stderr)
