"""The weighted perturbation gradient estimator.

Smoothing a function J with the kernel family of :mod:`qsf.qgauss` gives

    S_{q,beta}[J](theta) = E[J(theta - beta z)],   z ~ standard kernel vector.

The gradient of the smoothed cost can be written as an expectation over the
same perturbations, which yields the estimator

    (1/(beta M)) sum_n  z(n) * J(theta + beta z(n)) * w(z(n)),
    w(z) = 1 / (1 - (1-q)/(3-q) |z|^2),

whose mean, for z drawn from the joint dim-variate density, converges
(beta -> 0) to ((3-q)/2) * grad J(theta) in every dimension. The positive
factor is left in, as it does not change descent directions; it is not
:func:`qsf.oracles.lambda_q` (that is E[w], equal to (3-q)/2 only in dim 1).
The sampler draws the components of z i.i.d., not from the joint law, so
for dim > 1 and q != 1 the estimator is biased.

:func:`estimate_gradient` holds at its peak the perturbations ``zs``, the
perturbed points and the costs ``fv``, the output of the one ``f`` call
(2.25 times the size of ``zs`` in dim 4). The points are freed once ``f``
has run; the weights and the terms z * f * w / beta are then built block by
block, ``qgauss.ARRAY_BLOCK`` rows at a time, over ``zs`` itself, and each
block's column sum goes into one Kahan-compensated total. Every step is
elementwise or a sum over the same 65,536-row blocks as a whole-array
computation, so the estimate keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .qgauss import ARRAY_BLOCK, sample_matrix
from .rng import RngStream


@dataclass(frozen=True)
class GradEstimatorConfig:
    """Estimator shape: kernel (q, beta), dimension and perturbation count."""

    q: float
    beta: float
    dim: int
    num_perturbations: int  # perturbation count M

    def __post_init__(self):
        if not self.q < 3.0:
            raise ValueError(f"q must be < 3 (got {self.q})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (got {self.beta})")
        if self.dim < 1 or self.num_perturbations < 1:
            raise ValueError("dim and num_perturbations must be >= 1")


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

    In dim 1 the mean tends (beta -> 0) to ((3-q)/2) * grad f(theta). The
    i.i.d. component draws make it biased for dim > 1 when q != 1.
    ``f`` is evaluated once at each perturbed point (it may be a noisy
    oracle); pass ``vectorized=True`` when f maps an (n, dim) array to n
    values. Deterministic for a given rng.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cfg.dim,):
        raise ValueError(f"theta must have shape ({cfg.dim},), got {theta.shape}")
    m = cfg.num_perturbations
    zs = sample_matrix(rng, cfg.q, m, cfg.dim)
    pts = cfg.beta * zs
    pts += theta
    if vectorized:
        fv = np.asarray(f(pts), dtype=float)
    else:
        fv = np.fromiter((f(p) for p in pts), dtype=float, count=m)
    del pts
    k = (1.0 - cfg.q) / (3.0 - cfg.q)
    total = np.zeros(cfg.dim)
    comp = np.zeros(cfg.dim)
    for s in range(0, m, ARRAY_BLOCK):
        terms = zs[s : s + ARRAY_BLOCK]  # a view: zs becomes the terms block by block
        weights = 1.0 / (1.0 - k * np.einsum("ij,ij->i", terms, terms))
        terms *= (fv[s : s + ARRAY_BLOCK] * weights / cfg.beta)[:, None]
        # Summing a C-contiguous block over axis 0 adds it row after row into
        # each column, the bits of a Python row loop, not a pairwise sum;
        # Kahan compensation runs across the blocks.
        y = terms.sum(axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    value = total / m
    if not np.all(np.isfinite(value)):
        raise ConvergenceError(f"non-finite gradient accumulation: {value!r}")
    stderr = zs.std(axis=0) / math.sqrt(m)  # zs holds the terms now
    return GradEstimate(value=value, stderr=stderr)
