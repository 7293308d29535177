"""Smoothed functionals and the weighted perturbation gradient estimator.

Smoothing a function J with the kernel family of :mod:`qsf.qgauss` gives

    S_{q,beta}[J](theta) = E[J(theta - beta z)],   z ~ standard kernel vector.

The gradient of the smoothed cost can be written as an expectation over the
same perturbations, which yields the single-simulation estimator

    (1/(beta M L)) sum_n sum_m  z(n) * J_m(theta + beta z(n)) * w(z(n)),
    w(z) = 1 / (1 - (1-q)/(3-q) |z|^2),

whose mean, for z drawn from the joint dim-variate density, converges
(beta -> 0) to ((3-q)/2) * grad J(theta) in every dimension. The positive
factor is left in, as it does not change descent directions; it is not
:func:`qsf.oracles.lambda_q` (that is E[w], equal to (3-q)/2 only in dim 1).
The sampler draws the components of z i.i.d., not from the joint law, so
for dim > 1 and q != 1 the estimator is biased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, SupportBoundaryError
from .qgauss import sample_matrix
from .rng import RngStream

_CHUNK = 65536


@dataclass(frozen=True)
class GradEstimatorConfig:
    """Estimator shape: kernel (q, beta), dimension, and averaging sizes."""

    q: float
    beta: float
    dim: int
    num_perturbations: int  # outer perturbation count M
    samples_per_perturbation: int = 1  # cost observations per perturbation L

    def __post_init__(self):
        if not self.q < 3.0:
            raise ValueError(f"q must be < 3 (got {self.q})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (got {self.beta})")
        if self.dim < 1 or self.num_perturbations < 1 or self.samples_per_perturbation < 1:
            raise ValueError("dim, num_perturbations and samples_per_perturbation must be >= 1")


@dataclass(frozen=True)
class GradEstimate:
    """Estimator output: scaled gradient with per-component MC error."""

    value: np.ndarray
    stderr: np.ndarray
    carries_lambda_scale: bool = True


def sf_weight(eta, q: float) -> float:
    """Perturbation weight 1 / (1 - (1-q)/(3-q) |eta|^2); identically 1 at q = 1."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    norm2 = float(eta @ eta)
    if q < 1.0:
        limit = (3.0 - q) / (1.0 - q)
        if norm2 >= limit:
            raise SupportBoundaryError(
                f"|eta|^2 = {norm2:.6g} is outside the open support (limit {limit:.6g})"
            )
    return 1.0 / (1.0 - ((1.0 - q) / (3.0 - q)) * norm2)


def smoothed_value(
    f: Callable,
    theta: np.ndarray,
    q: float,
    beta: float,
    num_samples: int,
    rng: RngStream,
    *,
    vectorized: bool = False,
) -> float:
    """Monte Carlo smoothed functional: mean of f(theta - beta z)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    dim = theta.shape[0]
    zs = sample_matrix(rng, q, num_samples, dim)
    pts = theta[None, :] - beta * zs
    if vectorized:
        fv = np.asarray(f(pts), dtype=float)
    else:
        fv = np.fromiter((f(p) for p in pts), dtype=float, count=num_samples)
    return float(np.mean(fv))


def _kahan_column_sums(terms: np.ndarray) -> np.ndarray:
    """Column sums with pairwise summation per chunk, compensated across chunks."""
    total = np.zeros(terms.shape[1])
    comp = np.zeros(terms.shape[1])
    for start in range(0, terms.shape[0], _CHUNK):
        y = terms[start : start + _CHUNK].sum(axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def estimate_gradient(
    f: Callable,
    theta: np.ndarray,
    cfg: GradEstimatorConfig,
    rng: RngStream,
    *,
    vectorized: bool = False,
) -> GradEstimate:
    """Weighted perturbation gradient estimate at theta from M perturbation blocks.

    In dim 1 the mean tends (beta -> 0) to ((3-q)/2) * grad f(theta). The
    i.i.d. component draws make it biased for dim > 1 when q != 1.
    ``f`` is evaluated samples_per_perturbation times at each perturbed point
    (it may be a noisy oracle); pass ``vectorized=True`` when f maps an
    (n, dim) array to n values. Deterministic for a given rng.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (cfg.dim,):
        raise ValueError(f"theta must have shape ({cfg.dim},), got {theta.shape}")
    m, ell = cfg.num_perturbations, cfg.samples_per_perturbation
    zs = sample_matrix(rng, cfg.q, m, cfg.dim)
    weights = 1.0 / (1.0 - ((1.0 - cfg.q) / (3.0 - cfg.q)) * np.einsum("ij,ij->i", zs, zs))
    pts = theta[None, :] + cfg.beta * zs
    if vectorized:
        fv = np.zeros(m)
        for _ in range(ell):
            fv += np.asarray(f(pts), dtype=float)
        fv /= ell
    else:
        fv = np.empty(m)
        for i, p in enumerate(pts):
            fv[i] = sum(f(p) for _ in range(ell)) / ell
    terms = zs * (fv * weights / cfg.beta)[:, None]
    value = _kahan_column_sums(terms) / m
    if not np.all(np.isfinite(value)):
        raise ConvergenceError(f"non-finite gradient accumulation: {value!r}")
    stderr = terms.std(axis=0) / math.sqrt(m)
    return GradEstimate(value=value, stderr=stderr)
