"""Two-timescale projected stochastic approximation over a black-box system.

One outer iteration draws a perturbation vector, runs the system for a block
of steps at the perturbed parameter while a fast recursion Z tracks the
(Lambda_q-scaled) gradient, then takes a slow projected descent step:

    Z <- (1 - b(n)) Z + b(n) * eta * h(Y) * w(eta) / beta      (per system step)
    theta <- clamp(theta - a(n) * Z)                           (per block)

with a(n) = 1/(n+1) and b(n) = 1/(n+1)^(2/3), so a(n) = o(b(n)) and both
schedules are divergent with square-summable tails. The system's state is
never reset between blocks: the recursion rides a single trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import DivergenceError
from .qgauss import sample_vector
from .rng import RngStream

Z_GUARD_DEFAULT = 1e12


class BlackBoxSystem(Protocol):
    """Contract for a simulated system driven by a tunable parameter.

    ``set_parameter`` takes effect for subsequent steps without resetting the
    process state; ``step`` advances one transition and returns a finite,
    nonnegative cost sample.
    """

    def set_parameter(self, theta: np.ndarray) -> None: ...

    def step(self, rng: RngStream | None = None) -> float: ...


@dataclass(frozen=True)
class TwoTimescaleConfig:
    """Loop sizes, kernel parameters, feasible box, start point and seed."""

    num_iterations: int  # outer blocks M
    samples_per_iteration: int  # system steps per block L
    q: float
    beta: float
    box_min: np.ndarray
    box_max: np.ndarray
    theta0: np.ndarray
    seed: RngStream
    use_block_start_z: bool = False  # use Z from the block start in the theta update
    z_guard: float = Z_GUARD_DEFAULT

    def __post_init__(self):
        for name in ("box_min", "box_max", "theta0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.num_iterations < 1 or self.samples_per_iteration < 1:
            raise ValueError("num_iterations and samples_per_iteration must be >= 1")
        if not self.q < 3.0:
            raise ValueError(f"q must be < 3 (got {self.q})")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be > 0 (got {self.beta})")
        if self.box_min.shape != self.box_max.shape or self.box_min.shape != self.theta0.shape:
            raise ValueError("box_min, box_max and theta0 must share one shape")
        if not np.all(self.box_min < self.box_max):
            raise ValueError("box_min must be strictly below box_max componentwise")
        if np.any(self.theta0 < self.box_min) or np.any(self.theta0 > self.box_max):
            raise ValueError("theta0 must lie inside the box")

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]


@dataclass(frozen=True)
class IterationRecord:
    n: int
    theta: np.ndarray
    z: np.ndarray
    block_mean_cost: float


@dataclass(frozen=True)
class RunTrace:
    """Per-iteration history (length num_iterations + 1, or empty when the
    run did not keep it) plus the final point."""

    records: tuple
    final_theta: np.ndarray

    def thetas(self) -> np.ndarray:
        return np.stack([r.theta for r in self.records])

    def distances(self, target: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.thetas() - np.asarray(target, dtype=float), axis=1)


def step_size_a(n: int) -> float:
    """Slow (parameter) schedule 1/(n+1); shifted so the first step is defined."""
    return 1.0 / (n + 1.0)


def step_size_b(n: int) -> float:
    """Fast (tracker) schedule 1/(n+1)^(2/3), indexed by the outer counter."""
    return (n + 1.0) ** (-2.0 / 3.0)


def project(theta: np.ndarray, box_min: np.ndarray, box_max: np.ndarray) -> np.ndarray:
    """Componentwise clamp onto the box (identity on interior points)."""
    return np.minimum(np.maximum(theta, box_min), box_max)


def _run_loop(
    system: BlackBoxSystem, cfg: TwoTimescaleConfig, sample_q: float, weighted: bool,
    keep_records: bool = True,
) -> RunTrace:
    dim = cfg.dim
    pert_rng = cfg.seed.child("perturbation")
    sys_rng = cfg.seed.child("system")
    coef = (1.0 - sample_q) / (3.0 - sample_q)
    beta, ell, guard = cfg.beta, cfg.samples_per_iteration, cfg.z_guard
    theta = cfg.theta0.copy()
    z = np.zeros(dim)
    records = [IterationRecord(0, theta.copy(), z.copy(), math.nan)] if keep_records else None
    step = system.step
    for n in range(cfg.num_iterations):
        eta = sample_vector(pert_rng, sample_q, dim)
        w = 1.0 / (1.0 - coef * float(eta @ eta)) if weighted else 1.0
        system.set_parameter(theta + beta * eta)
        b = step_size_b(n)
        alpha = 1.0 - b
        z_start = z
        # Within a block eta and b are constant, so the inner recursion only
        # needs the geometrically weighted cost sum s = sum alpha^(L-1-m) h_m:
        # Z after the block is alpha^L Z + b w/beta * s * eta.
        s = 0.0
        cost_sum = 0.0
        for _ in range(ell):
            h = step(sys_rng)
            cost_sum += h
            s = alpha * s + h
        z = (alpha**ell) * z + (b * w / beta) * s * eta
        if not np.abs(z).max() <= guard:  # also true for a NaN or infinite component
            raise DivergenceError(iteration=n, perturbation=eta, cost=h, z=z)
        z_update = z_start if cfg.use_block_start_z else z
        theta = project(theta - step_size_a(n) * z_update, cfg.box_min, cfg.box_max)
        if records is not None:
            records.append(IterationRecord(n + 1, theta.copy(), z.copy(), cost_sum / ell))
    return RunTrace(records=tuple(records or ()), final_theta=theta)


def run_qsf(system: BlackBoxSystem, cfg: TwoTimescaleConfig, *, keep_records: bool = True) -> RunTrace:
    """Run the weighted-perturbation algorithm; deterministic given cfg.seed.

    With ``keep_records=False`` the returned trace holds only the final
    point, for callers such as the sweep that need nothing else.

    Raises DivergenceError (with the failing iteration, perturbation and cost)
    when the tracker leaves the finite guard band.
    """
    return _run_loop(system, cfg, sample_q=cfg.q, weighted=True, keep_records=keep_records)


def run_gaussian_sf(system: BlackBoxSystem, cfg: TwoTimescaleConfig) -> RunTrace:
    """Baseline with Gaussian perturbations and unit weight (the q = 1 path).

    On a shared seed this reproduces run_qsf with q = 1 bit-for-bit, since the
    weight is exactly 1 there.
    """
    return _run_loop(system, cfg, sample_q=1.0, weighted=False)


def fast_timescale_diagnostic(
    system: BlackBoxSystem, theta_frozen: np.ndarray, cfg: TwoTimescaleConfig
) -> np.ndarray:
    """Run only the tracker recursion with theta held fixed; return final Z.

    For an analytic system this converges to (3-q)/2 times the smoothed
    gradient at theta_frozen (compare against quadrature of
    :func:`qsf.sfgrad.smoothed_gradient_1d`).
    """
    theta = np.asarray(theta_frozen, dtype=float)
    dim = theta.shape[0]
    pert_rng = cfg.seed.child("perturbation")
    sys_rng = cfg.seed.child("system")
    coef = (1.0 - cfg.q) / (3.0 - cfg.q)
    z = np.zeros(dim)
    for n in range(cfg.num_iterations):
        eta = sample_vector(pert_rng, cfg.q, dim)
        w = 1.0 / (1.0 - coef * float(eta @ eta))
        system.set_parameter(theta + cfg.beta * eta)
        b = step_size_b(n)
        alpha = 1.0 - b
        s = 0.0
        step = system.step
        for _ in range(cfg.samples_per_iteration):
            h = step(sys_rng)
            s = alpha * s + h
        z = (alpha**cfg.samples_per_iteration) * z + (b * w / cfg.beta) * s * eta
        if not np.abs(z).max() <= cfg.z_guard:
            raise DivergenceError(iteration=n, perturbation=eta, cost=h, z=z)
    return z
