"""Two-timescale projected stochastic approximation over a black-box system.

One outer iteration draws a perturbation vector, runs the system for a block
of steps at the perturbed parameter while a fast recursion Z tracks the
(scaled, see qsf.sfgrad) gradient, then takes a slow projected descent step:

    Z <- (1 - b(n)) Z + b(n) * eta * h(Y) * w(eta) / beta      (per system step)
    theta <- clamp(theta - a(n) * Z)                           (per block)

with a(n) = 1/(n+1) and b(n) = 1/(n+1)^(2/3), so a(n) = o(b(n)) and both
schedules are divergent with square-summable tails. The system's state is
never reset between blocks: the recursion rides a single trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Protocol

import numpy as np

from .errors import DivergenceError
# sample_vector stays importable from here: perfbench's tracer patches it in
# every module that imported it by name.
from .qgauss import sample_vector, sample_vectors  # noqa: F401
from .rng import RngStream

Z_GUARD_DEFAULT = 1e12


class BlackBoxSystem(Protocol):
    """Contract for a simulated system driven by a tunable parameter.

    ``set_parameter`` takes effect for subsequent steps without resetting the
    process state; ``step`` advances one transition and returns a finite,
    nonnegative cost sample. The system owns whatever randomness it uses.
    """

    def set_parameter(self, theta: np.ndarray) -> None: ...

    def step(self) -> float: ...


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
    run did not keep it) plus the final point and tracker."""

    records: tuple
    final_theta: np.ndarray
    final_z: np.ndarray

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
    system: BlackBoxSystem, cfg: TwoTimescaleConfig,
    keep_records: bool = True, frozen_theta: np.ndarray | None = None,
) -> RunTrace:
    """The two-timescale recursion; with ``frozen_theta`` only its fast part.

    A frozen run holds theta at ``frozen_theta``: it takes no slow step and
    no projection, and its trace keeps no records.

    Per block, theta and Z are Python floats. Elementwise + - * / and the
    min/max clamp round exactly as the NumPy ufuncs did, so the outputs are
    bit for bit those of an ndarray loop. Dot products are not: NumPy's
    OpenBLAS ddot fuses multiply-adds, and on x86-64 with NumPy 2.4, 16% of
    2-vector and 24% of 4-vector dots (200k random vectors) differ from a
    Python sum of products, while a rowwise einsum differs from a per-row
    ``@``. So every dot product stays a single-vector NumPy ``@``.
    """
    slow = frozen_theta is None
    theta = (cfg.theta0 if slow else np.asarray(frozen_theta, dtype=float)).tolist()
    dim = len(theta)
    draws = sample_vectors(cfg.seed.child("perturbation"), cfg.q, dim)
    coef = (1.0 - cfg.q) / (3.0 - cfg.q)
    beta, ell, guard = cfg.beta, cfg.samples_per_iteration, cfg.z_guard
    lo, hi = cfg.box_min.tolist(), cfg.box_max.tolist()
    block_start_z = cfg.use_block_start_z
    z = [0.0] * dim
    records = [IterationRecord(0, np.array(theta), np.array(z), math.nan)] if keep_records and slow else None
    step = system.step
    set_parameter = system.set_parameter
    for n, eta in zip(range(cfg.num_iterations), draws):
        w = 1.0 / (1.0 - coef * float(eta @ eta))
        eta_f = eta.tolist()
        set_parameter(np.array([t + beta * e for t, e in zip(theta, eta_f)]))
        b = step_size_b(n)
        alpha = 1.0 - b
        z_start = z
        # Within a block eta and b are constant, so the inner recursion only
        # needs the geometrically weighted cost sum s = sum alpha^(L-1-m) h_m:
        # Z after the block is alpha^L Z + b w/beta * s * eta.
        s = 0.0
        cost_sum = 0.0
        for _ in range(ell):
            h = step()
            cost_sum += h
            s = alpha * s + h
        decay = alpha**ell
        gain = (b * w / beta) * s
        z = [decay * v + gain * e for v, e in zip(z, eta_f)]
        if not all(-guard <= v <= guard for v in z):  # also true for a NaN or infinite component
            raise DivergenceError(iteration=n, perturbation=eta, cost=h, z=np.array(z))
        if slow:
            a = step_size_a(n)
            z_update = z_start if block_start_z else z
            # min(hi, max(lo, t)) breaks ties (signed zeros) as project() does
            theta = [min(u, max(l, t - a * v)) for t, v, l, u in zip(theta, z_update, lo, hi)]
            if records is not None:
                records.append(IterationRecord(n + 1, np.array(theta), np.array(z), cost_sum / ell))
    return RunTrace(records=tuple(records or ()), final_theta=np.array(theta), final_z=np.array(z))


def run_qsf(system: BlackBoxSystem, cfg: TwoTimescaleConfig, *, keep_records: bool = True) -> RunTrace:
    """Run the weighted-perturbation algorithm; deterministic given cfg.seed.

    With ``keep_records=False`` the returned trace holds only the final
    point, for callers such as the sweep that need nothing else.

    Raises DivergenceError (with the failing iteration, perturbation and cost)
    when the tracker leaves the finite guard band.
    """
    return _run_loop(system, cfg, keep_records=keep_records)


def run_gaussian_sf(system: BlackBoxSystem, cfg: TwoTimescaleConfig) -> RunTrace:
    """Baseline with Gaussian perturbations and unit weight: run_qsf at q = 1,
    where the weight 1/(1 - 0 |eta|^2) is exactly 1, whatever cfg.q is."""
    return run_qsf(system, replace(cfg, q=1.0))


def fast_timescale_diagnostic(
    system: BlackBoxSystem, theta_frozen: np.ndarray, cfg: TwoTimescaleConfig
) -> np.ndarray:
    """Run only the tracker recursion with theta held fixed; return final Z.

    For an analytic system this converges to (3-q)/2 times the smoothed
    gradient at theta_frozen (compare against quadrature of
    :func:`qsf.oracles.smoothed_gradient_1d`).
    """
    return _run_loop(system, cfg, keep_records=False, frozen_theta=theta_frozen).final_z
