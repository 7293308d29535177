"""Two-timescale projected stochastic approximation over a black-box system.

One outer iteration draws a perturbation vector, runs the system for a block
of steps at the perturbed parameter while a fast recursion Z tracks the
(scaled, see qsf.sfgrad) gradient, then takes a slow projected descent step:

    Z <- (1 - b(n)) Z + b(n) * eta * h(Y) * w(eta) / beta      (per system step)
    theta <- clamp(theta - a(n) * Z)                           (per block)

with the estimator weight w(eta) = 1 / qsf.qgauss.weight_base(|eta|^2, q) of
qsf.sfgrad, and a(n) = 1/(n+1) and b(n) = 1/(n+1)^(2/3), so a(n) = o(b(n)) and both
schedules are divergent with square-summable tails. The system's state is
never reset between blocks: the recursion rides a single trajectory.

The loop rules live in :class:`OptimizerSettings`: M and L, the feasible
box and theta0, which every run of a sweep shares. A run adds only its
kernel (q, beta) and its seed; :class:`TwoTimescaleConfig` is the settings
of one run, and checks q and beta by building a
:class:`qsf.qgauss.QGaussianSpec`.

The recursion is one lane loop, :func:`run_lanes`. K runs of one settings
object advance block by block together, each with its own (q, beta, seed),
with theta, Z, the perturbations and the perturbed parameters held as
(K, dim) arrays, so a block's bookkeeping is a fixed number of NumPy calls
whatever K is; each lane's system still runs its L steps in a scalar loop.
The perturbations of 64 blocks of all lanes come from one
:func:`qsf.qgauss.sample_lanes` call. ``run_qsf``,
``run_gaussian_sf`` and ``fast_timescale_diagnostic`` are one-lane calls,
and the sweep runs batches of up to ``qsf.harness.LANE_BATCH`` = 32 lanes.
A queue-network lane holds up to about 25 KB of its own: five lookaheads of
up to 4 KB and six generators of about 0.8 KB. In dim 4, drawing a chunk
peaks at 4 to 13 KB a lane more (tracemalloc, 32 lanes of 15 to one q
values: the output, and for one q at a time its lanes' uniforms as their
streams' reader returns them, their stacked copy and the contiguous copy
of u1 and u2 in which the transform works), and the chunk's perturbations
and their shifts keep 4 KB a lane through its blocks.

Every lane gets the bits of its own one-lane run. Elementwise + - * / and
the min/max clamp round on rows as on a single vector. Dot products are
the trap: NumPy's OpenBLAS ddot fuses multiply-adds, so on x86-64 with
NumPy 2.4, 16% of 2-vector and 24% of 4-vector dots (200k random vectors)
differ from a Python sum of products, and a rowwise einsum differs from a
per-row ``@`` on up to 35% of rows. ``np.vecdot`` gives every row, contiguous
or a strided column slice, the bits of that row's own ``@``; every row dot
product here and in ``QueueNetwork.set_parameters`` is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .errors import DivergenceError
# sample_vector stays importable from here: perfbench's tracer patches it in
# every module that imported it by name.
from .qgauss import QGaussianSpec, check_size, sample_lanes, sample_vector, weight_base  # noqa: F401
from .rng import RngStream

# A lane whose tracker has a component beyond this band, or a non-finite
# one, has diverged.
Z_GUARD = 1e12

# Blocks of perturbations drawn per sample_lanes call.
_CHUNK = 64


class BlackBoxSystem(Protocol):
    """Contract for a simulated system driven by a tunable parameter.

    ``set_parameter`` takes effect for subsequent steps without resetting the
    process state; ``step`` advances one transition and returns a finite,
    nonnegative cost sample. The system owns whatever randomness it uses.
    A class may also provide a static ``set_parameters(systems, thetas)``
    that installs row k of ``thetas`` on ``systems[k]``; :func:`run_lanes`
    then calls it once per block for a batch of that class.
    """

    def set_parameter(self, theta: np.ndarray) -> None: ...

    def step(self) -> float: ...


@dataclass(frozen=True, kw_only=True)
class OptimizerSettings:
    """What every run of a sweep shares: loop sizes, feasible box, start
    point and the theta-update flag. Its checks are the loop's rules."""

    num_iterations: int = 10000  # outer blocks M
    samples_per_iteration: int = 100  # system steps per block L
    box_min: np.ndarray = field(default_factory=lambda: np.zeros(4))
    box_max: np.ndarray = field(default_factory=lambda: np.full(4, 5.0))
    theta0: np.ndarray = field(default_factory=lambda: np.full(4, 5.0))
    use_block_start_z: bool = False  # use Z from the block start in the theta update

    def __post_init__(self):
        vectors = ("box_min", "box_max", "theta0")
        for name in vectors:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        check_size("num_iterations", self.num_iterations)
        check_size("samples_per_iteration", self.samples_per_iteration)
        shapes = [getattr(self, name).shape for name in vectors]
        for name, shape in zip(vectors, shapes):
            if shapes.count(shape) == 1:  # the odd one out (box_min when all three differ)
                raise ValueError(f"{name} has shape {shape}; the box bounds and the start "
                                 f"point must share one shape")
        if not np.all(self.box_min < self.box_max):
            raise ValueError("box_min must lie below box_max componentwise")
        if not np.all((self.box_min <= self.theta0) & (self.theta0 <= self.box_max)):  # NaN fails too
            raise ValueError("theta0 must lie inside the box")

    @property
    def dim(self) -> int:
        return self.theta0.shape[0]


@dataclass(frozen=True, kw_only=True)
class TwoTimescaleConfig(OptimizerSettings):
    """One run: the shared settings plus its kernel (q, beta) and its seed."""

    q: float
    beta: float
    seed: RngStream

    def __post_init__(self):
        super().__post_init__()
        QGaussianSpec(self.q, self.beta)


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


def _set_each(systems, thetas: np.ndarray) -> None:
    for system, theta in zip(systems, thetas):
        system.set_parameter(theta)


def run_lanes(systems: list, settings: OptimizerSettings, lanes: list, *,
              keep_records: bool = False, frozen_theta: np.ndarray | None = None) -> list:
    """The two-timescale recursion for K lanes in lockstep; with
    ``frozen_theta`` only its fast part.

    Lane k runs ``systems[k]`` with the kernel and seed ``lanes[k]`` =
    (q, beta, seed); M, L, the box, theta0 and the block-start flag come
    from ``settings``, for every lane alike. Item k of the result is lane
    k's RunTrace, or the DivergenceError of a lane whose tracker left the
    band ``Z_GUARD``: that lane is dropped at that block and the others run
    on unchanged. A frozen run holds theta at ``frozen_theta``: it takes no
    slow step and no projection, and its traces keep no records.

    Theta, Z and the perturbed parameters are (K, dim) arrays; each
    elementwise operation rounds as its per-lane scalar form does, and every
    row dot product is an ``np.vecdot`` (see the module docstring). Each
    lane's system still runs its L steps in a scalar inner loop.
    """
    slow = frozen_theta is None
    start = np.array(settings.theta0 if slow else frozen_theta, dtype=float)
    dim = start.shape[0]
    theta = np.tile(start, (len(systems), 1))
    z = np.zeros_like(theta)
    qs, betas, seeds = (list(x) for x in zip(*lanes))
    beta = np.array(betas)
    rngs = [seed.child("perturbation") for seed in seeds]
    ell, lo, hi = settings.samples_per_iteration, settings.box_min, settings.box_max
    block_start_z = settings.use_block_start_z
    records = None
    if keep_records and slow:
        records = [[IterationRecord(0, start, z[0], math.nan)] for _ in systems]
    install = getattr(type(systems[0]), "set_parameters", _set_each)
    steps = [system.step for system in systems]
    live = list(range(len(systems)))  # the caller's index of each live lane
    out = [None] * len(systems)
    n, m = 0, settings.num_iterations
    while n < m and live:
        # One chunk of perturbations for all lanes, shaped (blocks, lanes,
        # dim), with everything about them that does not depend on theta.
        etas = sample_lanes(rngs, qs, dim, min(_CHUNK, m - n))
        bs = [step_size_b(i) for i in range(n, n + len(etas))]
        # A value on the support radius (only q < 0 reaches it) has a zero
        # bracket. Its weight is NaN, not 1/0, so its tracker update is NaN
        # with no NumPy warning whatever the block's costs (1/0 warns, and so
        # would inf * 0 at a zero cost sum); the guard drops the lane there.
        wb = weight_base(np.vecdot(etas, etas), np.array(qs))
        wb[wb == 0.0] = np.nan
        w = 1.0 / wb
        gains = (np.array(bs)[:, None] * w / beta)[..., None]
        shifts = beta[:, None] * etas
        for j, b in enumerate(bs):
            eta = etas[j]
            install(systems, theta + shifts[j])
            alpha = 1.0 - b
            # Within a block eta and b are constant, so the inner recursion only
            # needs the geometrically weighted cost sum s = sum alpha^(L-1-m) h_m:
            # Z after the block is alpha^L Z + b w/beta * s * eta. The last
            # cost h goes into a DivergenceError, the block mean into records.
            sums, lasts, means = [], [], []
            for step in steps:
                s = cost_sum = 0.0
                for _ in range(ell):
                    h = step()
                    cost_sum += h
                    s = alpha * s + h
                sums.append(s)
                lasts.append(h)
                means.append(cost_sum / ell)
            z_start = z
            # np.multiply(x, c) rounds as c * x does, and costs less with a
            # Python float c
            z = np.multiply(z, alpha**ell) + gains[j] * np.array(sums)[:, None] * eta
            ok = np.less_equal(np.abs(z), Z_GUARD)  # also false for a NaN or infinite component
            if np.count_nonzero(ok) < ok.size:  # record and drop the lanes that left the band
                ok = ok.all(axis=1)
                for i in np.flatnonzero(~ok):
                    out[live[i]] = DivergenceError(
                        iteration=n + j, perturbation=eta[i].copy(), cost=lasts[i], z=z[i].copy())
                keep = np.flatnonzero(ok).tolist()
                live, systems, rngs, qs, means = (
                    [x[i] for i in keep] for x in (live, systems, rngs, qs, means))
                if records is not None:
                    records = [records[i] for i in keep]
                steps = [system.step for system in systems]
                theta, z, z_start, beta = theta[ok], z[ok], z_start[ok], beta[ok]
                etas, gains, shifts = etas[:, ok], gains[:, ok], shifts[:, ok]
                if not keep:
                    break
            if slow:
                step_z = np.multiply(z_start if block_start_z else z, step_size_a(n + j))
                theta = project(theta - step_z, lo, hi)
                if records is not None:
                    for i, rec in enumerate(records):
                        rec.append(IterationRecord(n + j + 1, theta[i], z[i], means[i]))
        n += len(etas)
    for i, lane in enumerate(live):
        out[lane] = RunTrace(records=tuple(records[i]) if records is not None else (),
                             final_theta=theta[i].copy(), final_z=z[i].copy())
    return out


def _run_loop(system: BlackBoxSystem, cfg: TwoTimescaleConfig,
              frozen_theta: np.ndarray | None = None) -> RunTrace:
    """One lane of :func:`run_lanes`, with its records; raises its DivergenceError."""
    (trace,) = run_lanes([system], cfg, [(cfg.q, cfg.beta, cfg.seed)], keep_records=True,
                         frozen_theta=frozen_theta)
    if isinstance(trace, DivergenceError):
        raise trace
    return trace


def run_qsf(system: BlackBoxSystem, cfg: TwoTimescaleConfig) -> RunTrace:
    """Run the weighted-perturbation algorithm; deterministic given cfg.seed.

    Raises DivergenceError (with the failing iteration, perturbation and cost)
    when the tracker leaves the band ``Z_GUARD``.
    """
    return _run_loop(system, cfg)


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
    return _run_loop(system, cfg, frozen_theta=theta_frozen).final_z
