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
the classical Box-Muller transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from scipy import integrate, interpolate, special

from .errors import ConvergenceError, QuadratureError
from .quadrature import panel_cumulative, quad_checked, radial_integral
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


def normalizing_constant(q: float, dim: int) -> float:
    """K_{q,N}: the constant making the standard (beta=1) density integrate to 1.

    Closed forms via log-gamma:
        q < 1:      (pi (3-q)/(1-q))^(N/2) * G(a+1) / G(a+1+N/2),  a = 1/(1-q)
        1 < q < 3:  (pi (3-q)/(q-1))^(N/2) * G(a-N/2) / G(a),      a = 1/(q-1)
    The heavy-tail branch exists only for q < 1 + 2/N.
    """
    if not q < 3.0:
        raise ValueError(f"no normalizing constant for q >= 3 (got q={q})")
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be >= 1 (got {dim})")
    if q == 1.0:
        return (2.0 * math.pi) ** (dim / 2.0)
    if q < 1.0:
        a = 1.0 / (1.0 - q)
        log_k = 0.5 * dim * math.log(math.pi * (3.0 - q) / (1.0 - q))
        log_k += special.gammaln(a + 1.0) - special.gammaln(a + 1.0 + dim / 2.0)
        return float(math.exp(log_k))
    if q >= max_normalizable_q(dim):
        raise ValueError(
            f"the {dim}-variate density is integrable only for q < 1 + 2/{dim}"
            f" = {max_normalizable_q(dim):g} (got q={q})"
        )
    a = 1.0 / (q - 1.0)
    log_k = 0.5 * dim * math.log(math.pi * (3.0 - q) / (q - 1.0))
    log_k += special.gammaln(a - dim / 2.0) - special.gammaln(a)
    return float(math.exp(log_k))


def _bracket(r2: np.ndarray | float, q: float, beta: float) -> np.ndarray | float:
    """The base 1 - (1-q) r^2 / ((3-q) beta^2) of the density power."""
    return 1.0 - ((1.0 - q) / ((3.0 - q) * beta * beta)) * r2


def pdf(x, spec: QGaussianSpec) -> float:
    """Density at a single point (scalar for dim=1, length-dim vector otherwise)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (spec.dim,):
        raise ValueError(f"point must have shape ({spec.dim},), got {x.shape}")
    r2 = float(np.sum((x - spec.mu) ** 2))
    q, beta, n = spec.q, spec.beta, spec.dim
    if q == 1.0:
        return math.exp(-r2 / (2.0 * beta * beta)) / (2.0 * math.pi * beta * beta) ** (n / 2.0)
    if q < 1.0 and r2 >= ((3.0 - q) / (1.0 - q)) * beta * beta:
        # cutoff: identically zero on and outside the support sphere
        return 0.0
    br = _bracket(r2, q, beta)
    if br <= 0.0:
        return 0.0
    k = normalizing_constant(q, n)
    return math.exp(math.log(br) / (1.0 - q)) / (beta**n * k)


def pdf_batch(xs: np.ndarray, spec: QGaussianSpec) -> np.ndarray:
    """Vectorized density for dim=1 points, used by quadrature and KS oracles."""
    if spec.dim != 1:
        raise ValueError("pdf_batch supports dim=1 only")
    xs = np.asarray(xs, dtype=float)
    q, beta = spec.q, spec.beta
    d2 = (xs - spec.mu[0]) ** 2
    if q == 1.0:
        return np.exp(-d2 / (2.0 * beta * beta)) / math.sqrt(2.0 * math.pi * beta * beta)
    br = _bracket(d2, q, beta)
    k = normalizing_constant(q, 1)
    if q < 1.0:
        out = np.zeros_like(br)
        inside = (br > 0.0) & (d2 < ((3.0 - q) / (1.0 - q)) * beta * beta)
        out[inside] = np.exp(np.log(br[inside]) / (1.0 - q))
        return out / (beta * k)
    return np.exp(np.log(br) / (1.0 - q)) / (beta * k)


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


def escort_weight_batch(z: np.ndarray, q: float) -> np.ndarray:
    """Per-sample weights 1 / (1 - (1-q)/(3-q) z^2) for q-expectation reweighting."""
    return 1.0 / _bracket(np.asarray(z, dtype=float) ** 2, q, 1.0)


def _support_bounds(spec: QGaussianSpec) -> tuple[float, float]:
    if spec.q < 1.0:
        r = cutoff_radius(spec.q, spec.beta)
        return spec.mu[0] - r, spec.mu[0] + r
    return -math.inf, math.inf


def q_expectation(
    f: Callable,
    spec: QGaussianSpec,
    *,
    method: str = "auto",
    rng: RngStream | None = None,
    num_samples: int = 200_000,
    mc_tol: float = 5e-3,
) -> float:
    """Expectation of f under the escort density p^q / int p^q.

    dim <= 2 uses adaptive quadrature (f takes a scalar for dim=1, a length-2
    vector for dim=2). Higher dimensions use self-normalized reweighting of
    i.i.d. component samples, which targets the escort of the product density;
    this path needs an ``rng`` and raises ConvergenceError when the standard
    error of the ratio exceeds ``mc_tol``.
    """
    if method == "auto":
        method = "quadrature" if spec.dim <= 2 else "mc"
    if method == "quadrature":
        if spec.dim == 1:
            lo, hi = _support_bounds(spec)
            power = lambda x: pdf(x, spec) ** spec.q
            num = quad_checked(lambda x: f(x) * power(x), lo, hi)
            den = quad_checked(power, lo, hi)
            return num / den
        if spec.dim == 2:
            if spec.q > 1.0 and spec.q >= max_normalizable_q(2):
                raise ValueError("2-variate density requires q < 2")
            lo0, hi0 = _support_bounds(QGaussianSpec(spec.q, spec.beta, 1, spec.mu[:1]))
            lo1, hi1 = _support_bounds(QGaussianSpec(spec.q, spec.beta, 1, spec.mu[1:]))
            power = lambda y, x: pdf(np.array([x, y]), spec) ** spec.q
            num, _ = integrate.dblquad(
                lambda y, x: f(np.array([x, y])) * power(y, x), lo0, hi0, lo1, hi1,
                epsabs=1e-10, epsrel=1e-8,
            )
            den, _ = integrate.dblquad(power, lo0, hi0, lo1, hi1, epsabs=1e-10, epsrel=1e-8)
            return num / den
        raise ValueError("quadrature path supports dim <= 2")
    if method == "mc":
        if rng is None:
            raise ValueError("Monte Carlo path requires an rng")
        zs = sample_matrix(rng, spec.q, num_samples, spec.dim)
        w = np.prod(escort_weight_batch(zs, spec.q), axis=1)
        xs = spec.mu[None, :] + spec.beta * zs
        fv = np.array([f(x if spec.dim > 1 else float(x[0])) for x in xs])
        num, den = float(np.mean(fv * w)), float(np.mean(w))
        est = num / den
        # Delta-method standard error of the self-normalized ratio.
        resid = (fv * w - est * w) / den
        se = float(np.std(resid) / math.sqrt(num_samples))
        if not math.isfinite(est) or se > mc_tol * max(1.0, abs(est)):
            raise ConvergenceError(
                f"escort-weighted mean did not converge: est={est!r}, se={se:.3e}"
            )
        return est
    raise ValueError(f"unknown method {method!r}")


def tsallis_entropy(spec: QGaussianSpec) -> float:
    """Entropy (1 - int p^q) / (q - 1); Shannon differential entropy at q = 1."""
    if spec.dim > 2:
        raise ValueError("entropy quadrature supports dim <= 2")
    n = spec.dim
    if spec.q == 1.0:
        center = QGaussianSpec(1.0, spec.beta, n, np.zeros(n))

        def integrand(r):
            p = pdf(np.concatenate([[r], np.zeros(n - 1)]), center)
            return -p * math.log(p) if p > 0.0 else 0.0

        return radial_integral(integrand, n, math.inf)
    if spec.q > 1.0 and spec.q >= max_normalizable_q(n):
        raise ValueError(f"{n}-variate density requires q < {max_normalizable_q(n):g}")
    center = QGaussianSpec(spec.q, spec.beta, n, np.zeros(n))
    r_max = cutoff_radius(spec.q, spec.beta) if spec.q < 1.0 else math.inf
    mass_q = radial_integral(
        lambda r: pdf(np.concatenate([[r], np.zeros(n - 1)]), center) ** spec.q, n, r_max
    )
    return (1.0 - mass_q) / (spec.q - 1.0)


def lambda_q(q: float, dim: int = 1) -> float:
    """Scale factor relating escort to plain expectations (1 at q = 1).

    Lambda = K^(q-1) * int G^q = E_G[1 / (1 - (1-q)/(3-q) |x|^2)], computed by
    radial quadrature of the standard dim-variate density.
    """
    if q == 1.0:
        return 1.0
    k = normalizing_constant(q, dim)  # validates integrability for this dim
    r_max = cutoff_radius(q) if q < 1.0 else math.inf
    expo = 1.0 / (1.0 - q) - 1.0

    def integrand(r):
        br = _bracket(r * r, q, 1.0)
        return math.exp(expo * math.log(br)) if br > 0.0 else 0.0

    return radial_integral(integrand, dim, r_max) / k


def lambda_q_mc(q: float, rng: RngStream, num_samples: int = 200_000) -> tuple[float, float]:
    """Monte Carlo Lambda as the plain mean of the escort weight (dim=1).

    Returns (estimate, standard error). Only the univariate case is offered:
    component-wise sampling does not realize the joint multivariate density.
    """
    z = sample_batch(rng, q, num_samples)
    w = escort_weight_batch(z, q)
    return float(np.mean(w)), float(np.std(w) / math.sqrt(num_samples))


def quadrature_cdf(spec: QGaussianSpec, *, panels: int = 4096) -> Callable[[np.ndarray], np.ndarray]:
    """Distribution function built by cumulative panel quadrature of the pdf.

    Used as the independent oracle for sampler goodness-of-fit tests. The grid
    covers the support (compact case) or extends to where the two-sided tail
    mass is below 1e-9 (heavy-tail case, asinh-spaced nodes), and is
    interpolated monotonically between nodes.
    """
    if spec.dim != 1:
        raise ValueError("quadrature_cdf supports dim=1 only")
    q = spec.q
    if q < 1.0:
        lo, hi = _support_bounds(spec)
        grid = np.linspace(lo, hi, panels + 1)
        left_tail = 0.0
    else:
        def two_sided_tail(t: float) -> float:
            # y = 1/x substitution keeps the improper integral on a finite interval
            val = quad_checked(
                lambda y: pdf(spec.mu[0] + 1.0 / y, spec) / (y * y), 1e-300, 1.0 / t,
                atol=1e-14, rtol=1e-10,
            )
            return 2.0 * val

        t = 10.0 * spec.beta
        while two_sided_tail(t) > 1e-9:
            t *= 4.0
        a = math.asinh(t / spec.beta)
        grid = spec.mu[0] + spec.beta * np.sinh(np.linspace(-a, a, panels + 1))
        left_tail = two_sided_tail(t) / 2.0

    cdf_vals = left_tail + panel_cumulative(lambda x: pdf_batch(x, spec), grid)
    total = cdf_vals[-1] + left_tail
    if abs(total - 1.0) > 1e-6:
        raise QuadratureError(f"CDF mass check failed: total = {total!r}")
    interp = interpolate.PchipInterpolator(grid, np.clip(cdf_vals, 0.0, 1.0))
    lo, hi = grid[0], grid[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return np.clip(interp(np.clip(x, lo, hi)), 0.0, 1.0)

    return cdf
