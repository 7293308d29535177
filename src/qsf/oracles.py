"""Verification oracles: quadrature, densities, escort expectations, kernel checks.

Everything here integrates, fits or tests; the sampler (:mod:`qsf.qgauss`),
the estimator (:mod:`qsf.sfgrad`) and the optimizer never import it, so the
run path needs only NumPy. The quadrature helpers wrap QUADPACK
(Gauss-Kronrod) and turn silent accuracy warnings into exceptions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, interpolate, special, stats

from .errors import ConvergenceError, QuadratureError
from .qgauss import QGaussianSpec, cutoff_radius, max_normalizable_q, sample_batch, sample_matrix
from .rng import RngStream

ABS_TOL = 1e-10
REL_TOL = 1e-8


def quad_checked(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    atol: float = ABS_TOL,
    rtol: float = REL_TOL,
    limit: int = 300,
    weight=None,
    wvar=None,
) -> float:
    """Integrate ``f`` on [a, b]; raise QuadratureError on non-convergence."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        if weight is None:
            value, err = integrate.quad(f, a, b, epsabs=atol, epsrel=rtol, limit=limit)
        else:
            value, err = integrate.quad(
                f, a, b, epsabs=atol, epsrel=rtol, limit=limit, weight=weight, wvar=wvar
            )
    bad = [w for w in caught if issubclass(w.category, integrate.IntegrationWarning)]
    if bad:
        raise QuadratureError(f"quadrature on [{a}, {b}] did not converge: {bad[0].message}")
    if not math.isfinite(value) or err > max(atol, rtol * abs(value)) * 100:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] error estimate {err:.2e} too large for value {value:.6e}"
        )
    return value


def probe_divergence(f: Callable[[float], float], *, start: float = 1e3, rounds: int = 3) -> bool:
    """Heuristic test that the two-sided improper integral of ``f`` diverges.

    Integrates |f| over symmetric intervals of growing length and reports
    True when the totals keep growing instead of stabilizing.
    """
    totals = []
    t = start
    for _ in range(rounds):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v, _ = integrate.quad(lambda x: abs(f(x)), -t, t, limit=400)
        totals.append(v)
        t *= 100.0
    if not all(math.isfinite(v) for v in totals):
        return True
    return totals[-1] > 1.01 * totals[0] + 1e-12


def sphere_surface(dim: int) -> float:
    """Surface area of the unit sphere in ``dim`` dimensions."""
    return 2.0 * math.pi ** (dim / 2.0) / special.gamma(dim / 2.0)


def radial_integral(
    g: Callable[[float], float],
    dim: int,
    r_max: float,
    *,
    atol: float = ABS_TOL,
    rtol: float = REL_TOL,
) -> float:
    """Integral of the isotropic function g(|x|) over R^dim up to radius r_max.

    Pass ``math.inf`` for full-space integrands with decaying tails.
    """
    surf = sphere_surface(dim)
    if dim == 1:
        integrand = g
    else:
        integrand = lambda s: g(s) * s ** (dim - 1)
    return surf * quad_checked(integrand, 0.0, r_max, atol=atol, rtol=rtol)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def panel_cumulative(pdf_batch: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """Cumulative integral of a density along ``grid`` by per-panel Gauss-Legendre.

    Returns an array c with c[0] = 0 and c[k] = integral from grid[0] to
    grid[k]. The density callable must accept a flat array of points.
    """
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * (grid[1:] - grid[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = pdf_batch(pts.ravel()).reshape(pts.shape)
    panels = (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half
    out = np.empty(grid.shape[0])
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


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


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    discrepancy: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelPropertyReport:
    """Numeric verdicts for the five smoothing-kernel conditions."""

    q: float
    betas: tuple
    checks: tuple  # exactly five PropertyCheck entries, P1..P5

    def __post_init__(self):
        if len(self.checks) != 5:
            raise ValueError("a kernel report covers exactly five properties")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "betas": list(self.betas),
            "passed": self.passed,
            "properties": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "discrepancy": c.discrepancy,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def smoothed_gradient_1d(f: Callable[[float], float], theta: float, q: float, beta: float) -> float:
    """Quadrature of the smoothed gradient D_{q,beta}[f](theta), univariate.

    Computed in the symmetrized (principal value) form

        D = 2/(beta (3-q)) * int_0^inf z [f(theta+beta z) - f(theta-beta z)] w(z) G(z) dz

    which is absolutely convergent whenever the odd part of f grows at most
    quadratically. The fixed point of the fast tracker recursion equals
    (3-q)/2 times this value.
    """
    spec = QGaussianSpec(q)
    r_max = cutoff_radius(q) if q < 1.0 else math.inf
    coef = (1.0 - q) / (3.0 - q)

    def integrand(z):
        w = 1.0 / (1.0 - coef * z * z)
        return z * (f(theta + beta * z) - f(theta - beta * z)) * w * pdf(z, spec)

    val = quad_checked(integrand, 0.0, r_max, atol=1e-12, rtol=1e-9)
    return 2.0 / (beta * (3.0 - q)) * val


def escort_identity_check(f: Callable, q: float, dim: int = 1) -> tuple[float, float]:
    """Both sides of the escort-reweighting identity, each by quadrature.

    Returns (escort expectation of f, (1/Lambda_q) * E_G[f * w]). Raises
    QuadratureError when either side fails to converge (for heavy tails and
    fast-growing f the defining integrals genuinely diverge).
    """
    if dim not in (1, 2):
        raise ValueError("escort_identity_check supports dim in {1, 2}")
    spec = QGaussianSpec(q, dim=dim)
    lam = lambda_q(q, dim)
    coef = (1.0 - q) / (3.0 - q)
    if dim == 1:
        if q >= 1.0:
            escort_num = lambda x: f(x) * pdf(x, spec) ** q
            weighted_num = lambda x: f(x) * pdf(x, spec) / (1.0 - coef * x * x)
            for g in (escort_num, weighted_num):
                if probe_divergence(g):
                    raise QuadratureError(
                        "integrand has non-integrable tails for this (f, q) pair"
                    )
        lhs = q_expectation(f, spec)
        r_max = cutoff_radius(q) if q < 1.0 else math.inf

        def weighted(z):
            w = 1.0 / (1.0 - coef * z * z)
            return f(z) * w * pdf(z, spec)

        halves = quad_checked(weighted, 0.0, r_max, atol=1e-12, rtol=1e-9) + quad_checked(
            lambda z: weighted(-z), 0.0, r_max, atol=1e-12, rtol=1e-9
        )
        return lhs, halves / lam
    # dim == 2: plain (non-radial) double quadrature for generic f
    lhs = q_expectation(f, spec)

    def weighted2(y, x):
        v = np.array([x, y])
        w = 1.0 / (1.0 - coef * (x * x + y * y))
        return f(v) * w * pdf(v, spec)

    lim = cutoff_radius(q) if q < 1.0 else math.inf
    rhs, err = integrate.dblquad(weighted2, -lim, lim, -lim, lim, epsabs=1e-10, epsrel=1e-8)
    if not math.isfinite(rhs) or err > 1e-6:
        raise QuadratureError(f"2-D weighted expectation did not converge (err {err:.2e})")
    return lhs, rhs / lam


def _grad_formula(x: float, q: float, beta: float, spec_b: QGaussianSpec) -> float:
    br = 1.0 - ((1.0 - q) / ((3.0 - q) * beta * beta)) * x * x
    if br <= 0.0:
        return 0.0
    return -(2.0 * x / ((3.0 - q) * beta * beta)) * pdf(x, spec_b) / br


def verify_kernel_properties(
    q: float,
    beta_sequence,
    test_function: Callable[[float], float] | None = None,
    *,
    concentration_eps: float = 0.5,
) -> KernelPropertyReport:
    """Numerically check the five sufficient smoothing-kernel conditions (1-D).

    P1 scale identity, P2 piecewise differentiability (analytic gradient vs
    central differences, exact zero outside the cutoff for q < 1), P3 unit
    mass, P4 concentration of mass near 0 as beta shrinks, P5 convergence of
    the smoothed value of ``test_function`` (default cosine) at 0. Failures
    are recorded in the report, never raised.
    """
    betas = tuple(float(b) for b in beta_sequence)
    if not betas or any(b <= 0.0 for b in betas):
        raise ValueError("beta_sequence must contain positive values")
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta_sequence must be strictly decreasing")
    if not q < 3.0:
        raise ValueError(f"q must be < 3 (got {q})")
    f = test_function if test_function is not None else math.cos
    std = QGaussianSpec(q)
    compact = q < 1.0
    z_edge = cutoff_radius(q) if compact else 5.0

    # P1: G_{q,beta}(x) = beta^-1 G_{q,1}(x / beta), pointwise.
    worst1 = 0.0
    z_pts = np.linspace(-0.95 * z_edge, 0.95 * z_edge, 41)
    for b in betas:
        spec_b = QGaussianSpec(q, b)
        for z in z_pts:
            x = b * z
            lhs = pdf(x, spec_b)
            rhs = pdf(z, std) / b
            ref = max(abs(lhs), abs(rhs))
            if ref > 0.0:
                worst1 = max(worst1, abs(lhs - rhs) / ref)
    p1 = PropertyCheck("P1-scale-identity", worst1 <= 1e-12, worst1, {"points": len(z_pts), "tol": 1e-12})

    # P2: analytic gradient vs central differences inside the support; the
    # density and its gradient are exactly zero beyond the cutoff for q < 1.
    worst2 = 0.0
    outside_ok = True
    detail2: dict = {"tol": 1e-5}
    for b in betas:
        spec_b = QGaussianSpec(q, b)
        for z in (-1.3, -0.7, -0.25, 0.25, 0.7, 1.3):
            if compact and abs(z) >= 0.9 * z_edge:
                continue
            x = b * z
            h = 1e-6 * b
            fd = (pdf(x + h, spec_b) - pdf(x - h, spec_b)) / (2.0 * h)
            an = _grad_formula(x, q, b, spec_b)
            ref = max(abs(an), abs(fd))
            if ref > 0.0:
                worst2 = max(worst2, abs(an - fd) / ref)
        if compact:
            edge = b * (z_edge + 0.1)
            if pdf(edge, spec_b) != 0.0 or _grad_formula(edge, q, b, spec_b) != 0.0:
                outside_ok = False
    if compact:
        detail2["cutoff_detected"] = True
        detail2["cutoff_radius_std"] = z_edge
        detail2["zero_outside"] = outside_ok
    p2 = PropertyCheck("P2-piecewise-differentiable", worst2 <= 1e-5 and outside_ok, worst2, detail2)

    # P3: unit mass at every beta.
    worst3 = 0.0
    for b in betas:
        spec_b = QGaussianSpec(q, b)
        lo, hi = (-b * z_edge, b * z_edge) if compact else (-math.inf, math.inf)
        mass = quad_checked(lambda x: pdf(x, spec_b), lo, hi, atol=1e-12, rtol=1e-10)
        worst3 = max(worst3, abs(mass - 1.0))
    p3 = PropertyCheck("P3-unit-mass", worst3 <= 1e-6, worst3, {"tol": 1e-6})

    # P4: mass outside a fixed ball shrinks toward 0 along the beta sequence.
    outside_mass = []
    for b in betas:
        spec_b = QGaussianSpec(q, b)
        lo = max(-concentration_eps, -b * z_edge) if compact else -concentration_eps
        inner = quad_checked(lambda x: pdf(x, spec_b), lo, -lo, atol=1e-12, rtol=1e-10)
        outside_mass.append(max(0.0, 1.0 - inner))
    # mass can reach exactly zero for compact supports, so require
    # non-increase plus at least a halving over the whole sequence
    dec4 = all(b2 <= b1 for b1, b2 in zip(outside_mass, outside_mass[1:]))
    conc4 = outside_mass[-1] <= 0.5 * outside_mass[0] + 1e-15
    p4 = PropertyCheck(
        "P4-concentration",
        dec4 and conc4,
        outside_mass[-1],
        {"epsilon": concentration_eps, "mass_outside": outside_mass},
    )

    # P5: the smoothed value converges to the true value as beta -> 0. The
    # strict threshold applies where the kernel has a finite second moment
    # (q < 5/3); heavier tails must still show monotone convergence.
    errors5 = []
    converged = True
    for b in betas:
        try:
            errors5.append(abs(_smoothed_at_zero(f, q, b, std, z_edge) - f(0.0)))
        except QuadratureError:
            converged = False
            errors5.append(math.nan)
    dec5 = converged and all(e2 < e1 for e1, e2 in zip(errors5, errors5[1:]))
    strict = q < 5.0 / 3.0
    pass5 = dec5 and (errors5[-1] < 1e-3 if strict else True)
    p5 = PropertyCheck(
        "P5-smoothing-limit",
        pass5,
        errors5[-1] if converged else math.inf,
        {"errors": errors5, "strict_threshold": strict},
    )

    return KernelPropertyReport(q=q, betas=betas, checks=(p1, p2, p3, p4, p5))


def _smoothed_at_zero(f, q: float, beta: float, std: QGaussianSpec, z_edge: float) -> float:
    """S_{q,beta}[f](0) by quadrature in standard units."""
    if q < 1.0:
        return quad_checked(lambda z: pdf(z, std) * f(-beta * z), -z_edge, z_edge)
    if f is math.cos:
        # Fourier-weight quadrature handles slowly decaying oscillatory tails.
        return 2.0 * quad_checked(
            lambda z: pdf(z, std), 0.0, math.inf, weight="cos", wvar=beta
        )
    return quad_checked(lambda z: pdf(z, std) * f(-beta * z), -math.inf, math.inf)


def qgauss_invariants(q: float, beta: float, dims: list[int], rng: RngStream) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) rows of ``qsf qgauss verify`` for one (q, beta)."""
    checks = []
    for dim in dims:
        label = f"q={q:g} beta={beta:g} dim={dim}"
        if q > 1.0 and q >= max_normalizable_q(dim):
            checks.append((f"normalization {label}", True, "skipped: density not integrable"))
            continue
        r_max = cutoff_radius(q, beta) if q < 1.0 else math.inf
        center = QGaussianSpec(q, beta, dim)
        mass = radial_integral(
            lambda r: pdf(np.concatenate([[r], np.zeros(dim - 1)]), center), dim, r_max
        )
        checks.append((f"normalization {label}", abs(mass - 1.0) < 1e-6, f"mass={mass:.9f}"))
    # scale identity against the standard density
    spec_b = QGaussianSpec(q, beta, 1)
    std = QGaussianSpec(q, 1.0, 1)
    zs = np.linspace(-0.9, 0.9, 9) * (cutoff_radius(q) if q < 1 else 4.0)
    worst = max(
        abs(pdf(beta * z, spec_b) - pdf(z, std) / beta)
        / max(pdf(z, std) / beta, 1e-300)
        for z in zs
    )
    checks.append((f"scale-identity q={q:g} beta={beta:g}", worst < 1e-12, f"rel={worst:.2e}"))
    # sampler distribution smoke test
    draws = sample_batch(rng.child("ks", str(q), str(beta)), q, 20000)
    ks = stats.kstest(draws, quadrature_cdf(std, panels=2048))
    checks.append((f"sampler-ks q={q:g}", ks.pvalue > 0.01, f"D={ks.statistic:.5f} p={ks.pvalue:.4f}"))
    if q < 1.0:
        viol = int(np.sum(np.abs(draws) >= cutoff_radius(q)))
        checks.append((f"cutoff q={q:g}", viol == 0, f"violations={viol}"))
    return checks
