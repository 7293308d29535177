"""Verification oracles: quadrature, densities and their exact distribution
functions, Lambda_q and the Tsallis entropy in closed form, escort
expectations, kernel checks.

Everything here integrates, fits or tests; the sampler (:mod:`qsf.qgauss`),
the estimator (:mod:`qsf.sfgrad`) and the optimizer never import it, so the
run path needs only NumPy. The quadrature helpers wrap QUADPACK
(Gauss-Kronrod) and turn silent accuracy warnings into exceptions.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable

import numpy as np
from scipy import integrate, special, stats

from .errors import QuadratureError
from .qgauss import QGaussianSpec, max_normalizable_q, sample_batch, sample_matrix, squared_norm, weight_base
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
    return _checked(lambda: integrate.quad(f, a, b, epsabs=atol, epsrel=rtol, limit=limit,
                                           weight=weight, wvar=wvar),
                    f"[{a}, {b}]", atol, rtol)


def dblquad_checked(f: Callable[[float, float], float], a: float, b: float, *,
                    atol: float = ABS_TOL, rtol: float = REL_TOL) -> float:
    """Integrate ``f(y, x)`` on the square [a, b]^2; raise QuadratureError on
    non-convergence, as :func:`quad_checked` does."""
    return _checked(lambda: integrate.dblquad(f, a, b, a, b, epsabs=atol, epsrel=rtol),
                    f"[{a}, {b}]^2", atol, rtol)


def _checked(run: Callable[[], tuple], where: str, atol: float, rtol: float) -> float:
    """The value of a QUADPACK call ``run``, or QuadratureError when it warns,
    is not finite, or reports an error estimate above 100 times the tolerance.
    The first warning, of an inner 1-D pass of a double quadrature too, ends
    the call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, err = run()
        except integrate.IntegrationWarning as warning:
            raise QuadratureError(f"quadrature on {where} did not converge: {warning}") from None
    if not math.isfinite(value) or err > max(atol, rtol * abs(value)) * 100:
        raise QuadratureError(
            f"quadrature on {where} error estimate {err:.2e} too large for value {value:.6e}"
        )
    return value


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


@functools.lru_cache(maxsize=None, typed=True)
def normalizing_constant(q: float, dim: int) -> float:
    """K_{q,N}: the constant making the standard (beta=1) density integrate to 1.

    Memoized per (q, dim), typed, so that ``dim=True`` is not served the
    value of ``dim=1``; a refused pair raises on every call, as
    ``lru_cache`` keeps no exception.

    Closed forms via log-gamma:
        q < 1:      (pi (3-q)/(1-q))^(N/2) * G(a+1) / G(a+1+N/2),  a = 1/(1-q)
        1 < q < 3:  (pi (3-q)/(q-1))^(N/2) * G(a-N/2) / G(a),      a = 1/(q-1)
    The heavy-tail branch exists only for q < 1 + 2/N.
    """
    QGaussianSpec(q, dim=dim)
    if q == 1.0:
        return (2.0 * math.pi) ** (dim / 2.0)
    a = 1.0 / abs(1.0 - q)  # |1-q| rounds as q-1 does for q > 1
    log_k = 0.5 * dim * math.log(math.pi * (3.0 - q) / abs(1.0 - q))
    if q < 1.0:
        log_k += special.gammaln(a + 1.0) - special.gammaln(a + 1.0 + dim / 2.0)
    else:
        log_k += special.gammaln(a - dim / 2.0) - special.gammaln(a)
    return float(math.exp(log_k))


def radial_pdf(r2, spec: QGaussianSpec):
    """Density at squared distance r2 from the center: an array of the shape
    of r2, or a float for a scalar r2. It is exactly 0.0 on and beyond the
    support radius (q < 1), with no NaN and no warning there."""
    r2 = np.asarray(r2, dtype=float)
    q, beta, n = spec.q, spec.beta, spec.dim
    if q == 1.0:
        p = np.exp(-r2 / (2.0 * beta * beta)) / (2.0 * math.pi * beta * beta) ** (n / 2.0)
    else:
        base = weight_base(r2, q, beta)
        inside = (np.sqrt(r2) < spec.radius) & (base > 0.0)
        p = np.where(inside, np.exp(np.log(np.where(inside, base, 1.0)) / (1.0 - q)), 0.0)
        p /= beta**n * normalizing_constant(q, n)
    return float(p) if p.ndim == 0 else p


def pdf(x, spec: QGaussianSpec):
    """Density at points x: any shape in dim 1, shape (..., dim) otherwise.
    Returns an array of the points' shape, or a float for one point."""
    x = np.asarray(x, dtype=float)
    if spec.dim == 1:
        return radial_pdf(x * x, spec)
    if x.shape[-1:] != (spec.dim,):
        raise ValueError(f"points must have shape (..., {spec.dim}), got {x.shape}")
    return radial_pdf((x * x).sum(axis=-1), spec)


def radial_cdf(r2, spec: QGaussianSpec):
    """Exact P(|x|^2 <= r2), of the shape of r2 or a float for a scalar r2.

    With t = r2 / beta^2 and N = spec.dim (the chi^2-mixture representation
    of the q-Gaussian):
        q < 1:  c t follows Beta(N/2, (2-q)/(1-q)),            c = (1-q)/(3-q)
        q = 1:  t follows chi^2_N
        q > 1:  d t / (1 + d t) follows Beta(N/2, 1/(q-1) - N/2), d = (q-1)/(3-q)
    It is exactly 1.0 on and beyond the support radius (q < 1).
    """
    t = np.asarray(r2, dtype=float) / (spec.beta * spec.beta)
    q, a = spec.q, spec.dim / 2.0
    if q == 1.0:
        p = special.gammainc(a, t / 2.0)
    elif q < 1.0:
        p = special.betainc(a, (2.0 - q) / (1.0 - q), np.minimum((1.0 - q) / (3.0 - q) * t, 1.0))
    else:
        with np.errstate(divide="ignore"):  # d t / (1 + d t), 0 at t = 0 and 1 at t = inf
            u = 1.0 / (1.0 + (3.0 - q) / ((q - 1.0) * t))
        p = special.betainc(a, 1.0 / (q - 1.0) - a, u)
    return float(p) if p.ndim == 0 else p


def cdf(x, spec: QGaussianSpec):
    """Exact distribution function of the univariate density at points x of
    any shape: 1/2 + sign(x)/2 * P(|X|^2 <= x^2)."""
    if spec.dim != 1:
        raise ValueError(f"cdf is univariate; use radial_cdf in dim {spec.dim}")
    x = np.asarray(x, dtype=float)
    p = 0.5 + 0.5 * np.sign(x) * radial_cdf(x * x, spec)
    return float(p) if p.ndim == 0 else p


def _weighted_pdf(r2: float, spec: QGaussianSpec) -> float:
    """Density over the bracket, p / weight_base(r2, q, beta), at one squared
    radius: w * p for the estimator weight w at beta = 1, and 0.0 where p is."""
    p = radial_pdf(r2, spec)
    return p / weight_base(r2, spec.q, spec.beta) if p > 0.0 else 0.0


def _halves_checked(f: Callable[[float], float], r: float, **tol) -> float:
    """Integrate ``f`` on [-r, r] as f(x) and f(-x) on [0, r], each checked
    apart, so a tail with no finite integral raises QuadratureError rather
    than cancel against the other in one QUADPACK call."""
    return quad_checked(f, 0.0, r, **tol) + quad_checked(lambda x: f(-x), 0.0, r, **tol)


def q_expectation(f: Callable, spec: QGaussianSpec) -> float:
    """Expectation of f under the escort density p^q / int p^q, by adaptive
    quadrature: f takes a scalar for dim=1, a length-2 vector for dim=2."""
    r = spec.radius
    if spec.dim == 1:
        power = lambda x: pdf(x, spec) ** spec.q
        num = _halves_checked(lambda x: f(x) * power(x), r)
        den = _halves_checked(power, r)
    elif spec.dim == 2:
        power = lambda y, x: pdf((x, y), spec) ** spec.q
        num = dblquad_checked(lambda y, x: f(np.array([x, y])) * power(y, x), -r, r)
        den = dblquad_checked(power, -r, r)
    else:
        raise ValueError("q_expectation supports dim <= 2")
    return num / den


def tsallis_entropy(spec: QGaussianSpec) -> float:
    """Entropy (1 - int p^q) / (q - 1); Shannon differential entropy
    (N/2)(1 + ln 2 pi beta^2) at q = 1.

    In closed form: p^q = (beta^N K_{q,N})^(1-q) * p / weight_base at every
    point, so int p^q = (beta^N K_{q,N})^(1-q) * lambda_q(q, N)."""
    q, n = spec.q, spec.dim
    if q == 1.0:
        return 0.5 * n * (1.0 + math.log(2.0 * math.pi * spec.beta * spec.beta))
    mass_q = (spec.beta**n * normalizing_constant(q, n)) ** (1.0 - q) * lambda_q(q, n)
    return (1.0 - mass_q) / (q - 1.0)


def lambda_q(q: float, dim: int = 1) -> float:
    """Scale factor relating escort to plain expectations: Lambda =
    E[1 / weight_base(|x|^2, q)] under the standard dim-variate density,
    which is 1 + dim (1-q)/2 (1 at q = 1).

    From the chi^2-mixture law of :func:`radial_cdf`, with g ~ N(0, I_N):
    for q < 1 the weight is 1 + |g|^2 / X with X ~ chi^2_m, m - 2 = 2/(1-q);
    for q > 1 it is V / (V + |g|^2) ~ Beta(nu/2, N/2) with V ~ chi^2_nu,
    nu + N = 2/(q-1). Both means are the line above.
    """
    QGaussianSpec(q, dim=dim)
    return 1.0 + dim * (1.0 - q) / 2.0


def smoothed_gradient_1d(f: Callable[[float], float], theta: float, q: float, beta: float) -> float:
    """Quadrature of the smoothed gradient D_{q,beta}[f](theta), univariate.

    Computed in the symmetrized (principal value) form

        D = 2/(beta (3-q)) * int_0^inf z [f(theta+beta z) - f(theta-beta z)] w(z) G(z) dz

    which is absolutely convergent whenever the odd part of f grows at most
    quadratically. The fixed point of the fast tracker recursion equals
    (3-q)/2 times this value.
    """
    QGaussianSpec(q, beta)  # refuses a bad beta by name
    spec = QGaussianSpec(q)  # the integral runs in standard units z

    def integrand(z):
        return z * (f(theta + beta * z) - f(theta - beta * z)) * _weighted_pdf(z * z, spec)

    val = quad_checked(integrand, 0.0, spec.radius, atol=1e-12, rtol=1e-9)
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
    r = spec.radius
    lhs = q_expectation(f, spec)
    if dim == 1:
        rhs = _halves_checked(lambda x: f(x) * _weighted_pdf(x * x, spec), r, atol=1e-12, rtol=1e-9)
    else:  # plain (non-radial) double quadrature for generic f
        rhs = dblquad_checked(lambda y, x: f(np.array([x, y])) * _weighted_pdf(x * x + y * y, spec), -r, r)
    return lhs, rhs / lambda_q(q, dim)


def _grad_formula(x: float, spec_b: QGaussianSpec) -> float:
    """Analytic derivative of the univariate density: -2x / ((3-q) beta^2) * p / bracket."""
    q, beta = spec_b.q, spec_b.beta
    p = pdf(x, spec_b)
    if p == 0.0:
        return 0.0
    return -(2.0 * x / ((3.0 - q) * beta * beta)) * p / weight_base(x * x, q, beta)


def _property(name: str, passed: bool, discrepancy: float, detail: dict) -> dict:
    return {"name": name, "passed": passed, "discrepancy": discrepancy, "detail": detail}


def verify_kernel_properties(q: float, beta_sequence) -> dict:
    """Numerically check the five sufficient smoothing-kernel conditions (1-D).

    P1 scale identity, P2 piecewise differentiability (analytic gradient vs
    central differences, exact zero outside the cutoff for q < 1), P3 unit
    mass, P4 concentration of mass in [-0.5, 0.5] as beta shrinks, P5
    convergence of the smoothed cosine at 0. Failures are recorded in the
    report, never raised. The report is the JSON object that ``qsf
    verify-kernel`` prints: ``q``, ``betas``, ``passed`` and ``properties``,
    one {name, passed, discrepancy, detail} entry per property, P1..P5.
    """
    betas = tuple(float(b) for b in beta_sequence)
    if not betas:
        raise ValueError("beta_sequence must not be empty")
    specs = [QGaussianSpec(q, b) for b in betas]
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta_sequence must be strictly decreasing")
    std = QGaussianSpec(q)
    compact = q < 1.0
    z_edge = std.radius if compact else 5.0

    # P1: G_{q,beta}(x) = beta^-1 G_{q,1}(x / beta), pointwise.
    worst1 = 0.0
    z_pts = np.linspace(-0.95 * z_edge, 0.95 * z_edge, 41)
    for b, spec_b in zip(betas, specs):
        lhs, rhs = pdf(b * z_pts, spec_b), pdf(z_pts, std) / b
        ref = np.maximum(lhs, rhs)
        pos = ref > 0.0
        worst1 = max(worst1, float(np.max(np.abs(lhs - rhs)[pos] / ref[pos], initial=0.0)))
    p1 = _property("P1-scale-identity", worst1 <= 1e-12, worst1, {"points": len(z_pts), "tol": 1e-12})

    # P2: analytic gradient vs central differences inside the support; the
    # density and its gradient are exactly zero beyond the cutoff for q < 1.
    worst2 = 0.0
    outside_ok = True
    detail2: dict = {"tol": 1e-5}
    for b, spec_b in zip(betas, specs):
        for z in (-1.3, -0.7, -0.25, 0.25, 0.7, 1.3):
            if compact and abs(z) >= 0.9 * z_edge:
                continue
            x = b * z
            h = 1e-6 * b
            fd = (pdf(x + h, spec_b) - pdf(x - h, spec_b)) / (2.0 * h)
            an = _grad_formula(x, spec_b)
            ref = max(abs(an), abs(fd))
            if ref > 0.0:
                worst2 = max(worst2, abs(an - fd) / ref)
        if compact:
            edge = b * (z_edge + 0.1)
            if pdf(edge, spec_b) != 0.0 or _grad_formula(edge, spec_b) != 0.0:
                outside_ok = False
    if compact:
        detail2["cutoff_detected"] = True
        detail2["cutoff_radius_std"] = z_edge
        detail2["zero_outside"] = outside_ok
    p2 = _property("P2-piecewise-differentiable", worst2 <= 1e-5 and outside_ok, worst2, detail2)

    # P3: unit mass at every beta.
    worst3 = 0.0
    for spec_b in specs:
        r = spec_b.radius
        mass = quad_checked(lambda x: pdf(x, spec_b), -r, r, atol=1e-12, rtol=1e-10)
        worst3 = max(worst3, abs(mass - 1.0))
    p3 = _property("P3-unit-mass", worst3 <= 1e-6, worst3, {"tol": 1e-6})

    # P4: mass outside a fixed ball shrinks toward 0 along the beta sequence.
    eps = 0.5
    outside_mass = [1.0 - radial_cdf(eps * eps, spec_b) for spec_b in specs]
    # mass can reach exactly zero for compact supports, so require
    # non-increase plus at least a halving over the whole sequence
    dec4 = all(b2 <= b1 for b1, b2 in zip(outside_mass, outside_mass[1:]))
    conc4 = outside_mass[-1] <= 0.5 * outside_mass[0] + 1e-15
    p4 = _property(
        "P4-concentration",
        dec4 and conc4,
        outside_mass[-1],
        {"epsilon": eps, "mass_outside": outside_mass},
    )

    # P5: the smoothed value converges to the true value as beta -> 0. The
    # strict threshold applies where the kernel has a finite second moment
    # (q < 5/3); heavier tails must still show monotone convergence.
    errors5 = []
    converged = True
    for b in betas:
        try:
            errors5.append(abs(_smoothed_cos_at_zero(q, b, std, z_edge) - 1.0))
        except QuadratureError:
            converged = False
            errors5.append(math.nan)
    dec5 = converged and all(e2 < e1 for e1, e2 in zip(errors5, errors5[1:]))
    strict = q < 5.0 / 3.0
    pass5 = dec5 and (errors5[-1] < 1e-3 if strict else True)
    p5 = _property(
        "P5-smoothing-limit",
        pass5,
        errors5[-1] if converged else math.inf,
        {"errors": errors5, "strict_threshold": strict},
    )

    props = [p1, p2, p3, p4, p5]
    return {"q": q, "betas": list(betas), "passed": all(p["passed"] for p in props),
            "properties": props}


def _smoothed_cos_at_zero(q: float, beta: float, std: QGaussianSpec, z_edge: float) -> float:
    """S_{q,beta}[cos](0) by quadrature in standard units."""
    if q < 1.0:
        return quad_checked(lambda z: pdf(z, std) * math.cos(-beta * z), -z_edge, z_edge)
    # Fourier-weight quadrature handles slowly decaying oscillatory tails.
    return 2.0 * quad_checked(lambda z: pdf(z, std), 0.0, math.inf, weight="cos", wvar=beta)


def qgauss_invariants(q: float, beta: float, dims: list[int], rng: RngStream) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) rows of ``qsf qgauss verify`` for one (q, beta);
    the caller checks q, beta and every dim first.

    The rows: in each dim, unit mass by radial quadrature and a KS test of
    the squared radii of 20,000 standard ``sample_matrix`` draws against the
    exact :func:`radial_cdf` (both skipped where the density has no
    normalizer); the scale identity against the standard density, a KS test
    of 20,000 standard ``sample_batch`` draws against the exact :func:`cdf`
    (dim 1 only), and for q < 1 a count of draws on or beyond the support
    radius."""
    checks = []
    for dim in dims:
        label = f"q={q:g} beta={beta:g} dim={dim}"
        radial = f"sample_matrix radial-ks q={q:g} dim={dim}"
        if q > 1.0 and q >= max_normalizable_q(dim):
            checks.append((f"normalization {label}", True, "skipped: density not integrable"))
            checks.append((radial, True, "skipped: density not integrable"))
            continue
        spec = QGaussianSpec(q, beta, dim)
        mass = radial_integral(lambda r: radial_pdf(r * r, spec), dim, spec.radius)
        checks.append((f"normalization {label}", abs(mass - 1.0) < 1e-6, f"mass={mass:.9f}"))
        eta = sample_matrix(rng.child("radial-ks", str(q), str(beta), dim), q, 20000, dim)
        ks = stats.kstest(squared_norm(eta),
                          lambda r2: radial_cdf(r2, QGaussianSpec(q, 1.0, dim)))
        checks.append((radial, ks.pvalue > 0.01, f"D={ks.statistic:.5f} p={ks.pvalue:.4f}"))
    # scale identity against the standard density
    spec_b = QGaussianSpec(q, beta, 1)
    std = QGaussianSpec(q, 1.0, 1)
    zs = np.linspace(-0.9, 0.9, 9) * (std.radius if q < 1 else 4.0)
    rhs = pdf(zs, std) / beta
    worst = float(np.max(np.abs(pdf(beta * zs, spec_b) - rhs) / np.maximum(rhs, 1e-300)))
    checks.append((f"scale-identity q={q:g} beta={beta:g}", worst < 1e-12, f"rel={worst:.2e}"))
    # sampler distribution smoke test
    draws = sample_batch(rng.child("ks", str(q), str(beta)), q, 20000)
    ks = stats.kstest(draws, lambda x: cdf(x, std))
    checks.append((f"sampler-ks q={q:g}", ks.pvalue > 0.01, f"D={ks.statistic:.5f} p={ks.pvalue:.4f}"))
    if q < 1.0:
        viol = int(np.sum(np.abs(draws) >= std.radius))
        checks.append((f"cutoff q={q:g}", viol == 0, f"violations={viol}"))
    return checks
