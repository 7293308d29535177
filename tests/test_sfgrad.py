import math
import tracemalloc

import numpy as np
import pytest

from qsf.errors import ConvergenceError, QuadratureError
from qsf.oracles import (
    KernelPropertyReport,
    escort_identity_check,
    lambda_q,
    q_expectation,
    smoothed_gradient_1d,
    verify_kernel_properties,
)
from qsf.qgauss import ARRAY_BLOCK, QGaussianSpec, sample_matrix
from qsf.rng import RngStream
from qsf.sfgrad import GradEstimatorConfig, estimate_gradient

BETAS = (0.5, 0.1, 0.02)


# ---------------------------------------------------------------------------
# gradient estimator


def _cfg(q, beta, dim=1, m=200_000):
    return GradEstimatorConfig(q=q, beta=beta, dim=dim, num_perturbations=m)


def test_estimator_constant_function_centers_on_zero():
    est = estimate_gradient(
        lambda pts: np.full(pts.shape[0], 7.0), np.zeros(2),
        _cfg(1.5, 0.1, dim=2), RngStream(11), vectorized=True,
    )
    assert np.all(np.abs(est.value) < 4.0 * est.stderr)


def test_estimator_quadratic_gaussian_kernel():
    est = estimate_gradient(
        lambda pts: pts[:, 0] ** 2, np.array([1.0]), _cfg(1.0, 0.05),
        RngStream(12), vectorized=True,
    )
    assert est.value[0] == pytest.approx(2.0, rel=0.05)
    assert abs(est.value[0] - 2.0) < 4.0 * est.stderr[0]


def test_estimator_carries_lambda_scale():
    # q=2: the estimator mean is Lambda_2 * grad = 0.5 * 2 = 1 at theta=1
    est = estimate_gradient(
        lambda pts: pts[:, 0] ** 2, np.array([1.0]), _cfg(2.0, 0.05),
        RngStream(13), vectorized=True,
    )
    assert est.value[0] == pytest.approx(lambda_q(2.0, 1) * 2.0, rel=0.15)


def test_estimator_vectorized_matches_loop():
    a = estimate_gradient(
        lambda pts: pts[:, 0] ** 2 + pts[:, 1], np.array([0.5, -0.2]),
        _cfg(0.9, 0.2, dim=2, m=512), RngStream(14), vectorized=True,
    )
    b = estimate_gradient(
        lambda p: float(p[0] ** 2 + p[1]), np.array([0.5, -0.2]),
        _cfg(0.9, 0.2, dim=2, m=512), RngStream(14), vectorized=False,
    )
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.stderr, b.stderr)


def test_estimator_q1_reduces_to_unweighted_gaussian_form():
    # with q=1 the weight is exactly 1, so the estimate must equal the plain
    # Gaussian-perturbation form computed by hand on the same stream
    theta = np.array([0.7, 1.4])
    m, beta = 4096, 0.15
    est = estimate_gradient(
        lambda pts: (pts**2).sum(axis=1), theta, _cfg(1.0, beta, dim=2, m=m),
        RngStream(16), vectorized=True,
    )
    zs = sample_matrix(RngStream(16), 1.0, m, 2)
    pts = theta[None, :] + beta * zs
    terms = zs * (((pts**2).sum(axis=1)) * 1.0 / beta)[:, None]
    assert np.array_equal(est.value, terms.sum(axis=0) / m)


def reference_estimate_gradient(f, theta, cfg, rng, vectorized):
    """The estimator as whole-array steps: weights, points and terms each
    built on all M rows at once, then summed in Kahan-compensated blocks."""
    m = cfg.num_perturbations
    zs = sample_matrix(rng, cfg.q, m, cfg.dim)
    weights = 1.0 / (1.0 - ((1.0 - cfg.q) / (3.0 - cfg.q)) * np.einsum("ij,ij->i", zs, zs))
    pts = theta[None, :] + cfg.beta * zs
    if vectorized:
        fv = np.asarray(f(pts), dtype=float)
    else:
        fv = np.empty(m)
        for i, p in enumerate(pts):
            fv[i] = f(p)
    terms = zs * (fv * weights / cfg.beta)[:, None]
    total, comp = np.zeros(cfg.dim), np.zeros(cfg.dim)
    for start in range(0, m, 65536):
        y = terms[start : start + 65536].sum(axis=0) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    value = total / m
    if not np.all(np.isfinite(value)):
        raise ConvergenceError(f"non-finite gradient accumulation: {value!r}")
    return value, terms.std(axis=0) / math.sqrt(m)


def noisy_quadratic(seed, vectorized):
    """|x|^2 plus noise from a generator of its own, seeded by ``seed``."""
    noise = np.random.default_rng(seed)
    if vectorized:
        return lambda pts: np.einsum("ij,ij->i", pts, pts) + noise.standard_normal(len(pts))
    return lambda p: float(p @ p) + noise.random()


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.2])
def test_blocked_estimator_equals_whole_array_reference(q, dim, vectorized):
    # three 65,536-row blocks and a partial fourth
    cfg = _cfg(q, 0.3, dim=dim, m=3 * ARRAY_BLOCK + 123)
    theta = np.array([0.4, -1.1, 2.0])[:dim]
    sid = int(10 * q) + 100 * dim
    est = estimate_gradient(noisy_quadratic(17, vectorized), theta, cfg, RngStream(18, sid),
                            vectorized=vectorized)
    value, stderr = reference_estimate_gradient(noisy_quadratic(17, vectorized), theta, cfg,
                                                RngStream(18, sid), vectorized)
    assert est.value.tobytes() == value.tobytes()
    assert est.stderr.tobytes() == stderr.tobytes()


def test_estimator_memory_peak():
    # tracemalloc sees NumPy's buffers: at its peak the estimate holds the
    # perturbations, the points and the costs, the one output of f, which
    # is 2.25 times the perturbations in dim 4, whatever the allocator does,
    # plus one block's temporaries
    m, dim = 2**18, 4
    size = m * dim * 8
    f = lambda pts: np.einsum("ij,ij->i", pts, pts)
    for q in (0.5, 1.0, 1.5):
        tracemalloc.start()
        try:
            estimate_gradient(f, np.ones(dim), _cfg(q, 0.5, dim=dim, m=m), RngStream(19),
                              vectorized=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.4 * size, (q, peak / size)


# ---------------------------------------------------------------------------
# smoothed gradient by quadrature


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
def test_smoothed_gradient_quadratic_identity(q):
    # for a quadratic cost the scaled smoothed gradient equals
    # Lambda_q * grad exactly, at any smoothing width
    f = lambda t: (t - 1.0) ** 2
    for theta, beta in ((2.0, 0.1), (0.3, 0.5)):
        d = smoothed_gradient_1d(f, theta, q, beta)
        assert (3.0 - q) / 2.0 * d == pytest.approx(
            lambda_q(q, 1) * 2.0 * (theta - 1.0), rel=1e-8
        )


def test_smoothed_gradient_constant_is_zero():
    assert smoothed_gradient_1d(lambda t: 3.3, 0.7, 1.5, 0.2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# escort-reweighting identity


def test_escort_identity_trivial():
    lhs, rhs = escort_identity_check(lambda x: 1.0, 0.5)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("q", [0.5, 2.0])
@pytest.mark.parametrize("power", [2, 4])
def test_escort_identity_monomials(q, power):
    f = lambda x: x**power
    if q == 2.0 and power == 4:
        # both defining integrals have non-integrable tails here
        with pytest.raises(QuadratureError):
            escort_identity_check(f, q)
        return
    lhs, rhs = escort_identity_check(f, q)
    assert abs(lhs - rhs) < 1e-4
    if power == 2:
        assert lhs == pytest.approx(1.0, abs=1e-6)  # unit q-variance
    else:
        # independent oracle for the escort fourth moment
        oracle = q_expectation(f, QGaussianSpec(q))
        assert lhs == pytest.approx(oracle, rel=1e-8)


def test_escort_identity_dim2():
    lhs, rhs = escort_identity_check(lambda v: float(v @ v), 1.5, dim=2)
    assert abs(lhs - rhs) < 1e-4
    assert lhs == pytest.approx(3.0, rel=1e-5)  # Beta-function oracle value


# ---------------------------------------------------------------------------
# kernel property verification


def test_kernel_report_passes_heavy_tail():
    report = verify_kernel_properties(1.5, BETAS)
    assert report.passed
    assert len(report.checks) == 5
    assert report.check("P1-scale-identity").discrepancy <= 1e-12
    assert report.check("P3-unit-mass").discrepancy <= 1e-6
    assert report.check("P5-smoothing-limit").discrepancy < 1e-3


def test_kernel_report_detects_cutoff():
    report = verify_kernel_properties(0.5, BETAS)
    assert report.passed
    p2 = report.check("P2-piecewise-differentiable")
    assert p2.detail["cutoff_detected"]
    assert p2.detail["zero_outside"]
    assert p2.detail["cutoff_radius_std"] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_kernel_report_gaussian_baseline():
    report = verify_kernel_properties(1.0, BETAS)
    assert report.passed
    # Gaussian smoothing of cos has the closed form exp(-beta^2/2)
    errs = report.check("P5-smoothing-limit").detail["errors"]
    for beta, err in zip(BETAS, errs):
        assert err == pytest.approx(1.0 - math.exp(-beta * beta / 2.0), rel=1e-6)


def test_kernel_report_serializes():
    report = verify_kernel_properties(0.9, (0.5, 0.1))
    d = report.to_dict()
    assert d["q"] == 0.9
    assert len(d["properties"]) == 5
    import json

    json.dumps(d)


def test_kernel_report_validates_inputs():
    with pytest.raises(ValueError):
        verify_kernel_properties(1.5, (0.1, 0.5))  # not decreasing
    with pytest.raises(ValueError):
        verify_kernel_properties(3.2, (0.5, 0.1))
    with pytest.raises(ValueError):
        KernelPropertyReport(q=1.5, betas=(0.1,), checks=())


# ---------------------------------------------------------------------------
# smoothing-bias rate


@pytest.mark.parametrize("q", [0.5, 1.2])
def test_bias_vanishes_for_quadratic_cost(q):
    # the expansion's odd terms drop by symmetry and the quadratic has no
    # higher derivatives, so the scaled estimate is exact at every beta
    a, b = 1.3, -0.7
    f = lambda t: a * t * t + b * t
    lam = lambda_q(q, 1)
    theta = 0.8
    for beta in (0.2, 0.1, 0.05):
        est = (3.0 - q) / 2.0 * smoothed_gradient_1d(f, theta, q, beta) / lam
        assert abs(est - (2.0 * a * theta + b)) < 1e-8


@pytest.mark.parametrize("q", [0.5, 1.2])
def test_bias_rate_for_quartic_cost(q):
    # first nonvanishing bias term is beta^2 * 4 theta <z^4>_q, so the
    # log-log slope over a halving beta sequence is 2
    f = lambda t: t**4
    lam = lambda_q(q, 1)
    theta = 1.0
    betas = (0.2, 0.1, 0.05)
    biases = [
        abs((3.0 - q) / 2.0 * smoothed_gradient_1d(f, theta, q, b) / lam - 4.0)
        for b in betas
    ]
    assert biases[0] > biases[1] > biases[2]
    slope = math.log(biases[0] / biases[2]) / math.log(betas[0] / betas[2])
    assert slope >= 1.5
    z4 = q_expectation(lambda z: z**4, QGaussianSpec(q))
    for beta, bias in zip(betas, biases):
        assert bias == pytest.approx(4.0 * theta * beta * beta * z4, rel=1e-6)


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        GradEstimatorConfig(q=3.0, beta=0.1, dim=1, num_perturbations=10)
    with pytest.raises(ValueError):
        GradEstimatorConfig(q=1.0, beta=-0.1, dim=1, num_perturbations=10)
    with pytest.raises(ValueError):
        GradEstimatorConfig(q=1.0, beta=0.1, dim=0, num_perturbations=10)
