import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from qsf.errors import ConvergenceError, QuadratureError
from qsf.oracles import (
    escort_identity_check,
    lambda_q,
    q_expectation,
    smoothed_gradient_1d,
    verify_kernel_properties,
)
from qsf.qgauss import QGaussianSpec, sample_matrix, squared_norm, weight_base
from qsf.rng import RngStream
from qsf.sfgrad import BLOCK_ROWS, GradEstimatorConfig, estimate_gradient
from test_qgauss import BAD_BETA, BAD_DIM, BAD_Q

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
    # q=2: the estimator mean is Lambda_2 * grad = 0.5 * 2 = 1 at theta=1.
    # The cost is 2x, not x^2: under the dim-1 Cauchy kernel the x^2 term
    # beta * z^3 * w ~ beta * z has no mean, while z * w and z^2 * w are
    # bounded (by 1/2 and 1), and a linear cost has no smoothing bias.
    est = estimate_gradient(
        lambda pts: 2.0 * pts[:, 0], np.array([1.0]), _cfg(2.0, 0.05),
        RngStream(13), vectorized=True,
    )
    assert est.value[0] == pytest.approx(lambda_q(2.0, 1) * 2.0, rel=0.15)


def exact_target_cases():
    """(cost, dim, q) of the exact-target matrix: each q below 1 + 2/dim, and
    for the quadratic cost below 1 + 2/(dim + 2), where its terms have a
    variance."""
    cases = []
    for dim in (1, 2, 4, 8):
        qs = sorted({0.1, 0.5, 0.9, 1.0, 1.1, 1.0 + 1.0 / dim, 1.0 + 2.0 / (dim + 1)})
        for q in qs:
            if q < 1.0 + 2.0 / dim:
                cases.append(("linear", dim, q))
            if q < 1.0 + 2.0 / (dim + 2):
                cases.append(("quadratic", dim, q))
    return cases


@pytest.mark.parametrize("cost,dim,q", [pytest.param(*c, id=f"{c[0]}-{c[1]}-{c[2]:.4g}")
                                        for c in exact_target_cases()])
def test_estimator_hits_the_exact_target(cost, dim, q):
    # E[w eta eta^T] = ((3-q)/2) I for the joint law, so a linear cost a.x
    # has the exact mean ((3-q)/2) a at every beta, and |x|^2, whose
    # smoothed gradient is 2 theta, the exact mean (3-q) theta
    theta = np.full(dim, 0.5)
    a = np.array([(-1.0) ** i * (1 + i) for i in range(dim)])
    if cost == "linear":
        f, target = (lambda pts: pts @ a), (3.0 - q) / 2.0 * a
    else:
        f, target = (lambda pts: np.einsum("ij,ij->i", pts, pts)), (3.0 - q) * theta
    est = estimate_gradient(f, theta, _cfg(q, 0.1, dim=dim), RngStream(25, dim * 100 + int(100 * q)),
                            vectorized=True)
    assert np.all(np.abs(est.value - target) <= 4.5 * est.stderr), (est.value - target) / est.stderr


@pytest.mark.parametrize("q", [0.5, 0.9, 1.2, 1.4])
def test_weighted_second_moment_is_scaled_identity(q):
    # the integration by parts behind the estimator's (3-q)/2 scale
    dim, m = 4, 200_000
    eta = sample_matrix(RngStream(26, int(10 * q)), q, m, dim)
    w = 1.0 / weight_base(np.einsum("ij,ij->i", eta, eta), q)
    prods = w[:, None, None] * eta[:, :, None] * eta[:, None, :]
    mean, se = prods.mean(axis=0), prods.std(axis=0) / math.sqrt(m)
    assert np.all(np.abs(mean - (3.0 - q) / 2.0 * np.eye(dim)) <= 4.0 * se)


def test_estimator_refuses_rows_past_double_range_before_calling_f():
    # at q = 2.98 in dim 1 (its limit is 3) about 2.7% of the Gamma variates
    # underflow, which would make the row infinite: a named error, no warning
    calls = []
    rng = RngStream(27)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=r"q=2\.98 in dim 1: \d+ of 8192 rows have a Gamma"):
            estimate_gradient(lambda pts: calls.append(pts) or pts[:, 0], np.zeros(1),
                              _cfg(2.98, 0.1), rng, vectorized=True)
    assert calls == []


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


def blocked_draws(rng, q, m, dim):
    """The estimator's M perturbations: one sample_matrix call per block of
    BLOCK_ROWS rows, the last one short."""
    return np.vstack([sample_matrix(rng, q, min(BLOCK_ROWS, m - s), dim)
                      for s in range(0, m, BLOCK_ROWS)])


def reference_terms(f, theta, cfg, rng, vectorized):
    """The estimator's M terms as whole-array steps: weights, points and
    terms each built on all M rows of the blocked draws at once."""
    m = cfg.num_perturbations
    zs = blocked_draws(rng, cfg.q, m, cfg.dim)
    weights = 1.0 / (1.0 - ((1.0 - cfg.q) / (3.0 - cfg.q)) * squared_norm(zs))
    pts = theta[None, :] + cfg.beta * zs
    if vectorized:
        fv = np.asarray(f(pts), dtype=float)
    else:
        fv = np.empty(m)
        for i, p in enumerate(pts):
            fv[i] = f(p)
    return zs * (fv * weights / cfg.beta)[:, None]


def reference_estimate_gradient(f, theta, cfg, rng, vectorized):
    """The whole-array terms' mean and standard error, merged from the
    moments of each BLOCK_ROWS-row block in turn (Chan, Golub & LeVeque).
    Each block's sums run over each component's terms held contiguously,
    in NumPy's pairwise order, as the estimator's dim-major blocks sum."""
    terms = reference_terms(f, theta, cfg, rng, vectorized)
    m = len(terms)
    mean = np.zeros(cfg.dim)
    m2 = np.zeros(cfg.dim)
    for n in range(0, m, BLOCK_ROWS):
        block = np.ascontiguousarray(terms[n : n + BLOCK_ROWS].T)  # (dim, rows)
        rows = block.shape[1]
        block_mean = block.sum(axis=1) / rows
        if not np.all(np.isfinite(block_mean)):
            raise ConvergenceError(f"non-finite gradient accumulation: {block_mean!r}")
        dev = block - block_mean[:, None]
        share = rows / (n + rows)
        delta = block_mean - mean
        mean = mean + delta * share
        m2 = m2 + ((dev * dev).sum(axis=1) + delta * delta * (n * share))
    return mean, np.sqrt(m2 / m) / math.sqrt(m)


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
    # three full blocks and a partial fourth
    cfg = _cfg(q, 0.3, dim=dim, m=3 * BLOCK_ROWS + 123)
    theta = np.array([0.4, -1.1, 2.0])[:dim]
    sid = int(10 * q) + 100 * dim
    est = estimate_gradient(noisy_quadratic(17, vectorized), theta, cfg, RngStream(18, sid),
                            vectorized=vectorized)
    value, stderr = reference_estimate_gradient(noisy_quadratic(17, vectorized), theta, cfg,
                                                RngStream(18, sid), vectorized)
    assert est.value.tobytes() == value.tobytes()
    assert est.stderr.tobytes() == stderr.tobytes()


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("m", [BLOCK_ROWS - 1000, 2 * BLOCK_ROWS, 3 * BLOCK_ROWS + 123])
def test_merged_moments_match_two_pass_moments(m, dim, offset):
    # the block merge against NumPy's two passes over all M terms; with a
    # large offset in the cost each term is about 10^6 times the mean, so
    # the sums that form the mean cancel heavily
    cfg = _cfg(1.2, 0.3, dim=dim, m=m)
    theta = np.array([0.4, -1.1, 2.0])[:dim]
    f = lambda pts: offset + np.einsum("ij,ij->i", pts, pts)
    est = estimate_gradient(f, theta, cfg, RngStream(22, dim), vectorized=True)
    terms = reference_terms(f, theta, cfg, RngStream(22, dim), True)
    stderr = terms.std(axis=0) / math.sqrt(m)
    assert np.all(np.abs(est.value - terms.mean(axis=0)) <= 1e-11 * stderr)
    assert np.all(np.abs(est.stderr / stderr - 1.0) <= 1e-12)


@pytest.mark.parametrize("theta", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_estimator_refuses_a_non_finite_theta_before_drawing(theta):
    calls = []
    rng = RngStream(23)
    with pytest.raises(ValueError, match=re.escape(f"theta must be finite, got {np.array(theta)!r}")):
        estimate_gradient(lambda pts: calls.append(pts) or np.zeros(len(pts)), theta,
                          _cfg(1.0, 0.1, dim=2, m=1000), rng, vectorized=True)
    assert calls == []
    assert rng.random() == RngStream(23).random()


def test_estimator_stops_at_a_block_with_a_non_finite_term():
    # one infinite cost in the second block: it raises there, before the
    # third block is evaluated and before inf - inf can warn
    seen = []

    def f(pts):
        seen.append(len(pts))
        fv = np.einsum("ij,ij->i", pts, pts)
        if len(seen) == 2:
            fv[2] = np.inf
        return fv

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="non-finite gradient accumulation"):
            estimate_gradient(f, np.zeros(2), _cfg(1.0, 0.1, dim=2, m=3 * BLOCK_ROWS),
                              RngStream(24), vectorized=True)
    assert seen == [BLOCK_ROWS, BLOCK_ROWS]


@pytest.mark.parametrize("vectorized", [True, False])
def test_estimator_evaluates_each_point_once_in_row_order(vectorized):
    # f is called block by block: across the block edges it sees every one
    # of the M points theta + beta z once, in row order
    m, dim, beta = 2 * BLOCK_ROWS + 5, 2, 0.3
    theta = np.array([0.4, -1.1])
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.einsum("ij,ij->i", x, x) if vectorized else float(x @ x)

    estimate_gradient(f, theta, _cfg(1.2, beta, dim=dim, m=m), RngStream(21), vectorized=vectorized)
    want = beta * blocked_draws(RngStream(21), 1.2, m, dim) + theta
    if vectorized:
        assert [len(x) for x in seen] == [BLOCK_ROWS, BLOCK_ROWS, 5]
    assert np.vstack(seen).tobytes() == want.tobytes()


def test_estimator_memory_peak():
    # tracemalloc sees NumPy's buffers: the sampler and the weights work in
    # place, so at its peak the estimate holds one block's draws, points and
    # costs, 2.26 blocks of BLOCK_ROWS x dim values in dim 4
    # whatever the allocator does, and nothing that grows with M
    dim = 4
    block = BLOCK_ROWS * dim * 8
    f = lambda pts: np.einsum("ij,ij->i", pts, pts)
    for q in (0.5, 1.0, 1.4):
        peaks = []
        for m in (2**16, 2**20):
            tracemalloc.start()
            try:
                estimate_gradient(f, np.ones(dim), _cfg(q, 0.5, dim=dim, m=m), RngStream(19),
                                  vectorized=True)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0], (q, peaks)
        assert peaks[1] <= 3 * block, (q, peaks[1] / block)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.4])
def test_estimator_leaves_the_array_f_returns_unchanged(q):
    # a vectorized f that hands back one cached array for every block: the
    # weights are formed in arrays of the estimator's own, not in the costs
    cached = np.random.default_rng(22).uniform(1.0, 2.0, BLOCK_ROWS)
    before = cached.tobytes()
    est = estimate_gradient(lambda pts: cached, np.ones(3), _cfg(q, 0.3, dim=3, m=2 * BLOCK_ROWS),
                            RngStream(22), vectorized=True)
    assert cached.tobytes() == before
    assert np.all(np.isfinite(est.value))


RSS_PROBE = """
import numpy as np
from qsf.rng import RngStream
from qsf.sfgrad import GradEstimatorConfig, estimate_gradient

m, dim = 2**20, 4
f = lambda pts: np.einsum("ij,ij->i", pts, pts)
cfg = lambda q, n: GradEstimatorConfig(q=q, beta=0.5, dim=dim, num_perturbations=n)


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


estimate_gradient(f, np.ones(dim), cfg(1.0, 20_000), RngStream(19), vectorized=True)
base = peak_kib()
for q in (0.5, 1.0, 1.4):
    estimate_gradient(f, np.ones(dim), cfg(q, m), RngStream(19), vectorized=True)
print((peak_kib() - base) / 1024)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="bound measured with glibc malloc on Linux")
def test_estimator_rss_growth():
    # What the process takes from the system, in a fresh interpreter. It
    # reads the peak RSS of its own memory map (VmHWM, KiB), not ru_maxrss,
    # which on Linux starts from the spawning process's peak. A warm-up call
    # of more than two blocks has already taken the block-sized arrays, so
    # three calls at M = 2^20 in dim 4 should add next to nothing: 0.13 to
    # 0.17 MiB was measured with glibc, where an M-row array of the terms
    # alone would be 32 MiB.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth_mib = float(proc.stdout)
    assert growth_mib <= 4.0, growth_mib


FAULT_PROBE = """
import resource

import numpy as np
from qsf.rng import RngStream
from qsf.sfgrad import GradEstimatorConfig, estimate_gradient

dim = 4
f = lambda pts: np.einsum("ij,ij->i", pts, pts)


def faults(q, m):
    cfg = GradEstimatorConfig(q=q, beta=0.5, dim=dim, num_perturbations=m)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_gradient(f, np.ones(dim), cfg, RngStream(19), vectorized=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


for q in (0.5, 1.0, 1.4):
    faults(q, 20_000)
for q in (0.5, 1.0, 1.4):
    print(q, faults(q, 2**16), faults(q, 2**20))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/status"),
                    reason="bound measured with glibc malloc on Linux")
def test_estimator_page_faults_do_not_grow_with_m():
    # Minor page faults of one call, in a fresh interpreter after a warm-up.
    # The blocks are drawn into one buffer per call, so a call at M = 2^20
    # takes no more faults than one at 2^16 (96 each were measured with
    # glibc). Drawing each block into an array of its own, which glibc hands
    # back to the system when the block ends, took 12,288 at 2^20 against
    # 768 at 2^16. The bound is the 64 pages of one 256 KiB block of draws.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    for line in lines:
        q, small, big = line.split()
        assert int(big) - int(small) <= 64, (q, small, big)


@pytest.mark.parametrize("shape", [(1000, 1), (1000, 2), ()])
def test_estimator_refuses_a_vectorized_f_of_another_shape(shape):
    # a column of costs would broadcast against the weights to M x M
    f = lambda pts: np.zeros(shape)
    with pytest.raises(ValueError, match=f"shape \\(1000,\\), got {re.escape(str(shape))}"):
        estimate_gradient(f, np.zeros(2), _cfg(1.0, 0.1, dim=2, m=1000), RngStream(20),
                          vectorized=True)


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


def test_smoothed_gradient_refuses_a_bad_beta():
    for beta in BAD_BETA + (-0.1,):
        with pytest.raises(ValueError, match="beta must be"):
            smoothed_gradient_1d(lambda t: t * t, 1.0, 0.5, beta)


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
        with pytest.raises(QuadratureError, match="did not converge"):
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


@pytest.mark.parametrize(
    "f,q",
    [
        pytest.param(lambda x: x**3, 2.0, id="x^3-2.0"),
        pytest.param(lambda x: x**3 + 1.0, 2.0, id="x^3+1-2.0"),
        pytest.param(lambda x: x**5, 1.5, id="x^5-1.5"),
        pytest.param(lambda x: x**5, 2.0, id="x^5-2.0"),
        pytest.param(lambda x: abs(x) ** 3, 2.0, id="|x|^3-2.0"),
        pytest.param(lambda x: abs(x) ** 3, 2.5, id="|x|^3-2.5"),
    ],
)
def test_escort_identity_refuses_divergent_pairs(f, q):
    # more pairs like (x^4, q = 2) of test_escort_identity_monomials: a tail
    # with no finite integral makes QUADPACK warn, which the checked
    # quadrature turns into QuadratureError, so the check returns no number.
    # The escort side alone refuses too: it integrates each half-line apart,
    # where one call over the whole line lets an odd term's tails cancel.
    with pytest.raises(QuadratureError, match="did not converge"):
        escort_identity_check(f, q)
    with pytest.raises(QuadratureError, match="did not converge"):
        q_expectation(f, QGaussianSpec(q))


def test_escort_identity_dim2():
    lhs, rhs = escort_identity_check(lambda v: float(v @ v), 1.5, dim=2)
    assert abs(lhs - rhs) < 1e-4
    assert lhs == pytest.approx(3.0, rel=1e-5)  # Beta-function oracle value


# ---------------------------------------------------------------------------
# kernel property verification


def properties(report: dict) -> dict:
    """The report's property entries by name."""
    return {p["name"]: p for p in report["properties"]}


def test_kernel_report_passes_heavy_tail():
    report = verify_kernel_properties(1.5, BETAS)
    assert report["passed"]
    props = properties(report)
    assert len(props) == 5
    assert props["P1-scale-identity"]["discrepancy"] <= 1e-12
    assert props["P3-unit-mass"]["discrepancy"] <= 1e-6
    assert props["P5-smoothing-limit"]["discrepancy"] < 1e-3


def test_kernel_report_detects_cutoff():
    report = verify_kernel_properties(0.5, BETAS)
    assert report["passed"]
    p2 = properties(report)["P2-piecewise-differentiable"]
    assert p2["detail"]["cutoff_detected"]
    assert p2["detail"]["zero_outside"]
    assert p2["detail"]["cutoff_radius_std"] == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_kernel_report_gaussian_baseline():
    report = verify_kernel_properties(1.0, BETAS)
    assert report["passed"]
    # Gaussian smoothing of cos has the closed form exp(-beta^2/2)
    errs = properties(report)["P5-smoothing-limit"]["detail"]["errors"]
    for beta, err in zip(BETAS, errs):
        assert err == pytest.approx(1.0 - math.exp(-beta * beta / 2.0), rel=1e-6)
    # and its mass outside [-0.5, 0.5] is erfc(0.5 / (beta sqrt 2))
    outside = properties(report)["P4-concentration"]["detail"]["mass_outside"]
    for beta, mass in zip(BETAS, outside):
        assert mass == pytest.approx(math.erfc(0.5 / (beta * math.sqrt(2.0))), rel=1e-9, abs=1e-15)


def test_kernel_report_serializes():
    report = verify_kernel_properties(0.9, (0.5, 0.1))
    assert list(report) == ["q", "betas", "passed", "properties"]
    assert report["q"] == 0.9 and report["betas"] == [0.5, 0.1]
    assert [list(p) for p in report["properties"]] == [
        ["name", "passed", "discrepancy", "detail"]] * 5
    import json

    json.dumps(report)


def test_kernel_report_validates_inputs():
    with pytest.raises(ValueError):
        verify_kernel_properties(1.5, (0.1, 0.5))  # not decreasing
    with pytest.raises(ValueError):
        verify_kernel_properties(3.2, (0.5, 0.1))
    for q, betas in ((0.5, (math.inf, 0.1)), (0.5, (0.5, 0.0)), (-math.inf, (0.5, 0.1)), (0.5, ())):
        with pytest.raises(ValueError):
            verify_kernel_properties(q, betas)


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
    for q in BAD_Q:
        with pytest.raises(ValueError, match="q must be"):
            GradEstimatorConfig(q=q, beta=0.1, dim=1, num_perturbations=10)
    for beta in BAD_BETA + (-0.1,):
        with pytest.raises(ValueError, match="beta must be"):
            GradEstimatorConfig(q=1.0, beta=beta, dim=1, num_perturbations=10)
    # q >= 1 + 2/dim has no joint normalizer
    with pytest.raises(ValueError, match="integrable only for q < 1 \\+ 2/4"):
        GradEstimatorConfig(q=2.5, beta=1.0, dim=4, num_perturbations=10)
    for size in BAD_DIM + (math.nan,):
        with pytest.raises(ValueError, match="dim must be"):
            GradEstimatorConfig(q=1.0, beta=0.1, dim=size, num_perturbations=10)
        with pytest.raises(ValueError, match="num_perturbations must be"):
            GradEstimatorConfig(q=1.0, beta=0.1, dim=1, num_perturbations=size)
