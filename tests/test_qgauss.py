import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from qsf import oracles, qgauss
from qsf.errors import ConvergenceError
from qsf.oracles import (
    lambda_q,
    lambda_q_mc,
    normalizing_constant,
    pdf,
    pdf_batch,
    q_expectation,
    quadrature_cdf,
    radial_integral,
    tsallis_entropy,
)
from qsf.qgauss import (
    BALL,
    FULL_SPACE,
    QGaussianSpec,
    cutoff_radius,
    max_normalizable_q,
    q_log,
    sample_batch,
    sample_matrix,
    sample_scalar,
    sample_vector,
    sample_vectors,
    support,
)
from qsf.harness import PAPER_Q_GRID
from qsf.rng import RngStream

Q_GRID = (0.0, 0.5, 0.9, 1.5, 2.0, 2.5)

q_strategy = st.floats(min_value=-2.0, max_value=2.99, allow_nan=False)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_constant(q: float, dim: int) -> float:
    """Normalization by radial quadrature of the unnormalized density."""
    def g(s):
        br = 1.0 - ((1.0 - q) / (3.0 - q)) * s * s
        return br ** (1.0 / (1.0 - q)) if br > 0.0 else 0.0

    r_max = math.sqrt((3.0 - q) / (1.0 - q)) if q < 1.0 else math.inf
    return radial_integral(g, dim, r_max)


def oracle_moment(q: float, k: int) -> float:
    """Ordinary k-th moment of the standard univariate density by quadrature."""
    spec = QGaussianSpec(q)
    lo = -cutoff_radius(q) if q < 1.0 else -math.inf
    hi = -lo
    val, _ = integrate.quad(lambda x: x**k * pdf(x, spec), lo, hi, limit=400)
    return val


# ---------------------------------------------------------------------------
# q_log


@given(q=q_strategy)
@settings(max_examples=50, deadline=None)
def test_q_log_at_one_is_zero(q):
    assert q_log(1.0, q) == pytest.approx(0.0, abs=1e-12)


def test_q_log_examples():
    assert q_log(math.e, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert q_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)  # (2^-1 - 1)/(-1)
    assert q_log(0.5, 1.0) == pytest.approx(math.log(0.5), abs=1e-15)


@given(x=st.floats(min_value=-100.0, max_value=0.0, allow_nan=False))
@settings(max_examples=10, deadline=None)
def test_q_log_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        q_log(x, 1.3)


def test_q_log_rejects_zero():
    with pytest.raises(ValueError):
        q_log(0.0, 0.5)


# ---------------------------------------------------------------------------
# support


def test_support_examples():
    ball = support(QGaussianSpec(0.0, 1.0))
    assert ball.kind == BALL
    assert ball.radius == pytest.approx(math.sqrt(3.0), rel=1e-15)

    assert support(QGaussianSpec(1.5, 1.0)).kind == FULL_SPACE
    assert support(QGaussianSpec(1.0, 1.0)).kind == FULL_SPACE

    wide = support(QGaussianSpec(0.5, 2.0))
    assert wide.radius == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)
    # density vanishes just outside the computed radius
    assert pdf(wide.radius + 1e-9, QGaussianSpec(0.5, 2.0)) == 0.0
    assert pdf(wide.radius - 1e-4, QGaussianSpec(0.5, 2.0)) > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        QGaussianSpec(3.0)
    with pytest.raises(ValueError):
        QGaussianSpec(1.5, beta=0.0)
    with pytest.raises(ValueError):
        QGaussianSpec(1.5, dim=0)
    with pytest.raises(ValueError):
        QGaussianSpec(1.5, dim=2, mu=np.zeros(3))


# ---------------------------------------------------------------------------
# normalizing constant


def test_constant_gaussian_limit():
    assert normalizing_constant(1.0, 1) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-15)


def test_constant_cauchy_case():
    # q=2, beta=1 is the standard Cauchy density, so the constant is pi;
    # cross-checked against the quadrature oracle.
    assert normalizing_constant(2.0, 1) == pytest.approx(math.pi, rel=1e-12)
    assert normalizing_constant(2.0, 1) == pytest.approx(oracle_constant(2.0, 1), rel=1e-10)


def test_constant_compact_case():
    assert normalizing_constant(0.0, 1) == pytest.approx(4.0 * math.sqrt(3.0) / 3.0, rel=1e-14)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.999, 1.001, 1.2, 1.5, 2.0, 2.5, 2.9])
@pytest.mark.parametrize("dim", [1, 2, 4])
def test_constant_matches_quadrature(q, dim):
    if q > 1.0 and q >= max_normalizable_q(dim):
        with pytest.raises(ValueError):
            normalizing_constant(q, dim)
        return
    assert normalizing_constant(q, dim) == pytest.approx(oracle_constant(q, dim), rel=1e-8)


def test_constant_rejects_q_at_least_three():
    with pytest.raises(ValueError):
        normalizing_constant(3.0, 1)
    with pytest.raises(ValueError):
        normalizing_constant(3.5, 2)


# ---------------------------------------------------------------------------
# pdf


def test_pdf_examples():
    assert pdf(0.0, QGaussianSpec(2.0)) == pytest.approx(1.0 / oracle_constant(2.0, 1), rel=1e-10)
    assert pdf(2.0, QGaussianSpec(0.0)) == 0.0  # 2 > sqrt(3): cutoff
    assert pdf(0.0, QGaussianSpec(1.0)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_pdf_dimension_mismatch():
    with pytest.raises(ValueError):
        pdf(np.zeros(3), QGaussianSpec(1.5, dim=2))


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_normalization_grid(q, beta, dim):
    if q > 1.0 and q >= max_normalizable_q(dim):
        pytest.skip("density not integrable for this (q, dim)")
    spec = QGaussianSpec(q, beta, dim)
    r_max = cutoff_radius(q, beta) if q < 1.0 else math.inf
    mass = radial_integral(
        lambda r: pdf(np.concatenate([[r], np.zeros(dim - 1)]), spec), dim, r_max
    )
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_cutoff_exact_zero(q):
    spec = QGaussianSpec(q)
    r = cutoff_radius(q)
    # math.nextafter(r, inf) is the first float at or beyond the true radius
    for x in (math.nextafter(r, math.inf), r + 1e-12, 2.0 * r, 10.0 * r):
        assert pdf(x, spec) == 0.0
        assert pdf(-x, spec) == 0.0
    assert pdf(0.999 * r, spec) > 0.0


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5])
def test_full_space_positive(q):
    spec = QGaussianSpec(q)
    xs = (0.0, 1.0, 10.0, 30.0) if q == 1.0 else (0.0, 1.0, 10.0, 100.0, 1e4)
    for x in xs:
        assert pdf(x, spec) > 0.0


@pytest.mark.parametrize("q", Q_GRID)
def test_scale_family(q):
    std = QGaussianSpec(q)
    edge = cutoff_radius(q) if q < 1.0 else 6.0
    zs = np.linspace(-0.95, 0.95, 21) * edge
    for beta in (0.1, 0.7, 2.3):
        spec = QGaussianSpec(q, beta)
        for z in zs:
            lhs = pdf(beta * z, spec)
            rhs = pdf(z, std) / beta
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gaussian_continuity_in_q():
    xs = np.linspace(-6.0, 6.0, 301)
    exact = pdf_batch(xs, QGaussianSpec(1.0))
    for q in (1.0 - 1e-4, 1.0 + 1e-4):
        vals = pdf_batch(xs, QGaussianSpec(q))
        assert np.max(np.abs(vals - exact)) < 1e-3


# ---------------------------------------------------------------------------
# sampling


def test_sampler_determinism():
    a = sample_batch(RngStream(5, 17), 1.5, 1000)
    b = sample_batch(RngStream(5, 17), 1.5, 1000)
    assert np.array_equal(a, b)
    c = sample_batch(RngStream(5, 18), 1.5, 1000)
    assert not np.array_equal(a, c)


def test_sample_scalar_is_single_batch_draw():
    x = sample_scalar(RngStream(5, 17), 0.5)
    assert isinstance(x, float)
    assert x == sample_batch(RngStream(5, 17), 0.5, 1)[0]


class ScriptedUniforms:
    """Stand-in stream whose random_array calls return the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = [np.asarray(a, dtype=float) for a in arrays]

    def random_array(self, n):
        out = self.arrays.pop(0)
        assert out.shape == (n,)
        return out


def test_boundary_draws_are_redrawn_in_place():
    # u1 -> 0 with cos(2 pi u2) = -1 lands on the q = 0 support radius sqrt(3)
    radius = qgauss.cutoff_radius(0.0)
    rng = ScriptedUniforms([0.3, 1e-300, 0.7], [0.1, 0.5, 0.9], [0.4], [0.2])
    z = sample_batch(rng, 0.0, 3)
    assert not rng.arrays
    first = sample_batch(ScriptedUniforms([0.3, 0.7], [0.1, 0.9]), 0.0, 2)
    redraw = sample_batch(ScriptedUniforms([0.4], [0.2]), 0.0, 1)
    assert np.array_equal(z, [first[0], redraw[0], first[1]])
    assert np.all(np.abs(z) < radius)


def test_q_expectation_mc_signals_nonconvergence():
    # an absurd tolerance must be reported as failure, not silently returned
    with pytest.raises(ConvergenceError):
        q_expectation(
            lambda v: float(v @ v) ** 3,
            QGaussianSpec(0.5, dim=3),
            rng=RngStream(404),
            num_samples=2000,
            mc_tol=1e-8,
        )


def test_sample_vector_matches_batch_distribution():
    rng = RngStream(7)
    v = sample_vector(rng, 0.5, 6)
    assert v.shape == (6,)
    m = sample_matrix(RngStream(7), 0.5, 3, 2)
    assert m.shape == (3, 2)
    assert np.array_equal(m.ravel(), sample_batch(RngStream(7), 0.5, 6))


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_sampler_respects_cutoff(q):
    z = sample_batch(RngStream(21, int(q * 10)), q, 200000)
    assert np.all(np.abs(z) < cutoff_radius(q))


def test_sampler_gaussian_limit_is_box_muller():
    # at q=1 the transform must be classical Box-Muller on the same uniforms
    rng = RngStream(31)
    u1 = rng.random_array(5000)
    u2 = rng.random_array(5000)
    expected = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    got = sample_batch(RngStream(31), 1.0, 5000)
    assert np.allclose(got, expected, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.5])
def test_sampler_ks_against_quadrature_cdf(q):
    z = sample_batch(RngStream(77, int(10 * q)), q, 100000)
    res = stats.kstest(z, quadrature_cdf(QGaussianSpec(q)))
    assert res.pvalue > 0.01


def test_sampler_ordinary_variance_heavy_tail():
    # second moment of the q=1.5 density is (3-q)/(5-3q) = 3; oracle by quadrature
    target = oracle_moment(1.5, 2)
    assert target == pytest.approx(3.0, rel=1e-9)
    z = sample_batch(RngStream(13), 1.5, 1_000_000)
    assert np.var(z) == pytest.approx(target, rel=0.10)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0])
def test_sampler_escort_moments(q):
    z = sample_batch(RngStream(101, int(10 * q)), q, 300000)
    w = oracles.escort_weight_batch(z, q)
    mean_q = float(np.sum(z * w) / np.sum(w))
    second_q = float(np.sum(z * z * w) / np.sum(w))
    se_mean = np.std(z * w) / np.sum(w) * math.sqrt(len(z))  # rough scale
    assert abs(mean_q) < 3.0 * max(se_mean, 1e-3)
    assert second_q == pytest.approx(1.0, rel=0.05)


def test_sample_vector_components_uncorrelated():
    m = sample_matrix(RngStream(55), 1.5, 250000, 4)
    corr = np.corrcoef(m.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.01


def test_sample_vector_gaussian_components_normal():
    m = sample_matrix(RngStream(56), 1.0, 20000, 4)
    for j in range(4):
        assert stats.kstest(m[:, j], stats.norm.cdf).pvalue > 0.01


def assert_rows_match_sample_vector(make_stream, q, dim, blocks):
    """The first ``blocks`` items of sample_vectors equal as many successive
    sample_vector calls on an identical stream, bit for bit."""
    rows = sample_vectors(make_stream(), q, dim)
    single = make_stream()
    for n in range(blocks):
        got, want = next(rows), sample_vector(single, q, dim)
        assert got.shape == (dim,)
        assert got.tobytes() == want.tobytes(), (q, dim, n)


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("q", PAPER_Q_GRID)
def test_sample_vectors_equal_successive_sample_vector_calls(q, dim):
    # 300 blocks span four chunks of 64 and part of a fifth
    assert_rows_match_sample_vector(lambda: RngStream(61, 7), q, dim, 300)


def test_sample_vectors_past_the_chunk_cap():
    # 3200 blocks: fifty chunks of 64
    assert_rows_match_sample_vector(lambda: RngStream(62), 0.5, 4, 3200)


def scripted_head(values, seed=63):
    """A stream whose next draws are ``values``, then its own sequence."""
    s = RngStream(seed)
    s.unread(np.asarray(values, dtype=float))
    return s


def raw_blocks(blocks, dim, seed=64):
    """Uniforms for ``blocks`` blocks, laid out as sample_vector reads them."""
    return np.random.default_rng(seed).uniform(0.05, 0.95, (blocks, 2, dim))


@pytest.mark.parametrize("dim,where", [(4, (5, 0, 2)), (4, (9, 1, 0)), (1, (3, 0, 0))])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_sample_vectors_exact_zero_mid_chunk(q, dim, where):
    # an exact zero in u1 (index 0) or u2 (index 1) of one block: that block
    # takes the skip-the-zero path of sample_vector, and the chunk restarts after it
    raw = raw_blocks(40, dim)
    raw[where] = 0.0
    head = raw.ravel()
    assert_rows_match_sample_vector(lambda: scripted_head(head), q, dim, 60)


@pytest.mark.parametrize("dim", [1, 4])
def test_sample_vectors_boundary_redraw_mid_chunk(dim):
    # u1 = 1e-300, u2 = 0.5 at q = 0.5 give |z| = sqrt(5), the support radius
    q, k, j = 0.5, 6, dim - 1
    raw = raw_blocks(40, dim)
    raw[k, 0, j], raw[k, 1, j] = 1e-300, 0.5
    radius = cutoff_radius(q)
    z_edge = qgauss._box_muller_transform(raw[k, 0], raw[k, 1], (1.0 + q) / (3.0 - q))
    assert radius - abs(z_edge[j]) < qgauss.BOUNDARY_MARGIN
    head = raw.ravel()
    assert_rows_match_sample_vector(lambda: scripted_head(head), q, dim, 60)
    rows = sample_vectors(scripted_head(head), q, dim)
    got = [next(rows) for _ in range(k + 1)]
    assert np.all(np.abs(got[k]) < radius - qgauss.BOUNDARY_MARGIN)
    assert got[k][j] != z_edge[j]  # redrawn


def test_quadrature_cdf_matches_student_t():
    # the q > 1 family coincides with a unit-scale Student-t with
    # nu = (3-q)/(q-1) degrees of freedom; q=1.5 gives nu=3
    cdf = quadrature_cdf(QGaussianSpec(1.5))
    xs = np.array([-8.0, -2.0, -0.5, 0.0, 0.3, 1.7, 12.0])
    assert np.allclose(cdf(xs), stats.t(df=3).cdf(xs), atol=5e-9)


def test_quadrature_cdf_matches_normal_at_q1():
    cdf = quadrature_cdf(QGaussianSpec(1.0))
    xs = np.linspace(-5, 5, 41)
    assert np.allclose(cdf(xs), stats.norm.cdf(xs), atol=5e-9)


# ---------------------------------------------------------------------------
# q-expectation, entropy, lambda


def test_q_expectation_constant():
    assert q_expectation(lambda x: 1.0, QGaussianSpec(0.5)) == pytest.approx(1.0, abs=1e-9)
    assert q_expectation(lambda x: 1.0, QGaussianSpec(2.0)) == pytest.approx(1.0, abs=1e-9)


def test_q_expectation_mean_and_qvariance():
    assert q_expectation(lambda x: x, QGaussianSpec(1.5)) == pytest.approx(0.0, abs=1e-9)
    assert q_expectation(lambda x: x * x, QGaussianSpec(0.5)) == pytest.approx(1.0, abs=1e-8)
    # the width parameter is the q-standard-deviation
    assert q_expectation(lambda x: x * x, QGaussianSpec(0.5, beta=2.0)) == pytest.approx(
        4.0, rel=1e-8
    )


def test_q_expectation_dim2():
    # Oracle: radial quadrature of the escort moment of the 2-variate density.
    # Note the joint bivariate form does not have unit per-component
    # q-variance; the Beta-function reduction gives 3.0 for q=1.5.
    def escort(s):
        return pdf(np.array([s, 0.0]), QGaussianSpec(1.5, dim=2)) ** 1.5

    num = radial_integral(lambda s: s * s * escort(s), 2, math.inf)
    den = radial_integral(escort, 2, math.inf)
    oracle = num / den
    assert oracle == pytest.approx(3.0, rel=1e-9)
    val = q_expectation(lambda v: float(v @ v), QGaussianSpec(1.5, dim=2))
    assert val == pytest.approx(oracle, rel=1e-6)


def test_q_expectation_mc_path():
    val = q_expectation(
        lambda v: float(v @ v),
        QGaussianSpec(0.5, dim=3),
        rng=RngStream(202),
        num_samples=400000,
    )
    assert val == pytest.approx(3.0, rel=0.02)


def test_q_expectation_mc_requires_rng():
    with pytest.raises(ValueError):
        q_expectation(lambda v: 1.0, QGaussianSpec(0.5, dim=3))


def test_tsallis_entropy_values():
    # Shannon limit: differential entropy of the standard normal
    assert tsallis_entropy(QGaussianSpec(1.0)) == pytest.approx(
        0.5 * math.log(2.0 * math.pi * math.e), rel=1e-9
    )
    # q=2: 1 - integral of the squared Cauchy density, oracle by quadrature
    sq_mass, _ = integrate.quad(lambda x: pdf(x, QGaussianSpec(2.0)) ** 2, -np.inf, np.inf)
    assert sq_mass == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)
    assert tsallis_entropy(QGaussianSpec(2.0)) == pytest.approx(1.0 - sq_mass, rel=1e-9)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_tsallis_entropy_increases_with_width(q):
    vals = [tsallis_entropy(QGaussianSpec(q, beta)) for beta in (0.5, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_lambda_q_values():
    assert lambda_q(1.0, 1) == 1.0
    assert lambda_q(1.0, 7) == 1.0
    assert lambda_q(2.0, 1) == pytest.approx(0.5, rel=1e-10)
    assert lambda_q(0.5, 1) == pytest.approx(1.25, rel=1e-10)
    assert lambda_q(0.5, 1) > 1.0
    assert lambda_q(2.5, 1) < 1.0


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.2, 1.5, 2.0, 2.5])
def test_lambda_q_univariate_closed_form(q):
    # Gamma-function reduction of the defining integral gives (3-q)/2 for dim 1
    assert lambda_q(q, 1) == pytest.approx((3.0 - q) / 2.0, rel=1e-9)


@pytest.mark.parametrize("q,dim", [(0.5, 2), (0.5, 4), (1.5, 2), (0.9, 3)])
def test_lambda_q_multivariate_closed_form(q, dim):
    assert lambda_q(q, dim) == pytest.approx(1.0 - dim * (q - 1.0) / 2.0, rel=1e-9)


def test_lambda_q_rejects_nonintegrable_dim():
    with pytest.raises(ValueError):
        lambda_q(2.0, 2)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 2.5])
def test_lambda_q_mc_agrees_with_quadrature(q):
    est, se = lambda_q_mc(q, RngStream(303, int(10 * q)), num_samples=300000)
    assert abs(est - lambda_q(q, 1)) < 3.0 * se
