import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from qsf import qgauss
from qsf.errors import ConvergenceError, QuadratureError
from qsf.oracles import (
    _weighted_pdf,
    cdf,
    lambda_q,
    normalizing_constant,
    pdf,
    q_expectation,
    quad_checked,
    radial_cdf,
    radial_integral,
    radial_pdf,
    tsallis_entropy,
)
from qsf.qgauss import (
    QGaussianSpec,
    max_normalizable_q,
    sample_batch,
    sample_matrix,
    sample_lanes,
    sample_vector,
    squared_norm,
)
from qsf.harness import PAPER_Q_GRID
from qsf.rng import RngStream
from helpers import (
    HeadStream,
    ScriptedGenerator,
    reference_box_muller,
    reference_lane,
    scripted_stream,
)

Q_GRID = (0.0, 0.5, 0.9, 1.5, 2.0, 2.5)

# Values that break one rule of the kernel each: q finite and < 3, beta
# finite and > 0, the dimension an integer >= 1.
BAD_Q = (3.0, math.nan, -math.inf)
BAD_BETA = (0.0, math.nan, math.inf)
BAD_DIM = (0, 2.7, True)


# ---------------------------------------------------------------------------
# independent oracles


def oracle_constant(q: float, dim: int) -> float:
    """Normalization by radial quadrature of the unnormalized density."""
    def g(s):
        br = 1.0 - ((1.0 - q) / (3.0 - q)) * s * s
        return br ** (1.0 / (1.0 - q)) if br > 0.0 else 0.0

    r_max = math.sqrt((3.0 - q) / (1.0 - q)) if q < 1.0 else math.inf
    return radial_integral(g, dim, r_max)


def escort_weight(z, q: float):
    """The estimator weight 1 / (1 - (1-q)/(3-q) z^2), per value."""
    return 1.0 / (1.0 - ((1.0 - q) / (3.0 - q)) * np.asarray(z, dtype=float) ** 2)


def oracle_moment(q: float, k: int) -> float:
    """Ordinary k-th moment of the standard univariate density by quadrature."""
    spec = QGaussianSpec(q)
    lo = -spec.radius
    hi = -lo
    val, _ = integrate.quad(lambda x: x**k * pdf(x, spec), lo, hi, limit=400)
    return val


# ---------------------------------------------------------------------------
# support


def test_support_examples():
    assert QGaussianSpec(0.0).radius == pytest.approx(math.sqrt(3.0), rel=1e-15)
    radius = QGaussianSpec(0.5, 2.0).radius
    assert radius == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)
    # the support is all of R
    assert QGaussianSpec(1.0).radius == QGaussianSpec(1.5, 2.0).radius == math.inf
    # density vanishes just outside the computed radius
    assert pdf(radius + 1e-9, QGaussianSpec(0.5, 2.0)) == 0.0
    assert pdf(radius - 1e-4, QGaussianSpec(0.5, 2.0)) > 0.0


def test_spec_validation():
    for q in BAD_Q:
        with pytest.raises(ValueError, match="q must be finite and < 3"):
            QGaussianSpec(q)
        with pytest.raises(ValueError, match="q must be finite and < 3"):
            sample_batch(RngStream(1), q, 4)
    for beta in BAD_BETA:
        with pytest.raises(ValueError, match="beta must be finite and > 0"):
            QGaussianSpec(1.5, beta=beta)
    for dim in BAD_DIM:
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            QGaussianSpec(0.5, dim=dim)
    with pytest.raises(ValueError, match="integrable only for q < 1 \\+ 2/2"):
        QGaussianSpec(2.0, dim=2)
    assert QGaussianSpec(0.5, dim=np.int64(2)).dim == 2


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
    for q in BAD_Q:
        with pytest.raises(ValueError):
            normalizing_constant(q, 1)
    with pytest.raises(ValueError):
        normalizing_constant(3.5, 2)
    for dim in BAD_DIM:
        with pytest.raises(ValueError):
            normalizing_constant(0.5, dim)


def test_constant_is_memoized_and_refusals_are_not():
    # the memo returns the computed value, and a refused (q, dim) raises on
    # every call, also right after an accepted pair that compares equal
    normalizing_constant.cache_clear()
    for q, dim in ((0.5, 1), (1.0, 4), (1.2, 4), (2.5, 1)):
        first = normalizing_constant(q, dim)
        assert first == normalizing_constant.__wrapped__(q, dim)
        hits = normalizing_constant.cache_info().hits
        assert normalizing_constant(q, dim) == first
        assert normalizing_constant.cache_info().hits == hits + 1
    for q, dim in ((0.5, True), (1.0, 4.0), (1.5, 4), (3.0, 1), (math.nan, 1)):
        for _ in range(3):
            with pytest.raises(ValueError):
                normalizing_constant(q, dim)
    assert normalizing_constant.cache_info().currsize == 4


# ---------------------------------------------------------------------------
# pdf


def test_pdf_examples():
    assert pdf(0.0, QGaussianSpec(2.0)) == pytest.approx(1.0 / oracle_constant(2.0, 1), rel=1e-10)
    assert pdf(2.0, QGaussianSpec(0.0)) == 0.0  # 2 > sqrt(3): cutoff
    assert pdf(0.0, QGaussianSpec(1.0)) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_pdf_dimension_mismatch():
    with pytest.raises(ValueError):
        pdf(np.zeros(3), QGaussianSpec(1.5, dim=2))
    with pytest.raises(ValueError):
        pdf(np.zeros((4, 3)), QGaussianSpec(1.5, dim=2))


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0, 1.2, 1.5])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pdf_vectorized_matches_per_point(q, dim):
    if q >= max_normalizable_q(dim):
        pytest.skip("density not integrable for this (q, dim)")
    spec = QGaussianSpec(q, 0.7, dim)
    pts = np.random.default_rng(11).normal(scale=2.0, size=(40, dim))
    edge = spec.radius if q < 1.0 else 50.0
    # points on an axis at the first float beyond the radius and further out
    for r in (math.nextafter(edge, math.inf), 1.5 * edge, 1e3 * edge):
        pts = np.vstack([pts, np.eye(dim)[:1] * r, -np.eye(dim)[-1:] * r])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning anywhere
        whole = pdf(pts if dim > 1 else pts[:, 0], spec)
        each = [pdf(p if dim > 1 else p[0], spec) for p in pts]
    assert whole.shape == (len(pts),)
    assert all(type(v) is float for v in each)
    assert whole.tolist() == each
    assert not np.isnan(whole).any()
    if q < 1.0:
        assert (whole[-6:] == 0.0).all() and (whole[:40] > 0.0).any()
    # dim-1 points keep any shape; in every dim the radial density agrees
    if dim == 1:
        assert np.array_equal(pdf(pts[:, 0].reshape(2, -1), spec), whole.reshape(2, -1))
    assert np.array_equal(radial_pdf((pts * pts).sum(axis=1), spec), whole)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("beta", [0.1, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_normalization_grid(q, beta, dim):
    if q > 1.0 and q >= max_normalizable_q(dim):
        pytest.skip("density not integrable for this (q, dim)")
    spec = QGaussianSpec(q, beta, dim)
    mass = radial_integral(lambda r: radial_pdf(r * r, spec), dim, spec.radius)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_cutoff_exact_zero(q):
    spec = QGaussianSpec(q)
    r = spec.radius
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
    edge = std.radius if q < 1.0 else 6.0
    zs = np.linspace(-0.95, 0.95, 21) * edge
    for beta in (0.1, 0.7, 2.3):
        spec = QGaussianSpec(q, beta)
        for z in zs:
            lhs = pdf(beta * z, spec)
            rhs = pdf(z, std) / beta
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gaussian_continuity_in_q():
    xs = np.linspace(-6.0, 6.0, 301)
    exact = pdf(xs, QGaussianSpec(1.0))
    for q in (1.0 - 1e-4, 1.0 + 1e-4):
        vals = pdf(xs, QGaussianSpec(q))
        assert np.max(np.abs(vals - exact)) < 1e-3


# ---------------------------------------------------------------------------
# sampling


def test_sampler_determinism():
    a = sample_batch(RngStream(5, 17), 1.5, 1000)
    b = sample_batch(RngStream(5, 17), 1.5, 1000)
    assert np.array_equal(a, b)
    c = sample_batch(RngStream(5, 18), 1.5, 1000)
    assert not np.array_equal(a, c)


class ScriptedUniforms:
    """Stand-in stream whose random_array calls return the given arrays in
    turn (the arrays hold no exact zero)."""

    def __init__(self, *arrays):
        self.arrays = [np.asarray(a, dtype=float) for a in arrays]

    def random_array(self, n):
        out = self.arrays.pop(0)
        assert out.shape == (n,)
        return out


# The crafted-zero tests below put exact zeros and on-radius draws on both
# sides of multiples of EDGE values, where a sampler that read its uniforms
# in blocks of that size would split them.
EDGE = 65536


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0, 1.5, 2.5])
def test_blocked_sampler_equals_whole_array_reference(q):
    # n spans three edges and a bit. Exact zeros sit on the last value of
    # u1 before its first edge and the first of u2 after its first edge. For
    # q < 1, u1 = 1e-300 with u2 = 0.5 puts |z| on the support radius on both
    # sides of the second edge, where it is kept as the reference keeps it.
    b = EDGE
    n = 3 * b + 123
    values = RngStream(65).random_array(2 * n + 12)
    # u1's zero is skipped, so u1 reads values[:n] without it, then values[n]
    u1, u2 = values[:n], values[n + 1 : 2 * n + 1]
    u1[b - 1] = 0.0
    u2[b] = 0.0  # skipped; u2 ends with values[2n + 1]
    if q < 1.0:  # indices 2b - 1 and 2b of u1 and u2 once the zeros are skipped
        u1[2 * b : 2 * b + 2] = 1e-300
        u2[2 * b : 2 * b + 2] = 0.5
    got_stream, want_stream = scripted_stream(values), scripted_stream(values)
    got = sample_batch(got_stream, q, n)
    want = reference_box_muller(want_stream, q, n)
    assert got.tobytes() == want.tobytes()
    assert got_stream._gen.values == want_stream._gen.values
    assert len(got_stream._gen.values) == 10  # two top-ups, for every q


def assert_sampler_matches_reference(q, n, values, head=()):
    """sample_batch on a stream that reads ``head``, then ``values``, equals
    reference_box_muller on the same stream, bit for bit, and leaves the
    same values unread."""
    got_stream, want_stream = HeadStream(0, head), HeadStream(0, head)
    for s in (got_stream, want_stream):
        s._gen = ScriptedGenerator(values)
    got = sample_batch(got_stream, q, n)
    want = reference_box_muller(want_stream, q, n)
    assert got.tobytes() == want.tobytes()
    assert got_stream.head.tobytes() == want_stream.head.tobytes()
    assert got_stream._gen.values == want_stream._gen.values
    return got_stream


# The sample_batch cases below keep the names they had when sample_batch
# streamed its uniforms; the "unread values" are a HeadStream's head.


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5])
def test_streamed_sampler_zeros_in_the_last_partial_block(q):
    # U2 runs 100 values past its second edge: its exact zeros, one past
    # that edge and one on U2's very last value, are skipped, and U2 takes
    # two values after its last, whose top-up skips a zero as well
    b = EDGE
    n = 2 * b + 100
    values = RngStream(76).random_array(2 * n + 10)
    values[n + 2 * b + 50] = values[2 * n - 1] = 0.0
    values[2 * n + 1] = 0.0
    stream = assert_sampler_matches_reference(q, n, values)
    assert len(stream._gen.values) == 7  # two top-ups and a skipped zero


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5])
def test_streamed_sampler_two_zeros_in_one_block(q):
    # two U2 zeros before U2's first edge, adjacent, and a third after it,
    # after a U1 zero whose top-up is read before U2 starts
    b = EDGE
    n = b + 10
    values = RngStream(77).random_array(2 * n + 10)
    values[3] = 0.0  # skipped; u1 ends with values[n]
    values[n + 1 + 5] = values[n + 1 + 6] = values[n + 1 + b + 2] = 0.0
    stream = assert_sampler_matches_reference(q, n, values)
    assert len(stream._gen.values) == 6


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5])
def test_streamed_sampler_after_unread_values(q):
    # the stream first hands out a scripted head, which ends past U2's
    # first edge and holds a U2 zero, then its generator, which holds
    # another U2 zero
    b = EDGE
    n = 2 * b + 100
    values = RngStream(78).random_array(2 * n + 10)
    head, rest = values[: n + b + 7].copy(), values[n + b + 7 :]
    head[n + 9] = 0.0
    rest[20] = 0.0
    stream = assert_sampler_matches_reference(q, n, rest, head)
    assert not len(stream.head) and len(stream._gen.values) == 8


def reference_sample_matrix(gen, q, rows, dim):
    """The joint law's rows as whole-array expressions on a plain Philox
    generator: rows * dim normals, then one Gamma variate per row."""
    g = gen.standard_normal((rows, dim))
    if q == 1.0:
        return g
    if q < 1.0:
        chi = 2.0 * gen.standard_gamma((2.0 - q) / (1.0 - q), rows)
        return g * np.sqrt((3.0 - q) / (1.0 - q) / ((g * g).sum(axis=1) + chi))[:, None]
    v = 2.0 * gen.standard_gamma(1.0 / (q - 1.0) - dim / 2.0, rows)
    return g * np.sqrt((3.0 - q) / ((q - 1.0) * v))[:, None]


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("q", [-1.0, 0.5, 0.9, 1.0, 1.2, 1.4])
def test_sample_matrix_matches_the_philox_reference(q, dim):
    # three calls on one stream against one generator on the same key:
    # every call reads fresh normals and fresh Gamma variates, in that order,
    # and leaves the stream where the generator is
    seed, sid = 7, 100 + dim
    rng = RngStream(seed, sid)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | sid))
    for rows in (3, 1000, 17):
        got = sample_matrix(rng, q, rows, dim)
        assert got.shape == (rows, dim)
        np.testing.assert_allclose(got, reference_sample_matrix(gen, q, rows, dim), rtol=1e-14, atol=0)
    assert rng.random_array(4).tobytes() == gen.random(4).tobytes()


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("q", [-1.0, 0.5, 1.0, 1.2])
def test_sample_matrix_draws_into_out_with_the_bits_of_a_fresh_array(q, dim):
    # two calls into (dim, rows) views of one flat buffer, as the
    # estimator's blocks are drawn, against two calls without it on a
    # stream of the same key
    buf = np.full(1000 * dim, np.nan)
    got_rng, want_rng = RngStream(8, dim), RngStream(8, dim)
    for rows in (1000, 17):
        out = buf[: rows * dim].reshape(dim, rows)
        got = sample_matrix(got_rng, q, rows, dim, out=out)
        assert got.shape == (rows, dim) and np.shares_memory(got, out)
        assert got.tobytes() == sample_matrix(want_rng, q, rows, dim).tobytes()
    assert got_rng.random() == want_rng.random()
    # an out of another shape, the row-major one included, or one the draws
    # could not fill in place, is refused before any draw
    for out in (np.empty((dim + 1, rows)), np.empty((rows, dim)), np.empty((dim, 2 * rows))[:, ::2]):
        with pytest.raises(ValueError, match=f"out must be C-contiguous of shape \\({dim}, {rows}\\)"):
            sample_matrix(got_rng, q, rows, dim, out=out)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_sample_matrix_at_q1_is_the_philox_normals_row_by_row(dim):
    # the dim-major draw keeps each row's stream values: at q = 1 the rows
    # are the generator's normals in row-major order, bit for bit
    seed, sid = 9, dim
    rng = RngStream(seed, sid)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | sid))
    for rows in (1000, 3):
        assert sample_matrix(rng, 1.0, rows, dim).tobytes() == gen.standard_normal((rows, dim)).tobytes()
    assert rng.random_array(4).tobytes() == gen.random(4).tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_squared_norm_is_the_left_to_right_sum_of_squares(dim):
    # every row gets the bits of the Python sum x0*x0 + x1*x1 + ... in both
    # layouts; a NaN or an infinity in a row passes through to its sum
    x = np.random.default_rng(dim).standard_normal((2000, dim)) * np.exp(
        np.random.default_rng(100 + dim).uniform(-20.0, 20.0, (2000, 1)))
    x[5, -1], x[6, 0], x[7, dim // 2] = np.nan, np.inf, -np.inf
    want = np.array([sum_left_to_right(row) for row in x.tolist()])
    for layout in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T):
        assert squared_norm(layout).tobytes() == want.tobytes()
    assert np.isnan(want[5]) and want[6] == want[7] == np.inf


def sum_left_to_right(row):
    total = row[0] * row[0]
    for v in row[1:]:
        total += v * v
    return total


def test_sample_vector_matches_batch_distribution():
    rng = RngStream(7)
    v = sample_vector(rng, 0.5, 6)
    assert v.shape == (6,)
    m = sample_matrix(RngStream(7), 0.5, 3, 2)
    want = reference_sample_matrix(np.random.Generator(np.random.Philox(key=7 << 64)), 0.5, 3, 2)
    np.testing.assert_allclose(m, want, rtol=1e-14, atol=0)
    for dim in BAD_DIM:  # 2.7 is refused, not truncated to 2
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            sample_vector(rng, 0.5, dim)
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            sample_matrix(rng, 0.5, 3, dim)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
def test_sampler_respects_cutoff(q):
    z = sample_batch(RngStream(21, int(q * 10)), q, 200000)
    assert np.all(np.abs(z) < QGaussianSpec(q).radius)


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
    res = stats.kstest(z, lambda x: cdf(x, QGaussianSpec(q)))
    assert res.pvalue > 0.01


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("q", [0.5, 0.9, 1.2, 1.0])
def test_sample_matrix_radial_law(q, dim):
    z = sample_matrix(RngStream(78 + dim, int(10 * q)), q, 100000, dim)
    res = stats.kstest((z * z).sum(axis=1), lambda r2: radial_cdf(r2, QGaussianSpec(q, dim=dim)))
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
    w = escort_weight(z, q)
    mean_q = float(np.sum(z * w) / np.sum(w))
    second_q = float(np.sum(z * z * w) / np.sum(w))
    se_mean = np.std(z * w) / np.sum(w) * math.sqrt(len(z))  # rough scale
    assert abs(mean_q) < 3.0 * max(se_mean, 1e-3)
    assert second_q == pytest.approx(1.0, rel=0.05)


def test_sample_vector_components_uncorrelated():
    # q = 1.2: the dim-4 law has a variance only for q < 1 + 2/6 and a
    # fourth moment, which the sample correlation's spread needs, for
    # q < 1 + 2/8; at q = 1.4 the sample correlation does not settle
    m = sample_matrix(RngStream(55), 1.2, 250000, 4)
    corr = np.corrcoef(m.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.01
    # the joint dim-4 law exists only below q = 1 + 2/4
    rng = RngStream(55)
    with pytest.raises(ValueError, match="integrable only for q < 1 \\+ 2/4"):
        sample_matrix(rng, 1.5, 10, 4)
    assert rng.random_array(4).tobytes() == RngStream(55).random_array(4).tobytes()  # nothing drawn


def test_sample_vector_gaussian_components_normal():
    m = sample_matrix(RngStream(56), 1.0, 20000, 4)
    for j in range(4):
        assert stats.kstest(m[:, j], stats.norm.cdf).pvalue > 0.01


def sample_vector_blocks(rng, q, dim, blocks):
    """``blocks`` successive sample_vector calls, stacked."""
    return np.array([sample_vector(rng, q, dim) for _ in range(blocks)])


def assert_lanes_match(make_streams, qs, dim, chunks, reference=sample_vector_blocks):
    """sample_lanes over chunks of the given block counts equals, lane by
    lane, ``reference(stream, q, dim, blocks)`` on identical streams, as
    many successive sample_vector calls by default, bit for bit, and leaves
    each stream where the reference leaves it."""
    lanes, single = make_streams(), make_streams()
    for blocks in chunks:
        got = sample_lanes(lanes, qs, dim, blocks)
        assert got.shape == (blocks, len(qs), dim)
        for k, q in enumerate(qs):
            want = reference(single[k], q, dim, blocks)
            assert got[:, k].tobytes() == want.tobytes(), (q, dim, k)
    for a, b in zip(lanes, single):  # each lane read exactly its own blocks
        assert a.random_array(8).tobytes() == b.random_array(8).tobytes()


def one_lane(make_stream, q, dim, blocks, reference=sample_vector_blocks):
    """The one-lane case, in chunks of 64 blocks as the lane loop reads them."""
    chunks = [64] * (blocks // 64) + ([blocks % 64] if blocks % 64 else [])
    assert_lanes_match(lambda: [make_stream()], [q], dim, chunks, reference)


# The one-lane case of sample_lanes. The test names keep the name of the
# per-lane chunk iterator, sample_vectors, that sample_lanes replaced.


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("q", PAPER_Q_GRID)
def test_sample_vectors_equal_successive_sample_vector_calls(q, dim):
    # 300 blocks span four chunks of 64 and part of a fifth
    one_lane(lambda: RngStream(61, 7), q, dim, 300)


def test_sample_vectors_past_the_chunk_cap():
    # 3200 blocks: fifty chunks of 64
    one_lane(lambda: RngStream(62), 0.5, 4, 3200)


def scripted_head(values, seed=63):
    """A stream whose next draws are ``values``, then its own sequence."""
    return HeadStream(seed, values)


def raw_blocks(blocks, dim, seed=64):
    """Uniforms for ``blocks`` blocks, laid out as sample_vector reads them."""
    return np.random.default_rng(seed).uniform(0.05, 0.95, (blocks, 2, dim))


@pytest.mark.parametrize("dim,where", [(4, (5, 0, 2)), (4, (9, 1, 0)), (1, (3, 0, 0))])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_sample_vectors_exact_zero_mid_chunk(q, dim, where):
    # an exact zero in u1 (index 0) or u2 (index 1) of one block: the
    # lane's one read skips it, as sample_vector's reads do, and every later
    # block of the chunk reads one value further on
    raw = raw_blocks(40, dim)
    raw[where] = 0.0
    head = raw.ravel()
    one_lane(lambda: scripted_head(head), q, dim, 60)


def boundary_head(q, dim, k, seed=64):
    """Uniforms for 40 blocks whose block k has |z| on the q < 1 support
    radius in its last component: u1 = 1e-300, u2 = 0.5."""
    raw = raw_blocks(40, dim, seed)
    raw[k, 0, dim - 1], raw[k, 1, dim - 1] = 1e-300, 0.5
    # copies: the transform overwrites its arguments
    z_edge = qgauss._box_muller_transform(raw[k, 0].copy(), raw[k, 1].copy(), q)
    assert abs(z_edge[-1]) == pytest.approx(QGaussianSpec(q).radius, rel=1e-15)
    return raw.ravel(), z_edge[-1]


@pytest.mark.parametrize("q", [q for q in PAPER_Q_GRID if q < 1.0])
def test_no_philox_uniform_draws_within_the_boundary_margin(q):
    # Philox uniforms are multiples of 2^-53, so u1 = 2^-53 is the smallest
    # the stream's reader returns and gives the largest |z|; with u2 = 2^-53
    # or 1/2, |cos(2 pi u2)| = 1. Even that draw lies strictly inside the
    # radius: its bracket weight_base(z^2, q), which is u1^(1-q') in exact
    # arithmetic, is positive, so its weight is finite and positive.
    tiny = 2.0**-53
    q_prime = (1.0 + q) / (3.0 - q)
    for u2 in (tiny, 0.5):
        assert abs(math.cos(2.0 * math.pi * u2)) == 1.0
        z = qgauss._box_muller_transform(np.array([tiny]), np.array([u2]), q)
        base = qgauss.weight_base(z[0] * z[0], q)
        assert base > 0.0 and math.isfinite(1.0 / base)
        assert base == pytest.approx(tiny ** (1.0 - q_prime), rel=1e-3)


@pytest.mark.parametrize("dim", [1, 4])
def test_sample_lanes_paper_grid_in_one_batch(dim):
    # all 15 paper q values as lanes of one batch, twice over, so the two
    # lanes of each q sit 15 lanes apart; then each q as one lane
    qs = list(PAPER_Q_GRID) * 2
    assert_lanes_match(
        lambda: [RngStream(67, k) for k in range(len(qs))], qs, dim, (64, 64, 7))
    qs = list(PAPER_Q_GRID)
    assert_lanes_match(
        lambda: [RngStream(68, k) for k in range(len(qs))], qs, dim, (64, 9))


@pytest.mark.parametrize("dim", [1, 4])
def test_sample_lanes_equal_the_out_of_place_reference(dim):
    # the paper grid as lanes of one batch: each lane equals as many
    # successive reference_box_muller calls, one per block, on an identical
    # stream, bit for bit; the in-place transform that sample_lanes and
    # sample_vector share is checked against the whole-array expression
    qs = list(PAPER_Q_GRID)
    lanes = [RngStream(80, k) for k in range(len(qs))]
    single = [RngStream(80, k) for k in range(len(qs))]
    for blocks in (64, 9):
        got = sample_lanes(lanes, qs, dim, blocks)
        for k, q in enumerate(qs):
            want = np.array([reference_box_muller(single[k], q, dim) for _ in range(blocks)])
            assert got[:, k].tobytes() == want.tobytes(), (q, dim, k)
    for a, b in zip(lanes, single):
        assert a.random_array(8).tobytes() == b.random_array(8).tobytes()


def test_box_muller_transform_works_in_its_arguments():
    # the draws come back in u1, with the bits of the whole-array expression
    raw = raw_blocks(8, 4)
    u1, u2 = raw[:, 0].ravel(), raw[:, 1].ravel()  # copies
    for q in (0.0, 0.5, 1.0, 1.5):
        a, b = u1.copy(), u2.copy()
        z = qgauss._box_muller_transform(a, b, q)
        assert z is a
        want = reference_box_muller(ScriptedUniforms(u1, u2), q, u1.size)
        assert z.tobytes() == want.tobytes()


def test_sample_lanes_zero_and_boundary_lanes_mid_chunk():
    # lane 1 has an exact zero in block 5 and lane 3 a support-boundary draw
    # in block 9, which it keeps; every lane equals its per-block
    # sample_vector calls and the chunked reference
    q, dim = 0.5, 4
    zero = raw_blocks(40, dim, seed=68)
    zero[5, 1, 3] = 0.0
    edge, _ = boundary_head(q, dim, 9, seed=69)
    qs = [q, q, 1.5, q, 2.5]

    def streams():
        return [RngStream(70), scripted_head(zero.ravel()), RngStream(71),
                scripted_head(edge, seed=72), RngStream(73)]

    got = sample_lanes(streams(), qs, dim, 64)
    assert abs(got[9, 3, -1]) == pytest.approx(QGaussianSpec(q).radius, rel=1e-15)
    for k, stream in enumerate(streams()):
        want = sample_vector_blocks(stream, qs[k], dim, 64)
        assert got[:, k].tobytes() == want.tobytes(), k
    assert_lanes_match(streams, qs, dim, (64, 30), reference=reference_lane)


CHUNK_QS = (-1e6, -3.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.5)


@pytest.mark.parametrize("dim", [1, 4])
def test_sample_lanes_reads_two_values_a_draw_whatever_the_chunk(dim):
    # every q on a Philox stream, and each q < 1 on a stream whose first
    # block puts its first component on the support radius (u1 = 1e-300,
    # u2 = 0.5): one 64-block call equals two 32-block calls bit for bit,
    # and leaves each stream on value 2 * 64 * dim of its sequence, the
    # head's values then the generator's nonzero ones
    head = np.full(2 * dim, 0.3)
    head[0], head[dim] = 1e-300, 0.5
    qs = list(CHUNK_QS) + [q for q in CHUNK_QS if q < 1.0]

    def streams():
        return [RngStream(81, k) if k < len(CHUNK_QS) else HeadStream(81, head, k)
                for k in range(len(qs))]

    whole, halves = streams(), streams()
    got = sample_lanes(whole, qs, dim, 64)
    want = np.concatenate([sample_lanes(halves, qs, dim, 32) for _ in range(2)])
    assert got.tobytes() == want.tobytes()
    for k, q in enumerate(qs):
        if k >= len(CHUNK_QS):
            assert abs(got[0, k, 0]) == pytest.approx(QGaussianSpec(q).radius, rel=1e-15)
        gen = RngStream(81, k)._generator().random(2 * 64 * dim + 8)
        sequence = np.concatenate((head, gen) if k >= len(CHUNK_QS) else (gen,))
        sequence = sequence[sequence > 0.0]
        for stream in (whole[k], halves[k]):
            assert stream.random() == sequence[2 * 64 * dim], (q, k)


def test_sample_lanes_after_a_dropped_lane():
    # the lane loop drops a diverged lane: the next chunk reads only the
    # others, which go on as their own per-block calls would, and the dropped
    # lane's stream is left where its first chunk left it
    qs, dim = [0.5, 1.0, 1.5, 2.5], 4
    lanes = [RngStream(74, k) for k in range(4)]
    single = [RngStream(74, k) for k in range(4)]
    first = sample_lanes(lanes, qs, dim, 64)
    kept = [0, 2, 3]
    second = sample_lanes([lanes[k] for k in kept], [qs[k] for k in kept], dim, 64)
    for k, q in enumerate(qs):
        want = sample_vector_blocks(single[k], q, dim, 64)
        assert first[:, k].tobytes() == want.tobytes()
        if k in kept:
            want = sample_vector_blocks(single[k], q, dim, 64)
            assert second[:, kept.index(k)].tobytes() == want.tobytes()
        assert lanes[k].random_array(8).tobytes() == single[k].random_array(8).tobytes()


def test_sample_lanes_refusal_leaves_the_streams_unread():
    # a lane with a q the kernel refuses is refused before any lane's stream is read
    for bad in BAD_Q:
        lanes = [RngStream(75, k) for k in range(3)]
        with pytest.raises(ValueError):
            sample_lanes(lanes, [0.5, bad, 1.5], 4, 64)
        for k, lane in enumerate(lanes):
            assert lane.random_array(8).tobytes() == RngStream(75, k).random_array(8).tobytes()


def test_lane_law_overflow_near_q3_is_named():
    # at q = 2.98, q' = 199 and u^(1-q') overflows for u below about e^-3.6:
    # a named error that counts the infinite draws, and no NumPy warning
    n = 10**4
    with np.errstate(over="ignore"):
        want = np.count_nonzero(np.isinf(reference_box_muller(RngStream(1), 2.98, n)))
    assert want > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=rf"q=2\.98 in dim {n}: {want} of {n} draws overflowed"):
            sample_batch(RngStream(1), 2.98, n)
        with pytest.raises(ConvergenceError, match=r"q=2\.98 in dim 4: \d+ of 1024 draws overflowed"):
            sample_lanes([RngStream(2, k) for k in range(6)], [0.5, 2.98, 2.98, 1.5, 2.98, 2.98], 4, 64)


def test_cdf_matches_student_t():
    # the q > 1 family coincides with a unit-scale Student-t with
    # nu = (3-q)/(q-1) degrees of freedom; q=1.5 gives nu=3
    xs = np.array([-8.0, -2.0, -0.5, 0.0, 0.3, 1.7, 12.0])
    assert np.allclose(cdf(xs, QGaussianSpec(1.5)), stats.t(df=3).cdf(xs), atol=5e-9)


def test_cdf_matches_normal_at_q1():
    xs = np.linspace(-5, 5, 41)
    assert np.allclose(cdf(xs, QGaussianSpec(1.0)), stats.norm.cdf(xs), atol=5e-9)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0, 1.2, 1.5, 2.0, 2.5])
@pytest.mark.parametrize("beta", [1.0, 0.3])
def test_cdf_matches_quadrature_of_pdf(q, beta):
    spec = QGaussianSpec(q, beta)
    lo = -spec.radius
    edge = spec.radius if q < 1.0 else 30.0 * beta
    xs = np.linspace(-0.999, 0.999, 11) * edge
    for x in xs:
        want = quad_checked(lambda t: pdf(t, spec), lo, x, atol=1e-12, rtol=1e-11)
        assert cdf(x, spec) == pytest.approx(want, abs=1e-9)
    assert np.array_equal(cdf(xs, spec), [cdf(x, spec) for x in xs])
    if q < 1.0:
        r = spec.radius
        beyond = np.array([r, math.nextafter(r, math.inf), 2.0 * r, math.inf])
        assert np.all(cdf(beyond, spec) == 1.0)
        assert np.all(cdf(-beyond, spec) == 0.0)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 1.0, 1.2, 1.5])
@pytest.mark.parametrize("dim", [2, 3])
def test_radial_cdf_matches_radial_integral(q, dim):
    spec = QGaussianSpec(q, 0.3, dim)
    edge = spec.radius if q < 1.0 else 30.0 * spec.beta
    for r in np.linspace(0.0, 0.999, 9) * edge:
        want = radial_integral(lambda s: radial_pdf(s * s, spec), dim, r, atol=1e-12, rtol=1e-11)
        assert radial_cdf(r * r, spec) == pytest.approx(want, abs=1e-9)
    assert radial_cdf(math.inf, spec) == 1.0


def test_cdf_refuses_dim_two():
    with pytest.raises(ValueError, match="radial_cdf"):
        cdf(0.0, QGaussianSpec(0.5, dim=2))


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


def test_q_expectation_dim2_refuses_unconverged_quadrature():
    # The escort density falls as |v|^(-2q/(q-1)), so E|v|^4 at q = 1.9 and
    # E|v|^6 at q = 1.5 diverge in dim 2; an unchecked double quadrature
    # returned 7.4e9 and -2.7e3 for them. Both raise instead.
    for q, power in ((1.9, 2), (1.5, 3)):
        with pytest.raises(QuadratureError):
            q_expectation(lambda v: float(v @ v) ** power, QGaussianSpec(q, dim=2))


def test_q_expectation_refuses_dim_three():
    with pytest.raises(ValueError):
        q_expectation(lambda v: 1.0, QGaussianSpec(0.5, dim=3))


def quadrature_tsallis(spec: QGaussianSpec) -> float:
    """(1 - int p^q) / (q - 1), or -int p ln p at q = 1, by radial quadrature."""
    def plogp(r):
        p = radial_pdf(r * r, spec)
        return -p * math.log(p) if p > 0.0 else 0.0

    if spec.q == 1.0:
        return radial_integral(plogp, spec.dim, math.inf)
    mass_q = radial_integral(lambda r: radial_pdf(r * r, spec) ** spec.q, spec.dim, spec.radius)
    return (1.0 - mass_q) / (spec.q - 1.0)


def test_tsallis_entropy_values():
    # Shannon limit: differential entropy of the standard normal
    assert tsallis_entropy(QGaussianSpec(1.0)) == pytest.approx(
        0.5 * math.log(2.0 * math.pi * math.e), rel=1e-9
    )
    # q=2: 1 - integral of the squared Cauchy density, oracle by quadrature
    sq_mass, _ = integrate.quad(lambda x: pdf(x, QGaussianSpec(2.0)) ** 2, -np.inf, np.inf)
    assert sq_mass == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-10)
    assert tsallis_entropy(QGaussianSpec(2.0)) == pytest.approx(1.0 - sq_mass, rel=1e-9)
    # dims 3 and 4 against radial quadrature
    for dim in (3, 4):
        for q in (0.0, 0.5, 1.0, 1.2):
            spec = QGaussianSpec(q, 0.7, dim)
            assert tsallis_entropy(spec) == pytest.approx(quadrature_tsallis(spec), rel=1e-9), (q, dim)


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


def quadrature_lambda_q(q: float, dim: int) -> float:
    """E[w] by radial quadrature of the weighted standard density."""
    spec = QGaussianSpec(q, dim=dim)
    return radial_integral(lambda r: _weighted_pdf(r * r, spec), dim, spec.radius)


@pytest.mark.parametrize(
    "q,dim",
    [(q, dim) for q in (-1.0, 0.0, 0.5, 0.9, 1.2, 1.5, 2.0, 2.5) for dim in (1, 2, 4, 8)
     if q < max_normalizable_q(dim)] + [(0.9, 3)],
)
def test_lambda_q_multivariate_closed_form(q, dim):
    assert lambda_q(q, dim) == 1.0 - dim * (q - 1.0) / 2.0
    assert lambda_q(q, dim) == pytest.approx(quadrature_lambda_q(q, dim), rel=1e-9)


def test_lambda_q_rejects_nonintegrable_dim():
    with pytest.raises(ValueError):
        lambda_q(2.0, 2)


def test_lambda_q_checks_dim_at_q1():
    # the q = 1 value is known, but the dimension is checked all the same
    for dim in BAD_DIM + (-3, 2.5):
        with pytest.raises(ValueError, match="dim must be"):
            lambda_q(1.0, dim)


@pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 2.5])
def test_lambda_q_mc_agrees_with_quadrature(q):
    # Lambda_q is the mean weight of the sampler's draws in dim 1
    w = escort_weight(sample_batch(RngStream(303, int(10 * q)), q, 300000), q)
    est, se = float(np.mean(w)), float(np.std(w) / math.sqrt(len(w)))
    assert abs(est - lambda_q(q, 1)) < 3.0 * se
