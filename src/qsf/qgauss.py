"""Heavy-tailed generalized Gaussian family indexed by an entropic parameter q.

The density (entropic index q < 3, width beta > 0, dimension N) is

    p(x) = (1 / (beta^N K_{q,N})) * (1 - (1-q)/((3-q) beta^2) * |x|^2)_+^{1/(1-q)}

where (y)_+ = max(y, 0). For q < 1 the support is the closed ball of radius
beta * sqrt((3-q)/(1-q)); for 1 <= q < 3 it is all of R^N with power-law
tails, normalizable only for q < 1 + 2/N. q = 1 is handled as the exact
Gaussian limit N(0, beta^2 I), never by numerical limiting. beta^2 is the
q-variance (the second moment under the escort density p^q / int p^q), not
the ordinary variance.

:func:`sample_matrix`, the estimator's sampler, draws the joint N-variate
law: a Gaussian vector scaled by one Gamma variate per row. It holds the
draws dim-major, in a C-contiguous (N, rows) array (``out``, when given),
and returns its (rows, N) transpose. The lanes'
sampler, :func:`sample_lanes`, uses the generalized Box-Muller transform:
with q' = (1+q)/(3-q) and the q'-logarithm ln_q'(u) = (u^(1-q') - 1)/(1-q')
(ln u at q' = 1),

    z = sqrt(-2 ln_q'(U1)) * cos(2 pi U2)

has exactly the standard (beta = 1) univariate density above; at q = 1 this
is the classical Box-Muller transform. It draws a vector's components
i.i.d., which is the joint law only in dim 1 or at q = 1;
:func:`sample_batch` and :func:`sample_vector` are its one-lane, one-block
calls. Each value is drawn once, from two uniforms, and kept. No Philox
uniform puts a q >= 0 draw on the support radius; where a draw near it has
a weight that takes a lane's tracker out of its band, the optimizer's guard
Z_GUARD drops the lane. Density evaluation lives in qsf.oracles.

:func:`weight_base` is the one copy of the bracket 1 - (1-q)/((3-q) beta^2) |x|^2:
the density raises it to 1/(1-q), and the estimator weight of qsf.sfgrad and
qsf.optimizer is its reciprocal at beta = 1, w(eta) = 1 / weight_base(|eta|^2, q).
:func:`squared_norm` gives |x|^2 row by row in a fixed order, so its bits
do not depend on an array's layout or on the CPU's kernels.

:class:`QGaussianSpec` holds the kernel's rules: every (q, beta, N) that the
package takes is checked by building one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .rng import RngStream


def check_size(name: str, value) -> None:
    """Refuse a size that is not an integer >= 1; a bool is not a size."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1 (got {value!r})")


@dataclass(frozen=True)
class QGaussianSpec:
    """The kernel's parameters, entropic index, width and dimension, and
    the one home of their rules."""

    q: float
    beta: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q < 3.0):
            raise ValueError(f"q must be finite and < 3 (got q={self.q})")
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be finite and > 0 (got beta={self.beta})")
        check_size("dim", self.dim)
        if self.q >= max_normalizable_q(self.dim):
            raise ValueError(
                f"the {self.dim}-variate density is integrable only for q < 1 + 2/{self.dim}"
                f" = {max_normalizable_q(self.dim):g} (got q={self.q})"
            )

    @property
    def radius(self) -> float:
        """Support radius: beta * sqrt((3-q)/(1-q)) for q < 1, infinite otherwise."""
        return self.beta * math.sqrt((3.0 - self.q) / (1.0 - self.q)) if self.q < 1.0 else math.inf


def weight_base(r2, q, beta: float = 1.0, *, out=None):
    """The bracket 1 - (1-q)/((3-q) beta^2) * r2 at squared radius r2; q may be
    an array that broadcasts against r2. Given ``out``, an array of the
    result's shape (r2 itself, say), the bracket is formed in it, with the
    same bits."""
    c = (1.0 - q) / ((3.0 - q) * beta * beta)
    if out is None:
        return 1.0 - c * r2
    np.multiply(r2, c, out=out)
    return np.subtract(1.0, out, out=out)


def squared_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 of each row of x, shape (..., dim), summed left to right:
    x[..., 0]*x[..., 0] + x[..., 1]*x[..., 1] + ..., one IEEE product and
    one add at a time. Each row gets the bits of that Python sum whatever
    the array's layout (a dim-major array's columns are contiguous), and a
    NaN or an infinity passes through."""
    r2 = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        r2 += x[..., j] * x[..., j]
    return r2


def max_normalizable_q(dim: int) -> float:
    """Largest entropic index for which the dim-variate density is integrable."""
    return 1.0 + 2.0 / dim


def _box_muller_transform(u1: np.ndarray, u2: np.ndarray, q: float) -> np.ndarray:
    """Generalized Box-Muller draws of the q kernel from uniforms u1, u2 of
    one shape; the one home of the index q' = (1+q)/(3-q) and of ln_q'.

    Works in place: u1 and u2 are overwritten, and the draws are returned
    in u1. Each step is the ufunc of the whole-array expression
    sqrt(max(-2 ln_q'(u1), 0)) * cos(2 pi u2), so the bits are its bits.
    """
    q_prime = (1.0 + q) / (3.0 - q)
    if q_prime == 1.0:
        np.log(u1, out=u1)
    else:  # ln_q'(u1) = (u1^(1-q') - 1) / (1-q')
        np.power(u1, 1.0 - q_prime, out=u1)
        np.subtract(u1, 1.0, out=u1)
        np.divide(u1, 1.0 - q_prime, out=u1)
    u1 *= -2.0
    np.maximum(u1, 0.0, out=u1)  # guard rounding at u1 near the q'<1 cap
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * math.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def sample_batch(rng: RngStream, q: float, n: int) -> np.ndarray:
    """n independent draws from the standard (beta=1) distribution: one lane
    of :func:`sample_lanes` that draws one block of n values."""
    return sample_lanes([rng], [q], n, 1)[0, 0]


def sample_vector(rng: RngStream, q: float, dim: int) -> np.ndarray:
    """Vector of dim i.i.d. standard univariate draws (component-wise, not joint)."""
    check_size("dim", dim)
    return sample_batch(rng, q, dim)


def sample_lanes(rngs: list, qs: list, dim: int, blocks: int) -> np.ndarray:
    """Perturbations of ``blocks`` blocks for K lanes, shaped (blocks, K, dim):
    entry [:, k] is lane k's chunk of ``blocks`` blocks of ``dim`` draws of
    the q = qs[k] kernel, read from its stream ``rngs[k]``.

    Each lane's uniforms for all its blocks come from its own stream in one
    :meth:`~qsf.rng.RngStream.random_array` call, laid out (blocks, 2, dim):
    each block reads dim values of u1, then dim of u2. The lanes of each
    distinct q are stacked, and their u1 and u2 copied into contiguous
    arrays, which the transform works in by the same ufuncs with the same
    scalar q' (elementwise, so the layout does not move a bit).

    For every q, lane k equals ``blocks`` successive
    ``sample_vector(rngs[k], qs[k], dim)`` calls bit for bit and reads
    exactly 2 * blocks * dim values of its stream, so its bits do not depend
    on how a run splits its blocks into chunks.

    Near q = 3, u1^(1-q') can overflow; then ConvergenceError names q, dim
    and the count of infinite draws, and nothing is returned.
    """
    groups = {}
    for k, q in enumerate(qs):
        groups.setdefault(q, []).append(k)
    for q in groups:  # before any draw, so a refused call leaves the streams as they were
        QGaussianSpec(q)
    out = np.empty((blocks, len(rngs), dim))
    for q, ks in groups.items():
        u = np.array([rngs[k].random_array(blocks * 2 * dim) for k in ks])
        u1, u2 = u.reshape(len(ks), blocks, 2, dim).transpose(2, 1, 0, 3).copy()  # each (blocks, lanes, dim)
        with np.errstate(over="ignore"):
            z = _box_muller_transform(u1, u2, q)
        if q > 1.0 and not np.isfinite(z).all():
            bad = z.size - np.count_nonzero(np.isfinite(z))
            raise ConvergenceError(f"q={q!r} in dim {dim}: {bad} of {z.size} draws overflowed to infinity")
        out[:, ks] = z
    return out


def sample_matrix(rng: RngStream, q: float, rows: int, dim: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """(rows, dim) array of draws from the joint standard dim-variate kernel.

    Each row is a Gaussian g ~ N(0, I_dim) scaled by one Gamma variate, the
    chi^2-mixture representation of the q-Gaussian (Vignat & Plastino 2007):

        q < 1:  g sqrt((3-q)/(1-q)) / sqrt(|g|^2 + X),  X = 2 Gamma((2-q)/(1-q))
        q = 1:  g
        q > 1:  g sqrt((3-q)/((q-1) V)),                V = 2 Gamma(1/(q-1) - dim/2)

    The stream gives the rows * dim normals first, row after row, then the
    rows Gamma variates. For q < 1 every row lies strictly inside the
    support. Near q = 1 + 2/dim a Gamma variate can underflow so far that a
    row's scale is infinite; then ConvergenceError names q, dim and the row
    count.

    The draws are held dim-major: the result is the transpose of a
    C-contiguous (dim, rows) array, so each component's values are
    contiguous and every row-wise step is a few vector operations. Given
    ``out``, a C-contiguous float64 array of shape (dim, rows), the draws
    are made there and ``out.T`` is returned: the same bits and the same
    stream position as a call without it. The normals are drawn row-major
    into a block of their own and copied across once.
    """
    QGaussianSpec(q, 1.0, dim)
    z = np.empty((dim, rows)) if out is None else out
    if z.shape != (dim, rows) or not z.flags.c_contiguous:
        raise ValueError(f"out must be C-contiguous of shape ({dim}, {rows}), got {z.shape}")
    z[...] = rng.normal(rows * dim).reshape(rows, dim).T
    if q == 1.0:
        return z.T
    if q < 1.0:
        s = rng.gamma((2.0 - q) / (1.0 - q), rows)
        s *= 2.0
        s += squared_norm(z.T)
        np.divide((3.0 - q) / (1.0 - q), s, out=s)
    else:
        s = rng.gamma(1.0 / (q - 1.0) - dim / 2.0, rows)
        s *= 2.0 * (q - 1.0) / (3.0 - q)
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, s, out=s)
        if not np.isfinite(s.max()):
            bad = rows - np.count_nonzero(np.isfinite(s))
            raise ConvergenceError(
                f"q={q!r} in dim {dim}: {bad} of {rows} rows have a Gamma variate that"
                " underflowed, so their scale is infinite"
            )
    np.sqrt(s, out=s)
    z *= s
    return z.T
