"""Scripted streams and independent references shared by the test modules.

The references are written out from the paper's formulas and the documented
read order, not from the package's code paths: whole-array expressions for
the generalized Box-Muller draws, each value drawn once from two uniforms,
and the two-timescale loop as one ndarray update per block.
"""

import math

import numpy as np

from qsf.errors import DivergenceError
from qsf.optimizer import _CHUNK, IterationRecord, RunTrace, project, step_size_a, step_size_b
from qsf.rng import RngStream


class ScriptedGenerator:
    """Stand-in for the Philox generator that hands out fixed values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        vals, self.values = self.values[:n], self.values[n:]
        return np.array(vals)


def scripted_stream(values):
    """A stream whose generator hands out ``values``, then nothing."""
    s = RngStream(0)
    s._gen = ScriptedGenerator(values)
    return s


class HeadStream(RngStream):
    """A stream whose sequence starts with the nonzero values of ``head``
    and then runs on with the stream's own: its reader skips the head's
    exact zeros as it skips the generator's."""

    __slots__ = ("head",)

    def __init__(self, seed, head, stream_id=0):
        super().__init__(seed, stream_id)
        self.head = np.asarray(head, dtype=float)

    def random_array(self, n):
        if not len(self.head):
            return super().random_array(n)
        out, self.head = self.head[:n], self.head[n:]
        out = out[out > 0.0]  # a copy, which the caller may overwrite
        return out if len(out) == n else np.concatenate((out, self.random_array(n - len(out))))


def reference_box_muller(rng, q, k):
    """k generalized Box-Muller draws as whole-array expressions: k values
    of u1, then k of u2, from ``rng``."""
    q_prime = (1.0 + q) / (3.0 - q)
    u1 = rng.random_array(k)
    u2 = rng.random_array(k)
    if q_prime == 1.0:
        r2 = -2.0 * np.log(u1)
    else:
        r2 = -2.0 * ((u1 ** (1.0 - q_prime) - 1.0) / (1.0 - q_prime))
    np.maximum(r2, 0.0, out=r2)
    return np.sqrt(r2) * np.cos(2.0 * math.pi * u2)


def reference_lane(rng, q, dim, blocks):
    """One lane's chunk, shaped (blocks, dim): each block reads dim values of
    u1 then dim of u2."""
    return np.array([reference_box_muller(rng, q, dim) for _ in range(blocks)])


def ndarray_loop(system, cfg, sample_q, weighted, frozen_theta=None):
    """Reference: the per-block loop with ndarray theta and Z. The
    perturbations of each chunk of ``_CHUNK`` blocks are drawn by
    :func:`reference_lane` at the q ``sample_q``; with ``weighted`` false
    the weight is 1. With ``frozen_theta``, theta stays there and only the
    tracker runs."""
    slow = frozen_theta is None
    theta = cfg.theta0.copy() if slow else np.asarray(frozen_theta, dtype=float)
    dim = theta.shape[0]
    pert_rng = cfg.seed.child("perturbation")
    coef = (1.0 - sample_q) / (3.0 - sample_q)
    beta, ell, guard = cfg.beta, cfg.samples_per_iteration, 1e12
    z = np.zeros(dim)
    records = [IterationRecord(0, theta.copy(), z.copy(), math.nan)]
    for n in range(cfg.num_iterations):
        if n % _CHUNK == 0:
            etas = reference_lane(pert_rng, sample_q, dim, min(_CHUNK, cfg.num_iterations - n))
        eta = etas[n % _CHUNK]
        w = 1.0 / (1.0 - coef * float(eta @ eta)) if weighted else 1.0
        system.set_parameter(theta + beta * eta)
        b = step_size_b(n)
        alpha = 1.0 - b
        z_start = z
        s = 0.0
        cost_sum = 0.0
        for _ in range(ell):
            h = system.step()
            cost_sum += h
            s = alpha * s + h
        z = (alpha**ell) * z + (b * w / beta) * s * eta
        if not np.abs(z).max() <= guard:
            raise DivergenceError(iteration=n, perturbation=eta, cost=h, z=z)
        if slow:
            z_update = z_start if cfg.use_block_start_z else z
            theta = project(theta - step_size_a(n) * z_update, cfg.box_min, cfg.box_max)
            records.append(IterationRecord(n + 1, theta.copy(), z.copy(), cost_sum / ell))
    return RunTrace(records=tuple(records), final_theta=theta, final_z=z)
