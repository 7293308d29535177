"""The benchmark's three workloads: inputs, one timed round, output checks.

A round is the unit of timing. Every round of a run repeats the same calls
on the same inputs, so per-round counts repeat exactly and every run
attempts whole rounds. The timed part of a round (``run``) calls only the
program's public entry points; ``check`` runs afterwards, untimed.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from qsf import harness, sfgrad
from qsf.errors import ConvergenceError
from qsf.harness import PAPER_BETA_GRID, PAPER_Q_GRID, ExperimentConfig, OptimizerSettings
from qsf.optimizer import TwoTimescaleConfig, run_gaussian_sf
from qsf.queuesim import QueueNetwork
from qsf.rng import RngStream

# --seed is folded onto SEED_CLASSES input classes, so that reference.json
# can hold the sweep.csv digest of every input the benchmark can be given.
SEED_CLASSES = 64
BASE_SEED = 20240101

SIZES = {
    "full": {
        "cell8_long_blocks": {"trials": 4, "M": 1000},
        "grid_short_blocks": {"trials": 1, "M": 200},
        "estimator_batch": {"M": 1_000_000},
    },
    "toy": {
        "cell8_long_blocks": {"trials": 1, "M": 100},
        "grid_short_blocks": {"trials": 1, "M": 5},
        "estimator_batch": {"M": 20_000},
    },
}

CELL8_Q = (0.9, 1.0)
CELL8_BETA = 0.25
CELL8_L = 100
GRID_L = 1
GAUSS_CHECK_BETA = 0.25  # the q = 1.0 trial re-run through run_gaussian_sf

EST_Q = (0.5, 1.0, 1.2)
EST_BETA = 0.5
EST_THETA = (1.5, -0.5, 1.0, 2.0)
# The q = 0.5 calls fail on every input (the i.i.d. perturbation draws leave
# the support of the joint weight), so they draw from one fixed stream that
# does not depend on --seed and fail identically in every round and run.
FAULTY_Q = 0.5
FAULTY_SEED = BASE_SEED
MIN_COSINE = 0.99
MAX_Z_SCORE = 5.0


def base_seed(seed: int) -> int:
    return BASE_SEED + seed % SEED_CLASSES


@dataclass
class Round:
    """One timed round: wall time, time inside the entry point, events."""

    wall_s: float
    entry_s: float
    events: int
    attempted: int
    result: object  # what the entry point returned
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)  # why operations failed
    digest: str = ""  # SHA-256 of sweep.csv


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Sweep:
    """A (q, beta, trial) sweep through ``harness.run_experiment``."""

    def __init__(self, name: str, seed: int, size: str, out_dir: str):
        s = SIZES[size][name]
        if name == "cell8_long_blocks":
            qs, betas, ell = CELL8_Q, (CELL8_BETA,), CELL8_L
        else:
            qs, betas, ell = PAPER_Q_GRID, PAPER_BETA_GRID, GRID_L
        self.name = name
        self.cfg = ExperimentConfig(
            q_values=qs,
            beta_values=betas,
            trials=s["trials"],
            optimizer=OptimizerSettings(num_iterations=s["M"], samples_per_iteration=ell),
            base_seed=base_seed(seed),
            output_dir=out_dir,
        )
        self.trials = len(qs) * len(betas) * s["trials"]
        self.events = self.queue_steps = self.trials * s["M"] * ell
        self.blocks = self.trials * s["M"]
        self.check_descent = name == "cell8_long_blocks" and size == "full"
        os.makedirs(out_dir, exist_ok=True)

    def run(self) -> Round:
        out = self.cfg.output_dir
        t0 = time.perf_counter()
        result = harness.run_experiment(self.cfg, workers=1)
        t1 = time.perf_counter()
        harness.write_sweep_csv(result, os.path.join(out, "sweep.csv"))
        harness.write_timings_csv(result, os.path.join(out, "timings.csv"))
        harness.summarize(result, out)
        t2 = time.perf_counter()
        return Round(t2 - t0, t1 - t0, self.events, self.trials, result)

    def check(self, rnd: Round) -> None:
        """Fill in failed trials and output problems of a round."""
        cfg, recs = self.cfg, rnd.result.records
        expected = {(q, b, t) for q in cfg.q_values for b in cfg.beta_values
                    for t in range(cfg.trials)}
        if sorted((r.q, r.beta, r.trial) for r in recs) != sorted(expected):
            rnd.problems.append("records do not cover each (q, beta, trial) once")
        rnd.notes = [f"q={r.q} beta={r.beta} trial={r.trial} diverged" for r in recs if r.diverged]
        rnd.failed = len(rnd.notes)
        bound = float(np.linalg.norm(np.maximum(
            np.abs(cfg.optimizer.box_min - cfg.network.theta_target),
            np.abs(cfg.optimizer.box_max - cfg.network.theta_target))))
        for r in recs:
            if not r.diverged and not (math.isfinite(r.final_distance) and r.final_distance <= bound):
                rnd.problems.append(f"q={r.q} beta={r.beta} trial={r.trial}: "
                                    f"final distance {r.final_distance!r} outside [0, {bound}]")
        if self.check_descent:
            start = float(np.linalg.norm(cfg.optimizer.theta0 - cfg.network.theta_target))
            for q in cfg.q_values:
                for b in cfg.beta_values:
                    mean = rnd.result.cell_mean(q, b)
                    if not mean < start / 2.0:
                        rnd.problems.append(f"q={q} beta={b}: mean distance {mean!r} "
                                            f"not below half the initial {start}")
        rnd.digest = sha256(os.path.join(cfg.output_dir, "sweep.csv"))

    def final_check(self, rnd: Round) -> list:
        """The q = 1.0 trial 0 re-run by run_gaussian_sf on the same cell
        streams must give the same final theta, bit for bit. Run once."""
        cfg, opt = self.cfg, self.cfg.optimizer
        qi, bi = cfg.q_values.index(1.0), cfg.beta_values.index(GAUSS_CHECK_BETA)
        cell = harness.derive_cell_stream(cfg.base_seed, qi, bi, 0)
        run_cfg = TwoTimescaleConfig(
            num_iterations=opt.num_iterations,
            samples_per_iteration=opt.samples_per_iteration,
            q=1.0,
            beta=GAUSS_CHECK_BETA,
            box_min=opt.box_min,
            box_max=opt.box_max,
            theta0=opt.theta0,
            seed=cell.child("optimizer"),
            use_block_start_z=opt.use_block_start_z,
        )
        gauss = run_gaussian_sf(QueueNetwork(cfg.network, cell.child("network")), run_cfg)
        swept = harness.trace_run(cfg, 1.0, GAUSS_CHECK_BETA, 0)
        rec = next(r for r in rnd.result.records if (r.q, r.beta, r.trial) == (1.0, GAUSS_CHECK_BETA, 0))
        dist = float(np.linalg.norm(gauss.final_theta - cfg.network.theta_target))
        if not (np.array_equal(gauss.final_theta, swept.final_theta) and dist == rec.final_distance):
            return [f"run_gaussian_sf final theta {gauss.final_theta!r} differs from "
                    f"the q=1.0 sweep trial {swept.final_theta!r}"]
        return []


class EstimatorBatch:
    """``sfgrad.estimate_gradient`` on |x|^2 in dim 4 at a fixed theta."""

    name = "estimator_batch"

    def __init__(self, seed: int, size: str, out_dir: str):
        m = SIZES[size][self.name]["M"]
        self.theta = np.array(EST_THETA)
        self.grad = 2.0 * self.theta
        self.calls = [
            (q, sfgrad.GradEstimatorConfig(q=q, beta=EST_BETA, dim=4, num_perturbations=m),
             (FAULTY_SEED if q == FAULTY_Q else base_seed(seed), i))
            for i, q in enumerate(EST_Q)
        ]
        self.events = m * len(EST_Q)
        self.queue_steps = self.blocks = 0
        self.path = os.path.join(out_dir, "estimates.csv")
        os.makedirs(out_dir, exist_ok=True)

    @staticmethod
    def objective(x):
        return np.einsum("ij,ij->i", x, x)

    def run(self) -> Round:
        t0 = time.perf_counter()
        entry = 0.0
        estimates = []
        for q, cfg, (seed, stream_id) in self.calls:
            stream = RngStream(seed, stream_id)
            t = time.perf_counter()
            try:
                est = sfgrad.estimate_gradient(self.objective, self.theta, cfg, stream, vectorized=True)
            except ConvergenceError as exc:
                est = exc
            entry += time.perf_counter() - t
            estimates.append(est)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("q,component,value,stderr\n")
            for (q, _, _), est in zip(self.calls, estimates):
                if isinstance(est, Exception):
                    fh.write(f"{q!r},,{est},\n")
                    continue
                for i, (v, se) in enumerate(zip(est.value, est.stderr)):
                    fh.write(f"{q!r},{i},{v!r},{se!r}\n")
        return Round(time.perf_counter() - t0, entry, self.events, len(self.calls), estimates)

    def call_problem(self, q: float, est) -> str | None:
        """Why one call's estimate is wrong, or None when it passes."""
        if isinstance(est, Exception):
            return f"raised {est!r}"
        v = est.value
        cos = float(v @ self.grad / (np.linalg.norm(v) * np.linalg.norm(self.grad)))
        if not cos >= MIN_COSINE:
            return f"cosine to 2*theta is {cos:.4f} < {MIN_COSINE}"
        if q == 1.0:  # Lambda_1 = 1: the estimate itself is unbiased for 2*theta
            z = np.abs(v - self.grad) / est.stderr
            if not np.all(z <= MAX_Z_SCORE):
                return f"components {np.round(z, 2)} standard errors from 2*theta"
        return None

    def check(self, rnd: Round) -> None:
        for (q, _, _), est in zip(self.calls, rnd.result):
            problem = self.call_problem(q, est)
            if problem is not None:
                rnd.notes.append(f"q={q}: {problem}")
        rnd.failed = len(rnd.notes)

    def final_check(self, rnd: Round) -> list:
        return []


def build(name: str, seed: int, size: str, out_root: str):
    out_dir = os.path.join(out_root, name)
    if name == EstimatorBatch.name:
        return EstimatorBatch(seed, size, out_dir)
    return Sweep(name, seed, size, out_dir)
