"""Experiment orchestration: config files, (q, beta) sweeps, persistence.

A sweep runs the optimizer over the queueing benchmark for every
(q, beta, trial) cell, each cell with its own hash-derived random streams, so
results are reproducible and independent of how many workers execute them.
The performance measure per trial is the Euclidean distance between the final
parameter vector and the service-time target.

File outputs: ``sweep.csv`` (one row per trial, deterministic bytes),
``summary.csv`` / ``summary_stderr.csv`` (q rows by beta columns),
``timings.csv`` (wall times, excluded from the determinism guarantee), and
``trace_*.csv`` distance curves for single traced runs.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .optimizer import RunTrace, TwoTimescaleConfig, run_qsf
from .queuesim import QueueNetwork, QueueNetworkConfig
from .rng import RngStream

PAPER_Q_GRID = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 2.0, 2.5)
PAPER_BETA_GRID = (0.0005, 0.005, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


@dataclass(frozen=True)
class OptimizerSettings:
    """Sweep-invariant optimizer fragment (kernel q, beta vary per cell)."""

    num_iterations: int = 10000
    samples_per_iteration: int = 100
    box_min: np.ndarray = field(default=None)  # type: ignore[assignment]
    box_max: np.ndarray = field(default=None)  # type: ignore[assignment]
    theta0: np.ndarray = field(default=None)  # type: ignore[assignment]
    use_block_start_z: bool = False

    def __post_init__(self):
        box_min = np.zeros(4) if self.box_min is None else np.asarray(self.box_min, float)
        box_max = np.full(4, 5.0) if self.box_max is None else np.asarray(self.box_max, float)
        theta0 = np.full(4, 5.0) if self.theta0 is None else np.asarray(self.theta0, float)
        object.__setattr__(self, "box_min", box_min)
        object.__setattr__(self, "box_max", box_max)
        object.__setattr__(self, "theta0", theta0)


@dataclass(frozen=True)
class ExperimentConfig:
    q_values: tuple = PAPER_Q_GRID
    beta_values: tuple = PAPER_BETA_GRID
    trials: int = 20
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    network: QueueNetworkConfig = field(default_factory=QueueNetworkConfig)
    base_seed: int = 20240101
    output_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "q_values", tuple(float(q) for q in self.q_values))
        object.__setattr__(self, "beta_values", tuple(float(b) for b in self.beta_values))
        if not all(q < 3.0 for q in self.q_values):  # also rejects NaN
            raise ConfigError("q_values must all be < 3")
        if not all(b > 0.0 for b in self.beta_values):
            raise ConfigError("beta_values must all be > 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        dim = self.network.dim
        opt = self.optimizer
        for name in ("box_min", "box_max", "theta0"):
            if getattr(opt, name).shape != (dim,):
                raise ConfigError(f"optimizer.{name} must have length N1+N2 = {dim}")
        if opt.num_iterations < 1 or opt.samples_per_iteration < 1:
            raise ConfigError("optimizer.M and optimizer.L must be >= 1")
        if not np.all(opt.box_min < opt.box_max):
            raise ConfigError("optimizer.box_min must lie below optimizer.box_max componentwise")
        if np.any(opt.theta0 < opt.box_min) or np.any(opt.theta0 > opt.box_max):
            raise ConfigError("optimizer.theta0 must lie inside the box")


@dataclass(frozen=True, slots=True)  # a full grid holds thousands; keep each small
class TrialRecord:
    q: float
    beta: float
    trial: int
    final_distance: float  # nan when the run diverged
    diverged: bool
    boundary_stuck: bool
    wall_time: float


@dataclass
class SweepResult:
    config: ExperimentConfig
    records: list

    def cell_records(self, q: float, beta: float) -> list:
        return [r for r in self.records if r.q == q and r.beta == beta]

    def cell_mean(self, q: float, beta: float) -> float:
        vals = [r.final_distance for r in self.cell_records(q, beta) if not r.diverged]
        return float(np.mean(vals)) if vals else math.nan

    def cell_stderr(self, q: float, beta: float) -> float:
        vals = [r.final_distance for r in self.cell_records(q, beta) if not r.diverged]
        if len(vals) < 2:
            return math.nan
        return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))

    def cell_divergent(self, q: float, beta: float) -> bool:
        """A summary cell counts as divergent when a majority of its trials
        tripped the tracker guard or finished stuck on the box boundary."""
        recs = self.cell_records(q, beta)
        flagged = sum(1 for r in recs if r.diverged or r.boundary_stuck)
        return flagged > len(recs) / 2.0


def derive_cell_stream(base_seed: int, q_index: int, beta_index: int, trial: int) -> RngStream:
    """Deterministic per-cell stream; distinct cells never share stream ids."""
    return RngStream(base_seed).child("cell", q_index, beta_index, trial)


def _initial_distance(cfg: ExperimentConfig) -> float:
    return float(np.linalg.norm(cfg.optimizer.theta0 - cfg.network.theta_target))


def _build_trial(
    cfg: ExperimentConfig, q_index: int, beta_index: int, trial: int
) -> tuple[QueueNetwork, TwoTimescaleConfig]:
    """The fresh network and optimizer config of one (q, beta, trial) cell."""
    cell = derive_cell_stream(cfg.base_seed, q_index, beta_index, trial)
    opt = cfg.optimizer
    run_cfg = TwoTimescaleConfig(
        num_iterations=opt.num_iterations,
        samples_per_iteration=opt.samples_per_iteration,
        q=cfg.q_values[q_index],
        beta=cfg.beta_values[beta_index],
        box_min=opt.box_min,
        box_max=opt.box_max,
        theta0=opt.theta0,
        seed=cell.child("optimizer"),
        use_block_start_z=opt.use_block_start_z,
    )
    return QueueNetwork(cfg.network, cell.child("network")), run_cfg


def run_single_trial(cfg: ExperimentConfig, q_index: int, beta_index: int, trial: int) -> TrialRecord:
    """One (q, beta, trial) cell: fresh network, fresh streams, one optimizer run."""
    network, run_cfg = _build_trial(cfg, q_index, beta_index, trial)
    q, beta = run_cfg.q, run_cfg.beta
    start = time.perf_counter()
    try:
        trace = run_qsf(network, run_cfg, keep_records=False)
    except DivergenceError:
        return TrialRecord(q, beta, trial, math.nan, True, False, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    final = trace.final_theta
    opt = cfg.optimizer
    dist = float(np.linalg.norm(final - cfg.network.theta_target))
    on_boundary = bool(np.any(final == opt.box_min) or np.any(final == opt.box_max))
    stuck = on_boundary and dist > _initial_distance(cfg)
    return TrialRecord(q, beta, trial, dist, False, stuck, elapsed)


def _worker(args) -> TrialRecord:
    cfg, qi, bi, trial = args
    return run_single_trial(cfg, qi, bi, trial)


def run_experiment(cfg: ExperimentConfig, *, workers: int = 1) -> SweepResult:
    """Execute the full sweep grid; outputs are independent of worker count."""
    tasks = [
        (cfg, qi, bi, trial)
        for qi in range(len(cfg.q_values))
        for bi in range(len(cfg.beta_values))
        for trial in range(cfg.trials)
    ]
    ids = {
        derive_cell_stream(cfg.base_seed, qi, bi, t).stream_id for (_, qi, bi, t) in tasks
    }
    if len(ids) != len(tasks):
        raise ConfigError("cell stream-id collision detected; change base_seed")
    if workers <= 1:
        records = [_worker(t) for t in tasks]
    else:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            records = pool.map(_worker, tasks, chunksize=1)
    return SweepResult(config=cfg, records=records)


def trace_run(cfg: ExperimentConfig, q: float, beta: float, trial: int) -> RunTrace:
    """Re-run a single cell (identified by values, not indices) with its trace."""
    try:
        qi = cfg.q_values.index(float(q))
        bi = cfg.beta_values.index(float(beta))
    except ValueError as exc:
        raise ConfigError(f"(q={q}, beta={beta}) is not on the sweep grid") from exc
    network, run_cfg = _build_trial(cfg, qi, bi, trial)
    return run_qsf(network, run_cfg)


# ---------------------------------------------------------------------------
# persistence


def write_sweep_csv(result: SweepResult, path) -> None:
    """Trial-level records; bytes are deterministic for a given config+seed."""
    rows = sorted(result.records, key=lambda r: (r.q, r.beta, r.trial))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q,beta,trial,final_distance,diverged,boundary_stuck\n")
        for r in rows:
            fh.write(
                f"{r.q!r},{r.beta!r},{r.trial},{r.final_distance!r},"
                f"{int(r.diverged)},{int(r.boundary_stuck)}\n"
            )


def write_timings_csv(result: SweepResult, path) -> None:
    """Wall times per trial; informational only, not byte-reproducible."""
    rows = sorted(result.records, key=lambda r: (r.q, r.beta, r.trial))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q,beta,trial,wall_time_seconds\n")
        for r in rows:
            fh.write(f"{r.q!r},{r.beta!r},{r.trial},{r.wall_time:.3f}\n")


def read_sweep_csv(path, config: ExperimentConfig | None = None) -> SweepResult:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "q,beta,trial,final_distance,diverged,boundary_stuck":
            raise ConfigError(f"unrecognized sweep header in {path}: {header!r}")
        for line in fh:
            q, beta, trial, dist, div, stuck = line.strip().split(",")
            records.append(
                TrialRecord(
                    float(q), float(beta), int(trial), float(dist),
                    bool(int(div)), bool(int(stuck)), math.nan,
                )
            )
    if config is None:
        qs = tuple(sorted({r.q for r in records}))
        bs = tuple(sorted({r.beta for r in records}))
        trials = max(r.trial for r in records) + 1 if records else 1
        config = ExperimentConfig(q_values=qs, beta_values=bs, trials=trials)
    return SweepResult(config=config, records=records)


def summarize(result: SweepResult, output_dir=None) -> list:
    """Mean-distance table, q rows by beta columns; majority-divergent cells
    render as DIV. Optionally writes summary.csv and summary_stderr.csv."""
    cfg = result.config
    table = [["q\\beta"] + [f"{b:g}" for b in cfg.beta_values]]
    stderr_table = [table[0][:]]
    for q in cfg.q_values:
        row = [f"{q:g}"]
        erow = [f"{q:g}"]
        for b in cfg.beta_values:
            if result.cell_divergent(q, b):
                row.append("DIV")
                erow.append("DIV")
            else:
                row.append(repr(result.cell_mean(q, b)))
                se = result.cell_stderr(q, b)
                erow.append("" if math.isnan(se) else repr(se))
        table.append(row)
        stderr_table.append(erow)
    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)
        for name, tab in (("summary.csv", table), ("summary_stderr.csv", stderr_table)):
            with open(os.path.join(output_dir, name), "w", encoding="utf-8", newline="\n") as fh:
                for row in tab:
                    fh.write(",".join(row) + "\n")
    return table


def emit_trace(trace: RunTrace, path, target: np.ndarray) -> None:
    """Distance-to-target curve, one row per outer iteration (plot-ready)."""
    dists = trace.distances(target)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n,distance_to_target\n")
            for rec, d in zip(trace.records, dists):
                fh.write(f"{rec.n},{float(d)!r}\n")
    except OSError as exc:
        raise OSError(f"could not write trace to {path}: {exc}") from exc


def write_full_trace(trace: RunTrace, path, target: np.ndarray) -> None:
    """Full per-iteration state: parameters, tracker, block cost, distance."""
    dim = trace.final_theta.shape[0]
    head = (
        ["n"]
        + [f"theta_{i + 1}" for i in range(dim)]
        + [f"Z_{i + 1}" for i in range(dim)]
        + ["block_mean_cost", "distance_to_target"]
    )
    dists = trace.distances(target)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(head) + "\n")
        for rec, d in zip(trace.records, dists):
            cells = [str(rec.n)]
            cells += [repr(float(v)) for v in rec.theta]
            cells += [repr(float(v)) for v in rec.z]
            cells += [repr(float(rec.block_mean_cost)), repr(float(d))]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# config files (JSON; key names are part of the interface)

def _integer(key: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _number(key: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _numbers(key: str, value):
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    for i, v in enumerate(value):
        _number(f"{key}[{i}]", v)


def _flag(key: str, value):
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")


def _text(key: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")


# Each accepted key with the check of its JSON value; the key names are part
# of the interface.
_OPTIMIZER_KEYS = {"M": _integer, "L": _integer, "box_min": _numbers, "box_max": _numbers,
                   "theta0": _numbers, "use_block_start_z": _flag}
_NETWORK_KEYS = {"lambda1": _number, "lambda2": _number, "p_exit": _number, "R1": _number,
                 "R2": _number, "N1": _integer, "N2": _integer, "theta_target": _numbers,
                 "count_in_service": _flag}
_TOP_KEYS = {"q_values": _numbers, "beta_values": _numbers, "trials": _integer,
             "optimizer": None, "network": None, "base_seed": _integer, "output_dir": _text}


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config; missing keys take the benchmark defaults.

    Unknown keys and malformed or out-of-range values are reported with their
    key path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(raw) - set(_TOP_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    opt_raw = raw.get("optimizer", {})
    net_raw = raw.get("network", {})
    for section, keys, allowed in (("optimizer", opt_raw, _OPTIMIZER_KEYS),
                                   ("network", net_raw, _NETWORK_KEYS)):
        if not isinstance(keys, dict):
            raise ConfigError(f"{path}: {section} must be an object")
        bad = set(keys) - set(allowed)
        if bad:
            raise ConfigError(f"{path}: unknown keys {sorted(section + '.' + k for k in bad)}")
    try:
        for prefix, keys, checks in (("", raw, _TOP_KEYS), ("optimizer.", opt_raw, _OPTIMIZER_KEYS),
                                     ("network.", net_raw, _NETWORK_KEYS)):
            for key, value in keys.items():
                if checks[key] is not None:
                    checks[key](prefix + key, value)
        network = QueueNetworkConfig(
            lambda1=net_raw.get("lambda1", 0.2),
            lambda2=net_raw.get("lambda2", 0.1),
            p_exit=net_raw.get("p_exit", 0.4),
            R1=net_raw.get("R1", 10.0),
            R2=net_raw.get("R2", 20.0),
            N1=net_raw.get("N1", 2),
            N2=net_raw.get("N2", 2),
            theta_target=net_raw.get("theta_target"),
            count_in_service=net_raw.get("count_in_service", True),
        )
        dim = network.dim
        optimizer = OptimizerSettings(
            num_iterations=opt_raw.get("M", 10000),
            samples_per_iteration=opt_raw.get("L", 100),
            box_min=opt_raw.get("box_min", [0.0] * dim),
            box_max=opt_raw.get("box_max", [5.0] * dim),
            theta0=opt_raw.get("theta0", [5.0] * dim),
            use_block_start_z=opt_raw.get("use_block_start_z", False),
        )
        return ExperimentConfig(
            q_values=tuple(raw.get("q_values", PAPER_Q_GRID)),
            beta_values=tuple(raw.get("beta_values", PAPER_BETA_GRID)),
            trials=raw.get("trials", 20),
            optimizer=optimizer,
            network=network,
            base_seed=raw.get("base_seed", 20240101),
            output_dir=raw.get("output_dir", "results"),
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_config(cfg: ExperimentConfig, path) -> None:
    payload = {
        "q_values": list(cfg.q_values),
        "beta_values": list(cfg.beta_values),
        "trials": cfg.trials,
        "base_seed": cfg.base_seed,
        "output_dir": cfg.output_dir,
        "optimizer": {
            "M": cfg.optimizer.num_iterations,
            "L": cfg.optimizer.samples_per_iteration,
            "box_min": list(map(float, cfg.optimizer.box_min)),
            "box_max": list(map(float, cfg.optimizer.box_max)),
            "theta0": list(map(float, cfg.optimizer.theta0)),
            "use_block_start_z": cfg.optimizer.use_block_start_z,
        },
        "network": {
            "lambda1": cfg.network.lambda1,
            "lambda2": cfg.network.lambda2,
            "p_exit": cfg.network.p_exit,
            "R1": cfg.network.R1,
            "R2": cfg.network.R2,
            "N1": cfg.network.N1,
            "N2": cfg.network.N2,
            "theta_target": list(map(float, cfg.network.theta_target)),
            "count_in_service": cfg.network.count_in_service,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
