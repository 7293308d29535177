"""Experiment orchestration: config files, (q, beta) sweeps, persistence.

A sweep runs the optimizer over the queueing benchmark for every
(q, beta, trial) cell, each cell with its own hash-derived random streams, so
results are reproducible and independent of how many workers execute them.
The performance measure per trial is the Euclidean distance between the final
parameter vector and the service-time target.

A sweep's results are its :class:`SweepResult`. File outputs: ``sweep.csv``
(``SWEEP_HEADER``, then :func:`sweep_rows`: one row per trial in (q, beta,
trial) order, deterministic bytes), ``summary.csv`` / ``summary_stderr.csv``
(q rows by beta columns, both ascending), ``timings.csv`` (wall times, excluded
from the determinism guarantee), and ``trace_*.csv`` distance curves for
single traced runs.

The sweep runs its cells in lane batches of at most ``LANE_BATCH`` trials:
each batch is one :func:`qsf.optimizer.run_lanes` call, so its per-block
work is one NumPy step for all its trials, and with ``workers > 1`` whole
batches go to the worker processes. A trial's ``wall_time`` is its share of
its batch's run time.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError
from .optimizer import OptimizerSettings, RunTrace, TwoTimescaleConfig, run_lanes, run_qsf
from .qgauss import QGaussianSpec, check_size
from .queuesim import QueueNetwork, QueueNetworkConfig
from .rng import RngStream

PAPER_Q_GRID = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 2.0, 2.5)
PAPER_BETA_GRID = (0.0005, 0.005, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

# Trials per run_lanes call. 32 lanes take the per-block NumPy calls off the
# per-trial cost; larger batches gain little and hold more lanes (29 to 38 KB
# each at a chunk's peak, see qsf.optimizer) at once. perfbench
# grid_short_blocks, five 20 s runs per size on a shared 2-core x86-64 VM,
# median events/s and peak RSS: 32 lanes 2.11e5 and 39.1 MB, 64 lanes
# 2.10e5 and 40.0 MB, 128 lanes 2.18e5 and 41.6 MB.
LANE_BATCH = 32


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
        # each grid value is checked by a kernel spec; q = 1 stands in beside a beta
        kernels = [("q_values", i, (q,)) for i, q in enumerate(self.q_values)]
        kernels += [("beta_values", i, (1.0, b)) for i, b in enumerate(self.beta_values)]
        for name, i, kernel in kernels:
            try:
                QGaussianSpec(*kernel)
            except ValueError as exc:
                raise ConfigError(f"{name}[{i}]: {exc}") from exc
        for name in ("q_values", "beta_values"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):  # 0.0 == -0.0 counts as a repeat
                raise ConfigError(f"{name} must hold at least one value and none twice")
        try:
            check_size("trials", self.trials)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        dim = self.network.dim
        if self.optimizer.theta0.shape != (dim,):
            raise ConfigError(f"optimizer.box_min, optimizer.box_max and optimizer.theta0 "
                              f"must have length N1+N2 = {dim}")


@dataclass(frozen=True, slots=True)  # a full grid holds thousands; keep each small
class TrialRecord:
    q: float
    beta: float
    trial: int
    final_distance: float  # nan when the run diverged
    diverged: bool
    boundary_stuck: bool
    wall_time: float


# One row per trial: TrialRecord's fields in their order, 38 bytes a trial
# where a TrialRecord takes about 140. The benchmark (perfbench) keeps every
# round's result, so results are kept as rows; float64 keeps each q and beta
# bit for bit, -0.0 included.
_ROW = np.dtype([("q", "f8"), ("beta", "f8"), ("trial", "i4"), ("final_distance", "f8"),
                 ("diverged", "?"), ("boundary_stuck", "?"), ("wall_time", "f8")])


class SweepResult:
    """The config of a sweep and its trial records, in the order given, kept
    as rows of _ROW; ``records`` builds the TrialRecords."""

    __slots__ = ("config", "_rows")

    def __init__(self, config: ExperimentConfig, records):
        self.config = config
        self._rows = np.array([tuple(getattr(r, name) for name in _ROW.names) for r in records], _ROW)

    @property
    def records(self) -> list:
        return [TrialRecord(*row) for row in self._rows.tolist()]

    def cell_mean(self, q: float, beta: float) -> float:
        return _mean(_distances(_cells(self.records).get((q, beta), ())))


def _cells(records) -> dict:
    """The records of each (q, beta) cell, in record order."""
    cells = {}
    for r in records:
        cells.setdefault((r.q, r.beta), []).append(r)
    return cells


# Statistics of one cell's records, as _cells groups them.

def _distances(cell) -> list:
    """The final distances of the cell's trials that did not diverge."""
    return [r.final_distance for r in cell if not r.diverged]


def _mean(vals: list) -> float:
    return float(np.mean(vals)) if vals else math.nan


def _stderr(vals: list) -> float:
    if len(vals) < 2:
        return math.nan
    return float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def _divergent(cell) -> bool:
    """A summary cell counts as divergent when a majority of its trials
    tripped the tracker guard or finished stuck on the box boundary."""
    return sum(r.diverged or r.boundary_stuck for r in cell) > len(cell) / 2.0


def derive_cell_stream(base_seed: int, q_index: int, beta_index: int, trial: int) -> RngStream:
    """Deterministic per-cell stream; distinct cells never share stream ids."""
    return RngStream(base_seed).child("cell", q_index, beta_index, trial)


def _initial_distance(cfg: ExperimentConfig) -> float:
    return float(np.linalg.norm(cfg.optimizer.theta0 - cfg.network.theta_target))


def _build_trial(cfg: ExperimentConfig, cell: RngStream, q_index: int, beta_index: int) -> tuple:
    """The fresh network and the (q, beta, seed) lane of the (q, beta) cell
    whose trial stream is ``cell``."""
    lane = (cfg.q_values[q_index], cfg.beta_values[beta_index], cell.child("optimizer"))
    return QueueNetwork(cfg.network, cell.child("network")), lane


def _run_batch(cfg: ExperimentConfig, tasks: list) -> list:
    """The TrialRecords of ``tasks``, (q_index, beta_index, trial, cell
    stream) tuples, run as the lanes of one run_lanes call."""
    networks, lanes = zip(*(_build_trial(cfg, cell, qi, bi) for qi, bi, _, cell in tasks))
    start = time.perf_counter()
    traces = run_lanes(networks, cfg.optimizer, lanes)
    share = (time.perf_counter() - start) / len(tasks)
    opt, target, initial = cfg.optimizer, cfg.network.theta_target, _initial_distance(cfg)
    records = []
    for (qi, bi, trial, _), trace in zip(tasks, traces):
        q, beta = cfg.q_values[qi], cfg.beta_values[bi]
        if isinstance(trace, DivergenceError):
            records.append(TrialRecord(q, beta, trial, math.nan, True, False, share))
            continue
        final = trace.final_theta
        dist = float(np.linalg.norm(final - target))
        on_boundary = bool(np.any(final == opt.box_min) or np.any(final == opt.box_max))
        records.append(TrialRecord(q, beta, trial, dist, False, on_boundary and dist > initial, share))
    return records


def run_single_trial(cfg: ExperimentConfig, q_index: int, beta_index: int, trial: int) -> TrialRecord:
    """One (q, beta, trial) cell: fresh network, fresh streams, one optimizer run."""
    cell = derive_cell_stream(cfg.base_seed, q_index, beta_index, trial)
    return _run_batch(cfg, [(q_index, beta_index, trial, cell)])[0]


def run_experiment(cfg: ExperimentConfig, *, workers: int = 1) -> SweepResult:
    """Execute the full sweep grid; outputs are independent of worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tasks = [
        (qi, bi, trial, derive_cell_stream(cfg.base_seed, qi, bi, trial))
        for qi in range(len(cfg.q_values))
        for bi in range(len(cfg.beta_values))
        for trial in range(cfg.trials)
    ]
    if len({cell.stream_id for *_, cell in tasks}) != len(tasks):
        raise ConfigError("cell stream-id collision detected; change base_seed")
    batches = [(cfg, tasks[i : i + LANE_BATCH]) for i in range(0, len(tasks), LANE_BATCH)]
    if workers <= 1:
        parts = [_run_batch(*batch) for batch in batches]
    else:
        with multiprocessing.get_context("spawn").Pool(min(workers, len(batches))) as pool:
            parts = pool.starmap(_run_batch, batches, chunksize=1)
    return SweepResult(config=cfg, records=[r for part in parts for r in part])


def trace_run(cfg: ExperimentConfig, q: float, beta: float, trial: int) -> RunTrace:
    """Re-run a single cell (identified by values, not indices) with its
    trace; q, beta and the trial must be those of a cell of the sweep."""
    try:
        qi = cfg.q_values.index(float(q))
        bi = cfg.beta_values.index(float(beta))
    except ValueError as exc:
        raise ConfigError(f"(q={q}, beta={beta}) is not on the sweep grid") from exc
    _integer("trial", trial)  # a float or NumPy trial would hash to another stream
    if trial not in range(cfg.trials):
        raise ConfigError(f"trial {trial} is not one of the sweep's trials 0..{cfg.trials - 1}")
    network, (q, beta, seed) = _build_trial(cfg, derive_cell_stream(cfg.base_seed, qi, bi, trial), qi, bi)
    return run_qsf(network, TwoTimescaleConfig(**vars(cfg.optimizer), q=q, beta=beta, seed=seed))


# ---------------------------------------------------------------------------
# persistence


# sweep.csv's format: this header, then one row per trial in (q, beta, trial)
# order; repr round-trips every float, nan and -0.0 included.
SWEEP_HEADER = "q,beta,trial,final_distance,diverged,boundary_stuck"


def _file_order(records) -> list:
    return sorted(records, key=lambda r: (r.q, r.beta, r.trial))


def sweep_rows(records) -> list:
    """The sweep.csv rows of ``records``, in file order, without newlines."""
    return [f"{r.q!r},{r.beta!r},{r.trial},{r.final_distance!r},"
            f"{int(r.diverged)},{int(r.boundary_stuck)}" for r in _file_order(records)]


def write_sweep_csv(result: SweepResult, path) -> None:
    """Trial-level records; bytes are deterministic for a given config+seed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for row in sweep_rows(result.records):
            fh.write(row + "\n")


def write_timings_csv(result: SweepResult, path) -> None:
    """Wall times per trial; informational only, not byte-reproducible."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q,beta,trial,wall_time_seconds\n")
        for r in _file_order(result.records):
            fh.write(f"{r.q!r},{r.beta!r},{r.trial},{r.wall_time:.3f}\n")


def read_sweep_csv(path, config: ExperimentConfig | None = None) -> SweepResult:
    """The records of a sweep.csv file, with nan wall times; a malformed row,
    or one whose q, beta or trial is out of range, is a ConfigError that
    names its line. Without ``config``, the grid is the file's."""
    rows = {}  # (q, beta, trial): its record
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SWEEP_HEADER:
            raise ConfigError(f"unrecognized sweep header in {path}: {header!r}")
        for n, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            try:
                if len(fields) != 6:
                    raise ValueError(f"expected 6 fields, got {len(fields)}")
                q, beta, trial, dist, div, stuck = fields
                if not {div, stuck} <= {"0", "1"}:
                    raise ValueError(f"diverged and boundary_stuck must be 0 or 1: {div!r}, {stuck!r}")
                key = (float(q), float(beta), int(trial))
                QGaussianSpec(key[0], key[1])
                if key[2] < 0:
                    raise ValueError(f"trial must be an integer >= 0 (got {key[2]})")
                if key in rows:
                    raise ValueError(f"repeats q={key[0]!r}, beta={key[1]!r}, trial {key[2]}")
                dist = float(dist)
                if div == "1" and not (math.isnan(dist) and stuck == "0"):
                    raise ValueError(f"a diverged row has final_distance nan and boundary_stuck 0"
                                     f" (got {dist!r}, {stuck})")
                if div == "0" and not (math.isfinite(dist) and dist >= 0.0):
                    raise ValueError(f"final_distance must be finite and >= 0 (got {dist!r})")
                rows[key] = TrialRecord(*key, dist, div == "1", stuck == "1", math.nan)
            except ValueError as exc:
                raise ConfigError(f"{path}, line {n}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}, line 2: no trial rows after the header")
    if config is None:
        qs = tuple(sorted({q for q, _, _ in rows}))
        bs = tuple(sorted({beta for _, beta, _ in rows}))
        trials = max(trial for _, _, trial in rows) + 1
        config = ExperimentConfig(q_values=qs, beta_values=bs, trials=trials)
    return SweepResult(config=config, records=rows.values())


def summarize(result: SweepResult, output_dir=None) -> list:
    """Mean-distance table, q rows by beta columns, both in ascending order
    as in sweep.csv; majority-divergent cells render as DIV. Optionally
    writes summary.csv and summary_stderr.csv."""
    qs, betas = sorted(result.config.q_values), sorted(result.config.beta_values)
    cells = _cells(result.records)
    table = [["q\\beta"] + [f"{b:g}" for b in betas]]
    stderr_table = [table[0][:]]
    for q in qs:
        row = [f"{q:g}"]
        erow = [f"{q:g}"]
        for b in betas:
            cell = cells.get((q, b), ())
            if _divergent(cell):
                row.append("DIV")
                erow.append("DIV")
            else:
                vals = _distances(cell)
                row.append(repr(_mean(vals)))
                se = _stderr(vals)
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,distance_to_target\n")
        for rec, d in zip(trace.records, dists):
            fh.write(f"{rec.n},{float(d)!r}\n")


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


# Per JSON section, each accepted key with its dataclass field and the check
# of its JSON value, or the table of its keys when the value is a section;
# the key names are part of the interface. A key that is absent takes the
# field's default.
_OPTIMIZER_KEYS = {"M": ("num_iterations", _integer), "L": ("samples_per_iteration", _integer),
                   "box_min": ("box_min", _numbers), "box_max": ("box_max", _numbers),
                   "theta0": ("theta0", _numbers), "use_block_start_z": ("use_block_start_z", _flag)}
_NETWORK_KEYS = {key: (key, check) for key, check in (
    ("lambda1", _number), ("lambda2", _number), ("p_exit", _number), ("R1", _number),
    ("R2", _number), ("N1", _integer), ("N2", _integer), ("theta_target", _numbers),
    ("count_in_service", _flag))}
_TOP_KEYS = {"q_values": ("q_values", _numbers), "beta_values": ("beta_values", _numbers),
             "trials": ("trials", _integer), "optimizer": ("optimizer", _OPTIMIZER_KEYS),
             "network": ("network", _NETWORK_KEYS), "base_seed": ("base_seed", _integer),
             "output_dir": ("output_dir", _text)}


def _fields(prefix: str, raw: dict, keys: dict) -> dict:
    """The dataclass fields that a JSON object sets, each value checked; a
    section's value is the dict of its own fields."""
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(prefix + k for k in unknown)}")
    fields = {}
    for key, value in raw.items():
        name, check = keys[key]
        if isinstance(check, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be an object")
            value = _fields(f"{prefix}{key}.", value, check)
        else:
            check(prefix + key, value)
        fields[name] = value
    return fields


def _build(cls, section: str, fields: dict):
    """``cls(**fields)``; its ValueError is a ConfigError that names the
    JSON key path of each field it names."""
    try:
        return cls(**fields)
    except ValueError as exc:
        paths = {name: f"{section}.{key}" for key, (name, _) in _TOP_KEYS[section][1].items()}
        raise ConfigError(re.sub(r"\w+", lambda m: paths.get(m[0], m[0]), str(exc))) from exc


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
    try:
        fields = _fields("", raw, _TOP_KEYS)
        network = _build(QueueNetworkConfig, "network", fields.pop("network", {}))
        # the box and theta0 default to the network's dimension
        dim = network.dim
        sized = {"box_min": [0.0] * dim, "box_max": [5.0] * dim, "theta0": [5.0] * dim}
        optimizer = _build(OptimizerSettings, "optimizer", sized | fields.pop("optimizer", {}))
        return ExperimentConfig(**fields, optimizer=optimizer, network=network)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _payload(obj, keys: dict) -> dict:
    """The JSON object of a config dataclass, by its key table."""
    payload = {}
    for key, (name, check) in keys.items():
        value = getattr(obj, name)
        if isinstance(check, dict):
            value = _payload(value, check)
        elif isinstance(value, (tuple, np.ndarray)):
            value = list(map(float, value))
        payload[key] = value
    return payload


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_payload(cfg, _TOP_KEYS), fh, indent=2, sort_keys=True)
        fh.write("\n")
