import json
import math

import numpy as np
import pytest

from qsf.errors import ConfigError
from qsf.harness import (
    ExperimentConfig,
    OptimizerSettings,
    SweepResult,
    TrialRecord,
    derive_cell_stream,
    emit_trace,
    load_config,
    read_sweep_csv,
    run_experiment,
    run_single_trial,
    save_config,
    summarize,
    trace_run,
    write_full_trace,
    write_sweep_csv,
    write_timings_csv,
)
from qsf.optimizer import TwoTimescaleConfig, run_gaussian_sf
from qsf.queuesim import QueueNetwork, QueueNetworkConfig


def tiny_config(**kw):
    defaults = dict(
        q_values=(0.9,),
        beta_values=(0.25,),
        trials=2,
        optimizer=OptimizerSettings(num_iterations=25, samples_per_iteration=5),
        base_seed=777,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# config files


def test_empty_config_takes_benchmark_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_config(path)
    assert cfg.network.lambda1 == 0.2
    assert cfg.network.lambda2 == 0.1
    assert cfg.network.p_exit == 0.4
    assert (cfg.network.R1, cfg.network.R2) == (10.0, 20.0)
    assert (cfg.network.N1, cfg.network.N2) == (2, 2)
    assert np.array_equal(cfg.network.theta_target, np.ones(4))
    assert cfg.optimizer.num_iterations == 10000
    assert cfg.optimizer.samples_per_iteration == 100
    assert np.array_equal(cfg.optimizer.box_min, np.zeros(4))
    assert np.array_equal(cfg.optimizer.box_max, np.full(4, 5.0))
    assert np.array_equal(cfg.optimizer.theta0, np.full(4, 5.0))
    assert cfg.trials == 20
    assert 0.9 in cfg.q_values and 0.25 in cfg.beta_values


def test_config_rejects_q_of_three_or_more(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"q_values": [3.5]}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"qvalues": [0.5]}))
    with pytest.raises(ConfigError, match="qvalues"):
        load_config(path)
    path.write_text(json.dumps({"network": {"lambda3": 1.0}}))
    with pytest.raises(ConfigError, match="network.lambda3"):
        load_config(path)


@pytest.mark.parametrize("text,key", [
    ('{"trials": "3"}', "trials"),
    ('{"optimizer": {"M": 2.5}}', "optimizer.M"),
    ('{"q_values": [NaN]}', r"q_values\[0\]"),
    ('{"optimizer": {"M": 0}}', "optimizer.M"),
    ('{"optimizer": {"theta0": [6, 5, 5, 5]}}', "optimizer.theta0"),
])
def test_config_rejects_malformed_values_by_key(tmp_path, text, key):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_config_round_trip(tmp_path):
    cfg = tiny_config(q_values=(0.5, 1.2), beta_values=(0.1, 0.25), base_seed=42)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_config(cfg, p1)
    loaded = load_config(p1)
    save_config(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.q_values == cfg.q_values
    assert loaded.base_seed == cfg.base_seed
    assert loaded.optimizer.num_iterations == cfg.optimizer.num_iterations


def test_config_shape_mismatch():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            optimizer=OptimizerSettings(box_min=np.zeros(3), box_max=np.ones(3), theta0=np.zeros(3)),
            network=QueueNetworkConfig(),  # dim 4
        )


# ---------------------------------------------------------------------------
# seeds


def test_cell_streams_are_collision_free():
    ids = {
        derive_cell_stream(777, qi, bi, t).stream_id
        for qi in range(15)
        for bi in range(8)
        for t in range(20)
    }
    assert len(ids) == 15 * 8 * 20


def test_cell_streams_depend_on_base_seed():
    a = derive_cell_stream(1, 0, 0, 0).stream_id
    b = derive_cell_stream(2, 0, 0, 0).stream_id
    assert a != b


# ---------------------------------------------------------------------------
# running


def test_single_trial_is_deterministic():
    cfg = tiny_config()
    r1 = run_single_trial(cfg, 0, 0, 0)
    r2 = run_single_trial(cfg, 0, 0, 0)
    assert r1.final_distance == r2.final_distance
    assert not r1.diverged
    assert r1.q == 0.9 and r1.beta == 0.25 and r1.trial == 0


def test_trials_differ():
    cfg = tiny_config()
    r0 = run_single_trial(cfg, 0, 0, 0)
    r1 = run_single_trial(cfg, 0, 0, 1)
    assert r0.final_distance != r1.final_distance


def test_run_experiment_grid_and_summary(tmp_path):
    cfg = tiny_config(q_values=(0.9, 1.0), trials=3)
    result = run_experiment(cfg)
    assert len(result.records) == 2 * 1 * 3
    for q in (0.9, 1.0):
        cell = [r.final_distance for r in result.cell_records(q, 0.25)]
        assert len(cell) == 3
        # summary mean must equal the arithmetic mean of its records exactly
        assert result.cell_mean(q, 0.25) == float(np.mean(cell))
    table = summarize(result, tmp_path)
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary_stderr.csv").exists()
    assert table[0][0] == "q\\beta"
    assert table[1][0] == "0.9"
    assert float(table[1][1]) == result.cell_mean(0.9, 0.25)


def test_sweep_csv_round_trip(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, path)
    back = read_sweep_csv(path)
    assert len(back.records) == len(result.records)
    for a, b in zip(
        sorted(result.records, key=lambda r: (r.q, r.beta, r.trial)), back.records
    ):
        assert a.final_distance == b.final_distance
        assert a.diverged == b.diverged


def test_worker_count_does_not_change_bytes(tmp_path):
    cfg = tiny_config()
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_sweep_csv(run_experiment(cfg, workers=1), p1)
    write_sweep_csv(run_experiment(cfg, workers=2), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_timings_written(tmp_path):
    cfg = tiny_config()
    result = run_experiment(cfg)
    write_timings_csv(result, tmp_path / "timings.csv")
    lines = (tmp_path / "timings.csv").read_text().strip().split("\n")
    assert lines[0] == "q,beta,trial,wall_time_seconds"
    assert len(lines) == 3


def test_divergent_cells_render_as_div(tmp_path):
    cfg = tiny_config(trials=3)
    records = [
        TrialRecord(0.9, 0.25, 0, math.nan, True, False, 0.0),
        TrialRecord(0.9, 0.25, 1, math.nan, True, False, 0.0),
        TrialRecord(0.9, 0.25, 2, 2.0, False, False, 0.0),
    ]
    result = SweepResult(config=cfg, records=records)
    assert result.cell_divergent(0.9, 0.25)
    table = summarize(result, tmp_path)
    assert table[1][1] == "DIV"
    # a majority of clean trials keeps the mean
    records[0] = TrialRecord(0.9, 0.25, 0, 1.0, False, False, 0.0)
    records[1] = TrialRecord(0.9, 0.25, 1, 3.0, False, False, 0.0)
    result = SweepResult(config=cfg, records=records)
    assert not result.cell_divergent(0.9, 0.25)
    assert result.cell_mean(0.9, 0.25) == 2.0


# ---------------------------------------------------------------------------
# traces


def test_trace_outputs(tmp_path):
    cfg = tiny_config(optimizer=OptimizerSettings(num_iterations=15, samples_per_iteration=4))
    trace = trace_run(cfg, 0.9, 0.25, 0)
    curve = tmp_path / "trace.csv"
    emit_trace(trace, curve, cfg.network.theta_target)
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "n,distance_to_target"
    assert len(lines) == 17  # header + M + 1 rows
    n0, d0 = lines[1].split(",")
    # initial distance for the benchmark geometry: sqrt(4 * 16) = 8
    assert (int(n0), float(d0)) == (0, 8.0)

    full = tmp_path / "full.csv"
    write_full_trace(trace, full, cfg.network.theta_target)
    flines = full.read_text().strip().split("\n")
    assert flines[0] == (
        "n,theta_1,theta_2,theta_3,theta_4,Z_1,Z_2,Z_3,Z_4,"
        "block_mean_cost,distance_to_target"
    )
    assert len(flines) == 17


def test_trace_run_and_gaussian_baseline_reproduce_the_sweep_records():
    cfg = tiny_config(q_values=(0.5, 1.0, 1.5), beta_values=(0.05, 0.25),
                      optimizer=OptimizerSettings(num_iterations=40, samples_per_iteration=3))
    target = cfg.network.theta_target
    for rec in run_experiment(cfg).records:
        trace = trace_run(cfg, rec.q, rec.beta, rec.trial)
        assert float(np.linalg.norm(trace.final_theta - target)) == rec.final_distance
    # the q = 1 cell rebuilt by hand and run by the Gaussian baseline
    qi, bi, opt = 1, 1, cfg.optimizer
    cell = derive_cell_stream(cfg.base_seed, qi, bi, 0)
    run_cfg = TwoTimescaleConfig(
        num_iterations=opt.num_iterations, samples_per_iteration=opt.samples_per_iteration,
        q=1.0, beta=0.25, box_min=opt.box_min, box_max=opt.box_max, theta0=opt.theta0,
        seed=cell.child("optimizer"), use_block_start_z=opt.use_block_start_z,
    )
    gauss = run_gaussian_sf(QueueNetwork(cfg.network, cell.child("network")), run_cfg)
    assert np.array_equal(gauss.final_theta, trace_run(cfg, 1.0, 0.25, 0).final_theta)
    assert float(np.linalg.norm(gauss.final_theta - target)) == run_single_trial(cfg, qi, bi, 0).final_distance


def test_trace_run_requires_grid_point():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        trace_run(cfg, 0.123, 0.25, 0)


def test_emit_trace_bad_path_raises(tmp_path):
    cfg = tiny_config(optimizer=OptimizerSettings(num_iterations=5, samples_per_iteration=2))
    trace = trace_run(cfg, 0.9, 0.25, 0)
    with pytest.raises(OSError, match="no/such"):
        emit_trace(trace, tmp_path / "no" / "such" / "dir.csv", cfg.network.theta_target)
