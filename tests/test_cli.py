import json

import pytest

from qsf import harness
from qsf.cli import main


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(
        json.dumps(
            {
                "q_values": [0.9],
                "beta_values": [0.25],
                "trials": 2,
                "base_seed": 99,
                "optimizer": {"M": 20, "L": 5},
                "output_dir": str(tmp_path / "results"),
            }
        )
    )
    return path


def test_run_subcommand(tiny_config_file, tmp_path, capsys):
    assert main(["run", str(tiny_config_file)]) == 0
    out_dir = tmp_path / "results"
    for name in ("sweep.csv", "summary.csv", "summary_stderr.csv", "timings.csv"):
        assert (out_dir / name).exists()
    sweep = (out_dir / "sweep.csv").read_text().strip().split("\n")
    assert sweep[0] == "q,beta,trial,final_distance,diverged,boundary_stuck"
    assert len(sweep) == 3


def test_run_self_check_reads_back_sweep_csv(tiny_config_file, monkeypatch, capsys):
    write = harness.write_sweep_csv

    def drop_last_row(result, path):
        write(harness.SweepResult(result.config, result.records[:-1]), path)

    monkeypatch.setattr(harness, "write_sweep_csv", drop_last_row)
    assert main(["run", str(tiny_config_file)]) == 1
    assert "self-check failed" in capsys.readouterr().err


def test_summarize_subcommand(tiny_config_file, tmp_path, capsys):
    main(["run", str(tiny_config_file)])
    (tmp_path / "results" / "summary.csv").unlink()
    assert main(["summarize", str(tmp_path / "results")]) == 0
    assert (tmp_path / "results" / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "q\\beta" in out


def test_trace_subcommand(tiny_config_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", str(tiny_config_file), "--q", "0.9", "--beta", "0.25",
                 "--trial", "1", "--full"]) == 0
    assert (tmp_path / "trace_q0.9_beta0.25_trial1.csv").exists()
    assert (tmp_path / "trace_q0.9_beta0.25_trial1_full.csv").exists()
    lines = (tmp_path / "trace_q0.9_beta0.25_trial1.csv").read_text().strip().split("\n")
    assert len(lines) == 22


def test_trace_rejects_off_grid(tiny_config_file, capsys):
    assert main(["trace", str(tiny_config_file), "--q", "0.7", "--beta", "0.25"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_kernel_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-kernel", "--q", "1.5", "--betas", "0.5,0.1,0.02",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert len(report["properties"]) == 5
    assert json.loads(capsys.readouterr().out)["q"] == 1.5


def test_qgauss_verify_subcommand(capsys):
    code = main(["qgauss", "verify", "--q", "0.5,1.5", "--beta", "1.0", "--dims", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_bad_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
