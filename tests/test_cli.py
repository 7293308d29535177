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


def test_summarize_rebuilds_the_summaries_of_an_unsorted_grid(tmp_path):
    # the summaries list q and beta ascending, as sweep.csv does, so the
    # tables that run wrote come back byte for byte; -0.0 keeps its sign
    config = tmp_path / "unsorted.json"
    config.write_text(json.dumps({"q_values": [1.5, 0.9, -0.0], "beta_values": [0.25, 0.05],
                                  "trials": 2, "base_seed": 99, "optimizer": {"M": 20, "L": 5}}))
    out = tmp_path / "results"
    assert main(["run", str(config), "--output-dir", str(out)]) == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in sweep[1:5]] == ["-0.0"] * 4
    names = ("summary.csv", "summary_stderr.csv")
    written = [(out / name).read_bytes() for name in names]
    rows = written[0].decode().splitlines()
    assert [row.split(",")[0] for row in rows] == ["q\\beta", "-0", "0.9", "1.5"]
    assert main(["summarize", str(out)]) == 0
    assert [(out / name).read_bytes() for name in names] == written


# (rows after the header, what the error names)
MALFORMED_SWEEPS = {
    "short_row": ("0.9,0.25,0,1.5,0,0\n0.9,0.25\n", "line 3: expected 6 fields, got 2"),
    "bad_flag": ("0.9,0.25,0,1.5,7,0\n", "line 2: diverged and boundary_stuck must be 0 or 1"),
    "repeat": ("0.9,0.25,0,1.5,0,0\n0.9,0.25,0,2.5,0,0\n", "line 3: repeats q=0.9, beta=0.25, trial 0"),
    "no_rows": ("", "line 2: no trial rows after the header"),
    "bad_q": ("0.9,0.25,0,1.5,0,0\n5.0,0.25,0,1.5,0,0\n", "line 3: q must be finite and < 3 (got q=5.0)"),
    "bad_trial": ("0.9,0.25,-3,1.5,0,0\n", "line 2: trial must be an integer >= 0 (got -3)"),
    "negative_distance": ("0.9,0.25,0,-3.0,0,0\n", "line 2: final_distance must be finite and >= 0 (got -3.0)"),
    "infinite_distance": ("0.9,0.25,0,1.5,0,0\n0.9,0.25,1,inf,0,1\n",
                          "line 3: final_distance must be finite and >= 0 (got inf)"),
    "nan_distance": ("0.9,0.25,0,nan,0,0\n", "line 2: final_distance must be finite and >= 0 (got nan)"),
    "diverged_with_distance": ("0.9,0.25,0,1.5,1,0\n",
                               "line 2: a diverged row has final_distance nan and boundary_stuck 0 (got 1.5, 0)"),
    "diverged_and_stuck": ("0.9,0.25,0,nan,1,1\n",
                           "line 2: a diverged row has final_distance nan and boundary_stuck 0 (got nan, 1)"),
}


@pytest.mark.parametrize("rows,message", MALFORMED_SWEEPS.values(), ids=MALFORMED_SWEEPS.keys())
def test_summarize_refuses_a_malformed_sweep(rows, message, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text(harness.SWEEP_HEADER + "\n" + rows)
    assert main(["summarize", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {path}, {message}")
    assert out == "" and not (tmp_path / "summary.csv").exists()


def test_trace_subcommand(tiny_config_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", str(tiny_config_file), "--q", "0.9", "--beta", "0.25",
                 "--trial", "1", "--full"]) == 0
    assert (tmp_path / "trace_q0.9_beta0.25_trial1.csv").exists()
    assert (tmp_path / "trace_q0.9_beta0.25_trial1_full.csv").exists()
    lines = (tmp_path / "trace_q0.9_beta0.25_trial1.csv").read_text().strip().split("\n")
    assert len(lines) == 22


def test_trace_rejects_off_grid(tiny_config_file, tmp_path, monkeypatch, capsys):
    # a (q, beta) off the grid, and trials outside the config's range(2)
    monkeypatch.chdir(tmp_path)
    for args in (["--q", "0.7", "--beta", "0.25"],
                 ["--q", "0.9", "--beta", "0.25", "--trial", "7"],
                 ["--q", "0.9", "--beta", "0.25", "--trial", "-1"]):
        assert main(["trace", str(tiny_config_file)] + args) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("trace_*"))


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
    code = main(["qgauss", "verify", "--q", "0.5,1.5", "--beta", "1.0", "--dims", "1,4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    # a radial KS row per (q, dim); the joint dim-4 law has no q = 1.5
    assert out.count("sample_matrix radial-ks") == 4
    assert "sample_matrix radial-ks q=1.5 dim=4: skipped" in out


# (argv, what the error names); the ids stay argv0, argv1, ...
BAD_ARGUMENTS = [
    (["verify-kernel", "--q", "1.0", "--betas", "0.1,0.5"], "strictly decreasing"),
    (["verify-kernel", "--q", "3.5", "--betas", "0.5,0.1"], "q must be finite and < 3"),
    (["qgauss", "verify", "--q", "0.5", "--dims", "0"], "dim must be an integer >= 1"),
    (["qgauss", "verify", "--q", ","], "no numbers"),  # nothing to check is not a pass
    (["qgauss", "verify", "--q", "0.5", "--beta", ","], "no numbers"),
    (["qgauss", "verify", "--q", "0.5", "--beta", "inf"], "beta must be finite and > 0"),
    (["qgauss", "verify", "--q=-inf"], "q must be finite and < 3"),
    (["qgauss", "verify", "--q", "1.5", "--dims", "0"], "dim must be an integer >= 1"),
    (["verify-kernel", "--q", "0.5", "--betas", "inf,0.1"], "beta must be finite and > 0"),
    (["verify-kernel", "--q=-inf", "--betas", "0.5,0.1"], "q must be finite and < 3"),
    # a bad q after a good one is refused before any check runs
    (["qgauss", "verify", "--q", "0.5,3.5", "--dims", "1"], "q must be finite and < 3"),
]


@pytest.mark.parametrize("argv,message", [pytest.param(argv, message, id=f"argv{i}")
                                          for i, (argv, message) in enumerate(BAD_ARGUMENTS)])
def test_bad_arguments_report_error(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["run", "missing.json"],
    ["summarize", "no/such/dir"],
    ["trace", "missing.json", "--q", "0.9", "--beta", "0.25"],
])
def test_missing_paths_report_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_rejects_worker_counts_below_one(tiny_config_file, tmp_path, workers, capsys):
    assert main(["run", str(tiny_config_file), "--workers", workers]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "results").exists()


def test_bad_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_run_past_the_lane_law_numeric_edge_reports_error(tmp_path, capsys):
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps({"q_values": [2.98], "beta_values": [0.25], "trials": 4,
                               "optimizer": {"M": 2000, "L": 1}}))
    assert main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: q=2.98 in dim 4: ")
    assert not (tmp_path / "out" / "sweep.csv").exists()
