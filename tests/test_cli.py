import csv
import hashlib
import io
import json

import pytest

from dpsurvey.audit import amplification_sweep
from dpsurvey.cli import main
from dpsurvey.designs import Systematic
from dpsurvey.frames import dump_frame_csv, make_frame
from dpsurvey.instances import four_unit_frame


@pytest.fixture
def frame_csv(tmp_path):
    frame = make_frame([0.2, 0.8, 0.4, 1.0], propensities=[1.0] * 4)
    path = tmp_path / "frame.csv"
    dump_frame_csv(frame, path)
    return str(path)


@pytest.fixture
def config_path(tmp_path, frame_csv):
    config = {
        "frame": frame_csv,
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 2},
        "releases": [{"statistic": "ht_mean", "epsilon": 1.0}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_validate_good_config(config_path, capsys):
    assert main(["validate-config", config_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_config_exits_1(tmp_path, frame_csv, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frame": frame_csv}))
    assert main(["validate-config", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_validate_overlapping_cells_exits_1(tmp_path, config_path, capsys):
    with open(config_path) as handle:
        config = json.load(handle)
    config["adjustment"] = {"cells": {"a": [1, 2], "b": [2, 3, 4]}}
    bad = tmp_path / "overlap.json"
    bad.write_text(json.dumps(config))
    assert main(["validate-config", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "adjustment.cells.b[0]" in err["message"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # missing config argument
    assert excinfo.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_run_twice_is_byte_identical(config_path, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", config_path, "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["run", config_path, "--seed", "7", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["seed"] == 7
    assert report["budget"]["ledger_total"] == 1.0


def test_run_without_seed_fails_cleanly(config_path, capsys):
    assert main(["run", config_path]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "seed" in err["message"]


@pytest.mark.parametrize("command", ["run", "sample", "impute"])
def test_negative_seed_fails_naming_the_seed(config_path, capsys, command):
    assert main([command, config_path, "--seed", "-1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "seed must be >= 0, got -1"}


def test_sample_writes_csv(config_path, tmp_path):
    out = tmp_path / "sample.csv"
    assert main(["sample", config_path, "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "id,y,pi,w"
    assert len(lines) == 3  # header + n=2 rows


def test_sample_two_stage_is_reproducible(tmp_path):
    frame_path = tmp_path / "clustered.csv"
    dump_frame_csv(make_frame([0.2, 0.8, 0.4, 1.0], clusters=["a", "a", "b", "b"]),
                   frame_path)
    config = {
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "cluster_srswor", "m": 1, "inner": {"kind": "srswor", "n": 1}},
        "releases": [{"statistic": "mean", "epsilon": 1.0}],
        "mechanism_start": "processed-data",
        "invariant": "none",
        "budget": 1.0,
    }
    config_path = tmp_path / "two_stage.json"
    config_path.write_text(json.dumps(config))
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["sample", str(config_path), "--seed", "5", "--out", str(out)]) == 0
    assert outs[0].read_text().split("\n")[0] == "id,y,pi,w"
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_impute_fills_missing_values(tmp_path):
    frame = make_frame([0.4, 0.6, float("nan")])
    frame_path = tmp_path / "frame.csv"
    dump_frame_csv(frame, frame_path)
    config = {
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 3},
        "imputation": {"method": "dp_mean", "epsilon": 0.5},
        "releases": [{"statistic": "mean", "epsilon": 0.5}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "filled.csv"
    assert main(["impute", str(config_path), "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "id,y,imputed"
    filled_row = lines[3].split(",")
    assert filled_row[2] == "1"
    assert 0.0 <= float(filled_row[1]) <= 1.0


def test_audit_sensitivity_table(tmp_path, capsys):
    out = tmp_path / "sens.csv"
    assert main(["audit-sensitivity", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["instance", "statistic", "invariant", "mutable",
                      "exact", "analytic", "match"]
    assert all(line.split(",")[-1] == "1" for line in lines[1:])


def test_audit_amplification_poisson(tmp_path):
    out = tmp_path / "amp.csv"
    code = main(["audit-amplification", "--design", "poisson", "--rate", "0.1",
                 "--eps", "0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "design,epsilon,rate_or_maxpi,eps_effective,status"
    fields = lines[1].split(",")
    eps_effective = float(fields[3])
    assert eps_effective == pytest.approx(0.01, rel=0.10)
    assert fields[4] == "ok"


def test_audit_amplification_is_reproducible(tmp_path):
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    args = ["audit-amplification", "--design", "srswor", "-n", "2", "--eps", "0.1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_audit_amplification_quotes_design_labels(tmp_path):
    # the systematic label contains commas; the CSV must still have 5 fields
    out = tmp_path / "amp.csv"
    assert main(["audit-amplification", "--design", "systematic", "-n", "2",
                 "--eps", "0.1", "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert all(len(row) == 5 for row in rows)
    header, row = rows
    assert row[0] == "systematic[n=2,ordering=frame]"
    expected = amplification_sweep([Systematic(2, "frame")], [0.1], four_unit_frame())
    assert float(row[3]) == expected[0]["eps_effective"]


def test_audit_amplification_requires_rate_for_poisson(capsys):
    assert main(["audit-amplification", "--design", "poisson", "--eps", "0.1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "rate" in err["message"]


# sha256 of the `sample` CSV, recorded when samples were still tuples: a
# reordered row or a numpy scalar repr such as np.float64(0.2) moves the hash
SAMPLE_CSV_PINS = [
    ({"kind": "srswr", "n": 6}, 11,
     "274014f8084cd6989e67cb7b028f897bfff4a2d83c3d44022cd731a2b43bf273"),
    ({"kind": "pps", "n": 3}, 12,
     "55413b7963d8e0ece9e1c97909ea7fc3f0df023e8b5e616c240bc4e4558acc14"),
    ({"kind": "stratified_srswor", "n": 4, "allocation": "proportional"}, 13,
     "a2bdf5e52a42cfb8862a4289be8a7ac4528ff2d95afd74d190b3e3d96249326d"),
]


@pytest.mark.parametrize("design, seed, digest", SAMPLE_CSV_PINS,
                         ids=[design["kind"] for design, _, _ in SAMPLE_CSV_PINS])
def test_sample_csv_bytes_are_pinned(tmp_path, design, seed, digest):
    frame = make_frame([0.2, float("nan"), 0.4, 1.0, 0.0, 0.7, float("nan"), 0.35],
                       xs=[1.0, 2.0, 3.0, 1.0, 2.0, 4.0, 1.0, 2.0],
                       strata=["a", "a", "a", "a", "b", "b", "b", "b"])
    frame_path = tmp_path / "frame.csv"
    dump_frame_csv(frame, frame_path)
    config = {
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0, 3.0, 4.0]},
        "design": design,
        "releases": [{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 1.0}],
        "mechanism_start": "processed-data",
        "invariant": "none",
        "budget": 1.0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "sample.csv"
    assert main(["sample", str(config_path), "--seed", str(seed), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    if design["kind"] == "srswr":
        assert len({row[0] for row in rows}) < len(rows)  # a unit drawn twice
    if design["kind"] == "stratified_srswor":
        assert "" in [row[1] for row in rows]  # a missing y
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, out.read_text()


def test_impute_refuses_a_config_without_dp_mean_imputation(config_path, capsys):
    assert main(["impute", config_path, "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": "the impute command supports configs with imputation.method 'dp_mean'; "
                   "run the full pipeline for other methods"}


# sha256 of the `impute` CSV on a frame with two missing y values (one of a
# negative id), recorded when the command still fitted and imputed on its own
IMPUTE_CSV_PINS = [
    (1, "8194fc59cf2421a1be8783fa2292d645d88d4be6c9d3671c3625d868cb392184"),
    (2, "b296310d367292e3f9fd4e6c21578f75585c905d7c8dd9bc308b06dda7894c60"),
    (3, "0906acb48b0b58ce72e8831cbbf14b63fc4152514282a9d279a829d711102628"),
]


@pytest.mark.parametrize("seed, digest", IMPUTE_CSV_PINS,
                         ids=[f"seed{seed}" for seed, _ in IMPUTE_CSV_PINS])
def test_impute_csv_bytes_are_pinned(tmp_path, seed, digest):
    frame = make_frame([0.2, float("nan"), 0.4, 1.0, 0.0, 0.7, float("nan"), 0.35],
                       ids=[1, 2, 3, 4, 5, 6, -7, 8])
    frame_path = tmp_path / "frame.csv"
    dump_frame_csv(frame, frame_path)
    config = {
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 4},
        "imputation": {"method": "dp_mean", "epsilon": 0.5},
        "releases": [{"statistic": "mean", "epsilon": 0.5}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "filled.csv"
    assert main(["impute", str(config_path), "--seed", str(seed), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    assert [row[2] for row in rows] == ["0", "1", "0", "0", "0", "0", "1", "0"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, out.read_text()
