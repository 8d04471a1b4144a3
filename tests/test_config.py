"""Every ``ConfigError`` branch of ``parse_config`` and its helpers, by path and message."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dpsurvey.cli import main
from dpsurvey.pipeline import ConfigError, parse_config

BASE = {
    "frame": "frame.csv",
    "universe": {"y_min": 0.0, "y_max": 1.0},
    "design": {"kind": "srswor", "n": 3},
    "releases": [{"statistic": "ht_mean", "epsilon": 1.0}],
    "mechanism_start": "responding-sample",
    "invariant": "frame",
    "budget": 1.0,
}


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as err:
        return f"invalid JSON: {err}"


def _with(**changes) -> str:
    return json.dumps({**BASE, **changes})


def _release(**changes) -> str:
    return _with(releases=[{"statistic": "ht_mean", "epsilon": 1.0, **changes}])


# (id, config text, path, message)
CASES = [
    ("json", "{", "", _json_error("{")),
    ("top-not-object", "[]", "", "expected an object, got list"),
    ("section-not-object", _with(universe=[]), "universe", "expected an object, got list"),
    ("number-type", _with(budget="1"), "budget", "expected a number, got '1'"),
    ("number-finite", _with(budget=float("inf")), "budget", "must be finite"),
    ("number-positive", _with(budget=0), "budget", "must be > 0, got 0.0"),
    ("number-nonnegative", _release(audited_sensitivity=-1),
     "releases[0].audited_sensitivity", "must be >= 0, got -1.0"),
    ("integer-type", _with(design={"kind": "srswor", "n": 2.5}),
     "design.n", "expected an integer, got 2.5"),
    ("integer-minimum", _with(design={"kind": "srswor", "n": 0}), "design.n", "must be >= 1, got 0"),
    ("design-kind-missing", _with(design={"n": 3}), "design", "missing required key 'kind'"),
    ("design-kind", _with(design={"kind": "bernoulli"}),
     "design.kind", "unknown design kind 'bernoulli'"),
    ("poisson-rate", _with(design={"kind": "poisson", "rate": 1.5}),
     "design.rate", "must be <= 1, got 1.5"),
    ("allocation", _with(design={"kind": "stratified_srswor", "n": 3, "allocation": "optimal"}),
     "design.allocation", "unknown allocation 'optimal'"),
    ("inner-stage", _with(design={"kind": "cluster_srswor", "m": 1,
                                  "inner": {"kind": "stratified_srswor", "n": 2}}),
     "design.inner", "inner stage must select units directly"),
    ("ordering", _with(design={"kind": "systematic", "n": 2, "ordering": "reverse"}),
     "design.ordering", "unknown ordering 'reverse'"),
    ("frame-path", _with(frame=""), "frame", "expected a CSV file path"),
    ("x-values", _with(universe={"y_min": 0.0, "y_max": 1.0, "x_values": []}),
     "universe.x_values", "expected a non-empty list of numbers"),
    ("y-bounds", _with(universe={"y_min": 1.0, "y_max": 0.0}),
     "universe", "y_max must be >= y_min, got [1.0, 0.0]"),
    ("mechanism-start", _with(mechanism_start="sample"), "mechanism_start",
     "must be one of ['frame', 'processed-data', 'responding-sample'], got 'sample'"),
    ("releases-empty", _with(releases=[]), "releases", "expected a non-empty list"),
    ("release-statistic", _release(statistic="median"), "releases[0].statistic",
     "must be one of ('mean', 'proportion', 'ht_mean', 'ht_total'), got 'median'"),
    ("response-model", _with(response={"model": "random"}),
     "response.model", "must be 'full' or 'propensity', got 'random'"),
    ("cell-empty", _with(adjustment={"cells": {"c": []}}),
     "adjustment.cells.c", "expected a non-empty list of unit ids"),
    ("cell-id", _with(adjustment={"cells": {"c": [1, "2"]}}),
     "adjustment.cells.c[1]", "expected an integer, got '2'"),
    ("benchmarks-without-cells", _with(adjustment={"benchmarks": {"c": 6}}),
     "adjustment.benchmarks", "benchmarks require cells"),
    ("benchmark-cell", _with(adjustment={"cells": {"c": [1, 2]}, "benchmarks": {"d": 2}}),
     "adjustment.benchmarks.d", "no such cell"),
    ("regularize-order", _with(adjustment={"regularize": {"lower": 2, "upper": 1}}),
     "adjustment.regularize", "lower must be <= upper"),
    ("dp-propensities-without-cells", _with(adjustment={"dp_propensities": {"epsilon": 0.1}}),
     "adjustment.dp_propensities", "requires cells"),
    ("imputation-method", _with(imputation={"method": "knn"}),
     "imputation.method", "unknown method 'knn'"),
    ("imputation-budget", _with(imputation={"method": "dp_mean"}),
     "imputation.epsilon", "method 'dp_mean' needs a privacy budget"),
    ("hot-deck-budget", _with(imputation={"method": "hot_deck", "epsilon": 0.1}),
     "imputation.epsilon", "hot_deck is not a DP mechanism"),
    ("complete-cases-removed",
     _with(imputation={"method": "dp_mean", "epsilon": 0.1, "complete_cases": True}),
     "imputation.complete_cases", "unknown key"),
    ("first-missing-key",
     json.dumps({k: v for k, v in BASE.items() if k not in ("design", "budget")}),
     "", "missing required key 'design'"),
]


def test_base_config_is_valid():
    assert parse_config(json.dumps(BASE)).budget == 1.0


@pytest.mark.parametrize("text, path, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_config_error_names_its_path(text, path, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == path
    assert str(excinfo.value) == (f"{path}: {message}" if path else message)


@pytest.mark.parametrize("text, message", [
    ("{}", "missing required key 'frame'"),
    (_with(universe={}), "universe: missing required key 'y_min'"),
], ids=["top", "universe"])
def test_missing_key_error_does_not_depend_on_the_hash_seed(text, message):
    script = ("import sys; from dpsurvey.pipeline import parse_config\n"
              "try:\n    parse_config(sys.stdin.read())\n"
              "except ValueError as err:\n    print(err)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    seen = {subprocess.run([sys.executable, "-c", script], input=text, text=True,
                           capture_output=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
                           ).stdout.strip()
            for seed in (1, 2, 3)}
    assert seen == {message}


def test_validate_config_reports_crossed_y_bounds(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(_with(universe={"y_min": 1.0, "y_max": 0.0}))
    assert main(["validate-config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConfigError",
                   "message": "universe: y_max must be >= y_min, got [1.0, 0.0]"}
