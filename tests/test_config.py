"""Every ``ConfigError`` a config can raise, by path and message.

``parse_config`` owns the JSON shape; ``PipelineConfig`` and the designs own
the rules that tie values together, so a config built in code breaks them
with the same path and text as a config file.
"""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsurvey.cli import main
from dpsurvey.designs import (
    PPS,
    SRSWOR,
    SRSWR,
    ClusterSRSWOR,
    Poisson,
    StratifiedSRSWOR,
    Systematic,
    TwoStageDesign,
)
from dpsurvey.pipeline import ConfigError, ReleaseSpec, _sample_cells, parse_config

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
    ("releases-object", _with(releases={}), "releases", "expected a non-empty list"),
    ("release-statistic", _release(statistic="median"), "releases[0].statistic",
     "must be one of ('mean', 'proportion', 'ht_mean', 'ht_total'), got 'median'"),
    ("response-model", _with(response={"model": "random"}),
     "response.model", "must be 'full' or 'propensity', got 'random'"),
    ("cell-empty", _with(adjustment={"cells": {"c": []}}),
     "adjustment.cells.c", "expected a non-empty list of unit ids"),
    ("cell-id", _with(adjustment={"cells": {"c": [1, "2"]}}),
     "adjustment.cells.c[1]", "expected an integer, got '2'"),
    ("cell-overlap", _with(adjustment={"cells": {"b": [1, 3], "a": [2, 2, 3, "x"]}}),
     "adjustment.cells.a[2]", "unit 3 is already in cell 'b'; cells must be disjoint"),
    ("cell-overlap-beyond-int64", _with(adjustment={"cells": {"a": [2 ** 64], "b": [1, 2 ** 64]}}),
     "adjustment.cells.b[1]", f"unit {2 ** 64} is already in cell 'a'; cells must be disjoint"),
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


# the parsed cells {"c": [1, 2]}, for configs built in code
CELLS = parse_config(_with(adjustment={"cells": {"c": [1, 2]}})).cells

# (id, the fault in a config file as changes to BASE, the same fault as fields
# of a config built in code)
RULES = [
    ("releases-empty", {"releases": []}, {"releases": ()}),
    ("release-statistic", {"releases": [{"statistic": "median", "epsilon": 1.0}]},
     {"releases": (ReleaseSpec("median", 1.0),)}),
    ("response-model", {"response": {"model": "random"}}, {"response_model": "random"}),
    ("benchmarks-without-cells", {"adjustment": {"benchmarks": {"c": 6}}},
     {"benchmarks": {"c": 6.0}}),
    ("benchmark-cell", {"adjustment": {"cells": {"c": [1, 2]}, "benchmarks": {"d": 2}}},
     {"cells": CELLS, "benchmarks": {"d": 2.0}}),
    ("regularize-order", {"adjustment": {"regularize": {"lower": 2, "upper": 1}}},
     {"regularize_bounds": (2.0, 1.0)}),
    ("dp-propensities-without-cells", {"adjustment": {"dp_propensities": {"epsilon": 0.1}}},
     {"dp_propensity_epsilon": 0.1}),
    ("imputation-method", {"imputation": {"method": "knn"}}, {"imputation_method": "knn"}),
    ("imputation-budget", {"imputation": {"method": "dp_mean"}}, {"imputation_method": "dp_mean"}),
    ("hot-deck-budget", {"imputation": {"method": "hot_deck", "epsilon": 0.1}},
     {"imputation_method": "hot_deck", "imputation_epsilon": 0.1}),
    ("design-stage-audit", {"audit": {"design_stage": {"epsilon": 0.1}}},
     {"audit_design_stage_epsilon": 0.1}),
    ("budget", {"budget": 2.0}, {"budget": 2.0}),
    # each epsilon is > 0, even where the others still sum to the budget
    ("release-epsilon", {"releases": [{"statistic": "ht_mean", "epsilon": 2.0},
                                      {"statistic": "mean", "epsilon": -1.0}]},
     {"releases": (ReleaseSpec("ht_mean", 2.0), ReleaseSpec("mean", -1.0))}),
    ("imputation-epsilon", {"imputation": {"method": "dp_mean", "epsilon": 0}},
     {"imputation_method": "dp_mean", "imputation_epsilon": 0.0}),
    ("dp-propensities-epsilon",
     {"adjustment": {"cells": {"c": [1, 2]}, "dp_propensities": {"epsilon": 0}}},
     {"cells": CELLS, "dp_propensity_epsilon": 0.0}),
    ("design-stage-audit-epsilon", {"mechanism_start": "frame", "invariant": "population",
                                    "audit": {"design_stage": {"epsilon": -0.5}}},
     {"mechanism_start": "frame", "audit_design_stage_epsilon": -0.5}),
    ("budget-positive", {"budget": 0}, {"budget": 0.0}),
    ("audited-sensitivity", {"releases": [{"statistic": "ht_mean", "epsilon": 1.0,
                                           "audited_sensitivity": -1}]},
     {"releases": (ReleaseSpec("ht_mean", 1.0, -1.0),)}),
    ("seed", {"seed": -1}, {"seed": -1}),
]


@pytest.mark.parametrize("in_file, in_code", [rule[1:] for rule in RULES],
                         ids=[rule[0] for rule in RULES])
def test_hand_built_config_breaks_each_rule_as_a_config_file_does(in_file, in_code):
    with pytest.raises(ConfigError) as from_file:
        parse_config(_with(**in_file))
    with pytest.raises(ConfigError) as from_code:
        replace(parse_config(json.dumps(BASE)), **in_code)
    assert (from_code.value.path, str(from_code.value)) == (from_file.value.path,
                                                            str(from_file.value))


@pytest.mark.parametrize("inner, inner_spec", [
    (StratifiedSRSWOR(2), {"kind": "stratified_srswor", "n": 2}),
    (ClusterSRSWOR(1), {"kind": "cluster_srswor", "m": 1}),
    (TwoStageDesign(ClusterSRSWOR(1), SRSWOR(1)),
     {"kind": "cluster_srswor", "m": 1, "inner": {"kind": "srswor", "n": 1}}),
], ids=["stratified", "cluster", "two-stage"])
def test_two_stage_inner_selects_units_in_code_as_in_a_config_file(inner, inner_spec):
    with pytest.raises(ConfigError) as from_file:
        parse_config(_with(design={"kind": "cluster_srswor", "m": 1, "inner": inner_spec}))
    assert from_file.value.path == "design.inner"
    with pytest.raises(ValueError) as from_code:
        TwoStageDesign(ClusterSRSWOR(1), inner)
    assert str(from_file.value) == f"design.inner: {from_code.value}"
    assert str(from_code.value) == "inner stage must select units directly"


@pytest.mark.parametrize("spec, expected", [
    ({"kind": "srswr", "n": 2}, SRSWR(2)),
    ({"kind": "srswor", "n": 2}, SRSWOR(2)),
    ({"kind": "poisson", "rate": 1}, Poisson(1.0)),
    ({"kind": "stratified_srswor", "n": 4}, StratifiedSRSWOR(4, "proportional")),
    ({"kind": "stratified_srswor", "n": 4, "allocation": "neyman"}, StratifiedSRSWOR(4, "neyman")),
    ({"kind": "cluster_srswor", "m": 2}, ClusterSRSWOR(2)),
    ({"kind": "cluster_srswor", "m": 2, "inner": {"kind": "poisson", "rate": 0.5}},
     TwoStageDesign(ClusterSRSWOR(2), Poisson(0.5))),
    ({"kind": "pps", "n": 2}, PPS(2)),
    ({"kind": "systematic", "n": 2}, Systematic(2, "frame")),
    ({"kind": "systematic", "n": 2, "ordering": "random"}, Systematic(2, "random")),
], ids=["srswr", "srswor", "poisson", "stratified-default", "stratified-neyman", "cluster",
        "two-stage", "pps", "systematic-default", "systematic-random"])
def test_each_design_kind_parses_to_its_design(spec, expected):
    assert parse_config(_with(design=spec)).design == expected


def test_hand_built_imputation_epsilon_needs_a_dp_method():
    # a config file cannot state an epsilon without a method; code can, and
    # the budget would then count an epsilon that no stage spends
    config = parse_config(json.dumps(BASE))
    with pytest.raises(ConfigError) as excinfo:
        replace(config, imputation_epsilon=0.1, budget=1.1)
    assert str(excinfo.value) == "imputation.epsilon: no imputation is not a DP mechanism"


def test_a_start_that_is_no_string_is_a_config_error():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(_with(mechanism_start=[]))
    assert str(excinfo.value) == ("mechanism_start: must be one of ['frame', 'processed-data', "
                                  "'responding-sample'], got []")


def _cell_of(cells: dict) -> dict:
    """The reference: each listed id's cell in a dict, read entry by entry."""
    cell_of = {}
    for label, ids in cells.items():
        if not isinstance(ids, list) or not ids:
            raise ConfigError(f"adjustment.cells.{label}", "expected a non-empty list of unit ids")
        for j, unit in enumerate(ids):
            if isinstance(unit, bool) or not isinstance(unit, int):
                raise ConfigError(f"adjustment.cells.{label}[{j}]",
                                  f"expected an integer, got {unit!r}")
            owner = cell_of.setdefault(unit, label)
            if owner != label:
                raise ConfigError(f"adjustment.cells.{label}[{j}]",
                                  f"unit {unit} is already in cell {owner!r}; "
                                  f"cells must be disjoint")
    return cell_of


# few ids, so that cells repeat and overlap them; the int64 ends and ids beyond them
EDGE_IDS = [2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1, 2 ** 64, 10 ** 30]
UNIT_IDS = st.one_of(st.integers(-3, 6), st.sampled_from(EDGE_IDS))
CELL_IDS = st.one_of(st.lists(UNIT_IDS, min_size=1, max_size=6),
                     st.lists(st.one_of(UNIT_IDS, st.sampled_from([True, 1.5, "2", None])),
                              max_size=4),
                     st.just({"c": 1}))


@settings(max_examples=400, deadline=None)
@given(cells=st.dictionaries(st.text("ab\x00", max_size=2), CELL_IDS, max_size=4),
       units=st.lists(st.one_of(st.integers(-3, 8), st.sampled_from(EDGE_IDS[:2])),
                      min_size=1, max_size=8))
def test_coded_cells_agree_with_a_dict_of_every_listed_id(cells, units):
    text = _with(adjustment={"cells": cells})
    try:
        cell_of = _cell_of(cells)
    except ConfigError as expected:
        with pytest.raises(ConfigError) as refused:
            parse_config(text)
        assert (refused.value.path, str(refused.value)) == (expected.path, str(expected))
        return
    coded = parse_config(text).cells
    # each int64 id once, in order; an id beyond int64 matches no frame unit
    assert coded[0].tolist() == sorted(unit for unit in cell_of if -2 ** 63 <= unit < 2 ** 63)
    labels = [cell_of.get(unit) for unit in units]
    if None in labels:
        missing = [unit for unit, label in zip(units, labels) if label is None]
        with pytest.raises(ValueError, match=f"^units {re.escape(str(missing))} are not covered "
                                             f"by any adjustment cell$"):
            _sample_cells(coded, np.array(units, np.int64))
        return
    column = _sample_cells(coded, np.array(units, np.int64))
    assert column.names == tuple(sorted(set(labels)))
    assert [column.names[code] for code in column.codes] == labels


def test_cells_over_every_id_keep_less_than_3_mb():
    ids = list(range(1, 100_001))
    text = _with(adjustment={"cells": {f"s{h}": ids[h::10] for h in range(10)}})
    tracemalloc.start()
    try:
        config = parse_config(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert config.cells[0].tolist() == ids
    assert kept < 3 * 2 ** 20
