import hashlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from dpsurvey import designs
from dpsurvey.estimators import ReleaseRefusedError
from dpsurvey.frames import Frame, ValueUniverse, dump_frame_csv, make_frame
from dpsurvey.mechanisms import PrivacyLedger
from dpsurvey.pipeline import (
    ConfigError,
    PipelineStageError,
    ReleaseSpec,
    TwoStageDesign,
    parse_config,
    round_report,
    run_pipeline,
)


@pytest.fixture
def frame_csv(tmp_path):
    frame = make_frame([0.2, 0.8, 0.4, 1.0, 0.0, 0.6],
                       strata=["A", "A", "A", "B", "B", "B"],
                       clusters=["a", "a", "b", "b", "c", "c"],
                       propensities=[0.9, 0.8, 1.0, 0.7, 1.0, 0.95])
    path = tmp_path / "frame.csv"
    dump_frame_csv(frame, path)
    return str(path)


def minimal_config(frame_path, **overrides):
    config = {
        "frame": frame_path,
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 3},
        "releases": [{"statistic": "ht_mean", "epsilon": 1.0}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
        "seed": 7,
    }
    config.update(overrides)
    return json.dumps(config)


def test_minimal_config_is_valid(frame_csv):
    config = parse_config(minimal_config(frame_csv))
    assert config.mechanism_start == "responding-sample"
    assert config.releases[0].statistic == "ht_mean"


def test_budget_mismatch_rejected(frame_csv):
    text = minimal_config(frame_csv, releases=[
        {"statistic": "ht_mean", "epsilon": 0.5},
        {"statistic": "mean", "epsilon": 0.6},
    ])
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "budget"


def test_budget_includes_imputation_epsilon(frame_csv):
    text = minimal_config(
        frame_csv,
        releases=[{"statistic": "mean", "epsilon": 0.6}],
        imputation={"method": "dp_mean", "epsilon": 0.4},
        budget=1.0)
    assert parse_config(text).imputation_epsilon == 0.4


def test_unknown_key_rejected_with_path(frame_csv):
    raw = json.loads(minimal_config(frame_csv))
    raw["adjustment"] = {"cells": {"c": [1, 2, 3, 4, 5, 6]}, "bogus": 1}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(raw))
    assert excinfo.value.path == "adjustment.bogus"


def test_proportion_release_requires_unit_interval_universe(frame_csv):
    # 1/n only protects an indicator; a wider universe must be rejected
    text = minimal_config(frame_csv,
                          universe={"y_min": 0.0, "y_max": 2.0},
                          releases=[{"statistic": "proportion", "epsilon": 1.0}])
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "proportion" in str(excinfo.value)


def test_hand_built_proportion_release_needs_a_unit_interval_universe(frame_csv):
    # the rule lives on PipelineConfig, so a config built without parse_config
    # cannot release a [0, 10] variable at the 1/n noise of an indicator
    config = parse_config(minimal_config(frame_csv))
    with pytest.raises(ConfigError) as excinfo:
        replace(config, universe=ValueUniverse(0.0, 10.0),
                releases=(ReleaseSpec("mean", 0.5), ReleaseSpec("proportion", 0.5)))
    assert excinfo.value.path == "releases[1].statistic"
    assert str(excinfo.value) == ("releases[1].statistic: a proportion release requires "
                                  "a universe contained in [0, 1]")


def test_invariant_follows_the_mechanism_start(frame_csv):
    config = parse_config(minimal_config(frame_csv))
    assert config.invariant == "frame"
    for start, invariant in (("processed-data", "none"), ("frame", "population")):
        assert replace(config, mechanism_start=start).invariant == invariant


def test_hand_built_config_rejects_an_unknown_start(frame_csv):
    config = parse_config(minimal_config(frame_csv))
    with pytest.raises(ConfigError) as excinfo:
        replace(config, mechanism_start="sample")
    assert excinfo.value.path == "mechanism_start"
    assert str(excinfo.value) == ("mechanism_start: must be one of ['frame', 'processed-data', "
                                  "'responding-sample'], got 'sample'")


def test_processed_data_weighted_release_cannot_claim_the_frame_invariant(tmp_path):
    # PPS weights are data when the mechanism starts at processed data, and
    # the start alone decides the invariant, so no config can claim "frame"
    frame = make_frame([0.0, 1.0, 0.5], xs=[1.0, 2.0, 2.0])
    path = tmp_path / "pps.csv"
    dump_frame_csv(frame, path)
    config = parse_config(minimal_config(
        str(path), design={"kind": "pps", "n": 1}, mechanism_start="processed-data",
        invariant="none", universe={"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0]}))
    with pytest.raises(TypeError):
        replace(config, invariant="frame")
    with pytest.raises(ReleaseRefusedError, match="'none' invariant"):
        run_pipeline(config)


def test_unsupported_start_invariant_combination(frame_csv):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(minimal_config(frame_csv, mechanism_start="frame", invariant="frame"))
    assert excinfo.value.path == "invariant"


def test_design_stage_audit_requires_sampling_inside(frame_csv):
    text = minimal_config(frame_csv, audit={"design_stage": {"epsilon": 0.1}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "audit.design_stage"


def test_run_is_deterministic(frame_csv):
    config = parse_config(minimal_config(frame_csv))
    first = run_pipeline(config).to_json()
    second = run_pipeline(config).to_json()
    assert first == second
    shifted = run_pipeline(config, seed=8).to_json()
    assert shifted != first


def test_run_large_epsilon_recovers_estimate(frame_csv):
    text = minimal_config(frame_csv,
                          releases=[{"statistic": "ht_mean", "epsilon": 1e6}],
                          budget=1e6)
    config = parse_config(text)
    report = run_pipeline(config)
    # full response + SRSWOR: the weighted mean is the frame mean of the sample
    from dpsurvey.designs import SRSWOR, draw
    from dpsurvey.estimators import ht_mean
    from dpsurvey.frames import load_frame_csv

    frame = load_frame_csv(frame_csv)
    sample = draw(SRSWOR(3), frame, np.random.default_rng(7))
    exact = ht_mean(sample, frame.n).value
    assert abs(report.releases[0]["value"] - exact) < 1e-3


def test_ledger_total_matches_config(frame_csv):
    text = minimal_config(
        frame_csv,
        releases=[{"statistic": "ht_mean", "epsilon": 0.7},
                  {"statistic": "mean", "epsilon": 0.3}],
        budget=1.0)
    report = run_pipeline(parse_config(text))
    assert report.ledger_total == 1.0
    assert report.budget_declared == 1.0
    assert [c["label"] for c in report.ledger_charges] == \
        ["release[ht_mean]", "release[mean]"]


def test_frame_start_refuses_weighted_release_without_audited_delta(frame_csv):
    text = minimal_config(frame_csv, mechanism_start="frame", invariant="population")
    with pytest.raises(ReleaseRefusedError) as excinfo:
        run_pipeline(parse_config(text))
    assert "audited" in str(excinfo.value)


def test_frame_start_accepts_audited_delta(frame_csv):
    text = minimal_config(
        frame_csv, mechanism_start="frame", invariant="population",
        releases=[{"statistic": "ht_mean", "epsilon": 1.0, "audited_sensitivity": 0.5}])
    report = run_pipeline(parse_config(text))
    entry = report.releases[0]
    assert entry["delta_f_source"] == "audited"
    assert entry["delta_f"] == 0.5


def test_frame_invariant_uses_fixed_weight_formula(frame_csv):
    report = run_pipeline(parse_config(minimal_config(frame_csv)))
    entry = report.releases[0]
    assert entry["delta_f_source"] == "analytic-fixed-weights"
    assert entry["delta_f"] == pytest.approx((6 / 3) * 1.0 / 6)  # max(w) R / N


def test_degenerate_universe_releases_the_exact_estimate(tmp_path):
    # y_min == y_max: no record can change the estimate, so the release is exact
    frame = make_frame([0.7] * 6)
    path = tmp_path / "flat.csv"
    dump_frame_csv(frame, path)
    text = minimal_config(str(path), universe={"y_min": 0.7, "y_max": 0.7})
    report = run_pipeline(parse_config(text))
    from dpsurvey.designs import SRSWOR, draw
    from dpsurvey.estimators import ht_mean

    sample = draw(SRSWOR(3), frame, np.random.default_rng(7))
    entry = report.releases[0]
    assert entry["delta_f"] == 0.0
    assert entry["delta_f_source"] == "degenerate-universe"
    assert entry["value"] == ht_mean(sample, frame.n).value
    assert report.ledger_charges == (
        {"label": "release[ht_mean]", "epsilon": 1.0, "delta_f": 0.0},)


def test_pps_design_fixed_weight_vs_refusal(tmp_path):
    # the same unequal-size frame released under both supported mechanisms:
    # frame-invariant uses the fixed-weight formula, frame-start refuses
    frame = make_frame([0.0, 1.0, 0.5], xs=[2.0, 2.0, 2.0])
    path = tmp_path / "pps.csv"
    dump_frame_csv(frame, path)
    base = dict(design={"kind": "pps", "n": 1},
                universe={"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0]})
    invariant_cfg = minimal_config(str(path), **base)
    report = run_pipeline(parse_config(invariant_cfg))
    assert report.releases[0]["delta_f_source"] == "analytic-fixed-weights"
    assert report.releases[0]["delta_f"] == pytest.approx(1.0)  # max(w) R / N = 3/3

    frame_start = minimal_config(str(path), mechanism_start="frame",
                                 invariant="population", **base)
    with pytest.raises(ReleaseRefusedError):
        run_pipeline(parse_config(frame_start))


def test_processed_data_start_allows_unweighted_only(frame_csv):
    text = minimal_config(frame_csv, mechanism_start="processed-data", invariant="none",
                          releases=[{"statistic": "mean", "epsilon": 1.0}])
    report = run_pipeline(parse_config(text))
    assert report.releases[0]["delta_f_source"] == "analytic-equal-weights"
    text = minimal_config(frame_csv, mechanism_start="processed-data", invariant="none")
    with pytest.raises(ReleaseRefusedError):
        run_pipeline(parse_config(text))


def test_stage_trace_matches_mechanism_start(frame_csv):
    cases = {
        "processed-data": {"sample": False, "respond": False, "adjust": False,
                           "impute": False, "release": True},
        "responding-sample": {"sample": False, "respond": False, "adjust": True,
                              "impute": True, "release": True},
        "frame": {"sample": True, "respond": True, "adjust": True,
                  "impute": True, "release": True},
    }
    for start, expected in cases.items():
        text = minimal_config(
            frame_csv, mechanism_start=start,
            invariant={"processed-data": "none", "frame": "population",
                       "responding-sample": "frame"}[start],
            releases=[{"statistic": "mean", "epsilon": 1.0,
                       **({"audited_sensitivity": 0.4} if start == "frame" else {})}])
        report = run_pipeline(parse_config(text))
        trace = {entry["stage"]: entry["inside_mechanism"] for entry in report.stage_trace}
        assert trace == expected, start


FORBIDDEN_KEYS = {"sample", "ids", "pi", "w", "y", "weights", "records", "imputed",
                  "propensities", "frame", "donors", "respondents"}


def walk_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from walk_keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from walk_keys(item)


def test_report_never_leaks_intermediary_data(frame_csv):
    text = minimal_config(
        frame_csv, mechanism_start="frame", invariant="population",
        response={"model": "propensity"},
        adjustment={"cells": {"c1": [1, 2, 3], "c2": [4, 5, 6]}},
        imputation={"method": "dp_mean", "epsilon": 0.2},
        releases=[{"statistic": "ht_mean", "epsilon": 0.8, "audited_sensitivity": 0.9}],
        budget=1.0)
    report = run_pipeline(parse_config(text))
    keys = set(walk_keys(report.as_dict()))
    assert keys & FORBIDDEN_KEYS == set()


def test_round_report_is_pure_post_processing(frame_csv):
    report = run_pipeline(parse_config(minimal_config(frame_csv)))
    before = report.as_dict()
    rounded = round_report(before, ndigits=3)
    # the ledger (and everything else but display values) is untouched
    assert rounded["budget"] == before["budget"]
    assert rounded["releases"][0]["value"] == round(before["releases"][0]["value"], 3)
    assert report.ledger_total == before["budget"]["ledger_total"]


def test_adjustment_and_benchmarks_run(frame_csv):
    text = minimal_config(
        frame_csv,
        design={"kind": "srswor", "n": 6},
        response={"model": "propensity"},
        adjustment={"cells": {"c1": [1, 2, 3], "c2": [4, 5, 6]},
                    "benchmarks": {"c1": 3.0, "c2": 3.0},
                    "regularize": {"lower": 0.5, "upper": 4.0}},
        releases=[{"statistic": "ht_total", "epsilon": 1.0}])
    report = run_pipeline(parse_config(text))
    assert report.releases[0]["statistic"] == "ht_total"


def test_hot_deck_requires_audited_sensitivity(frame_csv, tmp_path):
    frame = make_frame([0.2, float("nan"), 0.4, 1.0], propensities=[1.0] * 4)
    path = tmp_path / "missing.csv"
    dump_frame_csv(frame, path)
    base = dict(design={"kind": "srswor", "n": 4},
                imputation={"method": "hot_deck"},
                releases=[{"statistic": "mean", "epsilon": 1.0}])
    with pytest.raises(ReleaseRefusedError) as excinfo:
        run_pipeline(parse_config(minimal_config(str(path), **base)))
    assert "hot-deck" in str(excinfo.value)
    base["releases"] = [{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 0.75}]
    report = run_pipeline(parse_config(minimal_config(str(path), **base)))
    assert report.releases[0]["delta_f"] == 0.75


def test_dp_mean_imputation_charges_ledger(frame_csv, tmp_path):
    frame = make_frame([0.2, float("nan"), 0.4, 1.0])
    path = tmp_path / "missing.csv"
    dump_frame_csv(frame, path)
    text = minimal_config(
        str(path), design={"kind": "srswor", "n": 4},
        imputation={"method": "dp_mean", "epsilon": 0.4},
        releases=[{"statistic": "mean", "epsilon": 0.6}], budget=1.0)
    report = run_pipeline(parse_config(text))
    assert report.ledger_total == 1.0
    labels = [c["label"] for c in report.ledger_charges]
    assert labels == ["impute-fit[mean]", "release[mean]"]


def test_dp_regression_imputation_runs_and_charges(frame_csv, tmp_path):
    frame = make_frame([0.2, float("nan"), 0.4, 1.0, 0.6],
                       xs=[1.0, 2.0, 2.0, 1.0, 2.0])
    path = tmp_path / "reg.csv"
    dump_frame_csv(frame, path)
    text = minimal_config(
        str(path),
        universe={"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0]},
        design={"kind": "srswor", "n": 5},
        imputation={"method": "dp_regression", "epsilon": 0.5},
        releases=[{"statistic": "ht_mean", "epsilon": 0.5}], budget=1.0)
    report = run_pipeline(parse_config(text))
    labels = [c["label"] for c in report.ledger_charges]
    assert labels == ["impute-fit[regression]", "release[ht_mean]"]
    assert report.ledger_total == 1.0


def test_dp_propensities_mode_charges_ledger(frame_csv):
    text = minimal_config(
        frame_csv,
        design={"kind": "srswor", "n": 6},
        response={"model": "propensity"},
        adjustment={"cells": {"c1": [1, 2, 3], "c2": [4, 5, 6]},
                    "dp_propensities": {"epsilon": 0.3}},
        releases=[{"statistic": "ht_mean", "epsilon": 0.7}],
        budget=1.0)
    report = run_pipeline(parse_config(text))
    labels = [c["label"] for c in report.ledger_charges]
    assert labels == ["dp-propensity-cells", "release[ht_mean]"]
    assert report.ledger_total == 1.0


def test_overlapping_cells_are_a_config_error(frame_csv):
    text = minimal_config(
        frame_csv, adjustment={"cells": {"c1": [1, 2, 3], "c2": [4, 3, 5, 6]}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.path == "adjustment.cells.c2[1]"
    assert "already in cell 'c1'" in str(excinfo.value)


def test_sampled_unit_outside_every_cell_fails_in_adjust(frame_csv):
    text = minimal_config(
        frame_csv, design={"kind": "srswor", "n": 6},
        adjustment={"cells": {"c1": [1, 2, 3], "c2": [4, 6]}})
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(parse_config(text))
    assert excinfo.value.stage == "adjust"
    assert "units [5] are not covered by any adjustment cell" in str(excinfo.value)


def test_a_pps_run_computes_pi_once(frame_csv):
    # the run's pi is the draw's calibration key: the draw does not compute it again
    config = parse_config(minimal_config(frame_csv, design={"kind": "pps", "n": 3}))
    with mock.patch.object(designs.PPS, "pi", autospec=True, side_effect=designs.PPS.pi) as spy:
        run_pipeline(config)
    assert spy.call_count == 1


def test_a_run_names_sampled_units_by_frame_position(tmp_path):
    # the draw's positions carry through response, imputation and release:
    # no stage maps ids back to the frame
    frame = make_frame([0.2, math.nan, 0.4, 1.0, 0.6, math.nan],
                       xs=[1.0, 2.0, 2.0, 1.0, 2.0, 1.0],
                       propensities=[0.9, 0.8, 1.0, 0.7, 1.0, 0.95])
    path = tmp_path / "frame.csv"
    dump_frame_csv(frame, path)
    config = parse_config(minimal_config(
        str(path), universe={"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0]},
        design={"kind": "srswor", "n": 5}, response={"model": "propensity"},
        imputation={"method": "dp_regression", "epsilon": 0.5},
        releases=[{"statistic": "ht_mean", "epsilon": 0.5}]))
    with mock.patch.object(Frame, "positions", autospec=True, side_effect=Frame.positions) as spy:
        report = run_pipeline(config)
    assert spy.call_count == 0
    assert [c["label"] for c in report.ledger_charges] == ["impute-fit[regression]",
                                                           "release[ht_mean]"]


@pytest.mark.parametrize("design", [{"kind": "srswor", "n": 4}, {"kind": "srswr", "n": 5},
                                    {"kind": "stratified_srswor", "n": 4}])
def test_repeated_and_absent_cell_ids_leave_the_report_unchanged(frame_csv, design):
    # a repeated id inside one cell is accepted, and ids (or whole cells)
    # absent from the frame are never touched by a run
    def report(cells):
        text = minimal_config(
            frame_csv, design=design, response={"model": "propensity"},
            adjustment={"cells": cells, "dp_propensities": {"epsilon": 0.4},
                        "regularize": {"lower": 0.5, "upper": 3.0}},
            releases=[{"statistic": "ht_mean", "epsilon": 0.6}])
        return run_pipeline(parse_config(text)).to_json()

    plain = report({"c1": [1, 2, 3], "c2": [4, 5, 6]})
    assert report({"c1": [1, 2, 2, 3, 1], "c2": [4, 5, 6, 6]}) == plain
    assert report({"c1": [1, 2, 3, 70], "c2": [4, 5, 6, 71], "c0": [99]}) == plain


def test_two_stage_inclusion_probabilities_compose():
    from dpsurvey.designs import ClusterSRSWOR, Systematic, inclusion_probs

    frame = make_frame([0.1, 0.5, 0.9, 0.3], clusters=["a", "a", "b", "b"])
    design = TwoStageDesign(ClusterSRSWOR(1), Systematic(1, "frame"))
    pi = inclusion_probs(design, frame)
    assert list(pi) == [0.25] * 4  # (1 of 2 clusters) * (1 of 2 within)


def test_two_stage_design_runs(frame_csv):
    text = minimal_config(
        frame_csv,
        design={"kind": "cluster_srswor", "m": 2,
                "inner": {"kind": "systematic", "n": 1, "ordering": "frame"}},
        releases=[{"statistic": "ht_mean", "epsilon": 1.0}])
    config = parse_config(text)
    assert isinstance(config.design, TwoStageDesign)
    report = run_pipeline(config)
    assert report.releases[0]["statistic"] == "ht_mean"
    assert run_pipeline(config).to_json() == report.to_json()


def test_frame_start_audit_attachment(frame_csv):
    text = minimal_config(
        frame_csv, mechanism_start="frame", invariant="population",
        design={"kind": "poisson", "rate": 0.25},
        audit={"design_stage": {"epsilon": 0.1}},
        releases=[{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 0.5}])
    report = run_pipeline(parse_config(text))
    assert report.audit is not None
    assert report.audit["status"] == "ok"
    assert report.audit["eps_effective"] < 0.1


def test_two_stage_design_stage_audit(frame_csv):
    text = minimal_config(
        frame_csv, mechanism_start="frame", invariant="population",
        design={"kind": "cluster_srswor", "m": 1, "inner": {"kind": "srswor", "n": 1}},
        audit={"design_stage": {"epsilon": 0.1}},
        releases=[{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 0.5}])
    report = run_pipeline(parse_config(text))
    assert report.audit["status"] == "ok"
    assert math.isfinite(report.audit["eps_effective"])


@pytest.mark.parametrize("eps, status", [(5.0, "ok"), (1000.0, (
    "error: randomized response: e^epsilon leaves the float range at epsilon 1000.0"))])
def test_design_stage_audit_past_the_float_range_is_reported(tmp_path, eps, status):
    path = tmp_path / "frame.csv"
    dump_frame_csv(make_frame([0.2, 0.5, 0.9]), path)
    config = parse_config(minimal_config(
        str(path), mechanism_start="frame", invariant="population",
        design={"kind": "srswor", "n": 2}, audit={"design_stage": {"epsilon": eps}},
        releases=[{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 1.0}]))
    assert run_pipeline(config).audit["status"] == status


def test_intractable_design_stage_audit_is_reported_and_a_bug_is_raised(tmp_path):
    # 2^30 Poisson samples exceed the enumeration cap: the run still
    # publishes its releases, and the report says why the audit is missing
    path = tmp_path / "frame.csv"
    dump_frame_csv(make_frame([0.0, 1.0] * 15), path)
    config = parse_config(minimal_config(
        str(path), mechanism_start="frame", invariant="population",
        design={"kind": "poisson", "rate": 0.5},
        audit={"design_stage": {"epsilon": 0.5}},
        releases=[{"statistic": "mean", "epsilon": 1.0, "audited_sensitivity": 1.0}]))
    report = run_pipeline(config)
    assert report.audit["status"].startswith("error: intractable enumeration")
    assert json.loads(report.to_json())["audit"] == report.audit
    with mock.patch("dpsurvey.pipeline.effective_epsilon", side_effect=TypeError("a bug")):
        with pytest.raises(TypeError, match="a bug"):
            run_pipeline(config)


def test_stage_errors_carry_stage_name(frame_csv, tmp_path):
    config = parse_config(minimal_config(str(tmp_path / "missing.csv")))
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "load-frame"


def test_a_response_draw_with_no_respondents_stops_the_run(tmp_path):
    path = tmp_path / "frame.csv"
    dump_frame_csv(make_frame([0.2, 0.5, 0.9], propensities=[0.01] * 3), path)
    config = parse_config(minimal_config(str(path), design={"kind": "srswor", "n": 2},
                                         response={"model": "propensity"}))
    with pytest.raises(PipelineStageError, match=r"^stage 'respond': no respondents; "
                                                 r"cannot continue the pipeline$") as excinfo:
        run_pipeline(config, seed=1)
    assert excinfo.value.stage == "respond"


def test_y_outside_universe_rejected(tmp_path):
    frame = make_frame([0.2, 3.0])
    path = tmp_path / "bad.csv"
    dump_frame_csv(frame, path)
    config = parse_config(minimal_config(str(path), design={"kind": "srswor", "n": 2}))
    with pytest.raises(PipelineStageError) as excinfo:
        run_pipeline(config)
    assert excinfo.value.stage == "load-frame"


def test_repeated_draws_of_one_unit_scale_the_closed_form(tmp_path):
    # SRSWR(2) on three units draws unit 2 twice for seed 1: one record's
    # change moves both of its rows, so the fixed-weight bound is the unit's
    # summed weight (2 * 1.8 * R / N) and the mean bound doubles
    frame = make_frame([0.0, 1.0, 0.0])
    path = tmp_path / "frame.csv"
    dump_frame_csv(frame, path)
    from dpsurvey.designs import SRSWR, draw

    assert draw(SRSWR(2), frame, np.random.default_rng(1)).ids == (2, 2)
    text = minimal_config(str(path), design={"kind": "srswr", "n": 2},
                          response={"model": "full"},
                          releases=[{"statistic": "ht_mean", "epsilon": 0.5},
                                    {"statistic": "mean", "epsilon": 0.5}])
    report = run_pipeline(parse_config(text), seed=1)
    ht, mean = report.releases
    assert abs(ht["delta_f"] - 1.2) <= 1e-12
    assert abs(mean["delta_f"] - 1.0) <= 1e-12


# sha256 of run_pipeline(...).to_json() for each config below at its seed, as
# recorded with an earlier version of the package.  A change in how any stage
# consumes the generator, or in the report bytes, moves them.
REPORT_PINS = {
    "propensity_stratified_dp_regression":
        "af102207af5910e8c672a40d980ba1f2298debe76ab3f4d05d979dead6452914",
    "pps":
        "c61e6924a9e03002016bd5f08539b2f0c3c0a7de9ab2c165d10322bee86dd65d",
    "srswr_cells_benchmarks":
        "519508f51c6030db625d6a6ac7136dabb86f2983da2efe757e2e3e260e7a7467",
    "srswor_cells_dp_propensities_regularize":
        "3a9fd3cf7449b154bca4f95d46430a8fe3acf46b74e430eac71babfbe3f99f64",
}


def report_pin_configs(tmp_path) -> dict:
    frame = make_frame([0.2, float("nan"), 0.4, 1.0, 0.0, float("nan"), 0.6, 0.9],
                       xs=[1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0],
                       strata=["A", "A", "A", "A", "B", "B", "B", "B"],
                       propensities=[0.9, 0.8, 1.0, 0.7, 1.0, 0.95, 0.6, 0.85],
                       ids=[14, 3, 9, 1, 22, 7, 5, 11])
    path = tmp_path / "pins.csv"
    dump_frame_csv(frame, path)
    universe = {"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0]}
    return {
        "propensity_stratified_dp_regression": (minimal_config(
            str(path), universe=universe,
            design={"kind": "stratified_srswor", "n": 6},
            response={"model": "propensity"},
            imputation={"method": "dp_regression", "epsilon": 0.4},
            releases=[{"statistic": "ht_mean", "epsilon": 0.3},
                      {"statistic": "mean", "epsilon": 0.3}]), 11),
        "pps": (minimal_config(
            str(path), universe=universe, design={"kind": "pps", "n": 3},
            imputation={"method": "dp_mean", "epsilon": 0.5},
            releases=[{"statistic": "ht_total", "epsilon": 0.5}]), 12),
        "srswr_cells_benchmarks": (minimal_config(
            str(path), universe=universe, design={"kind": "srswr", "n": 5},
            response={"model": "propensity"},
            adjustment={"cells": {"a": [14, 3, 9, 1], "b": [22, 7, 5, 11]},
                        "benchmarks": {"a": 4.0, "b": 4.0}},
            imputation={"method": "dp_mean", "epsilon": 0.5},
            releases=[{"statistic": "ht_mean", "epsilon": 0.5}]), 13),
        # cells listed out of label order: the noisy cell counts are drawn
        # in label order
        "srswor_cells_dp_propensities_regularize": (minimal_config(
            str(path), universe=universe, design={"kind": "srswor", "n": 6},
            response={"model": "propensity"},
            adjustment={"cells": {"c": [22, 7], "a": [14, 3, 9, 1], "b": [5, 11]},
                        "dp_propensities": {"epsilon": 0.3},
                        "regularize": {"lower": 0.5, "upper": 3.0}},
            imputation={"method": "dp_mean", "epsilon": 0.2},
            releases=[{"statistic": "ht_mean", "epsilon": 0.5}]), 14),
    }


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_run_report_is_stable_across_versions(name, tmp_path):
    text, seed = report_pin_configs(tmp_path)[name]
    report = run_pipeline(parse_config(text), seed=seed).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_PINS[name]
