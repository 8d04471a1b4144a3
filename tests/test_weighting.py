import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsurvey.audit import AuditInstance, NeighborRelation, exact_sensitivity
from dpsurvey.mechanisms import PrivacyLedger
from dpsurvey.weighting import (
    CalibrationError,
    dp_estimate_propensities_cells,
    estimate_propensities_cells,
    nonresponse_adjust,
    poststratify,
    regularize_weights,
)


def test_propensity_ratio():
    flags = [True] * 8 + [False] * 2
    out = estimate_propensities_cells(["c"] * 10, flags)
    assert out == {"c": 0.8}


def test_full_response_gives_unit_propensities():
    out = estimate_propensities_cells(["a", "a", "b", "b"], [True] * 4)
    assert out == {"a": 1.0, "b": 1.0}
    assert nonresponse_adjust([2.0, 2.0, 3.0, 3.0], out, ["a", "a", "b", "b"]) == \
        (2.0, 2.0, 3.0, 3.0)


def test_zero_respondent_cell_collapses_into_neighbor():
    # cell "a": 0 of 5 responding; merged into "b", never p-hat = 0
    flags = [False] * 5 + [True] * 4 + [False]
    out = estimate_propensities_cells(["a"] * 5 + ["b"] * 5, flags)
    assert out["a"] == out["b"] == pytest.approx(0.4)
    # oracle: re-estimating on the merged cell gives the same rate
    merged = estimate_propensities_cells(["ab"] * 10, flags)
    assert out["a"] == merged["ab"]


def test_last_cell_collapses_backward():
    flags = [True, True, False, False]
    out = estimate_propensities_cells(["a", "a", "b", "b"], flags)
    assert out["a"] == out["b"] == pytest.approx(0.5)


def test_cell_labels_and_flags_must_align():
    with pytest.raises(ValueError, match="align"):
        estimate_propensities_cells(["a", "b"], [True])
    with pytest.raises(ValueError, match="align"):
        dp_estimate_propensities_cells(["a", "b"], [True], 1.0, np.random.default_rng(0))


def test_nonresponse_adjust_division():
    assert nonresponse_adjust([4.0], {"c": 0.5}, ["c"]) == (8.0,)
    out = nonresponse_adjust([1.0, 1.0], {"a": 0.5, "b": 0.25}, ["a", "b"])
    assert out == (2.0, 4.0)
    with pytest.raises(ValueError):
        nonresponse_adjust([1.0], {"a": 0.0}, ["a"])


def test_poststratify_hits_benchmarks_exactly():
    out = poststratify([2.0, 2.0], ["c", "c"], {"c": 8.0})
    assert out == (4.0, 4.0)
    assert math.fsum(out) == 8.0


def test_poststratify_identity_when_benchmark_matches_total():
    weights = (1.25, 2.75, 0.5)
    out = poststratify(weights, ["c"] * 3, {"c": math.fsum(weights)})
    assert out == weights


def test_poststratify_two_cells():
    out = poststratify([1.0, 2.0, 1.0, 1.0], ["a", "a", "b", "b"], {"a": 6.0, "b": 4.0})
    assert out == (2.0, 4.0, 2.0, 2.0)


def test_poststratify_passes_unbenchmarked_cells_through():
    out = poststratify([1.0, 3.0], ["a", "b"], {"a": 2.0})
    assert out == (2.0, 3.0)


def test_poststratify_empty_cell_fails():
    with pytest.raises(CalibrationError):
        poststratify([1.0], ["a"], {"b": 2.0})


@pytest.mark.parametrize("weights, total, message", [
    ([1.0], 0.0, "cell 'a': benchmark must be > 0, got 0.0"),
    ([1.0], -2.0, "cell 'a': benchmark must be > 0, got -2.0"),
    ([0.0, 0.0], 1.0, "cell 'a': weight total is 0; cannot calibrate"),
])
def test_poststratify_refusals_name_the_cell(weights, total, message):
    with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
        poststratify(weights, ["a"] * len(weights), {"a": total})


def test_no_respondent_in_any_cell_is_refused():
    with pytest.raises(ValueError, match=r"^no respondents in any cell; "
                                         r"nonresponse adjustment impossible$"):
        estimate_propensities_cells(["a", "a", "b"], [False, False, False])


def test_poststratify_idempotent():
    weights = [0.7, 1.3, 2.1, 0.9]
    labels = ["a", "a", "b", "b"]
    benchmarks = {"a": 5.0, "b": 2.5}
    once = poststratify(weights, labels, benchmarks)
    twice = poststratify(once, labels, benchmarks)
    assert once == twice


@given(st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_poststratify_idempotent_property(weights, benchmark):
    # exact up to one float rounding per weight: the second pass rescales by
    # benchmark / realized-total, which is 1 up to an ulp
    labels = ["c"] * len(weights)
    once = poststratify(weights, labels, {"c": benchmark})
    twice = poststratify(once, labels, {"c": benchmark})
    for a, b in zip(once, twice):
        assert b == pytest.approx(a, rel=1e-15)
    assert math.fsum(once) == pytest.approx(benchmark, rel=1e-12)


def test_regularize_clamps():
    assert regularize_weights([1.0, 10.0], 1.0, 5.0) == (1.0, 5.0)
    assert regularize_weights([1.0, 10.0], 3.0, 3.0) == (3.0, 3.0)
    assert regularize_weights([2.0, 4.0], 1.0, 5.0) == (2.0, 4.0)
    with pytest.raises(ValueError):
        regularize_weights([1.0], 2.0, 1.0)
    with pytest.raises(ValueError):
        regularize_weights([1.0], 0.0, 1.0)


@given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10),
       st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=0.0, max_value=90.0))
@settings(max_examples=100, deadline=None)
def test_regularize_never_increases_max_weight(weights, lower, spread):
    upper = lower + spread
    clipped = regularize_weights(weights, lower, upper)
    assert max(clipped) <= max(max(weights), lower)
    # hence the fixed-weight sensitivity bound max(w) R / N cannot increase
    assert max(clipped) * 1.0 / 10 <= max(max(weights), lower) * 1.0 / 10


def test_nonresponse_adjustment_preserves_expected_totals():
    # enumerate every response pattern; with the true cell rates plugged in,
    # the expected respondent-weighted total equals the full-sample total
    weights = [2.0, 3.0, 5.0, 1.0]
    ys = [0.3, 0.9, 0.4, 1.0]
    labels = ["a", "a", "b", "b"]
    rates = {"a": 0.6, "b": 0.25}
    target = math.fsum(w * y for w, y in zip(weights, ys))
    expected = 0.0
    for pattern in itertools.product([True, False], repeat=4):
        prob = 1.0
        for flag, label in zip(pattern, labels):
            rate = rates[label]
            prob *= rate if flag else (1.0 - rate)
        if not any(pattern):
            continue  # no respondents: adjusted total is 0, contributes nothing
        adjusted = nonresponse_adjust(weights, rates, labels)
        expected += prob * math.fsum(
            w * y for w, y, flag in zip(adjusted, ys, pattern) if flag)
    assert expected == pytest.approx(target, abs=1e-8)


def test_adjusted_weights_never_shrink_audited_sensitivity():
    # the audit oracle on fixed-weight instances: dividing weights by
    # propensities <= 1 cannot reduce the worst-case statistic change
    design_weights = (2.0, 3.0, 5.0)
    propensities = {"a": 0.5, "b": 0.8}
    labels = ["a", "b", "a"]
    adjusted = nonresponse_adjust(design_weights, propensities, labels)
    relation = NeighborRelation("frame", "y-only")
    base = exact_sensitivity(AuditInstance(
        name="design-w", statistic="ht_mean", y_grid=(0.0, 1.0),
        weights=design_weights, n_pop=10), relation)
    inflated = exact_sensitivity(AuditInstance(
        name="adjusted-w", statistic="ht_mean", y_grid=(0.0, 1.0),
        weights=adjusted, n_pop=10), relation)
    assert inflated.delta_f >= base.delta_f


def test_dp_propensities_stay_in_unit_interval_and_charge_ledger():
    labels = ["a"] * 4 + ["b"] * 4
    flags = [True, True, False, True, True, False, True, True]
    ledger = PrivacyLedger()
    out = dp_estimate_propensities_cells(
        labels, flags, 1.0, np.random.default_rng(3), ledger=ledger)
    assert set(out) == {"a", "b"}
    assert all(0.0 < p <= 1.0 for p in out.values())
    assert ledger.total() == 1.0
    # noise is drawn cell by cell in label order, whatever the sample order
    reordered = dp_estimate_propensities_cells(
        labels[::-1], flags[::-1], 1.0, np.random.default_rng(3))
    assert reordered == out
