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


@pytest.mark.parametrize("call", [
    lambda: nonresponse_adjust([1.0, 2.0], {"a": 0.5}, ["a"]),
    lambda: poststratify([1.0], ["a", "a"], {"a": 2.0}),
], ids=["nonresponse_adjust", "poststratify"])
def test_weights_and_labels_of_unequal_length_are_refused(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError,
                                                         "weights and cell labels must align")


@pytest.mark.filterwarnings("error")
def test_poststratify_refuses_a_cell_total_that_overflows():
    with pytest.raises(CalibrationError, match=r"^cell 'a': weight total overflows$"):
        poststratify([1e308, 1e308], ["a", "a"], {"a": 1.0})


@pytest.mark.filterwarnings("error")
def test_nonresponse_adjust_refuses_a_weight_that_overflows():
    with pytest.raises(ValueError, match=r"^cell 'a': weight 1e\+300 / propensity 1e-300 "
                                         r"overflows$"):
        nonresponse_adjust([1e300, 1.0], {"a": 1e-300}, ["a", "a"])


@pytest.mark.filterwarnings("error")
def test_poststratify_divides_first_where_w_times_b_overflows():
    out = poststratify([1e10, 1.0], ["a", "a"], {"a": 1e300})
    # only the weight whose w * B overflows is rescaled as w / S * B
    assert out == (1e10 / (1e10 + 1.0) * 1e300, 1.0 * 1e300 / (1e10 + 1.0))
    assert math.fsum(out) == pytest.approx(1e300, rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, message", [
    ([math.inf, 1.0], "weight at position 0 in cell 'a' is inf; weights must be finite"),
    ([math.inf, -math.inf], "weight at position 0 in cell 'a' is inf; weights must be finite"),
    ([1.0, math.nan], "weight at position 1 in cell 'a' is nan; weights must be finite"),
], ids=["inf", "inf-and-minus-inf", "nan"])
def test_poststratify_refuses_a_weight_that_is_not_finite(weights, message):
    # an infinite cell total turns w * B / S into inf / inf and 1 / inf
    with pytest.raises(ValueError) as excinfo:
        poststratify(weights, ["a", "a"], {"a": 2.0})
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, labels, message", [
    ([math.inf, 1.0], "aa", "weight at position 0 in cell 'a' is inf; weights must be finite"),
    ([1.0, -math.inf], "ab", "weight at position 1 in cell 'b' is -inf; weights must be finite"),
    ([math.nan, 1.0], "aa", "weight at position 0 in cell 'a' is nan; weights must be finite"),
], ids=["inf", "minus-inf", "nan"])
def test_nonresponse_adjust_refuses_a_weight_that_is_not_finite(weights, labels, message):
    with pytest.raises(ValueError) as excinfo:
        nonresponse_adjust(weights, {"a": 0.5, "b": 0.5}, list(labels))
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, message", [
    ([math.nan, 1.0], "weight at position 0 is nan; weights must be finite"),
    ([1.0, math.inf], "weight at position 1 is inf; weights must be finite"),
    ([-math.inf], "weight at position 0 is -inf; weights must be finite"),
], ids=["nan", "inf", "minus-inf"])
def test_regularize_weights_refuses_a_weight_that_is_not_finite(weights, message):
    # min and max do not order a NaN: it would come back clamped to a bound
    with pytest.raises(ValueError) as excinfo:
        regularize_weights(weights, 0.5, 2.0)
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.sampled_from("abc")), min_size=1,
                max_size=12),
       st.dictionaries(st.sampled_from("abcd"), st.floats(1e-3, 1e6)),
       st.dictionaries(st.sampled_from("abc"), st.floats(1e-3, 1.0), min_size=3))
@settings(max_examples=200, deadline=None)
def test_finite_adjustments_are_the_per_unit_float_formulas(rows, benchmarks, propensities):
    weights, labels = map(list, zip(*rows))
    assert nonresponse_adjust(weights, propensities, labels) == tuple(
        w / propensities[label] for w, label in rows)
    benchmarks = {label: b for label, b in benchmarks.items() if label in labels}
    totals = {label: math.fsum(w for w, lb in rows if lb == label) for label in benchmarks}
    assert poststratify(weights, labels, benchmarks) == tuple(
        w if label not in totals or totals[label] == benchmarks[label]
        else w * benchmarks[label] / totals[label] for w, label in rows)


def _merged_rates(names, sampled, responded) -> dict:
    """Reference: merge the first group without respondents into the next group
    (the last into the one before) until every group has one."""
    groups = [[k] for k in range(len(names))]
    while any(sum(responded[k] for k in group) == 0 for group in groups):
        i = next(i for i, group in enumerate(groups) if sum(responded[k] for k in group) == 0)
        j = i + 1 if i + 1 < len(groups) else i - 1
        groups[min(i, j)] += groups.pop(max(i, j))
    return {names[k]: sum(responded[m] for m in group) / sum(sampled[m] for m in group)
            for group in groups for k in group}


@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.booleans()), min_size=1, max_size=24)
       .filter(lambda rows: any(flag for _, flag in rows)))
@settings(max_examples=300, deadline=None)
def test_collapsed_propensities_merge_cell_by_cell(rows):
    labels, flags = zip(*rows)
    names = sorted(set(labels))
    sampled = [labels.count(name) for name in names]
    responded = [sum(flag for label, flag in rows if label == name) for name in names]
    assert estimate_propensities_cells(labels, flags) == _merged_rates(names, sampled, responded)
