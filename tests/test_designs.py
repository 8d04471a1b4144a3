import copy
import itertools
import math
import os
import time
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsurvey import designs
from dpsurvey.designs import (
    PPS,
    SRSWOR,
    SRSWR,
    CertaintyUnitError,
    ClusterSRSWOR,
    EnumerationCapExceeded,
    PPSCalibrationError,
    Poisson,
    StratifiedSRSWOR,
    Systematic,
    TwoStageDesign,
    WeightedSample,
    allocate_strata,
    build_sample,
    draw,
    inclusion_probs,
    sample_space,
)
from dpsurvey.frames import make_frame
from dpsurvey.instances import design_library, frame_library


def marginals_from_space(space, frame):
    position = {uid: i for i, uid in enumerate(frame.ids)}
    out = np.zeros(frame.n)
    for sample, prob in space:
        for uid in set(sample):
            out[position[uid]] += prob
    return out


def test_pps_inclusion_probs_match_direct_formula():
    frame = make_frame([0, 1, 0], xs=[1, 2, 3])
    pi = inclusion_probs(PPS(1), frame)
    # oracle: exact rational evaluation of n * x_i / sum(x)
    expected = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    assert np.allclose(pi, [float(v) for v in expected], atol=1e-15)


def test_equal_probability_designs():
    frame = make_frame([0, 0, 1, 1])
    assert np.allclose(inclusion_probs(SRSWOR(2), frame), 0.5)
    frame5 = make_frame([0] * 5)
    assert np.allclose(inclusion_probs(Poisson(0.3), frame5), 0.3)


def test_pps_certainty_unit_reported_with_id():
    frame = make_frame([0, 0, 0], xs=[10, 1, 1], ids=[7, 8, 9])
    with pytest.raises(CertaintyUnitError) as excinfo:
        inclusion_probs(PPS(2), frame)
    assert excinfo.value.unit_id == 7


def test_proportional_allocation_exact():
    frame = make_frame([0] * 100, strata=["A"] * 60 + ["B"] * 40)
    assert allocate_strata("proportional", frame, 10) == {"A": 6, "B": 4}


def test_single_stratum_allocation_is_identity():
    frame = make_frame([0] * 9)
    assert allocate_strata("proportional", frame, 5) == {"0": 5}


def neyman_frame():
    # stratum A: values {0, 2} -> sd 1;  stratum B: values {0, 6} -> sd 3
    ys = [0] * 25 + [2] * 25 + [0] * 25 + [6] * 25
    return make_frame(ys, strata=["A"] * 50 + ["B"] * 50)


def test_neyman_allocation_example():
    assert allocate_strata("neyman", neyman_frame(), 8) == {"A": 2, "B": 6}


def test_neyman_matches_brute_force_variance_minimum():
    # oracle: enumerate every integer allocation and minimize the stratified
    # variance term sum N_h^2 S_h^2 / n_h
    frame = neyman_frame()
    n = 8
    sizes = {"A": 50, "B": 50}
    spreads = {"A": 1.0, "B": 3.0}
    best = None
    for n_a in range(1, n):
        n_b = n - n_a
        variance = sum(sizes[h] ** 2 * spreads[h] ** 2 / dict(A=n_a, B=n_b)[h]
                       for h in sizes)
        if best is None or variance < best[0]:
            best = (variance, {"A": n_a, "B": n_b})
    assert allocate_strata("neyman", frame, n) == best[1]


def test_allocation_rejects_too_small_n():
    frame = make_frame([0, 0, 1, 1], strata=["A", "A", "B", "B"])
    with pytest.raises(ValueError):
        allocate_strata("proportional", frame, 1)


def _cap_below_one():
    with mock.patch.dict(os.environ, {designs.ENUM_CAP_ENV: "0"}):
        designs.default_enumeration_cap()


@pytest.mark.parametrize("call, message", [
    (_cap_below_one, "DPSURVEY_ENUM_CAP must be a positive integer, got '0'"),
    (lambda: WeightedSample(make_frame([0.0, 1.0]), [0, 1], [0.5], [2.0, 2.0], [0.0, 1.0]),
     "sample columns must have equal length"),
    (lambda: inclusion_probs(Poisson(0.0), make_frame([0.0, 1.0])),
     "Poisson rate must be in (0, 1], got 0.0"),
    (lambda: inclusion_probs(StratifiedSRSWOR(4), make_frame([0, 0, 0])),
     "n=4 exceeds frame size 3"),
    (lambda: allocate_strata("optimal", make_frame([0, 1, 0, 1], strata=["a", "a", "b", "b"]), 2),
     "unknown allocation 'optimal'"),
    (lambda: allocate_strata("neyman", make_frame([0, math.nan, 0, 1], strata=list("aabb")), 2),
     "stratum 'a': Neyman allocation needs observed y"),
], ids=["enum-cap", "sample-columns", "poisson-rate", "stratified-size", "allocation",
        "neyman-missing-y"])
def test_design_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


def test_neyman_allocation_past_the_float_range_names_the_stratum():
    # a square past the float range, and a difference that is already infinite
    for ys in ([0, 1e160, 0, 5e159], [1.7e308, 1.7e308, -1.7e308, 0, 1, 0]):
        frame = make_frame(ys, strata=["a"] * (len(ys) - 2) + ["b", "b"])
        with pytest.raises(ValueError, match=r"^stratum 'a': the spread of y overflows a float$"):
            allocate_strata("neyman", frame, 2)
    frame = make_frame([0, 1e150, 0, 5e149], strata=["a", "a", "b", "b"])
    assert allocate_strata("neyman", frame, 2) == {"a": 1, "b": 1}


def test_pps_size_measures_past_the_float_range_raise_typed_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError, match=r"^PPS: the size measures x sum past the float"):
            inclusion_probs(PPS(2), make_frame(np.zeros(5), xs=[1e308] * 5))
        with pytest.raises(CertaintyUnitError) as excinfo:  # n x overflows, its pi does not
            inclusion_probs(PPS(2), make_frame(np.zeros(3), xs=[9e307, 1.0, 1.0]))
    assert excinfo.value.unit_id == 1 and excinfo.value.pi == 2.0
    assert "is 2 > 1" in str(excinfo.value)


def test_allocation_respects_bounds():
    # a tiny stratum cannot absorb its proportional share of a big n
    frame = make_frame([0] * 9 + [1], strata=["A"] * 9 + ["B"])
    counts = allocate_strata("proportional", frame, 10)
    assert counts == {"A": 9, "B": 1}
    # zero-spread stratum still gets at least one unit under Neyman
    frame2 = make_frame([0, 0, 0, 1, 0, 2], strata=["A", "A", "A", "B", "B", "B"])
    counts2 = allocate_strata("neyman", frame2, 3)
    assert counts2["A"] >= 1 and sum(counts2.values()) == 3


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
       st.data())
@settings(max_examples=100, deadline=None)
def test_allocation_always_feasible(sizes, data):
    labels = [chr(ord("A") + i) for i in range(len(sizes))]
    strata = [lb for lb, size in zip(labels, sizes) for _ in range(size)]
    ys = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                            min_size=len(strata), max_size=len(strata)))
    frame = make_frame(ys, strata=strata)
    n = data.draw(st.integers(min_value=len(labels), max_value=frame.n))
    for allocation in ("proportional", "neyman"):
        counts = allocate_strata(allocation, frame, n)
        assert sum(counts.values()) == n
        for label, size in zip(labels, sizes):
            assert 1 <= counts[label] <= size


def test_draw_exhaustive_cases():
    frame = make_frame([0, 1, 2])
    for seed in range(5):
        sample = draw(SRSWOR(3), frame, np.random.default_rng(seed))
        assert sample.ids == (1, 2, 3)
        sample = draw(Poisson(1.0), frame, np.random.default_rng(seed))
        assert sample.ids == (1, 2, 3)


def test_draw_weights_are_exact_reciprocals():
    frame = make_frame([0.1, 0.9, 0.4, 0.3], xs=[4, 3, 2, 1])
    for design in (SRSWOR(2), PPS(2), Systematic(2, "frame"), SRSWR(3)):
        sample = draw(design, frame, np.random.default_rng(11))
        for pi, w in zip(sample.pi, sample.w):
            assert w == 1.0 / pi


def test_draw_positions_index_the_rows_the_sample_holds():
    # a sampled row names its unit by frame position; ids, y and pi are read there
    repeats = 0
    for frame in frame_library():
        for design in design_library(frame):
            pi = inclusion_probs(design, frame)
            for seed in range(4):
                sample = draw(design, frame, np.random.default_rng(seed))
                at = sample.positions
                assert sample.ids == tuple(frame.id_array[at].tolist())
                assert sample.y.tolist() == frame.y_array[at].tolist()
                assert sample.pi.tolist() == pi[at].tolist()
                repeats += len(set(at.tolist())) < sample.size
    assert repeats  # SRSWR(2) draws a unit twice on some frame and seed


@pytest.mark.parametrize("column, value, fault", [
    ("pi", 0.0, "inclusion probability 0.0 outside (0, 1]"),
    ("pi", 1.5, "inclusion probability 1.5 outside (0, 1]"),
    ("pi", math.nan, "inclusion probability nan outside (0, 1]"),
    ("w", 0.0, "weight 0.0 must be positive and finite"),
    ("w", math.inf, "weight inf must be positive and finite"),
    ("w", math.nan, "weight nan must be positive and finite"),
])
def test_weighted_sample_names_the_unit_of_a_bad_pi_or_weight(column, value, fault):
    frame = make_frame([0.1, 0.2, 0.3], ids=[7, 8, 9])
    sample = build_sample(frame, [0, 1, 2], [0.5, 0.25, 0.5])
    values = getattr(sample, column).copy()
    values[1] = value
    with pytest.raises(ValueError) as excinfo, np.errstate(divide="ignore"):
        if column == "pi":
            build_sample(frame, [0, 1, 2], values)
        else:
            sample.with_weights(values)
    assert str(excinfo.value) == f"unit 8: {fault}"


def test_weighted_sample_reports_a_bad_pi_before_an_earlier_bad_weight():
    frame = make_frame([0.1, 0.2, 0.3], ids=[7, 8, 9])
    with pytest.raises(ValueError, match=r"^unit 9: inclusion probability 2\.0 outside"):
        WeightedSample(frame, [0, 1, 2], [0.5, 0.5, 2.0], [0.0, 2.0, 0.5], frame.y_array)


def test_weighted_sample_columns_are_read_only_and_derived_samples_copy():
    frame = make_frame([0.1, math.nan, 0.3], ids=[7, 8, 9])
    positions = np.array([2, 0, 2])
    sample = build_sample(frame, positions, [0.5, 0.25, 0.5])
    positions[0] = 1  # the caller's array stays the caller's
    assert sample.ids == (9, 7, 9)
    for column in (sample.positions, sample.pi, sample.w, sample.y):
        with pytest.raises(ValueError):
            column[0] = 1
    new_y = np.array([1.0, 2.0, 3.0])
    filled = sample.with_y(new_y)
    new_y[0] = 5.0
    part = sample.take([1, 2])
    assert filled.y.tolist() == [1.0, 2.0, 3.0]
    assert (part.ids, part.y.tolist(), part.w.tolist()) == ((7, 9), [0.1, 0.3], [2.0, 2.0])
    assert (sample.ids, sample.y.tolist()) == ((9, 7, 9), [0.3, 0.1, 0.3])
    first, unit_of = sample.units()  # a unit drawn twice is one unit
    assert (first.tolist(), unit_of.tolist()) == ([1, 0], [1, 0, 1])


def test_draw_inclusion_frequencies_match_probabilities():
    frame = make_frame([0] * 5)
    counts = np.zeros(5)
    trials = 10 ** 5
    rng = np.random.default_rng(42)
    for _ in range(trials):
        for uid in draw(SRSWOR(2), frame, rng).ids:
            counts[uid - 1] += 1
    assert np.all(np.abs(counts / trials - 0.4) < 0.01)


def test_sample_space_small_cases():
    frame = make_frame([0, 1, 2])
    space = sample_space(SRSWOR(2), frame)
    assert len(space) == 3
    assert all(p == pytest.approx(1 / 3) for _, p in space)

    frame2 = make_frame([0, 1])
    space = sample_space(Poisson(0.5), frame2)
    assert len(space) == 4
    assert all(p == pytest.approx(0.25) for _, p in space)

    frame4 = make_frame([0, 0, 0, 0])
    space = sample_space(Systematic(2, "frame"), frame4)
    assert sorted(sample for sample, _ in space) == [(1, 3), (2, 4)]
    assert all(p == 0.5 for _, p in space)


def test_sample_space_probabilities_sum_to_one():
    for frame in frame_library():
        for design in design_library(frame):
            space = sample_space(design, frame)
            assert math.fsum(p for _, p in space) == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for _, p in space)


def test_enumeration_cap_error_names_count(monkeypatch):
    frame = make_frame([0] * 6)
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        sample_space(Poisson(0.5), frame)
    assert excinfo.value.count == 64
    assert "64" in str(excinfo.value)


def test_enumeration_cap_env_var(monkeypatch):
    frame = make_frame([0] * 6)
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded):
        sample_space(Poisson(0.5), frame)
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", "100")
    assert len(sample_space(Poisson(0.5), frame)) == 64


def test_fixed_size_designs_have_exact_expected_size():
    for frame in frame_library():
        for design in design_library(frame):
            if isinstance(design, (Poisson, SRSWR)):
                continue
            space = sample_space(design, frame)
            expected = math.fsum(p * len(sample) for sample, p in space)
            pi = inclusion_probs(design, frame)
            assert expected == pytest.approx(float(np.sum(pi)), abs=1e-12)


def test_marginal_inclusion_matches_inclusion_probs():
    for frame in frame_library():
        for design in design_library(frame):
            space = sample_space(design, frame)
            marginals = marginals_from_space(space, frame)
            assert np.max(np.abs(marginals - inclusion_probs(design, frame))) < 1e-12


def test_srswr_marginals_match_at_least_once_probability():
    frame = make_frame([0, 1, 2])
    space = sample_space(SRSWR(2), frame)
    marginals = marginals_from_space(space, frame)
    assert np.allclose(marginals, inclusion_probs(SRSWR(2), frame), atol=1e-12)


def test_systematic_random_order_marginals_equal_srswor():
    frame = make_frame([0, 1, 2, 3])
    random_space = sample_space(Systematic(2, "random"), frame)
    marginals = marginals_from_space(random_space, frame)
    assert np.max(np.abs(marginals - inclusion_probs(SRSWOR(2), frame))) < 1e-12
    # while the frame-order space collapses to ceil(N/n) outcomes
    frame_space = sample_space(Systematic(2, "frame"), frame)
    assert len(frame_space) == math.ceil(frame.n / 2)
    # and the random-order space is strictly richer
    assert len(random_space) > len(frame_space)


def test_systematic_fractional_interval_has_fixed_size():
    frame = make_frame([0, 1, 2, 3, 4])
    space = sample_space(Systematic(2, "frame"), frame)
    assert all(len(sample) == 2 for sample, _ in space)
    assert math.fsum(p for _, p in space) == pytest.approx(1.0, abs=1e-14)
    for seed in range(50):
        assert draw(Systematic(2, "frame"), frame, np.random.default_rng(seed)).size == 2


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6),
       st.sampled_from([0.25, 0.5, 2.0, 3.0, 4.0, 8.0]))
@settings(max_examples=60, deadline=None)
def test_pps_invariant_under_size_rescaling(xs, scale):
    frame = make_frame([0.0] * len(xs), xs=xs)
    rescaled = make_frame([0.0] * len(xs), xs=[scale * v for v in xs])
    base = inclusion_probs(PPS(1), frame)
    other = inclusion_probs(PPS(1), rescaled)
    assert tuple(base) == tuple(other)


def test_pps_draw_follows_enumerated_joint_design():
    # the tree draw must reproduce the conditional-Poisson joint
    # distribution, not just the marginals
    frame = make_frame([0] * 4, xs=[4.0, 3.0, 2.0, 1.0])
    space = dict(sample_space(PPS(2), frame))
    trials = 20_000
    rng = np.random.default_rng(123)
    counts = {sample: 0 for sample in space}
    for _ in range(trials):
        counts[draw(PPS(2), frame, rng).ids] += 1
    for sample, prob in space.items():
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[sample] / trials - prob) < 5 * se, sample


def test_two_stage_draw_follows_enumerated_joint_design():
    # unequal clusters: a chosen pair inside cluster "a" is three times rarer
    # than the only pair in "b", which marginals alone would not pin down
    frame = make_frame([0] * 5, clusters=["a", "a", "a", "b", "b"])
    design = TwoStageDesign(ClusterSRSWOR(1), SRSWOR(2))
    space = dict(sample_space(design, frame))
    assert space == pytest.approx({(1, 2): 1 / 6, (1, 3): 1 / 6, (2, 3): 1 / 6, (4, 5): 1 / 2})
    trials = 10_000
    rng = np.random.default_rng(321)
    counts = {sample: 0 for sample in space}
    for _ in range(trials):
        counts[draw(design, frame, rng).ids] += 1
    for sample, prob in space.items():
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[sample] / trials - prob) < 5 * se, sample


def test_pps_certainty_unit_always_drawn():
    frame = make_frame([0] * 3, xs=[2.0, 1.0, 1.0])  # unit 1 has pi exactly 1
    assert inclusion_probs(PPS(2), frame)[0] == 1.0
    space = sample_space(PPS(2), frame)
    assert all(1 in sample for sample, _ in space)
    for seed in range(10):
        assert 1 in draw(PPS(2), frame, np.random.default_rng(seed)).ids


def test_pps_with_every_unit_certain_takes_the_frame_without_a_draw():
    frame = make_frame([0] * 3, xs=[2.0] * 3)
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    assert draw(PPS(3), frame, rng).ids == (1, 2, 3)
    assert rng.random() == reference.random()
    assert sample_space(PPS(3), frame) == [((1, 2, 3), 1.0)]


def cps_masses_reference(odds, n):
    """Positive-sum reference for the count tree's masses, moved here from the package:
    per unit, the weight of the size-n samples that hold it and that do not, from tables
    of the elementary symmetric polynomials e_0..e_n of the odds, in O(N n).

    A block's table grows one unit per column by the positive update e_k += o e_{k-1}.
    Blocks end each ~sqrt(N) or 2**20 / (n + 1) units, or where values have grown by
    2**400, and the row carried between blocks is rescaled by an exact power of two.
    """
    def columns(start, block):  # column j: e_0..e_n of the units behind start and block[:j]
        table = np.empty((n + 1, len(block) + 1))
        table[0] = start[0]
        for k in range(1, n + 1):
            np.multiply(block, table[k - 1, :-1], out=table[k, 1:])
            table[k, 0] = start[k]
            np.cumsum(table[k], out=table[k])
        return table

    def rescaled(row):  # by the power of two that puts its maximum in [0.5, 1)
        return np.ldexp(row, -math.frexp(float(row.max()))[1])

    cap = max(math.isqrt(len(odds)) + 1, (1 << 20) // (n + 1))
    band = np.cumsum(np.log2(1.0 + odds)) // 400
    edges = sorted({*range(0, len(odds), cap), *(np.flatnonzero(np.diff(band)) + 1).tolist()})
    blocks = list(zip(edges, edges[1:] + [len(odds)]))
    rows = [np.eye(1, n + 1)[0]]  # e_0..e_n of the units after each block, last block first
    for start, end in reversed(blocks[1:]):
        rows.append(rescaled(columns(rows[-1], odds[start:end][::-1])[:, -1]))
    inc, exc, head = np.empty(len(odds)), np.empty(len(odds)), np.eye(1, n + 1)[0]
    for start, end in blocks:
        tails = columns(rows.pop(), odds[start:end][::-1])[::-1, -2::-1]
        heads = columns(head, odds[start:end])
        head = rescaled(heads[:, -1])
        heads = heads[:, :-1]
        inc[start:end] = odds[start:end] * np.einsum("kj,kj->j", heads[:-1], tails[1:])
        exc[start:end] = np.einsum("kj,kj->j", heads, tails)
    return inc, exc


def test_pps_calibration_overflow_fails_fast_with_a_typed_error():
    # e_550 of 1100 unit odds overflows a double, which once ended the
    # calibration in a NaN; the count pmfs now draw, with finite
    # conditional-Poisson marginals that sum to n
    for n_frame, n in ((1100, 550), (2000, 1000)):
        frame = make_frame([0.0] * n_frame)
        assert draw(PPS(n), frame, np.random.default_rng(1)).size == n
        inc, exc = cps_masses_reference(PPS(n)._split(frame)[3], n)
        marginals = inc / (inc + exc)
        assert np.all(np.isfinite(marginals))
        assert abs(math.fsum(marginals) - n) < 1e-9
    # targets that do not sum to the sample size cannot be met: a typed error
    # with the finite residual, not a spin
    start = time.perf_counter()
    with pytest.raises(PPSCalibrationError) as excinfo:
        designs._cps_calibrate(np.array([0.5, 0.5, 0.5]), 1, np.ones(3, int))
    assert time.perf_counter() - start < 1.0
    assert isinstance(excinfo.value, RuntimeError)
    assert math.isfinite(excinfo.value.residual) and excinfo.value.residual > 0.1


def test_pps_near_certainty_unit_calibrates():
    frame = make_frame([0.0] * 8, xs=[0.999] + [2.001 / 7] * 7)
    sample = draw(PPS(3), frame, np.random.default_rng(5))
    assert len(sample.ids) == 3 and 1 in sample.ids


@given(st.integers(min_value=3, max_value=10), st.data(),
       st.floats(min_value=2.0, max_value=9.0))
@settings(max_examples=150, deadline=None)
def test_pps_calibration_near_certainty_matches_enumeration(n_frame, data, digits):
    # one target pi = 1 - 10**-digits; the others share the rest of n below one
    n = data.draw(st.integers(min_value=2, max_value=n_frame - 1))
    near_one = 1.0 - 10.0 ** -digits
    shares = data.draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                                min_size=n_frame - 1, max_size=n_frame - 1))
    others = [(n - near_one) * v / math.fsum(shares) for v in shares]
    assume(max(others) < 1.0 - 1e-3)
    frame = make_frame([0.0] * n_frame, xs=[near_one] + others)
    # the logit fixed point converges here: a PPSCalibrationError fails the test
    start = time.perf_counter()
    space = sample_space(PPS(n), frame)
    assert time.perf_counter() - start < 1.0
    marginals = marginals_from_space(space, frame)
    assert np.max(np.abs(marginals - inclusion_probs(PPS(n), frame))) < 1e-12


def counted_passes():
    """A spy on the count tree's passes: one masses call per calibration pass."""
    return mock.patch.object(designs._CountTree, "masses", autospec=True,
                             side_effect=designs._CountTree.masses)


def test_pps_calibration_stops_at_the_rounding_floor():
    # bench-shaped frames, one leaf per unit: the fixed point reaches the floor within six passes
    for seed in range(10):
        xs = np.random.default_rng(seed).choice([1.0, 2.0, 3.0, 4.0], 300)
        target = inclusion_probs(PPS(30), make_frame([0.0] * 300, xs=xs))
        with counted_passes() as spy:
            odds, tree = designs._cps_calibrate(target, 30, np.ones(300, int))
        assert spy.call_count <= 6 and len(tree.order) == 300
        inc, exc = tree.masses()
        assert np.max(np.abs(inc / (inc + exc) - target)) <= 4 * np.finfo(float).eps
        inc, exc = cps_masses_reference(odds, 30)
        assert np.max(np.abs(inc / (inc + exc) - target)) <= 1e-14


def test_pps_calibrates_few_size_classes_per_class_and_continuous_sizes_per_unit():
    # four distinct x: a leaf per size class; one x per unit: a leaf per unit
    rng = np.random.default_rng(3)
    shapes = {4: rng.choice([1.0, 2.0, 3.0, 4.0], 300), 300: 1.0 + rng.random(300)}
    for leaves, xs in shapes.items():
        tree = PPS(30)._split(make_frame([0.0] * 300, xs=xs))[4]
        assert len(tree.order) == leaves
        assert sorted(tree.counts.tolist()) == sorted(np.unique(xs, return_counts=True)[1])


def test_pps_class_calibration_stops_at_the_rounding_floor():
    # the frames of test_pps_calibration_stops_at_the_rounding_floor, one target per class
    for seed in range(10):
        xs = np.random.default_rng(seed).choice([1.0, 2.0, 3.0, 4.0], 300)
        target = inclusion_probs(PPS(30), make_frame([0.0] * 300, xs=xs))
        targets, classes, counts = np.unique(target, return_inverse=True, return_counts=True)
        with counted_passes() as spy:
            odds, tree = designs._cps_calibrate(targets, 30, counts)
        assert spy.call_count <= 6
        inc, exc = tree.masses()
        assert np.max(np.abs(inc / (inc + exc) - targets)) <= 4 * np.finfo(float).eps
        inc, exc = cps_masses_reference(odds[classes], 30)
        assert np.max(np.abs(inc / (inc + exc) - target)) <= 4 * np.finfo(float).eps


@given(st.lists(st.tuples(st.integers(1, 100), st.integers(1, 333)), min_size=1, max_size=6,
                unique_by=lambda size_and_count: size_and_count[0]), st.data())
@settings(max_examples=60, deadline=None)
def test_pps_class_calibration_matches_the_blocked_path(classes, data):
    # up to six size classes of up to 333 units each, any n that leaves no certainty unit:
    # class leaves against a leaf per unit, then the blocked reference's marginals
    xs = np.repeat([float(x) for x, _ in classes], [count for _, count in classes])
    n = data.draw(st.integers(min_value=1, max_value=max(1, math.ceil(xs.sum() / xs.max()) - 1)))
    target = n * xs / math.fsum(xs)
    assume(target.max() < designs._CERTAIN)
    targets, inverse, counts = np.unique(target, return_inverse=True, return_counts=True)
    assert len(targets) == len(classes)
    odds = designs._cps_calibrate(targets, n, counts)[0][inverse]
    per_unit = designs._cps_calibrate(target, n, np.ones(len(xs), int))[0]
    assert np.max(np.abs(odds / per_unit - 1)) <= 1e-12
    inc, exc = cps_masses_reference(odds, n)
    floor = max(1e-14, 8 * len(xs) * np.finfo(float).eps)  # the calibration's own acceptance
    assert np.max(np.abs(inc / (inc + exc) - target)) <= floor


def test_fft_products_match_direct_convolution():
    # factors wider than 64 counts go by FFT; the rows of one call are independent
    rng = np.random.default_rng(9)
    for rows, wide, narrow, lo, hi in ((3, 200, 90, 0, 200), (5, 129, 66, 40, 129),
                                       (1, 1001, 1001, 0, 1001), (4, 70, 300, 60, 131)):
        a, b = rng.random((rows, wide)), rng.random((rows, narrow))
        a[0, 100:] = 1e-30  # a tail far below the mass: FFT round-off clips at 0, never below
        assert min(wide, narrow) > designs._DIRECT_WIDTH + 1
        out = designs._convolve(a, b, lo, hi)
        reference = np.array([np.convolve(x, y)[lo:hi] for x, y in zip(a, b)])
        assert out.shape == reference.shape and np.all(out >= 0.0)
        assert np.max(np.abs(out - reference)) <= 1e-13 * reference.max()
    # the direct products below that width are the per-row convolutions, whichever loop runs
    for rows, wide, narrow in ((2, 65, 65), (100, 30, 3), (40, 2, 2)):
        a, b = rng.random((rows, wide)), rng.random((rows, narrow))
        reference = np.array([np.convolve(x, y) for x, y in zip(a, b)])
        assert np.allclose(designs._convolve(a, b, 0, wide + narrow - 1), reference,
                           rtol=1e-15, atol=0.0)


def tree_draw_law(n, frame):
    """Each sample's probability under the tree draw, by id tuple.

    A node that gets k units sends j of them left with weight L(j) R(k - j) over all
    such weights, and a leaf picks its k of m units uniformly, so a sample's probability
    is the product of its splits' shares and of 1 / C(m, k) per leaf.
    """
    certain, _, n_rest, _, tree, units = PPS(n)._split(frame)
    members = np.split(units, np.cumsum(tree.counts)[:-1])
    pmfs = []  # per level below the root, each node's pmf; empty leaves pad the classes
    for h, (runs, values) in enumerate(zip(tree.levels, tree.up)):
        level = [None] * (2 << (len(tree.levels) - 1 - h))
        for p, pairs, wl, wr, _, span, _ in runs:
            for r in range(pairs):
                base = span.start + r * (wl + wr + 2)
                level[2 * (p + r)] = values[base:base + wl + 1]
                level[2 * (p + r) + 1] = values[base + wl + 1:base + wl + wr + 2]
        pmfs.append(level)
    law = {}
    for picked in itertools.combinations(units.tolist(), n_rest):
        counts = [len(set(picked) & set(leaf.tolist())) for leaf in members]
        prob = math.prod(1 / math.comb(len(leaf), k) for leaf, k in zip(members, counts))
        counts += [0] * (len(pmfs[0]) - len(counts)) if pmfs else []
        for level in pmfs:
            for left, right, kl, kr in zip(level[::2], level[1::2], counts[::2], counts[1::2]):
                k = kl + kr
                splits = [left[j] * right[k - j] for j in range(len(left))
                          if 0 <= k - j < len(right)]
                prob *= left[kl] * right[kr] / math.fsum(splits)
            counts = [sum(counts[i:i + 2]) for i in range(0, len(counts), 2)]
        law[tuple(frame.ids[p] for p in sorted(certain + list(picked)))] = prob
    return law


def assert_tree_draw_matches_the_references(n, frame):
    """The tree draw's law equals PPS(n).space within 1e-15, and the count tree's
    marginals at the calibrated odds equal the blocked reference's within 1e-14."""
    law, space = tree_draw_law(n, frame), sample_space(PPS(n), frame)
    assert len(law) == len(space)
    for sample, prob in space:
        assert abs(law[sample] - prob) <= 1e-15, (n, sample)
    pi = inclusion_probs(PPS(n), frame)
    _, rest, n_rest, odds, tree, _ = PPS(n)._split(frame, pi)
    inc, exc = tree.masses()
    classes = np.unique(pi[rest], return_inverse=True)[1]
    ref_inc, ref_exc = cps_masses_reference(odds, n_rest)
    assert np.max(np.abs((inc / (inc + exc))[classes] - ref_inc / (ref_inc + ref_exc))) <= 1e-14


def test_count_first_draw_law_is_the_enumerated_design_on_every_library_frame():
    checked = 0
    for frame in frame_library():
        for n in range(1, frame.n + 1):
            try:
                pi = inclusion_probs(PPS(n), frame)
            except CertaintyUnitError:
                continue
            if np.count_nonzero(pi >= designs._CERTAIN) < n:  # a unit left to draw
                assert_tree_draw_matches_the_references(n, frame)
                checked += 1
    assert checked >= 10


@given(st.lists(st.integers(1, 4), min_size=2, max_size=9), st.data())
@settings(max_examples=100, deadline=None)
def test_count_first_draw_law_is_the_enumerated_design_with_certainty_units(xs, data):
    # at most four size classes; a unit with n x / sum(x) = 1 is a certainty unit
    n = data.draw(st.integers(1, len(xs) - 1))
    frame = make_frame([0.0] * len(xs), xs=[float(x) for x in xs])
    assume(n * max(xs) <= sum(xs))
    pi = inclusion_probs(PPS(n), frame)
    assume(np.count_nonzero(pi >= designs._CERTAIN) < n)
    assert_tree_draw_matches_the_references(n, frame)


@given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=9), st.data())
@settings(max_examples=100, deadline=None)
def test_tree_draw_law_is_the_enumerated_design_for_a_continuous_size_measure(xs, data):
    # x of every magnitude over four decades: mostly a leaf per unit
    n = data.draw(st.integers(1, len(xs) - 1))
    frame = make_frame([0.0] * len(xs), xs=xs)
    assume(n * max(xs) <= math.fsum(xs))
    assume(np.count_nonzero(inclusion_probs(PPS(n), frame) >= designs._CERTAIN) < n)
    assert_tree_draw_matches_the_references(n, frame)


def test_count_first_draws_follow_the_enumerated_joint_design():
    # three size classes of one, three and two units
    frame = make_frame([0] * 6, xs=[3.0, 3.0, 2.0, 2.0, 2.0, 1.0])
    trials = 20_000
    rng = np.random.default_rng(456)
    space = dict(sample_space(PPS(3), frame))
    counts = {sample: 0 for sample in space}
    for _ in range(trials):
        counts[draw(PPS(3), frame, rng).ids] += 1
    for sample, prob in space.items():
        se = math.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[sample] / trials - prob) < 5 * se, sample


def test_a_draw_reads_the_tree_of_the_last_calibration_pass():
    # a cold draw builds one tree per pass and draws from the last; a warm one builds none
    rng, tree_type, built = np.random.default_rng(3), designs._CountTree, []
    for xs in (rng.choice([1.0, 2.0, 3.0, 4.0], 300), 1.0 + rng.random(300)):
        frame = make_frame([0.0] * 300, xs=xs)
        designs._pps_split_cached.cache_clear()
        built.clear()
        with counted_passes() as passes, mock.patch.object(
                designs, "_CountTree", lambda *args: built.append(tree_type(*args)) or built[-1]):
            for seed in range(2):  # cold, then warm
                assert draw(PPS(30), frame, np.random.default_rng(seed)).size == 30
        assert len(built) == passes.call_count > 0
        assert PPS(30)._split(frame)[4] is built[-1]


def test_count_weights_that_vanish_or_are_not_finite_raise_a_typed_error_naming_the_class():
    # two size classes, each a leaf under the root; class 1's pmf is broken
    frame = make_frame([0] * 5, xs=[3.0, 3.0, 2.0, 2.0, 2.0])
    pi = inclusion_probs(PPS(2), frame)
    *split, tree, units = designs._pps_split_cached.__wrapped__(2, pi.tobytes())
    assert tree.order.tolist() == [0, 1] and tree.groups[0][:3] == (0, 2, 2)
    for bad in (0.0, math.nan, math.inf):
        broken = copy.copy(tree)
        broken.up = [tree.up[0].copy()]
        broken.up[0][3:] = bad  # leaf 1, class 1: its pmf over 0..2
        with mock.patch.object(designs, "_pps_split_cached",
                               return_value=(*split, broken, units)):
            with pytest.raises(PPSCalibrationError, match=r"classes \[0, 1\] no count weight"), \
                    np.errstate(invalid="ignore"):  # inf * 0 in the weights
                draw(PPS(2), frame, np.random.default_rng(0))


def test_cluster_sampling_observes_whole_clusters():
    frame = make_frame([0, 1, 2, 3, 4, 5], clusters=["a", "a", "b", "b", "c", "c"])
    space = sample_space(ClusterSRSWOR(2), frame)
    assert len(space) == 3
    for sample, prob in space:
        assert len(sample) == 4
        assert prob == pytest.approx(1 / 3)


def test_stratified_space_uses_allocation():
    frame = make_frame([0, 1, 0, 1, 0, 1], strata=["A", "A", "A", "B", "B", "B"])
    space = sample_space(StratifiedSRSWOR(4, "proportional"), frame)
    # 2 per stratum: C(3,2)^2 outcomes
    assert len(space) == 9
    for sample, _ in space:
        strata = [frame.record_by_id(u).stratum for u in sample]
        assert strata.count("A") == 2 and strata.count("B") == 2


# One draw per design kind at seed 20240807 on frame_library()[2], with the
# generator's next uniform after it, as recorded with an earlier version of the
# package.  A change in how any design consumes the generator moves them.
DRAW_PINS = {
    "srswr": (SRSWR(3), (1, 1, 5), 0.4464395485894398),
    "srswor": (SRSWOR(2), (1, 5), 0.4464395485894398),
    "poisson": (Poisson(0.5), (1, 2, 3, 4), 0.7974502401389589),
    "stratified_proportional": (StratifiedSRSWOR(3, "proportional"), (1, 3, 5),
                                0.4464395485894398),
    "stratified_neyman": (StratifiedSRSWOR(3, "neyman"), (1, 3, 5), 0.4464395485894398),
    "cluster": (ClusterSRSWOR(1), (1, 2), 0.1609973550916508),
    "pps": (PPS(2), (3, 4), 0.1227202246563549),
    "systematic_frame": (Systematic(2, "frame"), (1, 3), 0.1609973550916508),
    "systematic_random": (Systematic(2, "random"), (1, 2), 0.1227202246563549),
    "two_stage": (TwoStageDesign(ClusterSRSWOR(1), SRSWOR(1)), (1,), 0.1609973550916508),
}


@pytest.mark.parametrize("kind", sorted(DRAW_PINS))
def test_draw_is_stable_across_versions(kind):
    design, ids, next_uniform = DRAW_PINS[kind]
    rng = np.random.default_rng(20240807)
    assert draw(design, frame_library()[2], rng).ids == ids
    assert rng.random() == next_uniform


# The same for PPS(3) on that frame, whose two size classes are the two leaves
# of its count tree: the root's split takes one uniform, and each class its SRSWOR.
CLASS_DRAW_PIN = (PPS(3), (3, 4, 5), 0.1609973550916508)


def test_count_first_draw_is_stable_across_versions():
    design, ids, next_uniform = CLASS_DRAW_PIN
    rng = np.random.default_rng(20240807)
    assert draw(design, frame_library()[2], rng).ids == ids
    assert rng.random() == next_uniform


def relabelled(frame, ids):
    """A copy of the frame whose records carry the given ids, position by position."""
    return make_frame(frame.y, xs=frame.x,
                      strata=[frame.stratum_names[c] for c in frame.stratum_codes],
                      clusters=[frame.cluster_names[c] for c in frame.cluster_codes], ids=ids)


def random_order_systematic_reference(n, frame):
    """Systematic selection after each of the N! orderings, each weighted 1/N!,
    with the frame-order Fraction cuts, merged per unit set: id tuples in frame
    order with float probabilities."""
    ids = frame.ids
    collected: dict[tuple[int, ...], Fraction] = {}
    for order in itertools.permutations(range(frame.n)):
        for sample, prob in designs._systematic_outcomes(frame.n, n):
            key = tuple(ids[p] for p in sorted(order[p] for p in sample))
            collected[key] = collected.get(key, Fraction(0)) + prob / math.factorial(frame.n)
    return {(sample, float(prob)) for sample, prob in collected.items()}


@pytest.mark.parametrize("n_frame", range(1, 7))
def test_systematic_random_order_space_is_the_permutation_mixture(n_frame):
    for frame in (make_frame([0.0] * n_frame),
                  make_frame([0.0] * n_frame, ids=[(5 * i + 2) % 7 for i in range(n_frame)])):
        for n in range(1, n_frame + 1):
            space = sample_space(Systematic(n, "random"), frame)
            assert len(space) == len(set(space))
            assert set(space) == random_order_systematic_reference(n, frame), (frame.ids, n)


def test_systematic_random_order_space_at_nine_units():
    frame = make_frame([0.0] * 9)
    space = sample_space(Systematic(2, "random"), frame)
    assert sorted(sample for sample, _ in space) == list(itertools.combinations(frame.ids, 2))
    assert all(p == 1 / 36 for _, p in space)


def two_stage_reference(design, frame):
    """The two-stage space built from the inner designs' sample_space id tuples."""
    position = {unit: p for p, unit in enumerate(frame.ids)}
    outer_prob = 1.0 / math.comb(len(frame.clusters()), design.outer.m)
    outcomes = []
    for combo in itertools.combinations(frame.clusters().values(), design.outer.m):
        stages = [sample_space(design.inner, frame.select(members)) for members in combo]
        for picks in itertools.product(*stages):
            prob = outer_prob
            for _, inner_prob in picks:
                prob *= inner_prob
            units = sorted((u for sample, _ in picks for u in sample), key=position.__getitem__)
            outcomes.append((tuple(units), prob))
    return outcomes


def test_two_stage_space_is_built_from_the_inner_sample_spaces():
    two_stage = [TwoStageDesign(ClusterSRSWOR(1), SRSWOR(1)),
                 TwoStageDesign(ClusterSRSWOR(2), SRSWOR(2)),
                 TwoStageDesign(ClusterSRSWOR(1), Systematic(2, "frame")),
                 TwoStageDesign(ClusterSRSWOR(2), Poisson(0.5)),
                 TwoStageDesign(ClusterSRSWOR(1), SRSWR(2))]
    frames = [frame for frame in frame_library() if len(frame.clusters()) >= 2]
    assert len(frames) == 4
    for frame in frames + [relabelled(f, list(range(f.n, 0, -1))) for f in frames]:
        for design in two_stage:
            assert sample_space(design, frame) == two_stage_reference(design, frame)


@pytest.mark.parametrize("design", [SRSWOR(0), SRSWR(0), SRSWOR(4), Systematic(0, "frame"),
                                    Systematic(0, "random"), Systematic(4, "frame"),
                                    Systematic(4, "random")], ids=repr)
def test_sample_space_rejects_the_sizes_inclusion_probs_rejects(design):
    frame = make_frame([0.0, 1.0, 0.0])
    with pytest.raises(ValueError) as expected:
        inclusion_probs(design, frame)
    with pytest.raises(ValueError) as raised:
        sample_space(design, frame)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_sample_space_size_error_names_the_design():
    frame = make_frame([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"^SRSWOR: sample size 4 not in \[1, 3\]$"):
        sample_space(SRSWOR(4), frame)
    with pytest.raises(ValueError, match=r"^SRSWR: number of draws must be >= 1, got 0$"):
        sample_space(SRSWR(0), frame)
