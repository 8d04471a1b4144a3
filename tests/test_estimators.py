import math

import numpy as np
import pytest

from dpsurvey.designs import build_sample, inclusion_probs, sample_space
from dpsurvey.estimators import ht_mean, ht_total, unweighted_mean
from dpsurvey.frames import make_frame
from dpsurvey.instances import design_library, frame_library
from dpsurvey.mechanisms import BoundedMean, HTMeanFixedWeights, analytic_sensitivity


def sample_with(weights, ys):
    pis = [1.0 / w for w in weights]
    return build_sample(make_frame(ys), range(len(ys)), pis)


def test_ht_mean_direct_formula():
    assert ht_mean(sample_with([2, 2], [1, 3]), 4).value == 2.0


def test_ht_mean_single_certainty_unit():
    assert ht_mean(sample_with([1.0], [7.0]), 1).value == 7.0


def test_ht_mean_equal_weights_equals_unweighted_mean():
    ys = [0.2, 0.4, 0.9, 0.1]
    sample = sample_with([10 / 4] * 4, ys)
    assert ht_mean(sample, 10).value == pytest.approx(unweighted_mean(ys).value, abs=1e-15)


def test_ht_mean_counts_repeated_draws_once():
    sample = build_sample(make_frame([1.0, 3.0]), [0, 0, 1], [0.5, 0.5])
    assert ht_mean(sample, 4).value == pytest.approx((2.0 * 1.0 + 2.0 * 3.0) / 4)


def test_estimators_reject_empty_and_missing():
    with pytest.raises(ValueError):
        unweighted_mean([])
    with pytest.raises(ValueError):
        ht_mean(sample_with([2.0], [float("nan")]), 4)


def test_unweighted_mean_values():
    assert unweighted_mean([0, 1]).value == 0.5
    assert unweighted_mean([0.3] * 5).value == 0.3
    assert unweighted_mean([0.2, 0.4, 0.9]).value == pytest.approx(0.5)


def test_ht_total():
    assert ht_total(sample_with([2, 4], [1, 1])).value == 6.0


def test_ht_total_refuses_an_empty_sample():
    with pytest.raises(ValueError, match=r"^cannot estimate from an empty sample$"):
        ht_total(build_sample(make_frame([1.0]), [], []))


def test_design_unbiasedness_by_enumeration():
    # sum over the sample space of p(s) * ht_mean(s) equals the frame mean
    for frame in frame_library():
        population_mean = math.fsum(frame.y) / frame.n
        for design in design_library(frame):
            pi = inclusion_probs(design, frame)
            position = {uid: i for i, uid in enumerate(frame.ids)}
            total = 0.0
            for ids, prob in sample_space(design, frame):
                sample = build_sample(frame, [position[u] for u in ids], pi)
                total += prob * ht_mean(sample, frame.n).value
            assert total == pytest.approx(population_mean, abs=1e-10), (design, frame.n)


def test_ht_mean_lies_in_weighted_value_bounds():
    # value is bounded by y bounds scaled by sum(w)/N
    import itertools

    for weights in [(2.0, 3.0), (1.0, 4.0, 5.0), (2.5,)]:
        scale = math.fsum(weights) / 10
        for ys in itertools.product((0.0, 0.25, 1.0), repeat=len(weights)):
            value = ht_mean(sample_with(list(weights), list(ys)), 10).value
            assert 0.0 * scale - 1e-12 <= value <= 1.0 * scale + 1e-12


@pytest.mark.parametrize("n_pop, n", [(10, 2), (12, 3), (20, 4), (6, 6)])
def test_fixed_weight_sensitivity_dominates_unweighted(n_pop, n):
    base = n_pop / n
    for factor in (1.0, 1.25, 2.0, 5.0):
        ht = analytic_sensitivity(HTMeanFixedWeights(base * factor, 1.0, n_pop)).delta_f
        mean = analytic_sensitivity(BoundedMean(1.0, n)).delta_f
        assert ht >= mean


@pytest.mark.parametrize("call, message", [
    (lambda: ht_mean(build_sample(make_frame([0.5, 1.0]), [0], (0.5, 0.5)), 0),
     "population size must be >= 1, got 0"),
    (lambda: unweighted_mean([0.5, math.nan]),
     "missing y values present; impute before estimating"),
], ids=["ht-mean-population", "unweighted-mean-missing"])
def test_estimator_refusals(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ys, pi", [([1e308, 1e308, 1.0], 0.9), ([1.7e308, 1.0, 1.0], 0.5)],
                         ids=["sum", "product"])
def test_ht_total_past_the_float_range_is_refused(ys, pi):
    sample = build_sample(make_frame(ys), [0, 1], np.full(3, pi))
    for call in (lambda: ht_total(sample), lambda: ht_mean(sample, 3)):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == "the weighted total sum(w * y) overflows a float"
    assert ht_total(build_sample(make_frame(ys), [1, 2], np.full(3, pi))).value == \
        math.fsum([1.0 / pi * ys[1], 1.0 / pi * ys[2]])


@pytest.mark.filterwarnings("error")
def test_unweighted_mean_past_the_float_range_is_refused():
    with pytest.raises(ValueError) as excinfo:
        unweighted_mean([1e308, 1e308])
    assert str(excinfo.value) == "the total of the values overflows a float"
    assert unweighted_mean([1e308, -1e308, 1.0]).value == 1.0 / 3
