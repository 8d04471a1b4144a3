import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsurvey.mechanisms import (
    BoundedMean,
    HTMeanFixedWeights,
    LaplaceNoise,
    PrivacyLedger,
    PrivacyLoss,
    Proportion,
    Sensitivity,
    analytic_sensitivity,
    compose_sequential,
    laplace_draws,
    laplace_scale,
    release_laplace,
)


def test_laplace_scale_direct_formula():
    assert laplace_scale(1.0, 0.5).scale_b == 2.0
    assert laplace_scale(0.5, 0.1).scale_b == pytest.approx(5.0)


def test_laplace_scale_zero_sensitivity_is_degenerate():
    assert laplace_scale(0.0, 1.0).scale_b == 0.0


@pytest.mark.parametrize("delta, eps", [(-0.1, 1.0), (1.0, 0.0), (1.0, -2.0),
                                        (float("nan"), 1.0), (1.0, float("inf"))])
def test_laplace_scale_rejects_bad_inputs(delta, eps):
    with pytest.raises(ValueError):
        laplace_scale(delta, eps)


def test_type_validation():
    with pytest.raises(ValueError):
        PrivacyLoss(0.0)
    with pytest.raises(ValueError):
        PrivacyLoss(float("nan"))
    with pytest.raises(ValueError):
        Sensitivity(-1e-9)
    with pytest.raises(ValueError):
        LaplaceNoise(-0.5)
    assert PrivacyLoss(0.3).epsilon == 0.3
    assert Sensitivity(0.0).delta_f == 0.0


def test_release_exact_when_sensitivity_zero():
    rng = np.random.default_rng(123)
    assert release_laplace(10.0, 0.0, 1.0, rng) == 10.0


def test_release_accepts_wrapper_types():
    rng = np.random.default_rng(5)
    value = release_laplace(0.0, Sensitivity(1.0), PrivacyLoss(1.0), rng)
    assert math.isfinite(value)


def test_release_deterministic_given_seed():
    draws_a = [release_laplace(0.0, 1.0, 1.0, np.random.default_rng(s)) for s in range(20)]
    draws_b = [release_laplace(0.0, 1.0, 1.0, np.random.default_rng(s)) for s in range(20)]
    assert draws_a == draws_b


def test_laplace_empirical_mean_matches_distribution():
    # E[Z] = 0 and Var[Z] = 2 b^2; the sample mean of 1e6 draws stays within
    # four standard errors, b * sqrt(2) / 1e3.
    b = 1.0
    noise = laplace_draws(b, np.random.default_rng(2024), size=10 ** 6)
    assert abs(float(np.mean(noise))) < 4.0 * b * math.sqrt(2.0) / 1e3


def test_laplace_tail_mass_matches_cdf():
    # P(|Z| > b ln 2) = exp(-ln 2) = 1/2 from the closed-form CDF.
    b = 1.0
    noise = laplace_draws(b, np.random.default_rng(99), size=10 ** 6)
    frac = float(np.mean(np.abs(noise) > b * math.log(2.0)))
    assert abs(frac - 0.5) < 0.01


def test_analytic_sensitivity_closed_forms():
    assert analytic_sensitivity(Proportion(100)).delta_f == 0.01
    assert analytic_sensitivity(BoundedMean(1.0, 3)).delta_f == pytest.approx(1 / 3)
    assert analytic_sensitivity(HTMeanFixedWeights(5.0, 1.0, 10)).delta_f == 0.5


def test_analytic_sensitivity_rejects_bad_sizes():
    with pytest.raises(ValueError):
        analytic_sensitivity(Proportion(0))
    with pytest.raises(ValueError):
        analytic_sensitivity(BoundedMean(1.0, -2))
    with pytest.raises(ValueError):
        analytic_sensitivity(HTMeanFixedWeights(0.0, 1.0, 10))


@pytest.mark.parametrize("statistic, error, message", [
    (HTMeanFixedWeights(1.0, 1.0, 0), ValueError, "n_pop must be >= 1, got 0"),
    (HTMeanFixedWeights(1.0, -1.0, 3), ValueError, "value_range must be >= 0, got -1.0"),
    (BoundedMean(-1.0, 3), ValueError, "value_range must be >= 0, got -1.0"),
    ("mean", TypeError, "unknown statistic descriptor: 'mean'"),
], ids=["fixed-weights-n-pop", "fixed-weights-range", "bounded-mean-range", "unknown"])
def test_analytic_sensitivity_names_the_refused_field(statistic, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        analytic_sensitivity(statistic)


def test_release_refuses_a_nan_and_zero_scale_draws_are_zeros():
    with pytest.raises(ValueError, match=r"^value to release must be finite, got nan$"):
        release_laplace(float("nan"), 1.0, 1.0, np.random.default_rng(0))
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    assert laplace_draws(0.0, rng, size=3).tolist() == [0.0, 0.0, 0.0]
    reference.random(size=3)  # the draws consume their uniforms all the same
    assert rng.random() == reference.random()


def test_compose_sequential_sums():
    ledger = PrivacyLedger()
    for eps in (0.3, 0.2, 0.5):
        ledger.charge("release", eps)
    assert compose_sequential(ledger).epsilon == 1.0


def test_compose_single_release_is_identity():
    ledger = PrivacyLedger()
    ledger.charge("only", 0.7)
    assert compose_sequential(ledger).epsilon == 0.7


def test_compose_fit_plus_analysis():
    ledger = PrivacyLedger()
    ledger.charge("imputation-fit", 0.4)
    ledger.charge("analysis", 0.6)
    assert compose_sequential(ledger).epsilon == 1.0


def test_compose_rejects_empty_ledger():
    with pytest.raises(ValueError):
        compose_sequential(PrivacyLedger())


def test_ledger_is_append_only_and_labeled():
    ledger = PrivacyLedger()
    ledger.charge("a", 0.1, delta_f=2.0)
    ledger.charge("a", 0.2)
    assert len(ledger) == 2
    assert ledger.charges[0].delta_f == 2.0
    assert ledger.charges[1].delta_f is None
    with pytest.raises(ValueError):
        ledger.charge("bad", 0.0)


def test_scale_monotone_over_grid():
    # decreasing eps or increasing delta never decreases b
    deltas = np.linspace(0.1, 5.0, 10)
    epsilons = np.linspace(0.05, 4.0, 10)
    for delta in deltas:
        scales = [laplace_scale(delta, eps).scale_b for eps in sorted(epsilons)]
        assert all(a >= b for a, b in zip(scales, scales[1:]))
    for eps in epsilons:
        scales = [laplace_scale(delta, eps).scale_b for delta in sorted(deltas)]
        assert all(a <= b for a, b in zip(scales, scales[1:]))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=30, deadline=None)
def test_release_bit_identical_across_runs(seed):
    first = release_laplace(1.5, 0.7, 0.3, np.random.default_rng(seed))
    second = release_laplace(1.5, 0.7, 0.3, np.random.default_rng(seed))
    assert first == second


@given(st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=8),
       st.randoms())
@settings(max_examples=50, deadline=None)
def test_composition_permutation_invariant(epsilons, random):
    ledger = PrivacyLedger()
    for eps in epsilons:
        ledger.charge("x", eps)
    shuffled = list(epsilons)
    random.shuffle(shuffled)
    other = PrivacyLedger()
    for eps in shuffled:
        other.charge("x", eps)
    assert compose_sequential(ledger).epsilon == compose_sequential(other).epsilon


@given(st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=5),
       st.lists(st.floats(min_value=1e-6, max_value=5.0), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_composition_associative_under_concatenation(first, second):
    joint = PrivacyLedger()
    for eps in first + second:
        joint.charge("x", eps)
    left = PrivacyLedger()
    for eps in first:
        left.charge("x", eps)
    right = PrivacyLedger()
    for eps in second:
        right.charge("x", eps)
    combined = PrivacyLedger()
    combined.charge("left", compose_sequential(left).epsilon)
    combined.charge("right", compose_sequential(right).epsilon)
    # nesting composes exactly up to one float rounding per level
    assert compose_sequential(joint).epsilon == pytest.approx(
        compose_sequential(combined).epsilon, rel=1e-14)


@pytest.mark.parametrize("n_pop, n", [(10, 2), (12, 4), (9, 3), (8, 8), (6, 1)])
def test_equal_probability_weights_reduce_to_unweighted(n_pop, n):
    # with w_max = N/n representable exactly, the two closed forms coincide
    w_max = n_pop / n
    ht = analytic_sensitivity(HTMeanFixedWeights(w_max, 1.0, n_pop))
    mean = analytic_sensitivity(BoundedMean(1.0, n))
    assert ht.delta_f == mean.delta_f
