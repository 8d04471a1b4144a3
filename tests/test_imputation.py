import numpy as np
import pytest

from dpsurvey.imputation import (
    ImputationParams,
    fit_dp_mean_model,
    fit_dp_regression,
    hot_deck,
    impute_dataset,
    impute_parametric,
    record_rng,
)
from dpsurvey.mechanisms import PrivacyLedger

NAN = float("nan")


def test_mean_model_large_epsilon_recovers_mean():
    data = [[0.4], [0.6], [NAN]]
    params = fit_dp_mean_model(data, [(0.0, 1.0)], 1e6, np.random.default_rng(0))
    assert params.means[0] == pytest.approx(0.5, abs=1e-3)


def test_mean_model_zero_range_is_exact():
    data = [[0.3], [0.3], [NAN]]
    params = fit_dp_mean_model(data, [(0.3, 0.3)], 1.0, np.random.default_rng(0))
    assert params.means[0] == 0.3


def test_mean_model_budget_split_across_variables():
    data = [[0.1, 0.9], [0.5, 0.2]]
    ledger = PrivacyLedger()
    params = fit_dp_mean_model(data, [(0.0, 1.0), (0.0, 1.0)], 1.0,
                               np.random.default_rng(1), ledger=ledger)
    assert params.epsilon_per_entry == 0.5   # eps1 / k for k = 2 variables
    assert ledger.total() == 1.0             # but the ledger carries eps1 exactly
    # noise scale per variable: (range / n_obs) / (eps1 / k) = (1/2) / 0.5 = 1
    assert (1.0 / 2) / params.epsilon_per_entry == 1.0


def test_mean_model_requires_observations():
    with pytest.raises(ValueError):
        fit_dp_mean_model([[NAN], [NAN]], [(0.0, 1.0)], 1.0, np.random.default_rng(0))


def test_regression_noiseless_limit_matches_least_squares():
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    data = np.column_stack([xs, 2.0 * xs])
    params = fit_dp_regression(data, (0,), 1, [(0.0, 1.0), (0.0, 2.0)], 1e6,
                               np.random.default_rng(0))
    # oracle: ordinary least squares on the same rows
    design = np.column_stack([np.ones(5), xs])
    beta, *_ = np.linalg.lstsq(design, 2.0 * xs, rcond=None)
    assert params.coefficients[1] == pytest.approx(beta[1], abs=1e-2)
    assert params.coefficients[1] == pytest.approx(2.0, abs=1e-2)


def test_regression_zero_variance_predictor_falls_back_to_mean():
    data = np.array([[0.5, 0.2], [0.5, 0.4], [0.5, 0.6], [0.5, 0.8]])
    params = fit_dp_regression(data, (0,), 1, [(0.0, 1.0), (0.0, 1.0)], 1e6,
                               np.random.default_rng(0))
    # the ridge term zeroes the slope, so the linear predictor at the
    # degenerate x is the target mean, exactly the mean-model path
    intercept, slope = params.coefficients
    assert intercept + slope * 0.5 == pytest.approx(0.5, abs=2e-2)


def test_regression_budget_split_and_ledger():
    data = np.array([[0.1, 0.2], [0.4, 0.8], [0.9, 0.7]])
    ledger = PrivacyLedger()
    params = fit_dp_regression(data, (0,), 1, [(0.0, 1.0), (0.0, 1.0)], 0.7,
                               np.random.default_rng(2), ledger=ledger)
    # entries: cross (0,1), (1,1); moment (0), (1); response sum of squares
    assert params.epsilon_per_entry == pytest.approx(0.7 / 5)
    assert ledger.total() == 0.7


def test_regression_needs_complete_cases():
    with pytest.raises(ValueError):
        fit_dp_regression([[0.1, NAN]], (0,), 1, [(0.0, 1.0), (0.0, 1.0)], 1.0,
                          np.random.default_rng(0))


def test_impute_fully_observed_record_unchanged():
    params = fit_dp_mean_model([[0.4], [0.6]], [(0.0, 1.0)], 1.0, np.random.default_rng(0))
    row = impute_parametric(np.array([0.25]), params, np.random.default_rng(1))
    assert row[0] == 0.25


def test_impute_mean_zero_residual_is_deterministic():
    params = fit_dp_mean_model([[0.5], [0.5]], [(0.5, 0.5)], 1.0, np.random.default_rng(0))
    row = impute_parametric(np.array([NAN]), params, np.random.default_rng(7))
    assert row[0] == 0.5


def test_identical_records_same_seed_impute_identically():
    params = fit_dp_mean_model([[0.2, 0.8], [0.6, 0.4]], [(0.0, 1.0)] * 2, 1.0,
                               np.random.default_rng(0), estimate_spread=True)
    record = np.array([0.3, NAN])
    a = impute_parametric(record, params, np.random.default_rng(55))
    b = impute_parametric(record, params, np.random.default_rng(55))
    assert tuple(a) == tuple(b)


def test_conditional_independence_under_perturbation():
    # record i's imputation is invariant to arbitrary changes elsewhere
    params = fit_dp_mean_model([[0.2], [0.8]], [(0.0, 1.0)], 1.0,
                               np.random.default_rng(0), estimate_spread=True)
    data = np.array([[0.9], [NAN], [0.1]])
    perturbed = np.array([[0.0], [NAN], [1.0]])
    filled = impute_dataset(data, params, seed=3)
    filled_perturbed = impute_dataset(perturbed, params, seed=3)
    assert filled[1, 0] == filled_perturbed[1, 0]


def test_hot_deck_single_donor_fills_all():
    data = np.array([[0.7], [NAN], [NAN], [NAN]])
    filled, donors = hot_deck(data, np.random.default_rng(0))
    assert np.all(filled == 0.7)
    assert set(donors) == {1, 2, 3} and set(donors.values()) == {0}


def test_hot_deck_no_missing_is_identity():
    data = np.array([[0.1], [0.2]])
    filled, donors = hot_deck(data, np.random.default_rng(0))
    assert np.array_equal(filled, data)
    assert donors == {}


def test_hot_deck_requires_a_donor():
    with pytest.raises(ValueError):
        hot_deck(np.array([[NAN], [NAN]]), np.random.default_rng(0))


def test_hot_deck_violates_conditional_independence():
    # a donor perturbation changes another record's imputed value
    rng_seed = 4
    base = np.array([[0.0], [0.0], [NAN]])
    perturbed = np.array([[1.0], [0.0], [NAN]])
    changed = False
    for seed in range(20):
        filled_a, donors_a = hot_deck(base.copy(), np.random.default_rng(seed))
        filled_b, donors_b = hot_deck(perturbed.copy(), np.random.default_rng(seed))
        assert donors_a == donors_b  # same randomness, same assignment
        if filled_a[2, 0] != filled_b[2, 0]:
            changed = True
            break
    assert changed


def test_end_to_end_ledger_charges_fit_plus_release():
    from dpsurvey.mechanisms import release_laplace

    ledger = PrivacyLedger()
    rng = np.random.default_rng(0)
    data = np.array([[0.4], [0.6], [NAN]])
    params = fit_dp_mean_model(data, [(0.0, 1.0)], 0.4, rng, ledger=ledger)
    filled = impute_dataset(data, params, seed=9)
    release_laplace(float(np.mean(filled)), 1.0 / 3, 0.6, rng)
    ledger.charge("release[mean]", 0.6, 1.0 / 3)
    assert ledger.total() == 0.4 + 0.6 == 1.0


def test_record_rng_streams_are_stable_and_distinct():
    a = record_rng(7, 1).random()
    b = record_rng(7, 1).random()
    c = record_rng(7, 2).random()
    assert a == b
    assert a != c


# Bench-sized data: n=800 (enough that the DP residual scale survives its own
# noise), x in {1, 2, 4}, y ~ U(0, 1), eps = 0.2.
BOUNDS = [(1.0, 4.0), (0.0, 1.0)]


def _fitted(model: str):
    gen = np.random.default_rng(0)
    data = np.column_stack([gen.choice([1.0, 2.0, 4.0], size=800), gen.random(800)])
    if model == "mean-spread":
        params = fit_dp_mean_model(data[:, 1:], BOUNDS[1:], 0.2, np.random.default_rng(0),
                                   estimate_spread=True)
        return params, params.residual_scales[0]
    params = fit_dp_regression(data, (0,), 1, BOUNDS, 0.2,
                               np.random.default_rng(int(model[-1])))
    return params, params.residual_scale


@pytest.mark.parametrize("model", ["regression-0", "regression-1", "regression-2", "mean-spread"])
def test_residual_noise_fills_stay_in_bounds_and_per_record(model):
    params, scale = _fitted(model)
    assert scale > 0.0  # the fill takes the residual-noise branch
    record = (np.array([2.0, NAN]) if params.method == "regression" else np.array([NAN]))
    fills = [impute_parametric(record, params, record_rng(11, unit))[-1] for unit in range(50)]
    assert all(0.0 <= fill <= 1.0 for fill in fills)
    assert len(set(fills)) > 1  # noise was added
    # a fresh stream for the same (seed, unit) repeats the fill exactly
    assert impute_parametric(record, params, record_rng(11, 3))[-1] == fills[3]
    # changing another record leaves this record's fill as it was
    data = np.array([record, record])
    other = data.copy()
    other[1, 0] = 4.0 if params.method == "regression" else 0.9
    assert impute_dataset(data, params, 5)[0, -1] == impute_dataset(other, params, 5)[0, -1]


def test_record_rng_accepts_every_int64_id_and_keeps_non_negative_streams():
    for unit in (0, 7, 2 ** 63 - 1):
        assert record_rng(3, unit).random() == np.random.default_rng([3, unit]).random()
    draws = {record_rng(3, unit).random() for unit in (-1, -(2 ** 63), 1, 2 ** 63 - 1)}
    assert len(draws) == 4


def _negative_id_inputs(tmp_path):
    import json

    from dpsurvey.frames import dump_frame_csv, make_frame

    path = tmp_path / "frame.csv"
    dump_frame_csv(make_frame([NAN, 0.3, 0.8], ids=[-1, 2, 3]), path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "frame": str(path), "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 3},
        "imputation": {"method": "dp_mean", "epsilon": 0.5},
        "releases": [{"statistic": "mean", "epsilon": 0.5}],
        "mechanism_start": "processed-data", "invariant": "none", "budget": 1.0}))
    return str(config)


def test_negative_unit_id_is_imputed_in_the_pipeline_and_the_cli(tmp_path, capsys):
    from dpsurvey.cli import main
    from dpsurvey.pipeline import parse_config_file, run_pipeline

    config = _negative_id_inputs(tmp_path)
    report = run_pipeline(parse_config_file(config), seed=4)
    assert [c["label"] for c in report.ledger_charges] == ["impute-fit[mean]", "release[mean]"]
    assert main(["impute", config, "--seed", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "id,y,imputed"
    unit, value, imputed = rows[1].split(",")
    assert (unit, imputed) == ("-1", "1") and 0.0 <= float(value) <= 1.0


def _regression():
    data = np.array([[1.0, 0.5], [2.0, 0.25]])
    return fit_dp_regression(data, (0,), 1, [(0, 2), (0, 1)], 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda rng: fit_dp_mean_model(np.zeros((2, 2, 2)), [(0, 1)] * 2, 1.0, rng),
     "data must be 1- or 2-dimensional, got shape (2, 2, 2)"),
    (lambda rng: fit_dp_mean_model(np.zeros((3, 2)), [(0, 1)], 1.0, rng),
     "expected 2 (lo, hi) bounds, got 1"),
    (lambda rng: fit_dp_mean_model(np.zeros((3, 1)), [(1, 0)], 1.0, rng),
     "column 0: bounds must be finite with hi >= lo, got (1.0, 0.0)"),
    (lambda rng: fit_dp_regression(np.zeros((3, 2)), (1,), 1, [(0, 1)] * 2, 1.0, rng),
     "target column cannot also be a predictor"),
    (lambda rng: fit_dp_regression(np.zeros((3, 2)), (2,), 1, [(0, 1)] * 2, 1.0, rng),
     "column index 2 out of range"),
    (lambda rng: impute_parametric([NAN, 1.0, 2.0], _regression(), rng),
     "record must have 2 entries"),
    (lambda rng: impute_parametric([NAN, NAN], _regression(), rng),
     "regression model imputes only column 1; record is missing columns [0, 1]"),
    (lambda rng: impute_parametric([NAN], ImputationParams("median", ((0.0, 1.0),), 1.0), rng),
     "unknown imputation method 'median'"),
], ids=["matrix-shape", "bounds-count", "bounds-order", "target-predictor", "column-range",
        "record-length", "regression-missing", "method"])
def test_imputation_refusals(call, message):
    with pytest.raises(ValueError) as excinfo:
        call(np.random.default_rng(0))
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)
