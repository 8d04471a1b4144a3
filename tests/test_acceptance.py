"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from dpsurvey.audit import (
    AuditInstance,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    effective_epsilon,
    exact_sensitivity,
    hot_deck_mean_sensitivity,
    imputation_composition_epsilon,
)
from dpsurvey.designs import (
    PPS,
    SRSWOR,
    ClusterSRSWOR,
    Poisson,
    Systematic,
    build_sample,
    inclusion_probs,
    sample_space,
)
from dpsurvey.estimators import ht_mean
from dpsurvey.frames import dump_frame_csv, make_frame
from dpsurvey.imputation import fit_dp_mean_model, impute_dataset
from dpsurvey.instances import (
    adversarial_systematic_instance,
    design_library,
    formula_agreement_instances,
    four_unit_frame,
    frame_library,
    invariant_comparison_instances,
    pps_reference_instance,
)
from dpsurvey.mechanisms import PrivacyLedger, analytic_sensitivity, release_laplace
from dpsurvey.pipeline import parse_config, run_pipeline
from dpsurvey.weighting import poststratify, regularize_weights

POP_Y = NeighborRelation("population", "y-only")
FRAME_Y = NeighborRelation("frame", "y-only")
FULL = NeighborRelation("population", "full-record")


def report(line):
    print(f"PASS {line}")


def test_criterion_01_formula_agreement():
    started = time.monotonic()
    for instance, descriptor in formula_agreement_instances():
        relation = FRAME_Y if instance.statistic == "ht_mean" else \
            NeighborRelation("none", "y-only")
        exact = exact_sensitivity(instance, relation).delta_f
        analytic = analytic_sensitivity(descriptor).delta_f
        assert abs(exact - analytic) <= 1e-12, instance.name
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(f"criterion 1: oracle matches 1/n, R/n, max(w)R/N on all bundled "
           f"instances within 1e-12 ({elapsed:.2f}s)")


def test_criterion_02_amplification_approximates_rate_times_epsilon():
    started = time.monotonic()
    frame = four_unit_frame()
    cells = [(Poisson(rate), rate, eps)
             for rate in (0.1, 0.25) for eps in (0.05, 0.1)]
    # SRSWOR rates on a 4-unit frame are multiples of 1/4; r = 0.25 is n = 1
    cells += [(SRSWOR(1), 0.25, eps) for eps in (0.05, 0.1)]
    for design, rate, eps in cells:
        instance = AuditInstance(name="amp", statistic="max", y_grid=(0.0, 1.0),
                                 design=design, frame=frame)
        mechanism = SampledReleaseMechanism("max", RandomizedResponse(eps), design=design)
        result = effective_epsilon(mechanism, instance, POP_Y)
        assert result.eps_effective == pytest.approx(rate * eps, rel=0.10), (design, eps)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(f"criterion 2: Poisson and SRSWOR effective epsilon within 10% of "
           f"r*eps over the grid ({elapsed:.2f}s)")


def test_criterion_03_complex_designs_degrade_amplification():
    frame = four_unit_frame()
    eps = 0.1

    def audit(design, base=None):
        instance = AuditInstance(name="c3", statistic="mean", y_grid=(0.0, 1.0),
                                 design=design, frame=frame, base_datasets=base)
        mechanism = SampledReleaseMechanism("mean", RandomizedResponse(eps), design=design)
        return effective_epsilon(mechanism, instance, POP_Y).eps_effective

    # matched expected rate 1/2: one of two clusters vs Poisson(0.5)
    cluster = audit(ClusterSRSWOR(1))
    poisson = audit(Poisson(0.5))
    assert cluster >= poisson
    assert cluster > poisson  # strict on this bundled instance

    systematic = audit(Systematic(2, "frame"))
    srswor = audit(SRSWOR(2))
    assert systematic >= srswor

    adversarial = adversarial_systematic_instance()
    sys_adv = audit(Systematic(2, "frame"), adversarial.base_datasets)
    srs_adv = audit(SRSWOR(2), adversarial.base_datasets)
    assert sys_adv > srs_adv  # strict on the adversarial ordering
    report("criterion 3: cluster >= Poisson and systematic >= SRSWOR at matched "
           "rates, strictly on the bundled adversarial instances")


def test_criterion_04_pps_data_dependence_and_regularization():
    instance = pps_reference_instance()
    fixed = exact_sensitivity(instance, FRAME_Y).delta_f
    data_dependent = exact_sensitivity(instance, FULL).delta_f
    assert data_dependent > fixed

    weights = (1.0, 2.0, 4.0, 8.0, 16.0)
    n_pop, value_range = 31, 1.0
    uppers = np.linspace(16.0, 1.0, 10)
    bounds = [max(regularize_weights(weights, 1.0, float(u))) * value_range / n_pop
              for u in uppers]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    report("criterion 4: full-record PPS sensitivity strictly exceeds the "
           "frame-invariant value; tightening weight bounds weakly decreases "
           "the fixed-weight bound over a 10-step schedule")


def test_criterion_05_invariant_monotonicity():
    for instance in invariant_comparison_instances():
        relation_none = FULL if instance.design is not None else \
            NeighborRelation("none", "y-only")
        loose = exact_sensitivity(instance, relation_none).delta_f
        tight = exact_sensitivity(instance, FRAME_Y).delta_f
        assert tight <= loose, instance.name
    report("criterion 5: frame-invariant sensitivity <= unrestricted sensitivity "
           "on every bundled instance")


def test_criterion_06_design_unbiasedness():
    for frame in frame_library():
        population_mean = math.fsum(frame.y) / frame.n
        for design in design_library(frame):
            pi = inclusion_probs(design, frame)
            position = {uid: i for i, uid in enumerate(frame.ids)}
            expectation = math.fsum(
                prob * ht_mean(build_sample(frame, [position[u] for u in ids], pi),
                               frame.n).value
                for ids, prob in sample_space(design, frame))
            assert abs(expectation - population_mean) <= 1e-10, (design, frame.n)
    report("criterion 6: enumerated E[ht_mean] equals the frame mean within "
           "1e-10 for every fixed-size bundled design")


def test_criterion_07_calibration_exactness():
    weights = (1.0, 2.0, 1.0, 1.0, 0.5)
    labels = ("a", "a", "b", "b", "b")
    benchmarks = {"a": 6.0, "b": 4.0}
    calibrated = poststratify(weights, labels, benchmarks)
    for label, benchmark in benchmarks.items():
        total = math.fsum(w for w, lb in zip(calibrated, labels) if lb == label)
        assert total == benchmark  # machine precision
    assert poststratify(calibrated, labels, benchmarks) == calibrated  # idempotent
    report("criterion 7: post-stratified cell totals equal benchmarks exactly "
           "and recalibration is a bitwise no-op")


def test_criterion_08_imputation_composition():
    eps1, eps2 = 0.4, 0.6
    ledger = PrivacyLedger()
    rng = np.random.default_rng(0)
    data = np.array([[0.0], [1.0], [float("nan")]])
    params = fit_dp_mean_model(data, [(0.0, 1.0)], eps1, rng, ledger=ledger)
    filled = impute_dataset(data, params, seed=1)
    release_laplace(float(np.mean(filled)), 1.0 / 3, eps2, rng)
    ledger.charge("release[mean]", eps2, 1.0 / 3)
    assert ledger.total() == eps1 + eps2

    audit = imputation_composition_epsilon(eps1, eps2, n_records=3)
    assert audit.eps_effective <= eps1 + eps2 + 1e-6
    report("criterion 8: ledger total of fit+release equals eps1+eps2 exactly; "
           "audited effective epsilon of the composed mechanism stays within "
           "eps1+eps2+1e-6")


def test_criterion_09_hot_deck_blowup():
    for missing in (0, 1, 2):
        delta = hot_deck_mean_sensitivity(4, missing, (0.0, 1.0)).delta_f
        assert delta == pytest.approx((1 + missing) / 4, abs=1e-12)
    report("criterion 9: audited post-hot-deck mean sensitivity equals "
           "(1+k)/4 * R for k in {0, 1, 2} under the single-donor worst case")


def test_criterion_10_determinism(tmp_path):
    frame = make_frame([0.2, 0.8, 0.4, 1.0], propensities=[0.9, 1.0, 0.8, 1.0])
    frame_path = tmp_path / "frame.csv"
    dump_frame_csv(frame, frame_path)
    config = parse_config(json.dumps({
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0},
        "design": {"kind": "srswor", "n": 3},
        "response": {"model": "propensity"},
        "releases": [{"statistic": "ht_mean", "epsilon": 1.0}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }))
    runs = {run_pipeline(config, seed=11).to_json() for _ in range(2)}
    assert len(runs) == 1

    instance = AuditInstance(name="det", statistic="mean", y_grid=(0.0, 1.0),
                             design=Poisson(0.5), frame=four_unit_frame())
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(0.1),
                                        design=Poisson(0.5))
    first = effective_epsilon(mechanism, instance, POP_Y)
    second = effective_epsilon(mechanism, instance, POP_Y)
    assert first == second
    report("criterion 10: seeded runs are byte-identical and audits agree "
           "across repeated calls")
