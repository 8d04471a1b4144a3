import math
import re
import time

import numpy as np
import pytest

from dpsurvey.audit import (
    AuditInstance,
    DiscretizedLaplace,
    EffectiveEpsilonReport,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    amplification_sweep,
    design_label,
    effective_epsilon,
    exact_sensitivity,
    hot_deck_mean_sensitivity,
    imputation_composition_epsilon,
    neighbors,
    reevaluate_witness,
    write_sweep_csv,
)
from dpsurvey.designs import (
    PPS,
    SRSWOR,
    SRSWR,
    ClusterSRSWOR,
    EnumerationCapExceeded,
    Poisson,
    Systematic,
    default_enumeration_cap,
)
from dpsurvey.frames import make_frame
from dpsurvey.instances import (
    adversarial_systematic_instance,
    design_library,
    frame_library,
    formula_agreement_instances,
    four_unit_frame,
    invariant_comparison_instances,
    neyman_allocation_instance,
    pps_maxpi_frame,
    pps_reference_instance,
)
from dpsurvey.mechanisms import HTMeanFixedWeights, analytic_sensitivity

Y_ONLY = NeighborRelation("none", "y-only")
POP_Y = NeighborRelation("population", "y-only")
FRAME_Y = NeighborRelation("frame", "y-only")
FULL = NeighborRelation("population", "full-record")


def test_relation_validation():
    with pytest.raises(ValueError):
        NeighborRelation("frame", "full-record")
    with pytest.raises(ValueError):
        NeighborRelation("sample", "y-only")


def test_instance_validation():
    with pytest.raises(ValueError):  # weighted statistic without n_pop
        AuditInstance(name="x", statistic="ht_mean", y_grid=(0.0, 1.0), weights=(2.0,))
    with pytest.raises(ValueError):  # allocation statistic needs a Neyman design
        AuditInstance(name="x", statistic="neyman_allocation", y_grid=(0.0, 1.0),
                      design=SRSWOR(1), frame=four_unit_frame())
    with pytest.raises(ValueError):  # degenerate grid cannot form neighbors
        AuditInstance(name="x", statistic="mean", y_grid=(1.0,), size=2)


def test_neighbors_from_single_base():
    instance = AuditInstance(name="pair", statistic="mean", y_grid=(0.0, 1.0), size=2,
                             base_datasets=((0.0, 0.0),))
    pairs = list(neighbors(instance, Y_ONLY))
    assert len(pairs) == 2  # D * n * (|U| - 1) = 1 * 2 * 1
    assert {mutated for _, mutated in pairs} == {(1.0, 0.0), (0.0, 1.0)}


def test_neighbors_full_record_count():
    instance = AuditInstance(name="fr", statistic="mean", y_grid=(0.0, 1.0),
                             x_grid=(1.0, 2.0), size=2, base_datasets=(((0.0, 1.0), (0.0, 2.0)),))
    pairs = list(neighbors(instance, FULL))
    # per base: n * (|Uy| * |Ux| - 1) = 2 * 3
    assert len(pairs) == 6
    for base, mutated in pairs:
        assert sum(a != b for a, b in zip(base, mutated)) == 1


def test_neighbors_total_count_formula():
    instance = AuditInstance(name="count", statistic="mean", y_grid=(0.0, 0.5, 1.0), size=2)
    pairs = list(neighbors(instance, Y_ONLY))
    assert len(pairs) == 9 * 2 * 2  # |U|^n bases * n * (|U| - 1)


def test_neighbors_respects_cap(monkeypatch):
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", "10")
    instance = AuditInstance(name="capped", statistic="mean", y_grid=(0.0, 1.0), size=6)
    with pytest.raises(EnumerationCapExceeded):
        list(neighbors(instance, Y_ONLY))


def test_frame_invariant_pairs_never_move_x():
    # definitional: the relation rejects full-record, and y-only datasets
    # carry no x component at all
    instance = pps_reference_instance()
    sens_frame = exact_sensitivity(instance, FRAME_Y)
    assert sens_frame.delta_f == pytest.approx(1.0, abs=1e-12)


def test_exact_matches_analytic_on_bundled_instances():
    for instance, descriptor in formula_agreement_instances():
        relation = FRAME_Y if instance.statistic == "ht_mean" else Y_ONLY
        exact = exact_sensitivity(instance, relation).delta_f
        analytic = analytic_sensitivity(descriptor).delta_f
        assert abs(exact - analytic) <= 1e-12, instance.name


def test_mean_sensitivity_matches_range_over_n():
    instance = AuditInstance(name="m3", statistic="mean", y_grid=(0.0, 1.0), size=3)
    assert exact_sensitivity(instance, Y_ONLY).delta_f == pytest.approx(1 / 3, abs=1e-12)


def test_ht_fixed_weights_sensitivity():
    instance = AuditInstance(name="ht", statistic="ht_mean", y_grid=(0.0, 1.0),
                             weights=(2.0, 3.0, 5.0), n_pop=10)
    assert exact_sensitivity(instance, FRAME_Y).delta_f == pytest.approx(0.5, abs=1e-12)


def test_flat_epsilon_releases_the_weighted_statistic():
    # the weights an exact_sensitivity audit uses are the weights the release sees
    instance = AuditInstance(name="ht", statistic="ht_total", y_grid=(0, 1), weights=(2.0, 3.0))
    mechanism = SampledReleaseMechanism("ht_total", RandomizedResponse(1.0))
    report = effective_epsilon(mechanism, instance, POP_Y)
    assert report.categories == (("v", 0.0), ("v", 2.0), ("v", 3.0), ("v", 5.0))
    assert exact_sensitivity(instance, Y_ONLY).delta_f == 3.0


def test_pps_frame_invariant_matches_frame_max_weight_formula():
    # with the frame pinned, the worst pair sits at the heaviest-weighted
    # unit reachable by some sample: max over the frame of w_i * R / N
    frame = make_frame([0.0, 0.0, 0.0], xs=[1.0, 2.0, 3.0])
    instance = AuditInstance(name="pps-fi", statistic="ht_mean", y_grid=(0.0, 1.0),
                             design=PPS(1), frame=frame, n_pop=3)
    exact = exact_sensitivity(instance, FRAME_Y).delta_f
    w_max = 6.0 / 1.0  # unit with the smallest size measure
    closed_form = analytic_sensitivity(
        HTMeanFixedWeights(w_max=w_max, value_range=1.0, n_pop=3)).delta_f
    assert exact == pytest.approx(w_max * 1.0 / 3, abs=1e-12)
    assert exact == pytest.approx(closed_form, abs=1e-12)


def test_pps_full_record_strictly_exceeds_frame_invariant():
    instance = pps_reference_instance()
    frame_inv = exact_sensitivity(instance, FRAME_Y).delta_f
    full = exact_sensitivity(instance, FULL).delta_f
    assert full > frame_inv
    assert full == pytest.approx(5 / 3, abs=1e-12)  # worst frame: x = (1, 2, 2)
    assert frame_inv == pytest.approx(1.0, abs=1e-12)


def test_invariant_monotonicity_everywhere():
    for instance in invariant_comparison_instances():
        relation_none = FULL if instance.design is not None else Y_ONLY
        loose = exact_sensitivity(instance, relation_none).delta_f
        if instance.design is not None or instance.weights is not None:
            tight = exact_sensitivity(instance, FRAME_Y).delta_f
        else:
            tight = exact_sensitivity(instance, NeighborRelation("frame", "y-only")).delta_f
        assert tight <= loose + 1e-15, instance.name


def test_frame_invariant_matches_population_for_fixed_frames():
    # with y-only neighbors the weights never move, so pinning the frame
    # must give the population value; a unit SRSWR draws twice carries one
    # y into both draws
    for frame in frame_library():
        for design in design_library(frame):
            for stat in ("mean", "ht_mean"):
                instance = AuditInstance(name="fi", statistic=stat, y_grid=(0.0, 1.0),
                                         design=design, frame=frame, n_pop=frame.n)
                pinned = exact_sensitivity(instance, FRAME_Y).delta_f
                population = exact_sensitivity(instance, POP_Y).delta_f
                assert abs(pinned - population) <= 1e-12, (frame, design, stat)


def test_neyman_allocation_is_data_dependent():
    sens = exact_sensitivity(neyman_allocation_instance(), POP_Y)
    assert sens.delta_f > 0.0


def test_identity_pipeline_preserves_randomized_response_epsilon():
    instance = AuditInstance(name="id", statistic="proportion", y_grid=(0.0, 1.0), size=2)
    mechanism = SampledReleaseMechanism("proportion", RandomizedResponse(math.log(3.0)))
    report = effective_epsilon(mechanism, instance, Y_ONLY)
    assert report.eps_effective == pytest.approx(math.log(3.0), abs=1e-12)
    assert report.status == "ok"


@pytest.mark.parametrize("rate, eps", [(0.1, 0.1), (0.25, 0.1), (0.1, 0.05), (0.25, 0.05)])
def test_poisson_amplification_near_rate_times_epsilon(rate, eps):
    frame = four_unit_frame()
    instance = AuditInstance(name="poisson", statistic="max", y_grid=(0.0, 1.0),
                             design=Poisson(rate), frame=frame)
    mechanism = SampledReleaseMechanism("max", RandomizedResponse(eps), design=Poisson(rate))
    report = effective_epsilon(mechanism, instance, POP_Y)
    assert report.eps_effective == pytest.approx(rate * eps, rel=0.10)
    # the exact value is the closed-form replacement-amplification bound
    assert report.eps_effective == pytest.approx(
        math.log(1.0 + rate * (math.exp(eps) - 1.0)), abs=1e-12)


def test_subsampling_never_hurts_for_uninformative_designs():
    frame = four_unit_frame()
    eps = 0.2
    for design in (SRSWR(2), SRSWOR(2), Poisson(0.4)):
        instance = AuditInstance(name="amp", statistic="mean", y_grid=(0.0, 1.0),
                                 design=design, frame=frame)
        mechanism = SampledReleaseMechanism("mean", RandomizedResponse(eps), design=design)
        report = effective_epsilon(mechanism, instance, POP_Y)
        assert report.eps_effective <= eps + 1e-9, design


def test_cluster_sampling_amplifies_less_than_poisson():
    frame = four_unit_frame()
    eps = 0.1
    cluster = ClusterSRSWOR(1)  # two clusters of two, select one: rate 1/2
    instance_c = AuditInstance(name="cluster", statistic="mean", y_grid=(0.0, 1.0),
                               design=cluster, frame=frame)
    report_c = effective_epsilon(
        SampledReleaseMechanism("mean", RandomizedResponse(eps), design=cluster),
        instance_c, POP_Y)
    instance_p = AuditInstance(name="poisson", statistic="mean", y_grid=(0.0, 1.0),
                               design=Poisson(0.5), frame=frame)
    report_p = effective_epsilon(
        SampledReleaseMechanism("mean", RandomizedResponse(eps), design=Poisson(0.5)),
        instance_p, POP_Y)
    assert report_c.eps_effective > report_p.eps_effective


def test_systematic_frame_order_leaks_at_least_srswor():
    frame = four_unit_frame()
    eps = 0.1
    systematic = Systematic(2, "frame")
    srswor = SRSWOR(2)

    def run(design, base=None):
        instance = AuditInstance(name="sys", statistic="mean", y_grid=(0.0, 1.0),
                                 design=design, frame=frame, base_datasets=base)
        mech = SampledReleaseMechanism("mean", RandomizedResponse(eps), design=design)
        return effective_epsilon(mech, instance, POP_Y).eps_effective

    assert run(systematic) >= run(srswor) - 1e-15
    adversarial = adversarial_systematic_instance()
    assert run(systematic, adversarial.base_datasets) > run(srswor, adversarial.base_datasets)


def test_conditioning_on_inclusion_removes_amplification():
    frame = four_unit_frame()
    eps = 0.1
    design = SRSWOR(1)
    instance = AuditInstance(name="cond", statistic="max", y_grid=(0.0, 1.0),
                             design=design, frame=frame)
    conditioned = SampledReleaseMechanism("max", RandomizedResponse(eps), design=design,
                                          condition_on_unit=1)
    report = effective_epsilon(conditioned, instance, POP_Y)
    assert report.eps_effective == pytest.approx(eps, abs=1e-12)
    unconditioned = SampledReleaseMechanism("max", RandomizedResponse(eps), design=design)
    assert effective_epsilon(unconditioned, instance, POP_Y).eps_effective < eps


def test_witness_reproduces_effective_epsilon():
    frame = four_unit_frame()
    design = Poisson(0.25)
    instance = AuditInstance(name="wit", statistic="mean", y_grid=(0.0, 1.0),
                             design=design, frame=frame)
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(0.2), design=design)
    report = effective_epsilon(mechanism, instance, POP_Y)
    again = reevaluate_witness(mechanism, instance, POP_Y, report)
    assert abs(again - report.eps_effective) <= 1e-12


def test_infinite_loss_reported_distinctly():
    # a deterministic release (zero noise scale) exposes the statistic exactly
    instance = AuditInstance(name="inf", statistic="mean", y_grid=(0.0, 1.0), size=2)
    mechanism = SampledReleaseMechanism(
        "mean", DiscretizedLaplace(1.0, 0.0, edges=(0.25, 0.75)))
    report = effective_epsilon(mechanism, instance, Y_ONLY)
    assert report.status == "infinite"
    assert math.isinf(report.eps_effective)
    assert report.worst_event is not None


def test_witness_is_lexicographically_smallest_maximizer():
    # the identity randomized response has many maximizing pairs; the
    # reported witness must be the smallest, independent of scan order
    instance = AuditInstance(name="lex", statistic="mean", y_grid=(0.0, 1.0), size=2)
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(0.5))
    report = effective_epsilon(mechanism, instance, Y_ONLY)
    assert report.worst_pair == ((0.0, 0.0), (0.0, 1.0))
    assert report.worst_event == ("v", 0.0)


def test_sweep_rows_monotone_in_epsilon():
    frame = four_unit_frame()
    rows = amplification_sweep([SRSWOR(2)], [0.05, 0.1, 0.2, 0.4], frame)
    values = [row["eps_effective"] for row in rows]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    assert all(row["status"] == "ok" for row in rows)


def test_sweep_systematic_row_dominates_srswor_on_adversarial_ordering():
    # the sweep enumerates every base, the adversarial ordering among them:
    # systematic's row is attained there, where SRSWOR stays strictly below
    adversarial = adversarial_systematic_instance()
    rows = amplification_sweep([Systematic(2, "frame"), SRSWOR(2)], [0.1],
                               four_unit_frame(), statistic="mean")
    systematic_row, srswor_row = rows
    assert systematic_row["eps_effective"] >= srswor_row["eps_effective"]

    def on_adversarial_base(design):
        instance = AuditInstance(name="sweep-adv", statistic="mean", y_grid=(0.0, 1.0),
                                 design=design, frame=four_unit_frame(),
                                 base_datasets=adversarial.base_datasets)
        mechanism = SampledReleaseMechanism("mean", RandomizedResponse(0.1), design=design)
        return effective_epsilon(mechanism, instance, POP_Y).eps_effective

    assert on_adversarial_base(Systematic(2, "frame")) == systematic_row["eps_effective"]
    assert systematic_row["eps_effective"] > on_adversarial_base(SRSWOR(2))


def test_sweep_pps_tracks_max_inclusion_probability():
    eps = 0.05
    for max_pi in (0.2, 0.4, 0.6):
        frame = pps_maxpi_frame(max_pi)
        rows = amplification_sweep([PPS(1)], [eps], frame, statistic="max")
        row = rows[0]
        assert row["rate_or_maxpi"] == pytest.approx(max_pi, abs=1e-12)
        assert row["eps_effective"] / eps == pytest.approx(max_pi, rel=0.15)


def test_sweep_records_errors_in_table_and_continues(monkeypatch):
    # PPS(3) pushes one unit past certainty on this frame: that cell errors,
    # the rest of the sweep still runs
    frame = make_frame([0.0] * 4, xs=[4.0, 1.0, 1.0, 1.0])
    rows = amplification_sweep([PPS(3), SRSWOR(2)], [0.1], frame)
    assert rows[0]["status"].startswith("error:")
    assert rows[0]["eps_effective"] == ""
    assert rows[1]["status"] == "ok"
    # an enumeration cap is also recorded in-table, not raised
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", "3")
    rows = amplification_sweep([Poisson(0.5)], [0.1], four_unit_frame())
    assert rows[0]["status"].startswith("error: intractable enumeration")


def test_sweep_csv_shape():
    frame = four_unit_frame()
    rows = amplification_sweep([Poisson(0.25)], [0.1], frame)
    text = write_sweep_csv(rows, None)
    header, line = text.strip().split("\n")
    assert header == "design,epsilon,rate_or_maxpi,eps_effective,status"
    assert line.startswith("poisson[rate=0.25],0.1,0.25,")


def test_hot_deck_sensitivity_grows_linearly_with_missing_count():
    for k in (0, 1, 2):
        sens = hot_deck_mean_sensitivity(4, k, (0.0, 1.0))
        assert sens.delta_f == pytest.approx((1 + k) / 4, abs=1e-12)


def test_hot_deck_total_enumeration_is_capped_before_it_starts():
    # 6^6 donor assignments x (2^6 * 6) pairs each is about 18M pairs
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        hot_deck_mean_sensitivity(12, 6, (0, 1))
    assert time.perf_counter() - start < 5.0
    assert excinfo.value.count == 6 ** 6 * 2 ** 6 * 6
    assert excinfo.value.cap == default_enumeration_cap()
    for k in (0, 1, 2, 3):
        sens = hot_deck_mean_sensitivity(4, k, (0.0, 1.0))
        assert sens.delta_f == pytest.approx((1 + k) / 4, abs=1e-12)


def test_hot_deck_sensitivity_scales_with_range():
    sens = hot_deck_mean_sensitivity(4, 2, (0.0, 2.0))
    assert sens.delta_f == pytest.approx(3 / 4 * 2.0, abs=1e-12)


def test_imputation_composition_bounded_by_budget_sum():
    report = imputation_composition_epsilon(0.4, 0.6)
    assert report.eps_nominal == 1.0
    assert report.eps_effective <= 1.0 + 1e-6
    assert report.status == "ok"


@pytest.mark.parametrize("truth", [0.0, 1.0])
def test_discretized_laplace_far_tail_cells_keep_positive_mass(truth):
    # 1 - cdf rounds to 1 - 1 = 0 this far above the truth; the tail mass is not 0
    probs = DiscretizedLaplace(50.0, 0.5, np.linspace(0, 1, 9)).event_probs(truth)
    assert len(probs) == 10
    assert all(p > 0.0 for p in probs.values()), probs


@pytest.mark.parametrize("eps1", [1.0, 5.0, 10.0, 20.0, 50.0])
def test_imputation_composition_stays_finite_for_a_strong_fit(eps1):
    # a zeroed upper tail makes an (eps1 + eps2)-DP composition read as infinite
    report = imputation_composition_epsilon(eps1, 1.0)
    assert report.status == "ok"
    assert math.isfinite(report.eps_effective)
    assert report.eps_effective <= eps1 + 1.0 + 1e-9


@pytest.mark.parametrize("eps", [710.0, 1000.0])
def test_randomized_response_refuses_epsilon_whose_odds_leave_the_float_range(eps):
    categories = [("v", 0.0), ("v", 1.0)]
    probs = RandomizedResponse(709.0).event_probs(("v", 0.0), categories)
    assert probs[("v", 0.0)] == 1.0 and 0.0 < probs[("v", 1.0)] < 1e-300
    with pytest.raises(ValueError) as excinfo:
        RandomizedResponse(eps).event_probs(("v", 0.0), categories)
    assert str(excinfo.value) == ("randomized response: e^epsilon leaves the float range at "
                                  f"epsilon {eps!r}")


def test_sweep_records_an_epsilon_past_the_float_range_in_table():
    (row,) = amplification_sweep([SRSWOR(2)], [1000.0], four_unit_frame())
    assert row["eps_effective"] == "" and row["rate_or_maxpi"] == 0.5
    assert row["status"] == ("error: randomized response: e^epsilon leaves the float range "
                             "at epsilon 1000.0")


def test_imputation_composition_refuses_a_cell_whose_mass_underflows():
    # at eps1 = 400 the fit's far cells fall below the smallest double; a
    # zero there would read as an infinite loss for a 401-DP mechanism
    assert imputation_composition_epsilon(300.0, 1.0).status == "ok"
    with pytest.raises(ValueError) as excinfo:
        imputation_composition_epsilon(400.0, 1.0)
    assert str(excinfo.value) == ("discretized Laplace at epsilon 400.0, delta_f 0.5: cell 9 "
                                  "has positive width but its mass at truth 0.0 underflows to 0")


def test_design_label_is_stable():
    assert design_label(Poisson(0.1)) == "poisson[rate=0.1]"
    assert design_label(Systematic(2, "frame")) == "systematic[n=2,ordering=frame]"


def test_flat_size_must_match_the_weights():
    with pytest.raises(ValueError, match="size 5 does not match 2 weights"):
        AuditInstance(name="x", statistic="mean", y_grid=(0.0, 1.0), size=5, weights=(1.0, 1.0))
    assert AuditInstance(name="x", statistic="mean", y_grid=(0.0, 1.0), size=2,
                         weights=(1.0, 1.0)).n_slots == 2


@pytest.mark.parametrize("fields", [{"size": 2}, {"weights": (9.0, 9.0)},
                                    {"size": 2, "weights": (9.0, 9.0)}])
def test_design_instance_rejects_flat_size_and_weights(fields):
    with pytest.raises(ValueError, match="a design instance takes its size and weights from"):
        AuditInstance(name="x", statistic="ht_total", y_grid=(0, 1), design=SRSWOR(2),
                      frame=four_unit_frame(), **fields)


@pytest.mark.parametrize("instance, relation, shape", [
    (adversarial_systematic_instance(), FULL, "a (y, x) pair"),
    (neyman_allocation_instance(), FULL, "a (y, x) pair"),
    (AuditInstance(name="yx", statistic="mean", y_grid=(0.0, 1.0), design=SRSWOR(1),
                   frame=four_unit_frame(), base_datasets=(((0.0, 1.0),) * 4,)),
     POP_Y, "a y value"),
    (AuditInstance(name="flat-yx", statistic="mean", y_grid=(0.0, 1.0), size=2,
                   base_datasets=(((0.0, 1.0), (1.0, 1.0)),)), Y_ONLY, "a y value"),
], ids=["systematic-full", "neyman-full", "design-y-only", "flat-y-only"])
def test_bases_that_do_not_match_the_relation_are_named(instance, relation, shape):
    with pytest.raises(ValueError, match=rf"base 0, record 0: {relation.mutable} neighbors "
                                         rf"need {re.escape(shape)}, got"):
        exact_sensitivity(instance, relation)
    with pytest.raises(ValueError, match=re.escape(shape)):
        list(neighbors(instance, relation))


def test_bases_of_the_relation_shape_still_audit():
    full = AuditInstance(name="yx", statistic="mean", y_grid=(0.0, 1.0), x_grid=(1.0,),
                         design=SRSWOR(1), frame=four_unit_frame(),
                         base_datasets=(((0.0, 1.0),) * 4,))
    assert exact_sensitivity(full, FULL).delta_f == 1.0


@pytest.mark.parametrize("statistic, design", [
    ("max", SRSWOR(2)), ("mean", SRSWOR(2)), ("max", Poisson(0.5)), ("mean", None)],
    ids=["both", "design", "statistic", "no-design"])
def test_mechanism_must_audit_the_declared_statistic_and_design(statistic, design):
    frame = four_unit_frame()
    instance = AuditInstance(name="declared", statistic="mean", y_grid=(0.0, 1.0),
                             design=Poisson(0.5), frame=frame)
    matching = SampledReleaseMechanism("mean", RandomizedResponse(0.1), Poisson(0.5))
    report = effective_epsilon(matching, instance, POP_Y)
    assert report.eps_effective == pytest.approx(0.0490, abs=1e-4)
    other = SampledReleaseMechanism(statistic, RandomizedResponse(0.1), design)
    with pytest.raises(ValueError, match="does not match the instance's"):
        effective_epsilon(other, instance, POP_Y)
    with pytest.raises(ValueError, match="does not match the instance's"):
        reevaluate_witness(other, instance, POP_Y, report)


def test_frame_level_sampling_and_a_report_without_a_witness_are_refused():
    instance = AuditInstance(name="x", statistic="mean", y_grid=(0.0, 1.0),
                             design=Poisson(0.5), frame=four_unit_frame())
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(0.1), Poisson(0.5))
    with pytest.raises(ValueError, match=r"^sampling inside the mechanism requires frame-level "
                                         r"neighbors; use invariant 'population' or 'none'$"):
        effective_epsilon(mechanism, instance, FRAME_Y)
    report = EffectiveEpsilonReport(0.1, 0.0, "ok", None, None, 0)
    with pytest.raises(ValueError, match=r"^report has no witness to re-evaluate$"):
        reevaluate_witness(mechanism, instance, POP_Y, report)


@pytest.mark.parametrize("call, message", [
    (lambda: NeighborRelation("none", "x-only"), "unknown mutable-field spec 'x-only'"),
    (lambda: AuditInstance(name="d", statistic="mean", y_grid=(0, 1), design=SRSWOR(1)),
     "a design instance needs a reference frame"),
    (lambda: AuditInstance(name="f", statistic="mean", y_grid=(0, 1)),
     "a flat instance needs size or weights"),
    (lambda: exact_sensitivity(AuditInstance(name="m", statistic="median", y_grid=(0, 1),
                                             size=2), NeighborRelation()),
     "unknown sample statistic 'median'"),
    (lambda: DiscretizedLaplace(1.0, 1.0, ()), "need at least one cell edge"),
    (lambda: hot_deck_mean_sensitivity(2, 2, (0, 1)),
     "need 0 <= n_missing < n_records with n_records >= 1"),
    (lambda: imputation_composition_epsilon(1.0, 1.0, n_records=1),
     "need at least one observed record"),
], ids=["mutable", "design-without-frame", "flat-without-size", "statistic", "edges",
        "hot-deck-sizes", "composition-records"])
def test_audit_refusals(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError, message)


def test_an_unlisted_max_pi_has_no_bundled_frame():
    with pytest.raises(ValueError) as excinfo:
        pps_maxpi_frame(0.7)
    assert (type(excinfo.value), str(excinfo.value)) == (ValueError,
                                                         "no bundled frame with max pi = 0.7")
