"""Differential tests: the vectorised oracle core against the scalar brute force.

``Reference`` below is the scalar oracle the core replaced: per-dataset
output distributions as dicts, the coupled distance per pair, the
frame-invariant loop per sample and assignment, and the scalar pair scan.
It shares only the statistic (``_sample_statistic``) and the truth key with
the module under test.  Hypothesis draws desk-scale instances across flat
records, every library design, designs listing outcomes of probability
zero, Neyman allocation, full-record neighbors, explicit base datasets,
conditioning, the empty sample, zero-scale Laplace and all three invariant
levels; weighted frames in which samples of one size carry different
weights; and the oracle's memory and enumeration-cap bounds.
``twosum_histograms`` keeps the mass histograms' per-outcome TwoSum loop
as the reference of their per-probability accumulation.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpsurvey import audit
from dpsurvey.audit import (
    EMPTY_EVENT,
    AuditInstance,
    DiscretizedLaplace,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    _sample_statistic,
    _truth_key,
    effective_epsilon,
    exact_sensitivity,
    neighbors,
    reevaluate_witness,
)
from dpsurvey.designs import (
    PPS,
    SRSWOR,
    ClusterSRSWOR,
    EnumerationCapExceeded,
    Poisson,
    StratifiedSRSWOR,
    TwoStageDesign,
    allocate_strata,
    default_enumeration_cap,
    inclusion_probs,
    sample_space,
)
from dpsurvey.frames import CSV_HEADER, load_frame_csv, make_frame
from dpsurvey.instances import design_library, four_unit_frame, frame_library

Y_ONLY = NeighborRelation("none", "y-only")
POP_Y = NeighborRelation("population", "y-only")
FRAME_Y = NeighborRelation("frame", "y-only")
FULL = NeighborRelation("population", "full-record")


# ---------------------------------------------------------------------------
# The scalar reference oracle
# ---------------------------------------------------------------------------

class Reference:
    """The brute-force oracle, one Python loop per pair, dataset and outcome."""

    @staticmethod
    def slot_values(instance, relation):
        if relation.mutable == "full-record":
            x_grid = instance.x_grid or ((1.0,) if instance.design is None else
                                         tuple(sorted(set(instance.frame.x))))
            return tuple((y, x) for y in instance.y_grid for x in x_grid)
        return instance.y_grid

    @classmethod
    def mutations(cls, dataset, instance, relation):
        values = cls.slot_values(instance, relation)
        for slot in range(len(dataset)):
            for value in values:
                if value != dataset[slot]:
                    yield dataset[:slot] + (value,) + dataset[slot + 1:]

    @classmethod
    def neighbors(cls, instance, relation):
        values = cls.slot_values(instance, relation)
        n = instance.n_slots
        n_bases = (len(instance.base_datasets) if instance.base_datasets is not None
                   else len(values) ** n)
        count = n_bases * n * (len(values) - 1)
        cap = default_enumeration_cap()
        if count > cap:
            raise EnumerationCapExceeded(count, cap)
        bases = ([tuple(d) for d in instance.base_datasets]
                 if instance.base_datasets is not None
                 else list(itertools.product(values, repeat=n)))
        return [(base, mutated) for base in bases
                for mutated in cls.mutations(base, instance, relation)]

    @staticmethod
    def split_y_x(dataset, instance, relation):
        if relation.mutable == "full-record":
            return tuple(v[0] for v in dataset), tuple(v[1] for v in dataset)
        return dataset, (tuple(instance.frame.x) if instance.frame is not None else None)

    class Spaces:
        def __init__(self, instance, design, condition_on_unit=None):
            self.instance, self.design, self.condition = instance, design, condition_on_unit
            self.cache = {}

        def get(self, ys, xs):
            if self.design is None:
                return [tuple(range(len(ys)))], [1.0], self.instance.weights or (1.0,) * len(ys)
            key = (xs, ys if self.design.space_depends_on_y else None)
            if key not in self.cache:
                frame = self.instance.frame.with_y(ys)
                if xs is not None and tuple(xs) != tuple(self.instance.frame.x):
                    frame = frame.with_x(xs)
                pi = inclusion_probs(self.design, frame)
                # an outcome of probability zero is impossible: it never counts
                space = [(s, p) for s, p in sample_space(self.design, frame)
                         if p > 0.0]
                positions = [tuple(frame.positions(sample)) for sample, _ in space]
                probs = [p for _, p in space]
                if self.condition is not None:
                    (target,) = frame.positions([self.condition])
                    kept = [i for i, pos in enumerate(positions) if target in pos]
                    mass = math.fsum(probs[i] for i in kept)
                    if mass <= 0.0:
                        raise ValueError(f"unit {self.condition} is never sampled")
                    positions = [positions[i] for i in kept]
                    probs = [probs[i] / mass for i in kept]
                self.cache[key] = positions, probs, tuple(1.0 / float(v) for v in pi)
            return self.cache[key]

    @classmethod
    def exact_sensitivity(cls, instance, relation):
        stat = instance.statistic
        if instance.design is not None and relation.invariant == "frame":
            return cls.frame_invariant_sensitivity(instance, relation)
        if instance.design is None:
            def distance(d1, d2):
                ys1, _ = cls.split_y_x(d1, instance, relation)
                ys2, _ = cls.split_y_x(d2, instance, relation)
                return abs(_sample_statistic(stat, ys1, instance.weights, instance.n_pop)
                           - _sample_statistic(stat, ys2, instance.weights, instance.n_pop))
        elif stat == "neyman_allocation":
            def allocation(d):
                frame = instance.frame.with_y(cls.split_y_x(d, instance, relation)[0])
                alloc = allocate_strata(instance.design.allocation, frame, instance.design.n)
                return [alloc[label] for label in sorted(alloc)]

            def distance(d1, d2):
                return float(sum(abs(u - v) for u, v in zip(allocation(d1), allocation(d2))))
        else:
            spaces = cls.Spaces(instance, instance.design)

            def distance(d1, d2):
                ys1, xs1 = cls.split_y_x(d1, instance, relation)
                ys2, xs2 = cls.split_y_x(d2, instance, relation)
                pos1, _, w1 = spaces.get(ys1, xs1)
                pos2, _, w2 = spaces.get(ys2, xs2)
                best = 0.0
                for s in set(pos1) & set(pos2):
                    if s:
                        f1 = _sample_statistic(stat, [ys1[p] for p in s], [w1[p] for p in s],
                                               instance.n_pop)
                        f2 = _sample_statistic(stat, [ys2[p] for p in s], [w2[p] for p in s],
                                               instance.n_pop)
                        best = max(best, abs(f1 - f2))
                return best
        best = 0.0
        for d1, d2 in cls.neighbors(instance, relation):
            best = max(best, distance(d1, d2))
        return best

    @classmethod
    def frame_invariant_sensitivity(cls, instance, relation):
        stat = instance.statistic
        samples, _, weights = cls.Spaces(instance, instance.design).get(
            instance.frame.y, instance.frame.x)
        best = 0.0
        for sample in samples:
            if not sample:
                continue
            distinct = tuple(dict.fromkeys(sample))
            slot = {pos: i for i, pos in enumerate(distinct)}
            draws = [slot[pos] for pos in sample]
            ws = [weights[pos] for pos in sample]
            for ys in itertools.product(instance.y_grid, repeat=len(distinct)):
                f1 = _sample_statistic(stat, [ys[i] for i in draws], ws, instance.n_pop)
                for mutated in cls.mutations(ys, instance, relation):
                    f2 = _sample_statistic(stat, [mutated[i] for i in draws], ws,
                                           instance.n_pop)
                    best = max(best, abs(f1 - f2))
        return best

    @classmethod
    def truths(cls, stat, instance, relation, dataset, spaces):
        ys, xs = cls.split_y_x(dataset, instance, relation)
        samples, probs, weights = spaces.get(ys, xs)
        for positions, prob in zip(samples, probs):
            if not positions:
                yield EMPTY_EVENT, prob
                continue
            ws = ([weights[p] for p in positions]
                  if stat in ("ht_mean", "ht_total") else None)
            yield _truth_key(_sample_statistic(stat, [ys[p] for p in positions], ws,
                                               instance.n_pop)), prob

    @classmethod
    def distribution(cls, mechanism, instance, relation, dataset, spaces, categories):
        dist = {}
        for truth, prob in cls.truths(mechanism.statistic, instance, relation, dataset, spaces):
            if isinstance(mechanism.base, RandomizedResponse):
                event_probs = mechanism.base.event_probs(truth, categories)
            elif truth == EMPTY_EVENT:
                event_probs = {EMPTY_EVENT: 1.0}
            else:
                event_probs = mechanism.base.event_probs(truth[1])
            for event, p_event in event_probs.items():
                dist[event] = dist.get(event, 0.0) + prob * p_event
        return dist

    @staticmethod
    def pair_epsilon(dist1, dist2):
        best = (-1.0, None)
        for event in sorted(set(dist1) | set(dist2)):
            p, q = dist1.get(event, 0.0), dist2.get(event, 0.0)
            if p == 0.0 and q == 0.0:
                continue
            value = math.inf if (p == 0.0 or q == 0.0) else abs(math.log(p / q))
            if value > best[0]:
                best = (value, event)
        return best

    @classmethod
    def effective_epsilon(cls, mechanism, instance, relation):
        """(eps, status, n_pairs, categories, distribution of a dataset)."""
        pairs = cls.neighbors(instance, relation)
        datasets = dict.fromkeys(d for pair in pairs for d in pair)
        spaces = cls.Spaces(instance, mechanism.design, mechanism.condition_on_unit)
        categories = None
        if isinstance(mechanism.base, RandomizedResponse):
            categories = tuple(sorted({truth for d in datasets for truth, _ in
                                       cls.truths(mechanism.statistic, instance, relation,
                                                  d, spaces)}))
        dists = {d: cls.distribution(mechanism, instance, relation, d, spaces, categories)
                 for d in datasets}
        best = max((cls.pair_epsilon(dists[a], dists[b])[0] for a, b in pairs), default=-1.0)
        best = 0.0 if best < 0.0 else best
        return best, ("infinite" if math.isinf(best) else "ok"), len(pairs), categories, dists


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

GRIDS = [(0.0, 1.0), (1.0, 0.0), (0.0, 0.5, 1.0), (1.0, 0.25, 0.0)]
STATS = ["mean", "total", "max", "ht_mean", "ht_total"]
NEYMAN_FRAME = make_frame([0.0] * 5, strata=["A", "A", "A", "B", "B"])
# unequal x and interleaved strata: two samples of one size carry different weights
WEIGHTED_FRAMES = [make_frame([0.0, 1.0, 0.0, 1.0], xs=[1.0, 2.0, 4.0, 3.0],
                              strata=["A", "B", "A", "A"]),
                   make_frame([0.0, 1.0, 0.0, 1.0, 0.0], xs=[3.0, 1.0, 2.0, 1.0, 5.0],
                              strata=["A", "B", "A", "B", "A"])]
WEIGHTED_DESIGNS = [PPS(1), PPS(2), StratifiedSRSWOR(2), StratifiedSRSWOR(3)]
CASE_SETTINGS = settings(max_examples=40, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


def zero_mass_designs(frame):
    """Designs whose sample spaces list outcomes of probability zero."""
    designs = [Poisson(1.0)]
    if len(frame.clusters()) >= 2:
        designs.append(TwoStageDesign(ClusterSRSWOR(1), Poisson(1.0)))
    return designs


@st.composite
def bases(draw, values, n_slots):
    if not draw(st.booleans()):
        return None
    rows = st.tuples(*[st.sampled_from(values)] * n_slots)
    return tuple(draw(st.lists(rows, min_size=1, max_size=3)))


@st.composite
def flat_instances(draw):
    stat = draw(st.sampled_from(STATS))
    grid = draw(st.sampled_from(GRIDS))
    weighted = stat.startswith("ht") or draw(st.booleans())
    size = draw(st.integers(1, 3))
    weights = (tuple(draw(st.lists(st.sampled_from([1.0, 2.0, 3.5]),
                                   min_size=size, max_size=size))) if weighted else None)
    return AuditInstance(name="flat", statistic=stat, y_grid=grid,
                         size=None if weighted else size, weights=weights, n_pop=5,
                         base_datasets=draw(bases(grid, size)))


@st.composite
def design_instances(draw, relations=(Y_ONLY, POP_Y, FRAME_Y, FULL)):
    """(instance, relation) over the library frames and designs."""
    frame = draw(st.sampled_from(frame_library()[:3] + [four_unit_frame()]))
    design = draw(st.sampled_from(design_library(frame) + zero_mass_designs(frame)))
    relation = draw(st.sampled_from(relations))
    grid = draw(st.sampled_from(GRIDS[:2] if relation is FULL or frame.n > 3 else GRIDS))
    x_grid = (1.0, 2.0) if relation is FULL else ()
    values = ([(y, x) for y in grid for x in x_grid] if relation is FULL else grid)
    base = draw(bases(values, frame.n))
    if relation is FULL and frame.n > 3 and base is None:
        base = (tuple(itertools.islice(itertools.cycle(values), frame.n)),)
    stat = draw(st.sampled_from(STATS))
    return AuditInstance(name="design", statistic=stat, y_grid=grid, x_grid=x_grid,
                         design=design, frame=frame, n_pop=frame.n,
                         base_datasets=base), relation


@st.composite
def neyman_instances(draw):
    stat = draw(st.sampled_from(["neyman_allocation", "mean", "ht_mean"]))
    grid = draw(st.sampled_from(GRIDS[:2]))
    return AuditInstance(name="neyman", statistic=stat, y_grid=grid, n_pop=5,
                         design=StratifiedSRSWOR(3, "neyman"), frame=NEYMAN_FRAME,
                         base_datasets=draw(bases(grid, NEYMAN_FRAME.n))), \
        draw(st.sampled_from([Y_ONLY, POP_Y]))


@st.composite
def weighted_instances(draw, relations=(Y_ONLY, POP_Y, FRAME_Y, FULL)):
    """(instance, relation): HT statistics under PPS and stratified designs."""
    frame = draw(st.sampled_from(WEIGHTED_FRAMES))
    relation = draw(st.sampled_from(relations))
    grid = draw(st.sampled_from(GRIDS[:2] if relation is FULL else GRIDS))
    x_grid = (1.0, 2.0) if relation is FULL else ()
    values = ([(y, x) for y in grid for x in x_grid] if relation is FULL else grid)
    stat = draw(st.sampled_from(["ht_total", "ht_mean"]))
    design = draw(st.sampled_from(WEIGHTED_DESIGNS))
    return AuditInstance(name="weighted", statistic=stat, y_grid=grid, x_grid=x_grid,
                         design=design, frame=frame, n_pop=frame.n,
                         base_datasets=draw(bases(values, frame.n))), relation


@st.composite
def release_bases(draw):
    if draw(st.booleans()):
        return RandomizedResponse(draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])))
    return DiscretizedLaplace(draw(st.sampled_from([0.5, 1.0])),
                              draw(st.sampled_from([0.0, 0.5, 1.0])),
                              draw(st.sampled_from([(0.5,), (0.25, 0.5, 0.75)])))


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    try:
        return fn(*args), None
    except (EnumerationCapExceeded, ValueError, TypeError) as err:
        return None, type(err)


def check_sensitivity(instance, relation):
    expected, error = outcome(Reference.exact_sensitivity, instance, relation)
    got, got_error = outcome(exact_sensitivity, instance, relation)
    assert got_error is error
    if error is None:
        assert got.delta_f == expected  # bit-equal


def check_epsilon(mechanism, instance, relation):
    expected, error = outcome(Reference.effective_epsilon, mechanism, instance, relation)
    report, got_error = outcome(effective_epsilon, mechanism, instance, relation)
    assert got_error is error
    if error is not None:
        return
    eps, status, n_pairs, categories, dists = expected
    assert (report.status, report.n_pairs, report.categories) == (status, n_pairs, categories)
    assert report.eps_effective == eps or abs(report.eps_effective - eps) <= 1e-12
    if report.worst_pair is None:
        assert n_pairs == 0 or eps == 0.0
        return
    d1, d2 = report.worst_pair
    p = dists[d1].get(report.worst_event, 0.0)
    q = dists[d2].get(report.worst_event, 0.0)
    attained = math.inf if (p == 0.0 or q == 0.0) else abs(math.log(p / q))
    assert attained == eps or abs(attained - eps) <= 1e-12


@CASE_SETTINGS
@given(flat_instances(), st.sampled_from([Y_ONLY, POP_Y, FRAME_Y]))
def test_flat_sensitivity_matches_reference(instance, relation):
    check_sensitivity(instance, relation)


@CASE_SETTINGS
@given(flat_instances(), release_bases())
def test_flat_epsilon_matches_reference(instance, base):
    check_epsilon(SampledReleaseMechanism(instance.statistic, base), instance, Y_ONLY)


@CASE_SETTINGS
@given(design_instances())
def test_design_sensitivity_matches_reference(case):
    check_sensitivity(*case)


@CASE_SETTINGS
@given(design_instances(relations=(Y_ONLY, POP_Y, FULL)), release_bases(),
       st.sampled_from([None, 0, 1]))
def test_design_epsilon_matches_reference(case, base, condition):
    instance, relation = case
    unit = None if condition is None else instance.frame.ids[condition]
    mechanism = SampledReleaseMechanism(instance.statistic, base, instance.design, unit)
    check_epsilon(mechanism, instance, relation)


@CASE_SETTINGS
@given(weighted_instances())
def test_weighted_sensitivity_matches_reference(case):
    check_sensitivity(*case)


@CASE_SETTINGS
@given(weighted_instances(relations=(Y_ONLY, POP_Y, FULL)), release_bases())
def test_weighted_epsilon_matches_reference(case, base):
    instance, relation = case
    mechanism = SampledReleaseMechanism(instance.statistic, base, instance.design)
    check_epsilon(mechanism, instance, relation)


@CASE_SETTINGS
@given(neyman_instances(), release_bases())
def test_neyman_matches_reference(case, base):
    instance, relation = case
    check_sensitivity(instance, relation)
    if instance.statistic != "neyman_allocation":
        mechanism = SampledReleaseMechanism(instance.statistic, base, instance.design)
        check_epsilon(mechanism, instance, relation)


@pytest.mark.parametrize("scale", [0.0, 0.5])
def test_empty_sample_event_matches_reference(scale):
    # Poisson draws the empty sample; zero scale makes every loss infinite
    instance = AuditInstance(name="empty", statistic="mean", y_grid=(0.0, 1.0),
                             design=Poisson(0.5), frame=four_unit_frame())
    base = DiscretizedLaplace(1.0, scale, (0.25, 0.5, 0.75))
    mechanism = SampledReleaseMechanism("mean", base, Poisson(0.5))
    check_epsilon(mechanism, instance, POP_Y)
    report = effective_epsilon(mechanism, instance, POP_Y)
    assert report.status == ("infinite" if scale == 0.0 else "ok")


@pytest.mark.parametrize("design, frame, expected", [
    (Poisson(1.0), make_frame([0.0] * 3), 1 / 3),
    (TwoStageDesign(ClusterSRSWOR(1), Poisson(1.0)), four_unit_frame(), 0.5),
], ids=["poisson", "two-stage"])
def test_impossible_samples_never_count_towards_sensitivity(design, frame, expected):
    # the space lists every subset; all but the full one (per cluster) have mass zero
    instance = AuditInstance(name="zero-mass", statistic="mean", y_grid=(0, 1),
                             design=design, frame=frame)
    coupled = exact_sensitivity(instance, POP_Y).delta_f
    assert coupled == exact_sensitivity(instance, FRAME_Y).delta_f
    assert coupled == pytest.approx(expected, abs=1e-15)
    assert coupled == Reference.exact_sensitivity(instance, POP_Y)


@CASE_SETTINGS
@given(st.one_of(flat_instances().map(lambda instance: (instance, POP_Y)),
                 design_instances()))
def test_neighbors_decode_the_reference_pairs_in_order(case):
    instance, relation = case
    expected, error = outcome(Reference.neighbors, instance, relation)
    got, got_error = outcome(lambda: list(neighbors(instance, relation)))
    assert got_error is error
    if error is None:
        assert got == expected
        assert [tuple(map(type, d)) for pair in got for d in pair] == \
            [tuple(map(type, d)) for pair in expected for d in pair]


def test_neighbors_keep_the_values_of_explicit_bases():
    instance = AuditInstance(name="ints", statistic="mean", y_grid=(0.0, 1.0), size=2,
                             base_datasets=((0, 1),))
    assert list(neighbors(instance, Y_ONLY)) == [((0, 1), (1.0, 1)), ((0, 1), (0, 0.0))]
    assert [type(v) for v in next(neighbors(instance, Y_ONLY))[1]] == [float, int]


@pytest.mark.parametrize("base", [RandomizedResponse(0.3),
                                  DiscretizedLaplace(0.5, 0.5, (0.25, 0.5, 0.75))],
                         ids=["rr", "laplace"])
def test_reevaluate_witness_returns_the_reported_epsilon_exactly(base):
    frame = four_unit_frame()
    for design in design_library(frame):
        instance = AuditInstance(name="wit", statistic="mean", y_grid=(0.0, 1.0),
                                 design=design, frame=frame)
        mechanism = SampledReleaseMechanism("mean", base, design=design)
        report = effective_epsilon(mechanism, instance, POP_Y)
        assert reevaluate_witness(mechanism, instance, POP_Y, report) == \
            report.eps_effective, design


def test_cap_is_checked_before_any_table_is_built(monkeypatch):
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", str(10 ** 6))
    instance = AuditInstance(name="capped", statistic="mean", y_grid=(0.0, 0.5, 1.0), size=40)
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        exact_sensitivity(instance, Y_ONLY)
    assert excinfo.value.count == 3 ** 40 * 40 * 2
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(1.0))
    with pytest.raises(EnumerationCapExceeded):
        effective_epsilon(mechanism, instance, Y_ONLY)


def test_oracle_core_leaves_numpy_ma_unimported():
    # numpy.ma costs ~1.2 MB of resident memory; a bare np.unique (numpy 2)
    # or np.unique(axis=0) imports it
    script = (
        "import sys\n"
        "from dpsurvey import *\n"
        "from dpsurvey.instances import four_unit_frame, pps_reference_instance\n"
        "rel = NeighborRelation('population', 'y-only')\n"
        "inst = AuditInstance(name='m', statistic='mean', y_grid=(0.0, 1.0),\n"
        "                     design=Poisson(0.5), frame=four_unit_frame(),\n"
        "                     base_datasets=((0.0, 1.0, 0.0, 1.0),))\n"
        "effective_epsilon(SampledReleaseMechanism('mean', RandomizedResponse(1.0),\n"
        "                                          Poisson(0.5)), inst, rel)\n"
        "exact_sensitivity(inst, rel)\n"
        "exact_sensitivity(pps_reference_instance(),\n"
        "                  NeighborRelation('population', 'full-record'))\n"
        "print('numpy.ma' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_frame_invariant_cap_counts_distinct_tables(monkeypatch):
    # Poisson(0.5) has 2^11 samples but one table per sample size k: k 2^k pairs each
    instance = AuditInstance(name="fi", statistic="mean", y_grid=(0, 1),
                             design=Poisson(0.5), frame=make_frame([0.0] * 11))
    assert exact_sensitivity(instance, FRAME_Y).delta_f == 1.0
    distinct = sum(k * 2 ** k for k in range(1, 12))
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", str(distinct))
    assert exact_sensitivity(instance, FRAME_Y).delta_f == 1.0

    def no_table(*args):
        raise AssertionError("a pair table was built past the cap")

    monkeypatch.setattr(audit, "_PairTable", no_table)
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", str(distinct - 1))
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        exact_sensitivity(instance, FRAME_Y)
    assert excinfo.value.count == distinct


def test_sample_keys_past_int64_match_reference():
    # 3^40 in-sample code patterns: the keys are Python ints in an object array
    instance = AuditInstance(name="wide", statistic="total", y_grid=(0.0, 0.5, 1.0), size=40,
                             base_datasets=((0.0,) * 40, (1.0,) * 40))
    assert audit._place_values(3, 40).dtype == object
    check_sensitivity(instance, Y_ONLY)
    check_epsilon(SampledReleaseMechanism("total", RandomizedResponse(1.0)), instance, Y_ONLY)


def twosum_histograms(mechanism, instance, relation):
    """(hist, categories) of ``_histograms``, summed one outcome at a time in
    space order with each cell's rounding errors carried in ``error`` (TwoSum)."""
    table = audit._pairs(instance, relation)
    index, cache, stages = {}, {}, []

    def column(truth) -> int:
        return index.setdefault(truth if truth == EMPTY_EVENT else _truth_key(truth), len(index))

    for rows, (positions, probs, weights) in audit._groups(
            table, instance, relation, condition_on_unit=mechanism.condition_on_unit):
        cat = np.zeros((len(positions), len(rows)), dtype=np.intp)
        for j, sample in enumerate(positions):
            if not sample:
                cat[j] = column(EMPTY_EVENT)
        for js, values in audit._stage_truths(mechanism.statistic, table, rows, positions,
                                              weights, instance.n_pop, cache, column):
            cat[js] = values
        stages.append((rows, probs, cat))
    width = len(index)
    hist, error = np.zeros(len(table.codes) * width), np.zeros(len(table.codes) * width)
    for rows, probs, cat in stages:
        for prob, columns in zip(probs, cat):
            cells = rows * width + columns
            before = hist[cells]
            hist[cells] = total = before + prob
            part = total - before
            error[cells] += (before - (total - part)) + (prob - part)
    categories = tuple(sorted(index))
    order = [index[c] for c in categories]
    return (hist + error).reshape(len(table.codes), width)[:, order], categories


# every PPS(2) outcome on this frame has a probability of its own
DISTINCT_PPS_FRAME = make_frame([0.0] * 5, xs=[1.0, 1.5, 2.5, 4.0, 6.5])


@st.composite
def histogram_cases(draw):
    """(mechanism, instance, relation): a library instance, its design or Poisson(0.4)
    (the empty sample) on its frame, or PPS(2) on ``DISTINCT_PPS_FRAME``; conditioned
    on a unit or not."""
    instance, relation = draw(design_instances(relations=(Y_ONLY, POP_Y, FULL)))
    kind = draw(st.sampled_from(["library", "empty sample", "distinct probabilities"]))
    if kind == "empty sample":
        instance = replace(instance, design=Poisson(0.4))
    elif kind == "distinct probabilities":
        instance = replace(instance, design=PPS(2), frame=DISTINCT_PPS_FRAME,
                           n_pop=DISTINCT_PPS_FRAME.n, base_datasets=None)
    unit = draw(st.sampled_from([None, *instance.frame.ids[:2]]))
    base = RandomizedResponse(1.0)
    return SampledReleaseMechanism(instance.statistic, base, instance.design, unit), \
        instance, relation


@CASE_SETTINGS
@given(histogram_cases())
def test_histograms_equal_the_per_outcome_twosum_bytes(case):
    expected, error = outcome(twosum_histograms, *case)
    got, got_error = outcome(audit._histograms, *case)
    assert got_error is error
    if error is None:
        (_, hist, categories), (reference, reference_categories) = got, expected
        assert categories == reference_categories
        assert hist.shape == reference.shape and hist.tobytes() == reference.tobytes()


@pytest.mark.parametrize("count", [2 ** 26 - 1, 2 ** 26, 2 ** 27 - 1])
@settings(max_examples=200, deadline=None)
@given(st.floats(2.0 ** -900, 1.0))
def test_split_products_are_exact_up_to_the_count_bound(count, p):
    # a class's count is capped at 2^26 per run; the split allows below 2^27
    high, low = audit._split(p)
    assert Fraction(high) + Fraction(low) == Fraction(p)
    for part in (high, low):
        assert Fraction(count * part) == count * Fraction(part)


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of one call, numpy buffers included."""
    fn(*args)  # warm: caches and lazy imports are not the call's own memory
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bench_shaped_audits_stay_under_a_memory_bound():
    # the audit benchmark's shapes; int32 categories or 2^18-code truth
    # batches take the epsilon call past the bound
    frame = make_frame([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0],
                       xs=[1.0, 2.0, 3.0, 5.0, 8.0, 1.0, 2.0, 3.0, 5.0])
    design = Poisson(0.25)
    instance = AuditInstance(name="mem-eps", statistic="mean", y_grid=(0.0, 1.0),
                             design=design, frame=frame)
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(1.0), design)
    assert traced_peak(effective_epsilon, mechanism, instance, POP_Y) <= 1.5e6
    frame = make_frame([0.0] * 7, xs=[1.0, 2.0, 3.0, 5.0, 8.0, 1.0, 2.0])
    instance = AuditInstance(name="mem-sens", statistic="ht_mean", y_grid=(0.0, 0.5, 1.0),
                             design=SRSWOR(2), frame=frame, n_pop=7)
    assert traced_peak(exact_sensitivity, instance, POP_Y) <= 1.5e6


def test_bench_shaped_frame_load_stays_under_a_memory_bound(tmp_path):
    # the survey benchmark's frame shape: 10 strata, 10% of y missing, x in
    # {1, 2, 4}, propensities in [0.5, 1).  Parsed in chunks, the load peaks
    # at ~1.4x the finished frame's own arrays; one loadtxt call holding
    # every label string peaks at ~3.1x.
    rng = np.random.default_rng(20)
    n = 50_000
    path = tmp_path / "frame.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            (unit, "" if missing else repr(y), repr(x), f"s{h}", "0", repr(p))
            for unit, y, missing, x, h, p in zip(
                range(1, n + 1), rng.random(n).tolist(), (rng.random(n) < 0.1).tolist(),
                rng.choice([1.0, 2.0, 4.0], n).tolist(), rng.integers(10, size=n).tolist(),
                rng.uniform(0.5, 1.0, n).tolist()))
    frame = load_frame_csv(path)
    own = sum(value.nbytes for value in vars(frame).values() if isinstance(value, np.ndarray))
    assert traced_peak(load_frame_csv, path) <= 2 * own


def hot_deck_reference(n_records, n_missing, y_grid):
    """The hot-deck oracle as a loop over donor assignments: each one a flat
    mean whose weights are the donors' multiplicities, by the scalar oracle."""
    n_observed = n_records - n_missing
    best = 0.0
    for assignment in itertools.product(range(n_observed), repeat=n_missing):
        multiplicity = [1] * n_observed
        for donor in assignment:
            multiplicity[donor] += 1
        instance = AuditInstance(name="hot-deck", statistic="ht_mean", y_grid=y_grid,
                                 weights=multiplicity, n_pop=n_records)
        best = max(best, Reference.exact_sensitivity(instance, Y_ONLY))
    return best


@pytest.mark.parametrize("y_grid", [(0.0, 1.0), (0.0, 2.0), (0.0, 0.5, 1.0)])
def test_hot_deck_oracle_matches_the_multiplicity_reference(y_grid):
    for n_records in range(1, 6):
        for n_missing in range(n_records):
            expected = hot_deck_reference(n_records, n_missing, y_grid)
            got = audit.hot_deck_mean_sensitivity(n_records, n_missing, y_grid).delta_f
            assert got == expected, (n_records, n_missing)  # bit-equal


def test_hot_deck_oracle_rejects_a_one_value_grid():
    with pytest.raises(ValueError, match="at least two distinct values"):
        audit.hot_deck_mean_sensitivity(3, 1, (1.0, 1.0))


def test_bench_sensitivity_shape_past_the_frame_enumeration():
    # the bench's sensitivity shape; its 3^12 frames are past the 10^6 cap
    instance = AuditInstance(name="sens-12", statistic="ht_mean", y_grid=(0.0, 0.5, 1.0),
                             design=SRSWOR(2), frame=make_frame([0.0] * 12), n_pop=12)
    assert exact_sensitivity(instance, POP_Y).delta_f == 0.5


def test_fixed_stage_cap_counts_distinct_tables(monkeypatch):
    # the population twin of the frame-invariant test: y-only neighbors of
    # every assignment share one Poisson stage, scanned one table per size
    instance = AuditInstance(name="pop", statistic="mean", y_grid=(0, 1),
                             design=Poisson(0.5), frame=make_frame([0.0] * 11))
    assert exact_sensitivity(instance, POP_Y).delta_f == 1.0
    distinct = sum(k * 2 ** k for k in range(1, 12))
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", str(distinct))
    assert exact_sensitivity(instance, POP_Y).delta_f == 1.0

    def no_table(*args):
        raise AssertionError("a pair table was built past the cap")

    monkeypatch.setattr(audit, "_PairTable", no_table)
    monkeypatch.setenv("DPSURVEY_ENUM_CAP", str(distinct - 1))
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        exact_sensitivity(instance, POP_Y)
    assert excinfo.value.count == distinct
