"""Brute-force privacy auditing on desk-scale instances.

Two oracles live here.  ``exact_sensitivity`` enumerates every neighboring
dataset pair allowed by a relation and reports the true worst-case L1
change of a statistic, including the data-dependent-weight regimes where
no closed form exists.  ``effective_epsilon`` enumerates the full output
distribution of a composed mechanism (sampling stage, statistic, discrete
base mechanism) and reports the exact worst-case log probability ratio.

Every oracle draws its pairs from one enumeration, ``neighbors`` (one-record
replacements via ``_mutations``); the effective-epsilon oracles share one
outcome evaluation (``_truths``) and one worst-pair scan (``_worst_pair``).

Neighbor semantics are bounded replace-one throughout: one record's
mutable fields change, the dataset size does not.  The invariant level
controls what the counterfactual comparison holds fixed:

* ``"frame"``   - the realized frame is pinned, so inclusion probabilities
  and weights never move; neighbors differ in one sampled unit's y, which
  every draw of that unit shares (a unit drawn twice by SRSWR counts twice).
* ``"population"`` / ``"none"`` - neighbors are whole frames differing in
  one record; weights are recomputed per frame, and a sample-level
  statistic is compared with the selected id-set held fixed (coupled),
  maximized over all feasible id-sets.

Continuous Laplace outputs cannot be enumerated, so effective-epsilon
audits run against an intrinsically discrete base mechanism: randomized
response over the statistic's achievable values, or a discretized-Laplace
surrogate on a declared output grid with the tail mass lumped into the two
boundary cells.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    Design,
    EnumerationCapExceeded,
    StratifiedSRSWOR,
    allocate_strata,
    default_enumeration_cap,
    inclusion_probs,
    sample_space,
)
from .frames import Frame
from .mechanisms import Sensitivity, _epsilon_value

__all__ = [
    "NeighborRelation",
    "AuditInstance",
    "RandomizedResponse",
    "DiscretizedLaplace",
    "SampledReleaseMechanism",
    "EffectiveEpsilonReport",
    "neighbors",
    "exact_sensitivity",
    "effective_epsilon",
    "reevaluate_witness",
    "amplification_sweep",
    "write_sweep_csv",
    "hot_deck_mean_sensitivity",
    "imputation_composition_epsilon",
    "design_label",
]

EMPTY_EVENT = ("empty",)


@dataclass(frozen=True)
class NeighborRelation:
    """Bounded replace-one neighbors with an invariant level.

    ``mutable`` is ``"y-only"`` (the response value moves) or
    ``"full-record"`` (the size measure moves too).  Frame invariance pins
    the weights, so it is incompatible with mutating x.
    """

    invariant: str = "none"      # "none" | "population" | "frame"
    mutable: str = "y-only"      # "y-only" | "full-record"

    def __post_init__(self):
        if self.invariant not in ("none", "population", "frame"):
            raise ValueError(f"unknown invariant level {self.invariant!r}")
        if self.mutable not in ("y-only", "full-record"):
            raise ValueError(f"unknown mutable-field spec {self.mutable!r}")
        if self.invariant == "frame" and self.mutable == "full-record":
            raise ValueError(
                "frame-invariant neighbors share the frame's size measures; "
                "full-record mutation requires invariant 'none' or 'population'")


@dataclass(frozen=True)
class AuditInstance:
    """What to enumerate: a value universe plus either flat records or a
    (frame, design) pair.

    Flat instances audit a statistic of ``size`` records drawn from the
    grid, optionally with fixed per-record weights.  Design instances audit
    statistics of samples drawn from ``frame`` under ``design``.
    ``base_datasets`` restricts the enumeration to explicit starting
    datasets (an adversarial instance); by default every grid assignment is
    a base.
    """

    name: str
    statistic: str
    y_grid: tuple[float, ...]
    size: int | None = None
    weights: tuple[float, ...] | None = None
    n_pop: int | None = None
    x_grid: tuple[float, ...] = ()
    design: Design | None = None
    frame: Frame | None = None
    base_datasets: tuple | None = None
    cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "y_grid", tuple(float(v) for v in self.y_grid))
        object.__setattr__(self, "x_grid", tuple(float(v) for v in self.x_grid))
        if len(set(self.y_grid)) < 2:
            raise ValueError("y_grid needs at least two distinct values")
        if self.design is not None:
            if self.frame is None:
                raise ValueError("a design instance needs a reference frame")
        elif self.size is None and self.weights is None:
            raise ValueError("a flat instance needs size or weights")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.statistic in ("ht_mean",) and self.n_pop is None:
            raise ValueError(f"statistic {self.statistic!r} needs n_pop")
        if self.statistic == "neyman_allocation":
            if not (isinstance(self.design, StratifiedSRSWOR)
                    and self.design.allocation == "neyman"):
                raise ValueError("the allocation statistic needs a stratified design "
                                 "with Neyman allocation")

    @property
    def n_slots(self) -> int:
        if self.design is not None:
            return self.frame.n
        if self.weights is not None:
            return len(self.weights)
        return self.size

    def value_range(self) -> float:
        return max(self.y_grid) - min(self.y_grid)


# ---------------------------------------------------------------------------
# Dataset families and neighbor enumeration
# ---------------------------------------------------------------------------

def _slot_values(instance: AuditInstance, relation: NeighborRelation):
    """The per-record value universe: y alone, or (y, x) pairs."""
    if relation.mutable == "full-record":
        x_grid = instance.x_grid or ((1.0,) if instance.design is None else
                                     tuple(sorted(set(instance.frame.x))))
        return tuple((y, x) for y in instance.y_grid for x in x_grid)
    return instance.y_grid


def _base_datasets(instance: AuditInstance, relation: NeighborRelation):
    if instance.base_datasets is not None:
        return [tuple(d) for d in instance.base_datasets]
    values = _slot_values(instance, relation)
    n = instance.n_slots
    return [ds for ds in itertools.product(values, repeat=n)]


def _mutations(dataset: tuple, instance: AuditInstance, relation: NeighborRelation):
    """Every dataset reachable by replacing one record's mutable fields."""
    values = _slot_values(instance, relation)
    for slot in range(len(dataset)):
        for value in values:
            if value != dataset[slot]:
                yield dataset[:slot] + (value,) + dataset[slot + 1:]


def _pair_count(instance: AuditInstance, relation: NeighborRelation) -> int:
    values = _slot_values(instance, relation)
    n_bases = (len(instance.base_datasets) if instance.base_datasets is not None
               else len(values) ** instance.n_slots)
    return n_bases * instance.n_slots * (len(values) - 1)


def neighbors(instance: AuditInstance, relation: NeighborRelation):
    """Stream of ordered neighbor pairs (base, mutated) over the instance.

    For design instances the datasets are frame-level value assignments.
    The pair count is n_bases * n_slots * (|universe| - 1).
    """
    cap = instance.cap if instance.cap is not None else default_enumeration_cap()
    count = _pair_count(instance, relation)
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    for base in _base_datasets(instance, relation):
        for mutated in _mutations(base, instance, relation):
            yield base, mutated


def _split_y_x(dataset: tuple, instance: AuditInstance, relation: NeighborRelation):
    if relation.mutable == "full-record":
        ys = tuple(v[0] for v in dataset)
        xs = tuple(v[1] for v in dataset)
    else:
        ys = dataset
        xs = tuple(instance.frame.x) if instance.frame is not None else None
    return ys, xs


# ---------------------------------------------------------------------------
# Statistic evaluation
# ---------------------------------------------------------------------------

def _sample_statistic(stat: str, ys, ws, n_pop: int | None) -> float:
    if stat in ("mean", "proportion"):
        return math.fsum(ys) / len(ys)
    if stat == "total":
        return math.fsum(ys)
    if stat == "max":
        return max(ys)
    if stat == "ht_mean":
        return math.fsum(w * y for w, y in zip(ws, ys)) / n_pop
    if stat == "ht_total":
        return math.fsum(w * y for w, y in zip(ws, ys))
    raise ValueError(f"unknown sample statistic {stat!r}")


def _needs_weights(stat: str) -> bool:
    return stat in ("ht_mean", "ht_total")


def _frame_for(instance: AuditInstance, ys, xs) -> Frame:
    frame = instance.frame.with_y(ys)
    if xs is not None and tuple(xs) != tuple(instance.frame.x):
        frame = frame.with_x(xs)
    return frame


class _SampleSpaces:
    """Sampling-stage outcomes and design weights per concrete frame content.

    Both depend on x always and on y only when the design's sample space
    does (Neyman allocation), so datasets sharing that key share one entry.
    ``condition_on_unit`` keeps only the outcomes containing that unit,
    renormalized; it is applied once per entry.  Without a design the
    stage is the identity: every record, probability one, unit weights.
    """

    def __init__(self, instance: AuditInstance, design: Design | None,
                 condition_on_unit: int | None = None):
        self.instance = instance
        self.design = design
        self.condition_on_unit = condition_on_unit
        self._cache: dict = {}

    def get(self, ys, xs):
        """(positions, probs, weights) of the sampling stage on one dataset."""
        if self.design is None:
            return [tuple(range(len(ys)))], [1.0], (1.0,) * len(ys)
        key = (xs, ys if self.design.space_depends_on_y else None)
        if key in self._cache:
            return self._cache[key]
        frame = _frame_for(self.instance, ys, xs)
        pi = inclusion_probs(self.design, frame)
        space = sample_space(self.design, frame, cap=self.instance.cap)
        positions = [tuple(frame.positions(sample)) for sample, _ in space]
        probs = [p for _, p in space]
        if self.condition_on_unit is not None:
            (target,) = frame.positions([self.condition_on_unit])
            kept = [i for i, pos in enumerate(positions) if target in pos]
            mass = math.fsum(probs[i] for i in kept)
            if mass <= 0.0:
                raise ValueError(
                    f"unit {self.condition_on_unit} is never sampled; cannot condition")
            positions = [positions[i] for i in kept]
            probs = [probs[i] / mass for i in kept]
        self._cache[key] = positions, probs, tuple(1.0 / float(v) for v in pi)
        return self._cache[key]


def _coupled_distance(stat: str, d1: tuple, d2: tuple, instance: AuditInstance,
                      relation: NeighborRelation, spaces: _SampleSpaces) -> float:
    """max over feasible id-sets of |f_s(d1) - f_s(d2)| with s held fixed."""
    ys1, xs1 = _split_y_x(d1, instance, relation)
    ys2, xs2 = _split_y_x(d2, instance, relation)
    pos1, _, w1 = spaces.get(ys1, xs1)
    pos2, _, w2 = spaces.get(ys2, xs2)
    common = set(pos1) & set(pos2)
    best = 0.0
    for s in common:
        if not s:
            continue
        f1 = _sample_statistic(stat, [ys1[p] for p in s], [w1[p] for p in s], instance.n_pop)
        f2 = _sample_statistic(stat, [ys2[p] for p in s], [w2[p] for p in s], instance.n_pop)
        best = max(best, abs(f1 - f2))
    return best


def _allocation_vector(instance: AuditInstance, ys) -> tuple[int, ...]:
    design = instance.design
    frame = instance.frame.with_y(ys)
    allocation = allocate_strata(design.allocation, frame, design.n)
    return tuple(allocation[label] for label in sorted(allocation))


def exact_sensitivity(instance: AuditInstance, relation: NeighborRelation) -> Sensitivity:
    """Exact L1 sensitivity: max over all neighbor pairs of the statistic change.

    Flat instances evaluate the statistic on all records.  Design instances
    with frame invariance enumerate samples from the reference frame with
    frozen weights; under 'none'/'population' the frames themselves are the
    datasets and the sample id-set is coupled across each pair.
    """
    stat = instance.statistic
    if instance.design is not None and relation.invariant == "frame":
        return _frame_invariant_sensitivity(instance, relation)

    if instance.design is None:
        def distance(d1, d2):
            ys1, _ = _split_y_x(d1, instance, relation)
            ys2, _ = _split_y_x(d2, instance, relation)
            return abs(_sample_statistic(stat, ys1, instance.weights, instance.n_pop)
                       - _sample_statistic(stat, ys2, instance.weights, instance.n_pop))
    elif stat == "neyman_allocation":
        def distance(d1, d2):
            a1 = _allocation_vector(instance, _split_y_x(d1, instance, relation)[0])
            a2 = _allocation_vector(instance, _split_y_x(d2, instance, relation)[0])
            return float(sum(abs(u - v) for u, v in zip(a1, a2)))
    else:
        spaces = _SampleSpaces(instance, instance.design)

        def distance(d1, d2):
            return _coupled_distance(stat, d1, d2, instance, relation, spaces)

    best = 0.0
    for d1, d2 in neighbors(instance, relation):
        best = max(best, distance(d1, d2))
    return Sensitivity(best)


def _frame_invariant_sensitivity(instance: AuditInstance,
                                 relation: NeighborRelation) -> Sensitivity:
    """Weights frozen at the reference frame; datasets are samples plus the y
    values of their distinct units.  A unit drawn more than once (SRSWR)
    carries its one y value and its weight into every draw."""
    stat = instance.statistic
    samples, probs, weights = _SampleSpaces(instance, instance.design).get(
        instance.frame.y, instance.frame.x)
    units = [tuple(dict.fromkeys(sample)) for sample in samples]

    cap = instance.cap if instance.cap is not None else default_enumeration_cap()
    grid = instance.y_grid
    total = sum(len(grid) ** len(u) * len(u) * (len(grid) - 1) for u in units)
    if total > cap:
        raise EnumerationCapExceeded(total, cap)

    best = 0.0
    for sample, distinct, prob in zip(samples, units, probs):
        if not sample or prob <= 0.0:
            continue
        slot = {pos: i for i, pos in enumerate(distinct)}
        draws = [slot[pos] for pos in sample]
        ws = [weights[pos] for pos in sample]
        for ys in itertools.product(grid, repeat=len(distinct)):
            f1 = _sample_statistic(stat, [ys[i] for i in draws], ws, instance.n_pop)
            for mutated in _mutations(ys, instance, relation):
                f2 = _sample_statistic(stat, [mutated[i] for i in draws], ws, instance.n_pop)
                best = max(best, abs(f1 - f2))
    return Sensitivity(best)


# ---------------------------------------------------------------------------
# Discrete base mechanisms and effective epsilon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomizedResponse:
    """Report the true category with odds e^eps against each alternative."""

    epsilon: float

    def event_probs(self, truth_key, categories) -> dict:
        eps = _epsilon_value(self.epsilon)
        k = len(categories)
        p_true = math.exp(eps) / (math.exp(eps) + k - 1)
        p_other = 1.0 / (math.exp(eps) + k - 1)
        return {cat: (p_true if cat == truth_key else p_other) for cat in categories}


@dataclass(frozen=True)
class DiscretizedLaplace:
    """Laplace release snapped to grid cells, tails lumped into the end cells.

    ``edges`` are the interior cell boundaries; with m edges there are m+1
    cells.  The cell probabilities are exact Laplace CDF differences, so the
    mechanism is eps-DP for statistics with sensitivity <= delta_f.
    """

    epsilon: float
    delta_f: float
    edges: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(float(e) for e in self.edges)))
        if not self.edges:
            raise ValueError("need at least one cell edge")

    def cell_midpoints(self, lo: float, hi: float) -> list[float]:
        """Representative value per cell, clamped to [lo, hi] for the tails."""
        mids = [lo]
        for left, right in zip(self.edges[:-1], self.edges[1:]):
            mids.append((left + right) / 2.0)
        mids.append(hi)
        return mids

    def event_probs(self, truth, categories=None) -> dict:
        scale = self.delta_f / _epsilon_value(self.epsilon)
        if scale == 0.0:
            probs = {}
            cell = sum(1 for edge in self.edges if truth > edge)
            for idx in range(len(self.edges) + 1):
                probs[("cell", idx)] = 1.0 if idx == cell else 0.0
            return probs

        def cdf(t):
            if t < truth:
                return 0.5 * math.exp((t - truth) / scale)
            return 1.0 - 0.5 * math.exp(-(t - truth) / scale)

        probs = {}
        prev = 0.0
        for idx, edge in enumerate(self.edges):
            value = cdf(edge)
            probs[("cell", idx)] = value - prev
            prev = value
        probs[("cell", len(self.edges))] = 1.0 - prev
        return probs


@dataclass(frozen=True)
class SampledReleaseMechanism:
    """Composed pipeline: optional sampling stage, statistic, discrete release.

    ``condition_on_unit`` models an attacker who knows that unit is in the
    sample: the sample space is restricted and renormalized accordingly,
    which removes the amplification the sampling stage would otherwise buy.
    """

    statistic: str
    base: RandomizedResponse | DiscretizedLaplace
    design: Design | None = None
    condition_on_unit: int | None = None

    @property
    def eps_nominal(self) -> float:
        return _epsilon_value(self.base.epsilon)


@dataclass(frozen=True)
class EffectiveEpsilonReport:
    eps_nominal: float
    eps_effective: float
    status: str                       # "ok" | "infinite"
    worst_pair: tuple | None
    worst_event: tuple | None
    n_pairs: int
    categories: tuple | None = None   # randomized-response category keys

    def amplification_ratio(self) -> float:
        return self.eps_effective / self.eps_nominal


def _truth_key(value) -> tuple:
    return ("v", round(value, 12))


def _truths(statistic: str, instance, relation, dataset, spaces):
    """(truth key, probability) of every positive-probability sampling
    outcome of one dataset; the statistic is evaluated once per outcome."""
    ys, xs = _split_y_x(dataset, instance, relation)
    samples, probs, weights = spaces.get(ys, xs)
    if not _needs_weights(statistic):
        weights = None
    for positions, prob in zip(samples, probs):
        if prob <= 0.0:
            continue
        if not positions:
            yield EMPTY_EVENT, prob
            continue
        yield _truth_key(_sample_statistic(
            statistic, [ys[p] for p in positions],
            None if weights is None else [weights[p] for p in positions],
            instance.n_pop)), prob


def _output_distribution(mechanism, instance, relation, dataset, spaces,
                         categories) -> dict:
    dist: dict = {}
    for truth, prob in _truths(mechanism.statistic, instance, relation, dataset, spaces):
        if isinstance(mechanism.base, RandomizedResponse):
            event_probs = mechanism.base.event_probs(truth, categories)
        elif truth == EMPTY_EVENT:
            event_probs = {EMPTY_EVENT: 1.0}
        else:
            event_probs = mechanism.base.event_probs(truth[1])
        for event, p_event in event_probs.items():
            dist[event] = dist.get(event, 0.0) + prob * p_event
    return dist


def _collect_categories(statistic, instance, relation, datasets, spaces):
    """Achievable statistic values over every dataset and feasible sample."""
    return tuple(sorted({truth for dataset in datasets
                         for truth, _ in _truths(statistic, instance, relation,
                                                 dataset, spaces)}))


def _pair_epsilon(dist1: dict, dist2: dict):
    """(eps, event) of the worst event for one ordered pair; eps may be inf."""
    best = (-1.0, None)
    events = sorted(set(dist1) | set(dist2))
    for event in events:
        p = dist1.get(event, 0.0)
        q = dist2.get(event, 0.0)
        if p == 0.0 and q == 0.0:
            continue
        value = math.inf if (p == 0.0 or q == 0.0) else abs(math.log(p / q))
        if value > best[0]:
            best = (value, event)
    return best


def _worst_pair(pairs, distributions: dict):
    """(eps, witness) over ordered neighbor pairs of datasets.

    ``distributions`` maps each dataset to its event probabilities.  The
    witness ``(d1, d2, event)`` is the lexicographically smallest maximizer,
    so it does not depend on the pair order; an event possible under only
    one dataset of a pair is an infinite loss.  With no event at all the
    witness is None.
    """
    best_eps, witness = -1.0, None
    for d1, d2 in pairs:
        value, event = _pair_epsilon(distributions[d1], distributions[d2])
        if event is None:
            continue
        key = (d1, d2, event)
        if value > best_eps or (value == best_eps and key < witness):
            best_eps, witness = value, key
    return best_eps, witness


def _epsilon_report(eps_nominal: float, pairs, distributions: dict,
                    categories=None) -> EffectiveEpsilonReport:
    best_eps, witness = _worst_pair(pairs, distributions)
    if witness is None:
        return EffectiveEpsilonReport(eps_nominal, 0.0, "ok", None, None,
                                      len(pairs), categories)
    d1, d2, event = witness
    status = "infinite" if math.isinf(best_eps) else "ok"
    return EffectiveEpsilonReport(eps_nominal, best_eps, status, (d1, d2), event,
                                  len(pairs), categories)


def effective_epsilon(mechanism: SampledReleaseMechanism, instance: AuditInstance,
                      relation: NeighborRelation) -> EffectiveEpsilonReport:
    """Exact worst-case privacy loss of the composed mechanism.

    Enumerates P(event | dataset) for every dataset reachable from the
    instance's bases and takes the max of |ln(P(e|D)/P(e|D'))| over neighbor
    pairs and events.  An event possible under one dataset but impossible
    under its neighbor is an infinite loss and is reported as a hard
    failure with the witnessing event, distinct from any numeric overflow.
    The reported witness is the lexicographically smallest maximizer, so it
    does not depend on the order in which pairs are scanned.
    """
    if relation.invariant == "frame" and mechanism.design is not None:
        raise ValueError("sampling inside the mechanism requires frame-level neighbors; "
                         "use invariant 'population' or 'none'")
    pairs = list(neighbors(instance, relation))
    datasets = dict.fromkeys(d for pair in pairs for d in pair)

    spaces = _SampleSpaces(instance, mechanism.design, mechanism.condition_on_unit)
    categories = None
    if isinstance(mechanism.base, RandomizedResponse):
        categories = _collect_categories(mechanism.statistic, instance, relation,
                                         datasets, spaces)

    distributions = {
        dataset: _output_distribution(mechanism, instance, relation, dataset,
                                      spaces, categories)
        for dataset in datasets
    }
    return _epsilon_report(mechanism.eps_nominal, pairs, distributions, categories)


def reevaluate_witness(mechanism: SampledReleaseMechanism, instance: AuditInstance,
                       relation: NeighborRelation, report: EffectiveEpsilonReport) -> float:
    """Recompute the privacy loss at the reported worst pair and event."""
    if report.worst_pair is None:
        raise ValueError("report has no witness to re-evaluate")
    d1, d2 = report.worst_pair
    spaces = _SampleSpaces(instance, mechanism.design, mechanism.condition_on_unit)
    dist1 = _output_distribution(mechanism, instance, relation, d1, spaces,
                                 report.categories)
    dist2 = _output_distribution(mechanism, instance, relation, d2, spaces,
                                 report.categories)
    p = dist1.get(report.worst_event, 0.0)
    q = dist2.get(report.worst_event, 0.0)
    if p == 0.0 or q == 0.0:
        return math.inf
    return abs(math.log(p / q))


# ---------------------------------------------------------------------------
# Amplification sweeps
# ---------------------------------------------------------------------------

def design_label(design: Design) -> str:
    kind = type(design).__name__.lower()
    params = {k: v for k, v in vars(design).items()}
    inner = ",".join(f"{k}={v}" for k, v in params.items())
    return f"{kind}[{inner}]"


def amplification_sweep(designs, eps_values, frame: Frame, *, statistic: str = "max",
                        y_grid=(0.0, 1.0), relation: NeighborRelation | None = None,
                        n_pop: int | None = None,
                        base_datasets=None, cap: int | None = None) -> list[dict]:
    """Effective epsilon for every design x epsilon cell; errors stay in-table.

    ``rate_or_maxpi`` records the design's expected sampling rate (max
    inclusion probability for PPS), the quantity amplification scales with.
    """
    relation = relation or NeighborRelation("population", "y-only")
    rows = []
    for design in designs:
        for eps in eps_values:
            row = {"design": design_label(design), "epsilon": float(eps),
                   "rate_or_maxpi": "", "eps_effective": "", "status": "ok"}
            try:
                row["rate_or_maxpi"] = design.sampling_rate(frame)
                instance = AuditInstance(
                    name=f"sweep-{design_label(design)}", statistic=statistic,
                    y_grid=y_grid, design=design, frame=frame, n_pop=n_pop,
                    base_datasets=base_datasets, cap=cap)
                mechanism = SampledReleaseMechanism(
                    statistic=statistic, base=RandomizedResponse(float(eps)), design=design)
                report = effective_epsilon(mechanism, instance, relation)
                row["eps_effective"] = report.eps_effective
                row["status"] = report.status
            except (EnumerationCapExceeded, ValueError) as err:
                row["status"] = f"error: {err}"
            rows.append(row)
    return rows


def write_sweep_csv(rows, target) -> str:
    """Serialize sweep rows as CSV (design,epsilon,rate_or_maxpi,eps_effective,status).

    Fields are quoted where needed: design labels and error messages can
    contain commas.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["design", "epsilon", "rate_or_maxpi", "eps_effective", "status"])
    for row in rows:
        writer.writerow([
            row["design"],
            repr(float(row["epsilon"])),
            "" if row["rate_or_maxpi"] == "" else repr(float(row["rate_or_maxpi"])),
            "" if row["eps_effective"] == "" else repr(float(row["eps_effective"])),
            row["status"],
        ])
    text = buffer.getvalue()
    if target is not None:
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w", newline="") as handle:
                handle.write(text)
    return text


# ---------------------------------------------------------------------------
# Imputation-specific oracles
# ---------------------------------------------------------------------------

def hot_deck_mean_sensitivity(n_records: int, n_missing: int, y_grid) -> Sensitivity:
    """Worst-case sensitivity of the post-hot-deck mean, by enumeration.

    The donor assignment is enumerated alongside the neighbor pairs and held
    fixed across each pair (the coupling an attacker faces when donors are
    realized): each assignment is a flat weighted mean whose weights are the
    donors' multiplicities.  With a single donor serving every missing
    record, replacing that donor moves its own slot plus all copies:
    (1 + n_missing) / n * R.
    """
    if n_missing < 0 or n_records < 1 or n_missing >= n_records:
        raise ValueError("need 0 <= n_missing < n_records with n_records >= 1")
    n_observed = n_records - n_missing
    relation = NeighborRelation("none", "y-only")
    # every donor assignment enumerates the same pairs; cap their total first
    pairs = _pair_count(AuditInstance(name="hot-deck", statistic="ht_mean", y_grid=y_grid,
                                      size=n_observed, n_pop=n_records), relation)
    total, cap = n_observed ** n_missing * pairs, default_enumeration_cap()
    if total > cap:
        raise EnumerationCapExceeded(total, cap)
    best = 0.0
    for assignment in itertools.product(range(n_observed), repeat=n_missing):
        multiplicity = [1] * n_observed
        for donor in assignment:
            multiplicity[donor] += 1
        instance = AuditInstance(name="hot-deck", statistic="ht_mean", y_grid=y_grid,
                                 weights=multiplicity, n_pop=n_records)
        best = max(best, exact_sensitivity(instance, relation).delta_f)
    return Sensitivity(best)


def imputation_composition_epsilon(eps1, eps2, *, y_grid=(0.0, 1.0), n_records: int = 3,
                                   n_missing: int = 1, n_cells: int = 8
                                   ) -> EffectiveEpsilonReport:
    """Exact effective epsilon of DP-fit -> parametric impute -> DP release.

    Both stages use the discretized-Laplace surrogate so the whole output
    distribution is enumerable.  The released output is the joint (fitted
    parameter cell, final statistic cell), the canonical object sequential
    composition bounds by eps1 + eps2.
    """
    eps1 = _epsilon_value(eps1)
    eps2 = _epsilon_value(eps2)
    grid = tuple(sorted(float(v) for v in y_grid))
    lo, hi = grid[0], grid[-1]
    value_range = hi - lo
    n_observed = n_records - n_missing
    if n_observed < 1:
        raise ValueError("need at least one observed record")

    edges = tuple(np.linspace(lo, hi, n_cells + 1))
    fit_mech = DiscretizedLaplace(eps1, value_range / n_observed, edges)
    release_mech = DiscretizedLaplace(eps2, value_range / n_records, edges)
    theta_values = fit_mech.cell_midpoints(lo, hi)

    def joint_distribution(observed):
        fit_truth = math.fsum(observed) / n_observed
        dist = {}
        fit_probs = fit_mech.event_probs(fit_truth)
        for (_, cell1), p1 in fit_probs.items():
            if p1 <= 0.0:
                continue
            theta = theta_values[cell1]
            completed_mean = (math.fsum(observed) + n_missing * theta) / n_records
            for (_, cell2), p2 in release_mech.event_probs(completed_mean).items():
                if p2 <= 0.0:
                    continue
                dist[(cell1, cell2)] = dist.get((cell1, cell2), 0.0) + p1 * p2
        return dist

    instance = AuditInstance(name="imputation-composition", statistic="mean",
                             y_grid=grid, size=n_observed)
    pairs = list(neighbors(instance, NeighborRelation("none", "y-only")))
    datasets = dict.fromkeys(d for pair in pairs for d in pair)
    distributions = {dataset: joint_distribution(dataset) for dataset in datasets}
    return _epsilon_report(eps1 + eps2, pairs, distributions)
