"""Brute-force privacy auditing on desk-scale instances.

Two oracles live here.  ``exact_sensitivity`` enumerates every neighboring
dataset pair allowed by a relation and reports the true worst-case L1
change of a statistic, including the data-dependent-weight regimes where
no closed form exists.  ``effective_epsilon`` enumerates the full output
distribution of a composed mechanism (sampling stage, statistic, discrete
base mechanism) and reports the exact worst-case log probability ratio.

Both run on one enumeration core of numpy tables.  A dataset is a row of
codes into the sorted distinct record values, and the neighbor pairs come
from ``_PairTable`` in bounded chunks of row indices (``neighbors`` only
decodes them).  Datasets sharing a sampling stage form a group
(``_groups``); the statistic is evaluated once per distinct sample size,
mixed-radix key of the in-sample codes and weights (``_stage_truths``).
``exact_sensitivity`` scans a fixed stage sample by sample, else takes the
largest change over the samples both datasets of a pair can draw.
``effective_epsilon`` sums each dataset's outcome probabilities into one
mass histogram over the sorted truth categories, mixes it with the base
mechanism's per-category event probabilities once per distinct histogram,
and scans the pairs with the loss ln(max(p, q) / min(p, q)).

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    Design,
    EnumerationCapExceeded,
    StratifiedSRSWOR,
    allocate_strata,
    check_cap,
    inclusion_probs,
    sample_space,
)
from .frames import Frame, write_csv
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
_CHUNK = 512  # pair rows per numpy pass of a scan
_BATCH = 2 ** 14  # in-sample codes per numpy pass of a truth batch


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
            if self.size is not None or self.weights is not None:
                raise ValueError("a design instance takes its size and weights from the "
                                 "design and frame; do not pass size or weights")
        elif self.size is None and self.weights is None:
            raise ValueError("a flat instance needs size or weights")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if self.size not in (None, len(self.weights)):
                raise ValueError(f"size {self.size} does not match {len(self.weights)} weights")
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


# ---------------------------------------------------------------------------
# Dataset and pair tables
# ---------------------------------------------------------------------------

def _slot_values(instance: AuditInstance, relation: NeighborRelation):
    """The per-record value universe: y alone, or (y, x) pairs."""
    if relation.mutable == "full-record":
        x_grid = instance.x_grid or ((1.0,) if instance.design is None else
                                     tuple(sorted(set(instance.frame.x))))
        return tuple((y, x) for y in instance.y_grid for x in x_grid)
    return instance.y_grid


def _place_values(radix: int, width: int) -> np.ndarray:
    """Mixed-radix digit weights, most significant first (Python ints past int64)."""
    dtype = np.int64 if radix ** width < 2 ** 63 else object
    return np.array([radix ** k for k in range(width - 1, -1, -1)], dtype=dtype)


class _PairTable:
    """Distinct datasets and every ordered neighbor pair between them.

    A dataset is a row of ``codes``, indices into ``values`` (the sorted
    distinct record values), so rows are in the order of the datasets as
    tuples.  Pairs come in chunks, in enumeration order (base, slot, value):
    pair (b, s, j) replaces slot s of base b by ``universe[j]``.  A dataset's
    row is the rank of its mixed-radix key among ``keys``: every key when
    every assignment is a base, else the keys of the bases and their moves.
    """

    def __init__(self, universe: tuple, n_slots: int, bases: list | None = None):
        self.values = sorted(set(universe).union(*(bases or ())))
        code = {value: c for c, value in enumerate(self.values)}
        self.ys = [v[0] if isinstance(v, tuple) else v for v in self.values]
        self.universe, self.bases = universe, bases
        self.raw = np.array([code[v] for v in universe], dtype=np.intp)
        self.place = _place_values(len(self.values), n_slots)
        if bases is None:  # itertools.product order over the universe
            every = np.arange(len(self.raw) ** n_slots)[:, None]
            self.base_codes = self.raw[every // _place_values(len(self.raw), n_slots)
                                       % len(self.raw)]
        else:
            self.base_codes = np.array([[code[v] for v in b] for b in bases],
                                       dtype=np.intp).reshape(len(bases), n_slots)
        self.base_keys = self.base_codes.astype(self.place.dtype) @ self.place
        self.keys = np.arange(len(self.values) ** n_slots) if bases is None else None
        if bases is not None:  # return_index: a bare np.unique imports numpy.ma (numpy 2)
            self.keys, _ = np.unique(np.concatenate(
                [self.base_keys] + [moved for *_, moved in self.chunks()]), return_index=True)
        self.codes = (self.keys[:, None] // self.place % len(self.values)).astype(np.intp)
        # a slot holding code c has one move per universe entry of another code
        other = len(self.raw) - np.bincount(self.raw, minlength=len(self.values))
        self.n_pairs = int(other[self.base_codes].sum())

    def chunks(self):
        """(base, slot, choice, first row, second row) arrays per chunk of pairs."""
        step = max(1, _CHUNK // max(1, self.base_codes.shape[1] * len(self.raw)))
        for start in range(0, len(self.base_codes), step):
            base, slot, choice = np.nonzero(
                self.raw != self.base_codes[start:start + step, :, None])
            base += start
            shift = (self.raw[choice] - self.base_codes[base, slot]).astype(self.place.dtype)
            moved = self.base_keys[base] + shift * self.place[slot]
            if self.bases is None:  # every key is present, so a key is its own row
                yield base, slot, choice, self.base_keys[base], moved
            elif self.keys is None:  # collecting the keys of an explicit-base table
                yield base, slot, choice, None, moved
            else:
                yield (base, slot, choice, np.searchsorted(self.keys, self.base_keys[base]),
                       np.searchsorted(self.keys, moved))

    def dataset(self, row) -> tuple:
        return tuple(self.values[c] for c in self.codes[row].tolist())

    def pair(self, b: int, s: int, j: int) -> tuple[tuple, tuple]:
        """The (base, mutated) datasets of one pair, as ``neighbors`` yields them."""
        base = (self.bases[b] if self.bases is not None else
                tuple(self.values[c] for c in self.base_codes[b].tolist()))
        return base, base[:s] + (self.universe[j],) + base[s + 1:]


def _pairs(instance: AuditInstance, relation: NeighborRelation, bases=None) -> _PairTable:
    """The instance's pair table; the cap and the records of the bases are
    checked before anything is built."""
    values, given = _slot_values(instance, relation), instance.base_datasets
    n_bases = len(values) ** instance.n_slots if given is None else len(given)
    check_cap(n_bases * instance.n_slots * (len(values) - 1), instance.cap)
    if bases is None and given is not None:
        bases = [tuple(d) for d in given]
    full = relation.mutable == "full-record"
    for b, base in enumerate(bases or ()):
        for s, record in enumerate(base):
            if isinstance(record, tuple) != full or (full and len(record) != 2):
                raise ValueError(f"base {b}, record {s}: {relation.mutable} neighbors need "
                                 f"{'a (y, x) pair' if full else 'a y value'}, got {record!r}")
    return _PairTable(values, instance.n_slots, bases)


def neighbors(instance: AuditInstance, relation: NeighborRelation):
    """Stream of ordered neighbor pairs (base, mutated) over the instance.

    For design instances the datasets are frame-level value assignments.
    The pair count is n_bases * n_slots * (|universe| - 1).
    """
    table = _pairs(instance, relation)
    for base, slot, choice, _, _ in table.chunks():
        for b, s, j in zip(base.tolist(), slot.tolist(), choice.tolist()):
            yield table.pair(b, s, j)


def _split_y_x(dataset: tuple, instance: AuditInstance, relation: NeighborRelation):
    if relation.mutable == "full-record":
        ys = tuple(v[0] for v in dataset)
        xs = tuple(v[1] for v in dataset)
    else:
        ys = dataset
        xs = tuple(instance.frame.x) if instance.frame is not None else None
    return ys, xs


# ---------------------------------------------------------------------------
# Sampling stages and truth tables
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


def _sampling_stage(instance: AuditInstance, ys=None, xs=None,
                    condition_on_unit: int | None = None):
    """(positions, probs, weights) of the instance's sampling stage on one dataset.

    Outcomes and design weights depend on x always and on y only when the
    design's sample space does (Neyman allocation); ``ys`` and ``xs`` default
    to the reference frame's.  Outcomes of probability zero are impossible and
    left out.  ``condition_on_unit`` keeps only the outcomes containing that
    unit, renormalized.  Without a design the stage is the identity: every
    record, probability one, and the instance's weights (unit by default).
    """
    if instance.design is None:
        n = instance.n_slots
        return [tuple(range(n))], [1.0], instance.weights or (1.0,) * n
    frame = instance.frame if ys is None else instance.frame.with_y(ys)
    if xs is not None and tuple(xs) != tuple(instance.frame.x):
        frame = frame.with_x(xs)
    pi = inclusion_probs(instance.design, frame)
    space = [(s, p) for s, p in sample_space(instance.design, frame, cap=instance.cap) if p > 0.0]
    found = iter(frame.positions([unit for sample, _ in space for unit in sample]))
    positions = [tuple(itertools.islice(found, len(sample))) for sample, _ in space]
    probs = [p for _, p in space]
    if condition_on_unit is not None:
        (target,) = frame.positions([condition_on_unit])
        kept = [i for i, pos in enumerate(positions) if target in pos]
        mass = math.fsum(probs[i] for i in kept)
        if mass <= 0.0:
            raise ValueError(f"unit {condition_on_unit} is never sampled; cannot condition")
        positions = [positions[i] for i in kept]
        probs = [probs[i] / mass for i in kept]
    return positions, probs, tuple(1.0 / float(v) for v in pi)


def _groups(table: _PairTable, instance, relation, **stage):
    """[(rows, (positions, probs, weights))]: the datasets that share one
    sampling stage, which is built once per group (``stage`` holds the
    options of ``_sampling_stage``)."""
    n, design = len(table.codes), instance.design
    if design is None or not (design.space_depends_on_y or relation.mutable == "full-record"):
        return [(np.arange(n), _sampling_stage(instance, **stage))] if n else []
    keyed: dict = {}
    for row in range(n):
        ys, xs = _split_y_x(table.dataset(row), instance, relation)
        key = (xs, ys if design.space_depends_on_y else None)
        keyed.setdefault(key, (ys, xs, []))[2].append(row)
    return [(np.array(rows, dtype=np.intp), _sampling_stage(instance, ys, xs, **stage))
            for ys, xs, rows in keyed.values()]


def _stage_truths(stat: str, table: _PairTable, rows, positions, weights, n_pop,
                  cache: dict, convert=float):
    """Yield (js, values): values[i, r] is the statistic of dataset rows[r] on
    the non-empty sample positions[js[i]], passed through ``convert``.  Samples
    are batched by size k and in-sample weights, about ``_BATCH`` codes at a
    time; a batch keys each in-sample code pattern as a mixed-radix integer with
    one matmul, and ``cache`` maps each distinct (k, key, weights) to a truth."""
    batches: dict = {}
    for j, sample in enumerate(positions):
        if sample:
            ws = tuple(weights[p] for p in sample) if stat in ("ht_mean", "ht_total") else None
            batches.setdefault((len(sample), ws), []).append(j)
    radix = len(table.values)  # slots[p, r]: the code of dataset rows[r] at position p
    slots = table.codes[rows].T.astype(np.min_scalar_type(radix - 1), order="C")
    for (k, ws), js in batches.items():
        place = _place_values(radix, k).astype(np.min_scalar_type(radix ** k - 1))
        step = max(1, _BATCH // (len(rows) * k))
        for start in range(0, len(js), step):
            chunk = js[start:start + step]
            sub = slots[[positions[j] for j in chunk]].astype(place.dtype, copy=False)
            keys, first, inverse = np.unique(place @ sub, return_index=True,
                                             return_inverse=True)
            values = []
            for key, at in zip(keys.tolist(), first.tolist()):
                if (k, key, ws) not in cache:
                    i, r = divmod(at, len(rows))
                    ys = [table.ys[c] for c in sub[i, :, r].tolist()]
                    cache[k, key, ws] = convert(_sample_statistic(stat, ys, ws, n_pop))
                values.append(cache[k, key, ws])
            yield chunk, np.array(values)[inverse.reshape(len(chunk), len(rows))]


def _truth_matrix(stat: str, table: _PairTable, groups, n_pop) -> np.ndarray:
    """The statistic of every dataset (row) on every distinct non-empty sample
    (column); NaN where the dataset's sampling stage lacks the sample."""
    columns: dict = {}
    for _, (positions, _, _) in groups:
        columns.update((s, len(columns)) for s in positions if s and s not in columns)
    truth = np.full((len(table.codes), len(columns)), np.nan)
    cache: dict = {}
    for rows, (positions, _, weights) in groups:
        for js, values in _stage_truths(stat, table, rows, positions, weights, n_pop, cache):
            truth[rows[:, None], [columns[positions[j]] for j in js]] = values.T
    return truth


def _max_change(table: _PairTable, values: np.ndarray, l1: bool = False) -> float:
    """The largest change of a dataset's row of ``values`` over the pairs: per
    entry, or the L1 norm; NaN entries (samples only one stage has) are skipped."""
    best = 0.0
    for *_, first, second in table.chunks():
        change = np.abs(values[first] - values[second])
        best = float(np.fmax.reduce(change.sum(axis=1) if l1 else change, axis=None,
                                    initial=best))
    return best


# ---------------------------------------------------------------------------
# Exact sensitivity
# ---------------------------------------------------------------------------

def _allocation_vector(instance: AuditInstance, ys) -> tuple[int, ...]:
    design = instance.design
    frame = instance.frame.with_y(ys)
    allocation = allocate_strata(design.allocation, frame, design.n)
    return tuple(allocation[label] for label in sorted(allocation))


def exact_sensitivity(instance: AuditInstance, relation: NeighborRelation) -> Sensitivity:
    """Exact L1 sensitivity: max over all neighbor pairs of the statistic change.

    A fixed sampling stage (frame invariance, which ignores ``base_datasets``;
    or y-only neighbors of every assignment where the space ignores y) is
    scanned sample by sample.  Otherwise the frames are the datasets and the
    sample id-set is coupled across each pair: the change is taken on every
    sample both datasets' spaces contain.  The Neyman allocation statistic is
    the L1 change of the allocation vector.
    """
    design = instance.design
    if (design is not None and relation.invariant == "frame") or (
            relation.mutable == "y-only" and instance.base_datasets is None
            and not (design is not None and design.space_depends_on_y)):
        samples, _, weights = _sampling_stage(instance)
        return Sensitivity(_scan_tables(instance, _sample_tables(samples, weights)))
    table = _pairs(instance, relation)
    if instance.statistic == "neyman_allocation":
        allocations = np.array([
            _allocation_vector(instance, _split_y_x(table.dataset(row), instance, relation)[0])
            for row in range(len(table.codes))], dtype=float).reshape(len(table.codes), -1)
        return Sensitivity(_max_change(table, allocations, l1=True))
    groups = _groups(table, instance, relation)
    truth = _truth_matrix(instance.statistic, table, groups, instance.n_pop)
    return Sensitivity(_max_change(table, truth))


def _sample_tables(samples, weights) -> dict:
    """{(draw pattern, weights of its distinct units): their count} per non-empty
    sample; a unit drawn twice (SRSWR, a hot-deck donor) has one y and one weight."""
    tables: dict = {}
    for sample in filter(None, samples):
        slot = {pos: i for i, pos in enumerate(dict.fromkeys(sample))}
        tables[tuple(slot[pos] for pos in sample), tuple(weights[pos] for pos in slot)] = len(slot)
    return tables


def _scan_tables(instance: AuditInstance, tables: dict) -> float:
    """Max change over y-only neighbors of each table's units; the cap counts their pairs."""
    grid = instance.y_grid
    check_cap(sum(len(grid) ** n * n * (len(grid) - 1) for n in tables.values()), instance.cap)
    best = 0.0
    for (draws, ws), n in tables.items():
        table = _PairTable(grid, n)
        groups = [(np.arange(len(table.codes)), ([draws], [1.0], ws))]
        best = max(best, _max_change(table, _truth_matrix(instance.statistic, table, groups,
                                                          instance.n_pop)))
    return best


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

    def event_probs(self, truth) -> dict:
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


def _truth_key(value) -> tuple:
    return ("v", round(value, 12))


def _histograms(mechanism, instance, relation, bases=None):
    """(table, hist, categories): the instance's pair table (over ``bases``
    if given), and hist[d, c], the probability that dataset d's sampling
    stage yields truth categories[c]; categories are sorted.  The mechanism
    must release the instance's statistic under the instance's design.

    The empty sample is the category ``EMPTY_EVENT``.  Categories per
    (sample, dataset) are held in the narrowest unsigned type, then one
    outcome is added at a time in space order, with each cell's rounding
    errors carried in ``error`` (TwoSum), so a mass is rounded once: equal
    exact masses give equal histograms, however many outcomes make them up.
    """
    if (mechanism.statistic, mechanism.design) != (instance.statistic, instance.design):
        raise ValueError(f"mechanism ({mechanism.statistic!r}, {mechanism.design!r}) does not "
                         f"match the instance's ({instance.statistic!r}, {instance.design!r})")
    table = _pairs(instance, relation, bases)
    stat, index, cache, stages = mechanism.statistic, {}, {}, []

    def column(truth) -> int:
        return index.setdefault(truth if truth == EMPTY_EVENT else _truth_key(truth), len(index))

    for rows, (positions, probs, weights) in _groups(
            table, instance, relation, condition_on_unit=mechanism.condition_on_unit):
        cat = np.zeros((len(positions), len(rows)), dtype=np.min_scalar_type(len(index) + 1))
        for j in [j for j, sample in enumerate(positions) if not sample]:
            cat[j] = column(EMPTY_EVENT)
        for js, values in _stage_truths(stat, table, rows, positions, weights, instance.n_pop,
                                        cache, column):
            cat = cat.astype(np.min_scalar_type(len(index)), copy=False)  # fits every column
            cat[js] = values
        stages.append((rows, probs, cat))
    width = len(index)
    hist, error = np.zeros(len(table.codes) * width), np.zeros(len(table.codes) * width)
    for rows, probs, cat in stages:
        at = rows * width
        for prob, columns in zip(probs, cat):
            cells = at + columns
            before = hist[cells]
            hist[cells] = total = before + prob
            part = total - before
            error[cells] += (before - (total - part)) + (prob - part)
    categories = tuple(sorted(index))
    order = [index[c] for c in categories]
    return table, (hist + error).reshape(len(table.codes), width)[:, order], categories


def _distributions(base, hist: np.ndarray, categories: tuple, rr_categories=None):
    """(events, dist, of): dataset d's output distribution over the sorted
    events is dist[of[d]].  The base mechanism is one row of event
    probabilities per category (randomized response over ``rr_categories``,
    by default ``categories``), mixed once per distinct histogram in a fixed
    summation order, so a row does not depend on the other histograms."""
    rows = [base.event_probs(truth, rr_categories or categories)
            if isinstance(base, RandomizedResponse) else
            {EMPTY_EVENT: 1.0} if truth == EMPTY_EVENT else base.event_probs(truth[1])
            for truth in categories]
    events = sorted(set().union(*rows))
    matrix = np.array([[row.get(e, 0.0) for e in events] for row in rows])
    hist = np.ascontiguousarray(hist)
    keys = hist.view(np.dtype((np.void, hist.itemsize * len(categories)))).reshape(-1)
    _, first, of = np.unique(keys, return_index=True, return_inverse=True)
    of = of.reshape(-1)  # numpy 2.0 shapes the inverse like its input
    dist = np.zeros((len(first), len(events)))
    for c in range(len(categories)):
        dist += hist[first, c, None] * matrix[c]
    return events, dist, of


def _loss(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|ln(p/q)| as ln(max/min), exactly symmetric in p and q: inf where one
    side is zero, -1 where both are (no event)."""
    high, low = np.maximum(p, q), np.minimum(p, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.log(high / low)
    loss[high == 0.0] = -1.0
    return loss


def _epsilon_report(eps_nominal, table: _PairTable, dist, of, events,
                    categories=None) -> EffectiveEpsilonReport:
    """The worst pair over the table's chunks, scanned with ``_loss``.

    Rows are numbered in dataset tuple order and events are sorted, so the
    witness kept here, the smallest (first, second) among the maximizing
    pairs with its first maximizing event, is the lexicographically smallest
    maximizer: it does not depend on the pair order.  An event possible
    under only one dataset of a pair is an infinite loss; with no event at
    all the witness is None.
    """
    best, witness = -1.0, None
    for base, slot, choice, first, second in table.chunks():
        if not len(first):
            continue
        loss = _loss(dist[of[first]], dist[of[second]])
        worst = loss.argmax(axis=1)
        values = loss[np.arange(len(first)), worst]
        top = float(values.max())
        if top < 0.0 or top < best:
            continue
        tied = np.flatnonzero(values == top)
        i = tied[np.lexsort((second[tied], first[tied]))[0]]
        rows = (int(first[i]), int(second[i]))
        if top > best or rows < witness[0]:
            best, witness = top, (rows, (int(base[i]), int(slot[i]), int(choice[i])),
                                  events[int(worst[i])])
    if witness is None:
        return EffectiveEpsilonReport(eps_nominal, 0.0, "ok", None, None, table.n_pairs,
                                      categories)
    _, pair, event = witness
    status = "infinite" if math.isinf(best) else "ok"
    return EffectiveEpsilonReport(eps_nominal, best, status, table.pair(*pair), event,
                                  table.n_pairs, categories)


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
    table, hist, categories = _histograms(mechanism, instance, relation)
    events, dist, of = _distributions(mechanism.base, hist, categories)
    rr = isinstance(mechanism.base, RandomizedResponse)
    return _epsilon_report(mechanism.eps_nominal, table, dist, of, events,
                           categories if rr else None)


def reevaluate_witness(mechanism: SampledReleaseMechanism, instance: AuditInstance,
                       relation: NeighborRelation, report: EffectiveEpsilonReport) -> float:
    """Recompute the privacy loss at the reported worst pair and event.

    The two witness datasets (and their neighbors) go through the same
    histograms, mixing and loss as in ``effective_epsilon``, so the result
    equals the report's ``eps_effective`` exactly.
    """
    if report.worst_pair is None:
        raise ValueError("report has no witness to re-evaluate")
    table, hist, categories = _histograms(mechanism, instance, relation,
                                          list(report.worst_pair))
    events, dist, of = _distributions(mechanism.base, hist, categories, report.categories)
    p_q = dist[of[np.searchsorted(table.keys, table.base_keys)],
               events.index(report.worst_event)]
    return float(_loss(p_q[:1], p_q[1:])[0])


# ---------------------------------------------------------------------------
# Amplification sweeps
# ---------------------------------------------------------------------------

def design_label(design: Design) -> str:
    kind = type(design).__name__.lower()
    inner = ",".join(f"{k}={v}" for k, v in vars(design).items())
    return f"{kind}[{inner}]"


def amplification_sweep(designs, eps_values, frame: Frame, *, statistic: str = "max",
                        base_datasets=None, cap: int | None = None) -> list[dict]:
    """Effective epsilon for every design x epsilon cell; errors stay in-table.

    Cells audit y in {0, 1} under population-invariant y-only neighbors.
    ``rate_or_maxpi`` records the design's expected sampling rate (max
    inclusion probability for PPS), the quantity amplification scales with.
    """
    relation = NeighborRelation("population", "y-only")
    rows = []
    for design in designs:
        for eps in eps_values:
            row = {"design": design_label(design), "epsilon": float(eps),
                   "rate_or_maxpi": "", "eps_effective": "", "status": "ok"}
            try:
                row["rate_or_maxpi"] = design.sampling_rate(frame)
                instance = AuditInstance(
                    name=f"sweep-{design_label(design)}", statistic=statistic,
                    y_grid=(0.0, 1.0), design=design, frame=frame,
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
    return write_csv(["design", "epsilon", "rate_or_maxpi", "eps_effective", "status"], (
        [row["design"],
         repr(float(row["epsilon"])),
         "" if row["rate_or_maxpi"] == "" else repr(float(row["rate_or_maxpi"])),
         "" if row["eps_effective"] == "" else repr(float(row["eps_effective"])),
         row["status"]] for row in rows), target)


# ---------------------------------------------------------------------------
# Imputation-specific oracles
# ---------------------------------------------------------------------------

def hot_deck_mean_sensitivity(n_records: int, n_missing: int, y_grid) -> Sensitivity:
    """Worst-case sensitivity of the post-hot-deck mean, by enumeration.

    The donor assignment is enumerated alongside the neighbor pairs and held
    fixed across each pair (the coupling an attacker faces when donors are
    realized): each assignment is the sample of the observed records plus
    its donors, a donor drawn once more like a unit SRSWR draws twice.
    With a single donor serving every missing record, replacing that donor
    moves its own slot plus all copies: (1 + n_missing) / n * R.
    """
    if n_missing < 0 or n_records < 1 or n_missing >= n_records:
        raise ValueError("need 0 <= n_missing < n_records with n_records >= 1")
    n_observed = n_records - n_missing
    instance = AuditInstance(name="hot-deck", statistic="ht_mean", y_grid=y_grid,
                             size=n_observed, n_pop=n_records)
    # every donor assignment has a pair table of its own; cap their total first
    k, observed = len(instance.y_grid), tuple(range(n_observed))
    check_cap(n_observed ** n_missing * k ** n_observed * n_observed * (k - 1))
    samples = [observed + donors for donors in itertools.product(observed, repeat=n_missing)]
    return Sensitivity(_scan_tables(instance, _sample_tables(samples, (1.0,) * n_observed)))


def imputation_composition_epsilon(eps1, eps2, *, n_records: int = 3) -> EffectiveEpsilonReport:
    """Exact effective epsilon of DP-fit -> parametric impute -> DP release.

    y takes values in {0, 1} and one of the ``n_records`` records is
    missing.  Both stages use the discretized-Laplace surrogate on 8 equal
    cells of [0, 1] plus the two tails, so the whole output distribution is
    enumerable.  The released output is the joint (fitted parameter cell,
    final statistic cell), the canonical object sequential composition
    bounds by eps1 + eps2.
    """
    eps1 = _epsilon_value(eps1)
    eps2 = _epsilon_value(eps2)
    n_observed = n_records - 1
    if n_observed < 1:
        raise ValueError("need at least one observed record")

    edges = tuple(np.linspace(0.0, 1.0, 9))
    fit_mech = DiscretizedLaplace(eps1, 1.0 / n_observed, edges)
    release_mech = DiscretizedLaplace(eps2, 1.0 / n_records, edges)
    theta_values = fit_mech.cell_midpoints(0.0, 1.0)

    def joint_distribution(observed):
        fit_truth = math.fsum(observed) / n_observed
        dist = {}
        fit_probs = fit_mech.event_probs(fit_truth)
        for (_, cell1), p1 in fit_probs.items():
            if p1 <= 0.0:
                continue
            theta = theta_values[cell1]
            completed_mean = (math.fsum(observed) + theta) / n_records
            for (_, cell2), p2 in release_mech.event_probs(completed_mean).items():
                if p2 <= 0.0:
                    continue
                dist[(cell1, cell2)] = dist.get((cell1, cell2), 0.0) + p1 * p2
        return dist

    instance = AuditInstance(name="imputation-composition", statistic="mean",
                             y_grid=(0.0, 1.0), size=n_observed)
    table = _pairs(instance, NeighborRelation("none", "y-only"))
    joint = [joint_distribution(table.dataset(row)) for row in range(len(table.codes))]
    events = sorted(set().union(*joint))
    dist = np.array([[d.get(e, 0.0) for e in events] for d in joint])
    return _epsilon_report(eps1 + eps2, table, dist, np.arange(len(dist)), events)
