"""Sampling designs: inclusion probabilities, weights, draws, enumeration.

Eight designs are supported: simple random sampling with and without
replacement, Poisson sampling, stratified SRSWOR (proportional or
Neyman allocation), single-stage cluster sampling, fixed-size probability
proportional to size (PPS), systematic sampling (frame or random
ordering), and two-stage sampling (clusters, then a design inside each).
Each is one ``Design`` subclass.  Every design can, at desk scale,
enumerate its full sample space exactly; that enumeration is the ground
truth the audit oracle builds on, so probabilities are computed with exact
rational arithmetic wherever the design permits.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .frames import Frame, _column, _frozen

__all__ = [
    "Design",
    "SRSWR",
    "SRSWOR",
    "Poisson",
    "StratifiedSRSWOR",
    "ClusterSRSWOR",
    "PPS",
    "Systematic",
    "TwoStageDesign",
    "WeightedSample",
    "EnumerationCapExceeded",
    "check_cap",
    "CertaintyUnitError",
    "PPSCalibrationError",
    "default_enumeration_cap",
    "inclusion_probs",
    "allocate_strata",
    "draw",
    "sample_space",
    "build_sample",
]

ENUM_CAP_ENV = "DPSURVEY_ENUM_CAP"
DEFAULT_ENUM_CAP = 10 ** 6


def default_enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


class EnumerationCapExceeded(Exception):
    """Sample-space enumeration refused: the outcome count exceeds the cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"intractable enumeration: {count} outcomes exceed cap {cap}")


def check_cap(count: int) -> None:
    """Refuse an enumeration of ``count`` outcomes above the cap, ``DPSURVEY_ENUM_CAP``."""
    cap = default_enumeration_cap()
    if count > cap:
        raise EnumerationCapExceeded(count, cap)


class PPSCalibrationError(RuntimeError):
    """Conditional-Poisson calibration failed, or its odds left a count-tree node no split
    weight; ``residual`` is the last max error, or that node's split-weight total."""

    def __init__(self, reason: str, residual: float):
        self.residual = residual
        super().__init__(f"conditional Poisson calibration {reason} (residual {residual:.3e})")


class CertaintyUnitError(ValueError):
    """A PPS design assigns an inclusion probability above one."""

    def __init__(self, unit_id: int, pi: float):
        self.unit_id = unit_id
        self.pi = pi
        super().__init__(
            f"PPS inclusion probability for unit {unit_id} is {pi:.6g} > 1; "
            "reduce n or rescale the size measure")


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """A sample's rows in sample order: frame positions, and inclusion probabilities,
    weights and y as read-only float columns.  ``ids`` is a tuple view.

    A unit drawn more than once (SRSWR) fills one row per draw.  ``w`` starts as 1/pi;
    adjustment replaces it via :meth:`with_weights`, leaving ``pi`` untouched.
    """

    frame: Frame
    positions: np.ndarray
    pi: np.ndarray
    w: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name, dtype in {"positions": np.intp, "pi": float, "w": float, "y": float}.items():
            object.__setattr__(self, name, _column(getattr(self, name), dtype))
        if not len(self.positions) == len(self.pi) == len(self.w) == len(self.y):
            raise ValueError("sample columns must have equal length")
        ok_pi = (self.pi > 0.0) & (self.pi <= 1.0)
        ok = ok_pi & (self.w > 0.0) & (self.w < math.inf)
        if not ok.all():  # the first bad pi, else the first bad weight
            i = int(np.argmin(ok if ok_pi.all() else ok_pi))
            fault = (f"weight {self.w[i].item()!r} must be positive and finite" if ok_pi[i]
                     else f"inclusion probability {self.pi[i].item()!r} outside (0, 1]")
            raise ValueError(f"unit {self.frame.id_array[self.positions[i]]}: {fault}")

    ids = functools.cached_property(
        lambda self: tuple(self.frame.id_array[self.positions].tolist()))
    size = property(lambda self: len(self.positions))

    def units(self) -> tuple[np.ndarray, np.ndarray]:
        """(each distinct unit's first row, each row's unit number): the one rule
        for repeated draws, under which a unit drawn more than once is one unit."""
        return np.unique(self.positions, return_index=True, return_inverse=True)[1:]

    def take(self, rows) -> "WeightedSample":
        """The rows at the given row indices or boolean mask, in that order."""
        return WeightedSample(self.frame, *(_frozen(column[rows]) for column in
                                            (self.positions, self.pi, self.w, self.y)))

    def with_weights(self, new_w) -> "WeightedSample":
        return replace(self, w=new_w)

    def with_y(self, new_y) -> "WeightedSample":
        return replace(self, y=new_y)


def _validate_fixed_size(n: int, available: int, what: str):
    if not (1 <= n <= available):
        raise ValueError(f"{what}: sample size {n} not in [1, {available}]")


class Design:
    """A sampling design; each design kind is one subclass.

    A subclass implements ``pi(frame)``, the per-unit inclusion
    probabilities; ``draw(frame, rng)``, one sample as sorted frame
    positions; ``space(frame)``, every sample as frame positions, like
    ``draw``, with its probability, uncapped; and ``space_size``, its count.
    The module functions of the same purpose validate, cap and delegate;
    ``sample_space`` also names the units by id.
    ``sampling_rate`` defaults to the mean inclusion probability, and
    ``space_depends_on_y`` is true when the sample space moves with the
    response values, not only with the size measures.
    """

    space_depends_on_y = False

    def sampling_rate(self, frame: Frame) -> float:
        return float(np.sum(inclusion_probs(self, frame)) / frame.n)


@dataclass(frozen=True)
class SRSWR(Design):
    """Simple random sampling with replacement: n independent uniform draws."""
    n: int

    def pi(self, frame):
        if self.n < 1:
            raise ValueError(f"SRSWR: number of draws must be >= 1, got {self.n}")
        return np.full(frame.n, 1.0 - (1.0 - 1.0 / frame.n) ** self.n)

    def draw(self, frame, rng):
        return sorted(int(i) for i in rng.integers(0, frame.n, size=self.n))

    def space_size(self, frame):
        return math.comb(frame.n + self.n - 1, self.n)

    def space(self, frame):
        outcomes = []
        base = Fraction(1, frame.n ** self.n)
        for combo in itertools.combinations_with_replacement(range(frame.n), self.n):
            multiplicity = math.factorial(self.n)
            for _, group in itertools.groupby(combo):
                multiplicity //= math.factorial(len(list(group)))
            outcomes.append((combo, float(base * multiplicity)))
        return outcomes


@dataclass(frozen=True)
class SRSWOR(Design):
    """Simple random sampling without replacement, fixed size n."""
    n: int

    def pi(self, frame):
        _validate_fixed_size(self.n, frame.n, "SRSWOR")
        return np.full(frame.n, self.n / frame.n)

    def draw(self, frame, rng):
        return sorted(int(i) for i in rng.choice(frame.n, size=self.n, replace=False))

    def space_size(self, frame):
        return math.comb(frame.n, self.n)

    def space(self, frame):
        prob = 1.0 / math.comb(frame.n, self.n)
        return [(combo, prob) for combo in itertools.combinations(range(frame.n), self.n)]


@dataclass(frozen=True)
class Poisson(Design):
    """Independent Bernoulli(rate) inclusion per unit."""
    rate: float

    def pi(self, frame):
        if not (0.0 < self.rate <= 1.0):
            raise ValueError(f"Poisson rate must be in (0, 1], got {self.rate!r}")
        return np.full(frame.n, self.rate)

    def draw(self, frame, rng):
        return np.flatnonzero(rng.random(frame.n) < self.rate).tolist()

    def space_size(self, frame):
        return 2 ** frame.n

    def space(self, frame):
        n_frame = frame.n
        by_size = [(self.rate ** k) * ((1.0 - self.rate) ** (n_frame - k))
                   for k in range(n_frame + 1)]
        return [(tuple(itertools.compress(range(n_frame), mask)), by_size[sum(mask)])
                for mask in itertools.product((0, 1), repeat=n_frame)]

    def sampling_rate(self, frame):
        inclusion_probs(self, frame)  # validates the rate
        return self.rate


@dataclass(frozen=True)
class StratifiedSRSWOR(Design):
    """SRSWOR within strata; total size n split by the allocation rule."""
    n: int
    allocation: str = "proportional"  # "proportional" | "neyman"

    def __post_init__(self):
        if self.allocation not in ("proportional", "neyman"):
            raise ValueError(f"unknown allocation {self.allocation!r}")

    @property
    def space_depends_on_y(self) -> bool:
        # Neyman allocation follows the within-stratum spread of y
        return self.allocation == "neyman"

    def pi(self, frame):
        allocation = allocate_strata(self.allocation, frame, self.n)
        n_h = np.array([allocation[label] for label in frame.stratum_names])
        return (n_h / np.bincount(frame.stratum_codes))[frame.stratum_codes]

    def draw(self, frame, rng):
        allocation = allocate_strata(self.allocation, frame, self.n)
        return np.sort(np.concatenate([
            positions[rng.choice(len(positions), size=allocation[label], replace=False)]
            for label, positions in frame.strata().items()])).tolist()

    def space_size(self, frame):
        allocation = allocate_strata(self.allocation, frame, self.n)
        size = 1
        for label, positions in frame.strata().items():
            size *= math.comb(len(positions), allocation[label])
        return size

    def space(self, frame):
        allocation, prob = allocate_strata(self.allocation, frame, self.n), 1.0
        per_stratum = [list(itertools.combinations(positions.tolist(), allocation[label]))
                       for label, positions in frame.strata().items()]
        for combos in per_stratum:
            prob /= len(combos)
        return [(tuple(sorted(p for group in pick for p in group)), prob)
                for pick in itertools.product(*per_stratum)]


@dataclass(frozen=True)
class ClusterSRSWOR(Design):
    """Select m clusters by SRSWOR and observe every unit in them."""
    m: int

    def pi(self, frame):
        cluster_map = frame.clusters()
        _validate_fixed_size(self.m, len(cluster_map), "ClusterSRSWOR")
        return np.full(frame.n, self.m / len(cluster_map))

    def pick(self, frame: Frame, rng: np.random.Generator) -> list[np.ndarray]:
        """Member positions of each selected cluster, in cluster-label order."""
        members = list(frame.clusters().values())
        picks = rng.choice(len(members), size=self.m, replace=False)
        return [members[i] for i in sorted(int(i) for i in picks)]

    def draw(self, frame, rng):
        return np.sort(np.concatenate(self.pick(frame, rng))).tolist()

    def space_size(self, frame):
        return math.comb(len(frame.clusters()), self.m)

    def space(self, frame):
        clusters = [members.tolist() for members in frame.clusters().values()]
        prob = 1.0 / math.comb(len(clusters), self.m)
        return [(tuple(sorted(p for members in combo for p in members)), prob)
                for combo in itertools.combinations(clusters, self.m)]


@dataclass(frozen=True)
class PPS(Design):
    """Fixed-size inclusion probabilities proportional to the size measure x.

    pi_i = n * x_i / sum(x).  The joint design is conditional Poisson
    (rejective) sampling calibrated so the marginals hit those targets; units
    of equal x share one working odds, calibrated once per size class.
    """
    n: int

    def pi(self, frame):
        _validate_fixed_size(self.n, frame.n, "PPS")
        x = frame.x_array
        try:
            total = math.fsum(x)
        except OverflowError:
            raise ValueError("PPS: the size measures x sum past the float range") from None
        with np.errstate(over="ignore"):  # n x past the float range: pi > 1, reported below
            pi = self.n * x / total
        over = pi > 1.0 + 1e-12
        if over.any():
            i = int(np.argmax(over))
            raise CertaintyUnitError(int(frame.id_array[i]), float(
                pi[i] if pi[i] < math.inf else x[i] / total * self.n))
        return np.minimum(pi, 1.0)

    def _split(self, frame: Frame, pi: np.ndarray | None = None):
        """Certainty units, the other units' positions, their sample size, calibrated odds,
        count tree (None if no unit is left to draw) and positions leaf by leaf, cached by
        (n, pi); ``pi``, when given, is this design's inclusion_probs on the frame."""
        if pi is None:
            pi = inclusion_probs(self, frame)
        return _pps_split_cached(self.n, pi.tobytes())

    def draw(self, frame, rng, pi=None):
        certain, _, _, _, tree, units = self._split(frame, pi)
        return sorted(certain + ([] if tree is None else tree.draw(rng, units).tolist()))

    def space_size(self, frame):
        certain = np.count_nonzero(inclusion_probs(self, frame) >= _CERTAIN)
        return math.comb(frame.n - certain, self.n - certain)

    def space(self, frame):
        certain, rest, n_rest, odds, *_ = self._split(frame)
        combos = list(itertools.combinations(range(len(rest)), n_rest))
        weights = [math.prod(odds[idx] for idx in combo) for combo in combos]
        total = math.fsum(weights)  # e_n(odds), summed exactly from its terms
        return [(tuple(sorted(certain + rest[list(combo)].tolist())), float(weight / total))
                for combo, weight in zip(combos, weights)]

    def sampling_rate(self, frame):
        return float(np.max(inclusion_probs(self, frame)))


@dataclass(frozen=True)
class Systematic(Design):
    """Fractional-interval systematic sampling: every sample has exactly n units.

    ordering="frame" walks the frame order (the sample space collapses to a
    handful of outcomes); ordering="random" permutes the frame first, which
    makes it SRSWOR(n) (Tillé, Sampling Algorithms, 2006), enumerated as such.
    """
    n: int
    ordering: str = "frame"  # "frame" | "random"

    def __post_init__(self):
        if self.ordering not in ("frame", "random"):
            raise ValueError(f"unknown ordering {self.ordering!r}")

    def pi(self, frame):
        _validate_fixed_size(self.n, frame.n, "Systematic")
        return np.full(frame.n, self.n / frame.n)

    def draw(self, frame, rng):
        n_frame = frame.n
        order = list(range(n_frame))
        if self.ordering == "random":
            order = [int(i) for i in rng.permutation(n_frame)]
        interval = n_frame / self.n
        start = float(rng.uniform(0.0, interval))
        # float rounding at the top end must not index past the frame
        picks = (min(math.floor(start + j * interval), n_frame - 1) for j in range(self.n))
        return sorted(order[p] for p in picks)

    def space_size(self, frame):
        if self.ordering == "random":
            return SRSWOR(self.n).space_size(frame)
        return frame.n  # at most N breakpoint intervals

    def space(self, frame):
        if self.ordering == "random":
            return SRSWOR(self.n).space(frame)
        return [(sample, float(prob)) for sample, prob in _systematic_outcomes(frame.n, self.n)]


@dataclass(frozen=True)
class TwoStageDesign(Design):
    """Cluster first stage with an independent design inside each cluster."""

    outer: ClusterSRSWOR
    inner: Design

    def __post_init__(self):
        if isinstance(self.inner, (ClusterSRSWOR, StratifiedSRSWOR, TwoStageDesign)):
            raise ValueError("inner stage must select units directly")

    def pi(self, frame):
        pi = inclusion_probs(self.outer, frame)
        for members in frame.clusters().values():
            pi[members] *= inclusion_probs(self.inner, frame.select(members))
        return pi

    def draw(self, frame, rng):
        return np.sort(np.concatenate([members[self.inner.draw(frame.select(members), rng)]
                                       for members in self.outer.pick(frame, rng)])).tolist()

    def space_size(self, frame):
        # sum over cluster choices of the product of inner counts: the m-th
        # elementary symmetric polynomial of the per-cluster counts
        counts = [1] + [0] * self.outer.m
        for members in frame.clusters().values():
            inner = self.inner.space_size(frame.select(members))
            for k in range(self.outer.m, 0, -1):
                counts[k] += inner * counts[k - 1]
        return counts[self.outer.m]

    def space(self, frame):
        clusters = [members.tolist() for members in frame.clusters().values()]
        outer_prob = 1.0 / math.comb(len(clusters), self.outer.m)
        outcomes = []
        for combo in itertools.combinations(clusters, self.outer.m):
            stages = [self.inner.space(frame.select(members)) for members in combo]
            for picks in itertools.product(*stages):
                prob = outer_prob
                for _, inner_prob in picks:
                    prob *= inner_prob
                positions = sorted(members[p] for members, (sample, _) in zip(combo, picks)
                                   for p in sample)
                outcomes.append((tuple(positions), prob))
        return outcomes


def inclusion_probs(design: Design, frame: Frame) -> np.ndarray:
    """Per-unit inclusion probability over the whole frame, in frame order."""
    return design.pi(frame)


def allocate_strata(allocation: str, frame: Frame, n: int) -> dict[str, int]:
    """Split total size n across strata; every stratum gets 1 <= n_h <= N_h.

    Proportional allocation targets n_h proportional to N_h; Neyman targets
    n_h proportional to N_h * S_h with S_h the population standard deviation
    of y inside stratum h.  Integerization is largest-remainder with ties
    broken by lowest label, then deterministically repaired into bounds.
    """
    strata = frame.strata()
    labels = list(strata)
    if n < len(labels):
        raise ValueError(f"n={n} is smaller than the number of strata ({len(labels)})")
    if n > frame.n:
        raise ValueError(f"n={n} exceeds frame size {frame.n}")
    sizes = {label: len(positions) for label, positions in strata.items()}

    if allocation == "proportional":
        weights = {label: float(sizes[label]) for label in labels}
    elif allocation == "neyman":
        weights = {}
        for label, positions in strata.items():
            ys = frame.y_array[positions].tolist()
            if any(math.isnan(v) for v in ys):
                raise ValueError(f"stratum {label!r}: Neyman allocation needs observed y")
            try:
                mean = math.fsum(ys) / len(ys)
                spread = math.sqrt(math.fsum((v - mean) ** 2 for v in ys) / len(ys))
            except OverflowError:
                spread = math.inf
            if spread == math.inf:
                raise ValueError(f"stratum {label!r}: the spread of y overflows a float")
            weights[label] = sizes[label] * spread
    else:
        raise ValueError(f"unknown allocation {allocation!r}")

    total_weight = math.fsum(weights.values())
    if total_weight == 0.0:
        quotas = {label: n * sizes[label] / frame.n for label in labels}
    else:
        quotas = {label: n * weights[label] / total_weight for label in labels}

    counts = {label: math.floor(quotas[label]) for label in labels}
    short = n - sum(counts.values())
    by_remainder = sorted(labels, key=lambda lb: (-(quotas[lb] - counts[lb]), lb))
    for label in itertools.islice(itertools.cycle(by_remainder), short):  # floors sum <= n
        counts[label] += 1

    # Repair into [1, N_h], moving one unit at a time, deterministically.
    while True:
        empties = [lb for lb in labels if counts[lb] < 1]
        overfulls = [lb for lb in labels if counts[lb] > sizes[lb]]
        if not empties and not overfulls:
            break
        if empties:
            receiver = empties[0]
            donors = [lb for lb in labels if counts[lb] > 1 and lb != receiver]
            donor = min(donors, key=lambda lb: (-(counts[lb] - quotas[lb]), lb))
        else:
            donor = overfulls[0]
            receivers = [lb for lb in labels if counts[lb] < sizes[lb] and lb != donor]
            receiver = min(receivers, key=lambda lb: (-(quotas[lb] - counts[lb]), lb))
        counts[donor] -= 1
        counts[receiver] += 1
    return {label: counts[label] for label in labels}


def build_sample(frame: Frame, positions, pi: np.ndarray) -> WeightedSample:
    """Assemble a WeightedSample for the given frame positions (repeats allowed)."""
    positions = _column(positions, np.intp)
    pis = _frozen(np.asarray(pi, dtype=float)[positions])
    return WeightedSample(frame, positions, pis, _frozen(1.0 / pis),
                          _frozen(frame.y_array[positions]))


def draw(design: Design, frame: Frame, rng: np.random.Generator,
         pi: np.ndarray | None = None) -> WeightedSample:
    """Draw one sample from the design; deterministic given the generator state.

    ``pi``, the design's inclusion probabilities over the frame, is computed
    when not given.
    """
    if pi is None:
        pi = inclusion_probs(design, frame)
    # PPS calibrates on pi; every other design draws from the frame alone
    positions = design.draw(frame, rng, pi) if isinstance(design, PPS) else design.draw(frame, rng)
    return build_sample(frame, positions, pi)


# ---------------------------------------------------------------------------
# Conditional Poisson (rejective) machinery for fixed-size PPS
# ---------------------------------------------------------------------------

# Conditional Poisson sampling is Poisson sampling with working odds, conditioned on the
# sample size n (Hajek 1964; Chen, Dempster & Liu 1994).  Units of equal target share one
# odds and form a size class, a continuous size measure giving classes of one, and the
# classes are the leaves of one count tree.  Every value in it is a probability and every
# product a sum of positive terms, so nothing overflows at large n or near pi = 1.

_CERTAIN = 1.0 - 1e-15  # a PPS target at or above this is a certainty unit
_DIRECT_WIDTH = 64


def _convolve(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Entries lo..hi-1 of each row of a convolved with the same row of b; by FFT, its
    negative round-off clipped to 0, when both rows are wider than _DIRECT_WIDTH."""
    short = min(a.shape[1], b.shape[1])
    if short > _DIRECT_WIDTH + 1:
        size = 1 << (a.shape[1] + b.shape[1] - 2 - lo).bit_length()  # no wrap onto lo..hi-1
        out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:, lo:hi]
        return np.maximum(out, 0.0, out=out)
    if len(a) <= short:  # few rows: one np.convolve per row
        return np.array([np.convolve(x, y)[lo:hi] for x, y in zip(a, b)])
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for j in range(b.shape[1]):  # few columns of b: one shift and add per column
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out[:, lo:hi]


@functools.lru_cache(maxsize=4)
def _tree_layout(widths: bytes, n: int) -> tuple[list, int, list]:
    """A count tree's layout for sorted leaf widths min(count, n), padded with empty leaves
    to a power of two, node i of level h holding leaves i 2^h .. (i + 1) 2^h - 1: groups of
    classes of one width (first, end, width, span), the leaf floats, and per level below the
    root its runs of sibling pairs of equal widths (first parent, pairs, left width, right
    width, parent width, span, parent span), a level's pmfs one flat array."""
    widths = np.frombuffer(widths, dtype=np.intp)
    classes = len(widths)
    widths = np.concatenate([widths, np.zeros((1 << (classes - 1).bit_length()) - classes, int)])
    starts = np.cumsum(np.append(0, widths + 1))
    edges = [0, *(np.flatnonzero(np.diff(widths[:classes])) + 1).tolist(), classes]
    groups = [(g, end, int(widths[g]), slice(starts[g], starts[end]))
              for g, end in zip(edges, edges[1:])]
    floats, levels = int(starts[-1]), []
    while len(widths) > 1:
        left, right = widths[::2], widths[1::2]
        parents = np.minimum(left + right, n)
        above = np.cumsum(np.append(0, parents + 1))
        edges = [0, *(np.flatnonzero(np.diff(left * (n + 1) + right)) + 1).tolist(), len(left)]
        levels.append([(p, end - p, int(left[p]), int(right[p]), int(parents[p]),
                        slice(starts[2 * p], starts[2 * end]), slice(above[p], above[end]))
                       for p, end in zip(edges, edges[1:])])
        widths, starts = parents, above
    return groups, floats, levels


class _CountTree:
    """Poisson-count pmfs, at per-class odds, over a balanced binary tree of size classes:
    a node's pmf over 0..min(units, n) is its children's product truncated at n, and down,
    a node of width w gets the window [n - w, n] of the pmf of the count outside it, its
    parent's window times its sibling's pmf.  A draw sends the root's n units down, a node's
    k splitting j : k - j with weight L(j) R(k - j).  Leaf g < C is class ``order[g]``."""

    def __init__(self, counts: np.ndarray, n: int, odds: np.ndarray):
        widths = np.minimum(counts, n).astype(np.intp)
        self.n, self.order = n, np.argsort(widths, kind="stable")
        self.counts = counts[self.order]
        self.groups, floats, self.levels = _tree_layout(widths[self.order].tobytes(), n)
        self.up = [np.ones(floats)]  # an empty leaf's pmf is [1]
        for first, end, w, span in self.groups:  # binomial pmfs, the exp of a cumsum of logs
            m, o = self.counts[first:end, None], odds[self.order[first:end], None]
            steps = np.log((m - np.arange(w)) / np.arange(1, w + 1)) + np.log(o)
            self.up[0][span] = np.exp(np.cumsum(np.concatenate(
                [-m * np.log1p(o), steps], axis=1), axis=1)).ravel()
        for runs in self.levels[:-1]:  # the root's pmf is never read
            below, above = self.up[-1], np.empty(runs[-1][6].stop)
            for _, pairs, wl, _, wp, span, to in runs:
                rows = below[span].reshape(pairs, -1)
                above[to] = _convolve(rows[:, wl + 1:], rows[:, :wl + 1], 0, wp + 1).ravel()
            self.up.append(above)

    def masses(self) -> tuple[np.ndarray, np.ndarray]:
        """Per class, the weights (at one scale) of the size-n samples that hold a unit of it
        and that do not: its leaf's pmf times its reversed window is P(k of the m units,
        S = n), and a unit lies in k of m of those samples."""
        window = np.eye(1, self.n + 1)[0]  # nothing lies outside the root
        for runs, below in zip(reversed(self.levels), reversed(self.up)):
            windows = np.empty(len(below))
            for _, pairs, wl, wr, wp, span, to in runs:
                rows, out = below[span].reshape(pairs, -1), windows[span].reshape(pairs, -1)
                outside = window[to].reshape(pairs, -1)
                out[:, :wl + 1] = _convolve(outside, rows[:, wl + 1:], wp - wl, wp + 1)
                out[:, wl + 1:] = _convolve(outside, rows[:, :wl + 1], wp - wr, wp + 1)
            window = windows
        inc, exc = np.empty(len(self.order)), np.empty(len(self.order))
        for first, end, w, span in self.groups:
            rows, k, classes = (end - first, w + 1), np.arange(w + 1), self.order[first:end]
            both = self.up[0][span].reshape(rows) * window[span].reshape(rows)[:, ::-1]
            inc[classes] = both @ k
            exc[classes] = (both * (self.counts[first:end, None] - k)).sum(axis=1)
        return inc, exc

    def draw(self, rng: np.random.Generator, units: np.ndarray) -> np.ndarray:
        """n of the units, given leaf by leaf: a uniform per pair whose parent gets units
        splits its count, and each leaf takes its count by SRSWOR."""
        taken = np.array([self.n])
        for h in range(len(self.levels), 0, -1):
            below, split = self.up[h - 1], np.zeros(2 * len(taken), dtype=np.intp)
            for p, pairs, wl, wr, _, span, _ in self.levels[h - 1]:
                live = p + np.flatnonzero(taken[p:p + pairs])
                start, j = span.start + (live - p)[:, None] * (wl + wr + 2), np.arange(wl + 1)
                right = taken[live, None] - j  # the right child's count if the left gets j
                cum = (below[start + j] * np.where((right >= 0) & (right <= wr), below.take(
                    start + wl + 1 + right, mode="clip"), 0.0)).cumsum(axis=1)
                if len(live) and not 0.0 < cum[:, -1].min() <= cum[:, -1].max() < math.inf:
                    dead = np.argmax(~(cum[:, -1] > 0.0) | (cum[:, -1] == math.inf))
                    classes = sorted(self.order[live[dead] << h:live[dead] + 1 << h].tolist())
                    raise PPSCalibrationError(f"left size classes {classes} no count weight",
                                              float(cum[dead, -1]))
                left = (cum <= cum[:, -1:] * rng.random((len(live), 1))).sum(axis=1)
                split[2 * live], split[2 * live + 1] = left, taken[live] - left
            taken = split
        taken, full = taken[:len(self.order)], taken[:len(self.order)] == self.counts
        starts = np.cumsum(self.counts) - self.counts
        return np.concatenate([units[np.repeat(full, self.counts)], *(
            units[starts[g] + rng.choice(self.counts[g], size=taken[g], replace=False)]
            for g in np.flatnonzero((taken > 0) & ~full))])


def _cps_calibrate(target_pi: np.ndarray, n: int, counts: np.ndarray):
    """Working odds whose conditional-on-size-n marginals match target_pi, the target of
    counts[c] units each, and the count tree at them.

    A fixed point on log odds, lambda += logit(target) - logit(pi), stepping from
    the best iterate; a step that does not cut the largest error by a tenth is
    halved.  It returns the first iterate within 4 eps of every target; where the
    floor is higher, an error that stops falling is accepted within an N-scaled bound.
    """
    goal = np.log(target_pi) - np.log1p(-target_pi)
    log_odds, base, direction, best, step = goal, goal, 0.0, math.inf, 1.0
    for _ in range(1000):
        odds = np.exp(log_odds)
        tree = _CountTree(counts, n, odds)
        inc, exc = tree.masses()
        residual = float(np.max(np.abs(inc / (inc + exc) - target_pi)))
        if residual <= 4 * np.finfo(float).eps:
            return odds, tree
        del tree  # one tree at a time: a stall below refills the best iterate's
        if residual < 0.9 * best:
            best, base, step = residual, log_odds, min(1.0, 2.0 * step)
            direction = goal - np.log(inc / exc)
        elif best <= max(1e-14, 8 * int(np.sum(counts)) * np.finfo(float).eps):
            return np.exp(base), _CountTree(counts, n, np.exp(base))
        elif step < 1e-6:
            break
        else:
            step /= 2.0
        log_odds = base + step * direction
    raise PPSCalibrationError("did not converge", best)


@functools.lru_cache(maxsize=4)
def _pps_split_cached(n: int, pi_bytes: bytes):
    """PPS._split of targets pi."""
    pi = np.frombuffer(pi_bytes)
    certain, rest = np.flatnonzero(pi >= _CERTAIN).tolist(), np.flatnonzero(pi < _CERTAIN)
    n_rest = n - len(certain)  # >= 0: the targets sum to n and each is at most one
    if not n_rest:
        return certain, rest, n_rest, np.zeros(len(rest)), None, rest
    targets, classes, counts = np.unique(pi[rest], return_inverse=True, return_counts=True)
    odds, tree = _cps_calibrate(targets, n_rest, counts)
    leaf = np.argsort(tree.order)[classes]  # each unit's leaf
    return certain, rest, n_rest, odds[classes], tree, rest[np.argsort(leaf, kind="stable")]


# ---------------------------------------------------------------------------
# Exact sample-space enumeration
# ---------------------------------------------------------------------------

def sample_space(design: Design, frame: Frame) -> list[tuple[tuple[int, ...], float]]:
    """Enumerate every possible sample with its selection probability.

    The design's sample size is validated first: a size the frame cannot
    hold raises the ``ValueError`` of ``inclusion_probs``.  An outcome count
    above ``DPSURVEY_ENUM_CAP`` raises ``EnumerationCapExceeded``.  Samples
    are id tuples with units in frame order (repeats kept for SRSWR), listed
    in the design's enumeration order.  Probabilities sum to one up to float
    rounding; designs with rational structure are enumerated with exact
    Fractions before conversion.
    """
    design.pi(frame)
    check_cap(design.space_size(frame))
    ids = frame.ids
    return [(tuple(map(ids.__getitem__, sample)), prob) for sample, prob in design.space(frame)]


def _systematic_outcomes(n_frame: int, n: int):
    """Exact, distinct (positions, probability) pairs in order, via Fraction cuts."""
    interval = Fraction(n_frame, n)
    cuts = {Fraction(0), interval}
    for j in range(n):
        for m in range(1, n_frame + 1):
            cut = Fraction(m) - j * interval
            if Fraction(0) < cut < interval:
                cuts.add(cut)
    edges = sorted(cuts)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = (lo + hi) / 2
        yield tuple(math.floor(mid + j * interval) for j in range(n)), (hi - lo) / interval
