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
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .frames import Frame

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
    "design_weights",
    "allocate_strata",
    "draw",
    "sample_space",
    "build_sample",
]

ENUM_CAP_ENV = "DPSURVEY_ENUM_CAP"
DEFAULT_ENUM_CAP = 10 ** 6
_ALLOCATIONS = weakref.WeakKeyDictionary()  # frame -> {StratifiedSRSWOR: its allocate_strata}


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


def check_cap(count: int, cap: int | None = None) -> None:
    """Refuse an enumeration of ``count`` outcomes above ``cap`` (default: the environment's)."""
    cap = default_enumeration_cap() if cap is None else cap
    if count > cap:
        raise EnumerationCapExceeded(count, cap)


class PPSCalibrationError(RuntimeError):
    """Conditional-Poisson calibration failed; ``residual`` is the last max error."""

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


@dataclass(frozen=True)
class WeightedSample:
    """Selected units with their inclusion probabilities and weights.

    ``w`` starts as the design weight 1/pi; adjustment steps replace it via
    :meth:`with_weights`, leaving ``pi`` untouched.
    """

    ids: tuple[int, ...]
    pi: tuple[float, ...]
    w: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.ids) == len(self.pi) == len(self.w) == len(self.y)):
            raise ValueError("sample columns must have equal length")
        for unit, p in zip(self.ids, self.pi):
            if not (0.0 < p <= 1.0):
                raise ValueError(f"unit {unit}: inclusion probability {p!r} outside (0, 1]")
        for unit, weight in zip(self.ids, self.w):
            if not (weight > 0 and math.isfinite(weight)):
                raise ValueError(f"unit {unit}: weight {weight!r} must be positive and finite")

    @property
    def size(self) -> int:
        return len(self.ids)

    def with_weights(self, new_w) -> "WeightedSample":
        return WeightedSample(self.ids, self.pi, tuple(float(v) for v in new_w), self.y)

    def with_y(self, new_y) -> "WeightedSample":
        return WeightedSample(self.ids, self.pi, self.w, tuple(float(v) for v in new_y))


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

    def _allocation(self, frame: Frame) -> dict[str, int]:
        memo = _ALLOCATIONS.setdefault(frame, {})  # once per frame: frames never change
        if self not in memo:
            memo[self] = allocate_strata(self.allocation, frame, self.n)
        return memo[self]

    def pi(self, frame):
        allocation = self._allocation(frame)
        n_h = np.array([allocation[label] for label in frame.stratum_names])
        return (n_h / np.bincount(frame.stratum_codes))[frame.stratum_codes]

    def draw(self, frame, rng):
        allocation = self._allocation(frame)
        return np.sort(np.concatenate([
            positions[rng.choice(len(positions), size=allocation[label], replace=False)]
            for label, positions in frame.strata().items()])).tolist()

    def space_size(self, frame):
        allocation = self._allocation(frame)
        size = 1
        for label, positions in frame.strata().items():
            size *= math.comb(len(positions), allocation[label])
        return size

    def space(self, frame):
        allocation = self._allocation(frame)
        strata = frame.strata()
        per_stratum = []
        prob = 1.0
        for label, positions in strata.items():
            per_stratum.append(list(itertools.combinations(positions.tolist(), allocation[label])))
            prob /= math.comb(len(positions), allocation[label])
        outcomes = []
        for pick in itertools.product(*per_stratum):
            outcomes.append((tuple(sorted(p for group in pick for p in group)), prob))
        return outcomes


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
        outcomes = []
        for combo in itertools.combinations(clusters, self.m):
            outcomes.append((tuple(sorted(p for members in combo for p in members)), prob))
        return outcomes


@dataclass(frozen=True)
class PPS(Design):
    """Fixed-size inclusion probabilities proportional to the size measure x.

    pi_i = n * x_i / sum(x).  The joint design is conditional Poisson
    (rejective) sampling calibrated so the marginals hit those targets.
    """
    n: int

    def pi(self, frame):
        _validate_fixed_size(self.n, frame.n, "PPS")
        x = frame.x_array
        pi = self.n * x / math.fsum(x)
        over = pi > 1.0 + 1e-12
        if over.any():
            i = int(np.argmax(over))
            raise CertaintyUnitError(int(frame.id_array[i]), float(pi[i]))
        return np.minimum(pi, 1.0)

    def _split(self, frame: Frame, pi: np.ndarray | None = None):
        """Certainty units, the other units, their sample size and calibrated odds.

        inclusion_probs rejects n out of range and pi above one; the odds
        calibration is cached by (n, pi) so repeated draws skip the fixed point.
        ``pi``, when given, is this design's inclusion_probs on the frame.
        """
        if pi is None:
            pi = inclusion_probs(self, frame)
        return _pps_split_cached(self.n, pi.tobytes())

    def draw(self, frame, rng, pi=None):
        certain, rest, n_rest, odds = self._split(frame, pi)
        chosen = list(certain)
        remaining = n_rest
        # unit i is taken with probability o_i e_{r-1}(tail) / e_r(odds[i:]), where
        # tail = odds[i + 1:] and e_r(tail) is exactly 0 once r exceeds its length
        for start, end, row in _tail_blocks(odds, n_rest):
            table = _esp_columns(row, odds[start:end][::-1])
            for i in range(start, end):
                if remaining == 0:
                    return sorted(chosen)
                tail = table[:, end - 1 - i]
                take = odds[i] * tail[remaining - 1]
                if rng.random() < take / (tail[remaining] + take):
                    chosen.append(rest[i])
                    remaining -= 1
        return sorted(chosen)

    def space_size(self, frame):
        certain = np.count_nonzero(inclusion_probs(self, frame) >= _CERTAIN)
        return math.comb(frame.n - certain, self.n - certain)

    def space(self, frame):
        certain, rest, n_rest, odds = self._split(frame)
        combos = list(itertools.combinations(range(len(rest)), n_rest))
        weights = [math.prod(odds[idx] for idx in combo) for combo in combos]
        total = math.fsum(weights)  # e_n(odds), summed exactly from its terms
        return [(tuple(sorted(certain + [rest[idx] for idx in combo])), float(weight / total))
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


def design_weights(pi) -> np.ndarray:
    """Design weights w = 1/pi."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0.0) or np.any(pi > 1.0):
        raise ValueError("inclusion probabilities must be in (0, 1]")
    return 1.0 / pi


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
            mean = math.fsum(ys) / len(ys)
            weights[label] = sizes[label] * math.sqrt(
                math.fsum((v - mean) ** 2 for v in ys) / len(ys))
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
    for label in itertools.islice(itertools.cycle(by_remainder), max(short, 0)):
        counts[label] += 1
    for label in itertools.islice(itertools.cycle(reversed(by_remainder)), max(-short, 0)):
        counts[label] -= 1

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
    positions = np.asarray(positions, dtype=np.intp)
    pis = np.asarray(pi, dtype=float)[positions]
    return WeightedSample(tuple(frame.id_array[positions].tolist()), tuple(pis.tolist()),
                          tuple((1.0 / pis).tolist()),
                          tuple(frame.y_array[positions].tolist()))


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

# e_k(odds), the k-th elementary symmetric polynomial, weighs the size-k samples.
# Rows e_0..e_n grow one unit at a time by the positive update e_k += o e_{k-1},
# one numpy pass per k over a block of units.  Values grow by at most about
# 2**_CPS_GROWTH_BITS inside a block, and the row carried between blocks is
# rescaled by an exact power of two: only ratios at one scale are ever read.

_CERTAIN = 1.0 - 1e-15  # a PPS target at or above this is a certainty unit
_CPS_GROWTH_BITS = 400
_CPS_BLOCK_FLOATS = 1 << 20  # block rows are capped near this many floats per table


def _rescaled(row: np.ndarray) -> np.ndarray:
    """The row divided by the power of two that puts its maximum in [0.5, 1)."""
    return np.ldexp(row, -math.frexp(float(row.max()))[1])


def _esp_columns(start: np.ndarray, odds: np.ndarray) -> np.ndarray:
    """Column j holds e_0..e_n of the units behind ``start`` plus odds[..., :j];
    leading axes stack independent tables, one multiply and accumulate per k for all."""
    table = np.empty((*start.shape, odds.shape[-1] + 1))
    table[..., 0, :] = start[..., :1]
    for k in range(1, start.shape[-1]):
        np.multiply(odds, table[..., k - 1, :-1], out=table[..., k, 1:])
        table[..., k, 0] = start[..., k]
        np.add.accumulate(table[..., k, :], axis=-1, out=table[..., k, :])
    return table


def _tail_blocks(odds: np.ndarray, n: int) -> list[tuple[int, int, np.ndarray]]:
    """(start, end, row) per block of units, in unit order: row is e_0..e_n of odds[end:].

    Blocks end where the cumulative growth crosses a multiple of the bound, or
    after ``cap`` units.  One backward pass keeps only each block's boundary row,
    up to a power-of-two scale; callers build the block's tail table from it, one
    block at a time: O((blocks + cap) * n) memory.
    """
    cap = max(math.isqrt(len(odds)) + 1, _CPS_BLOCK_FLOATS // (n + 1))
    band = np.cumsum(np.log2(1.0 + odds)) // _CPS_GROWTH_BITS
    edges = sorted({*range(0, len(odds), cap), *(np.flatnonzero(np.diff(band)) + 1).tolist()})
    blocks = list(zip(edges, edges[1:] + [len(odds)]))
    rows = [np.eye(1, n + 1)[0]]
    for start, end in reversed(blocks[1:]):
        rows.append(_rescaled(_esp_columns(rows[-1], odds[start:end][::-1])[:, -1]))
    return [(start, end, row) for (start, end), row in zip(blocks, reversed(rows))]


def _cps_masses(odds: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per unit, the weight of the size-n samples that hold it and that do not.

    Both sum positive terms e_a(head) e_b(tail) at one scale per unit, so
    pi = inc / (inc + exc) and logit(pi) = log(inc / exc) stay precise near 1.
    A block's tail and head tables are built in one stacked pass, then dropped.
    """
    inc, exc = np.empty(len(odds)), np.empty(len(odds))
    head = np.eye(1, n + 1)[0]
    for start, end, row in _tail_blocks(odds, n):
        block = odds[start:end]
        tails, heads = _esp_columns(np.stack([row, head]), np.stack([block[::-1], block]))
        head = _rescaled(heads[:, -1])
        heads, tails = heads[:, :-1], tails[::-1, -2::-1]  # tails[c, j]: e_{n-c}(odds[start+j+1:])
        inc[start:end] = block * np.einsum("kj,kj->j", heads[:-1], tails[1:])
        exc[start:end] = np.einsum("kj,kj->j", heads, tails)
        del heads, tails
    return inc, exc


def _cps_calibrate(target_pi: np.ndarray, n: int) -> np.ndarray:
    """Find working odds whose conditional-on-size-n marginals match target_pi.

    A fixed point on log odds, lambda += logit(target) - logit(pi), stepping from
    the best iterate; a step that does not cut the largest error by a tenth is
    halved.  It returns the first iterate within 4 eps of every target; where the
    floor is higher, an error that stops falling is accepted within an N-scaled bound.
    """
    goal = np.log(target_pi) - np.log1p(-target_pi)
    log_odds, base, direction, best, step = goal, goal, 0.0, math.inf, 1.0
    for _ in range(1000):
        inc, exc = _cps_masses(np.exp(log_odds), n)
        residual = float(np.max(np.abs(inc / (inc + exc) - target_pi)))
        if residual <= 4 * np.finfo(float).eps:
            return np.exp(log_odds)
        if residual < 0.9 * best:
            best, base, step = residual, log_odds, min(1.0, 2.0 * step)
            direction = goal - np.log(inc / exc)
        elif best <= max(1e-14, 8 * len(goal) * np.finfo(float).eps):
            return np.exp(base)
        elif step < 1e-6:
            break
        else:
            step /= 2.0
        log_odds = base + step * direction
    raise PPSCalibrationError("did not converge", best)


@functools.lru_cache(maxsize=4)
def _pps_split_cached(n: int, pi_bytes: bytes):
    pi = np.frombuffer(pi_bytes)
    certain = np.flatnonzero(pi >= _CERTAIN).tolist()
    rest = np.flatnonzero(pi < _CERTAIN).tolist()
    n_rest = n - len(certain)  # >= 0: the targets sum to n and each is at most one
    odds = _cps_calibrate(pi[rest], n_rest) if n_rest else np.zeros(len(rest))
    return certain, rest, n_rest, odds


# ---------------------------------------------------------------------------
# Exact sample-space enumeration
# ---------------------------------------------------------------------------

def sample_space(design: Design, frame: Frame, cap: int | None = None
                 ) -> list[tuple[tuple[int, ...], float]]:
    """Enumerate every possible sample with its selection probability.

    The design's sample size is validated first: a size the frame cannot
    hold raises the ``ValueError`` of ``inclusion_probs``.  An outcome count
    above ``cap`` raises ``EnumerationCapExceeded``.  Samples are id tuples
    with units in frame order (repeats kept for SRSWR), listed in the
    design's enumeration order.  Probabilities sum to one up to float
    rounding; designs with rational structure are enumerated with exact
    Fractions before conversion.
    """
    design.pi(frame)
    check_cap(design.space_size(frame), cap)
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
