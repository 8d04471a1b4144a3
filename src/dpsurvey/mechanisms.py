"""Pure epsilon-DP primitives.

Laplace mechanism with seeded inverse-CDF sampling, closed-form L1
sensitivities for the canonical survey statistics, and an append-only
privacy ledger with sequential-composition accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrivacyLoss",
    "Sensitivity",
    "LaplaceNoise",
    "LedgerCharge",
    "PrivacyLedger",
    "Proportion",
    "BoundedMean",
    "HTMeanFixedWeights",
    "laplace_scale",
    "laplace_draws",
    "release_laplace",
    "analytic_sensitivity",
    "compose_sequential",
]


def _checked(value, name: str, *, positive: bool) -> float:
    """``float(value)`` if finite and > 0 (``positive``) or >= 0; else a ValueError."""
    number = float(value)
    if not math.isfinite(number) or (number <= 0.0 if positive else number < 0.0):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")
    return number


def _epsilon_value(eps) -> float:
    """Coerce a PrivacyLoss or bare number to a validated float epsilon."""
    value = float(eps.epsilon) if isinstance(eps, PrivacyLoss) else float(eps)
    return _checked(value, "privacy-loss parameter", positive=True)


def _delta_value(delta_f) -> float:
    """Coerce a Sensitivity or bare number to a validated float sensitivity."""
    value = float(delta_f.delta_f) if isinstance(delta_f, Sensitivity) else float(delta_f)
    return _checked(value, "sensitivity", positive=False)


@dataclass(frozen=True)
class PrivacyLoss:
    """Privacy-loss parameter epsilon of a pure-DP mechanism."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _checked(self.epsilon, "epsilon", positive=True))


@dataclass(frozen=True)
class Sensitivity:
    """L1 sensitivity of a statistic, in the units of the statistic."""

    delta_f: float

    def __post_init__(self):
        object.__setattr__(self, "delta_f", _checked(self.delta_f, "delta_f", positive=False))


@dataclass(frozen=True)
class LaplaceNoise:
    """Laplace scale parameter b = delta_f / epsilon.

    b == 0 is the degenerate case of a zero-sensitivity statistic: the
    mechanism releases the exact value.
    """

    scale_b: float

    def __post_init__(self):
        object.__setattr__(self, "scale_b", _checked(self.scale_b, "scale_b", positive=False))


def laplace_scale(delta_f, eps) -> LaplaceNoise:
    """Noise scale b = delta_f / epsilon for the Laplace mechanism."""
    return LaplaceNoise(_delta_value(delta_f) / _epsilon_value(eps))


def laplace_draws(scale_b: float, rng: np.random.Generator, size=None):
    """Draw Laplace(0, b) noise by inverse-CDF transform of uniform draws.

    One uniform draw per output value, so results are reproducible from the
    generator state alone.  ``size=None`` returns a scalar float.
    """
    _checked(scale_b, "scale", positive=False)
    u = rng.random(size=size)
    if scale_b == 0.0:
        return 0.0 if size is None else np.zeros_like(u)
    # u == 0 or u == 1-ulp would hit log(0); clamp the interior argument.
    shifted = u - 0.5
    interior = np.clip(1.0 - 2.0 * np.abs(shifted), np.finfo(float).tiny, 1.0)
    noise = -scale_b * np.sign(shifted) * np.log(interior)
    return float(noise) if size is None else noise


def release_laplace(value: float, delta_f, eps, rng: np.random.Generator) -> float:
    """Release ``value + Laplace(0, delta_f/eps)``; exact when delta_f == 0."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"value to release must be finite, got {value!r}")
    b = laplace_scale(delta_f, eps).scale_b
    if b == 0.0:
        return value
    return value + laplace_draws(b, rng)


@dataclass(frozen=True)
class Proportion:
    """A sample proportion over n records; sensitivity 1/n."""

    n: int


@dataclass(frozen=True)
class BoundedMean:
    """A sample mean of a variable with range ``value_range`` over n records."""

    value_range: float
    n: int


@dataclass(frozen=True)
class HTMeanFixedWeights:
    """Inverse-probability weighted mean with weights treated as fixed.

    Sensitivity w_max * value_range / n_pop: replacing one record moves the
    weighted sum by at most the largest weight times the value range.  The
    weighted total is the case n_pop = 1.
    """

    w_max: float
    value_range: float
    n_pop: int


def analytic_sensitivity(statistic) -> Sensitivity:
    """Closed-form L1 sensitivity under replace-one (bounded) neighbors."""
    if isinstance(statistic, Proportion):
        if statistic.n < 1:
            raise ValueError(f"n must be >= 1, got {statistic.n}")
        return Sensitivity(1.0 / statistic.n)
    if isinstance(statistic, BoundedMean):
        if statistic.n < 1:
            raise ValueError(f"n must be >= 1, got {statistic.n}")
        if statistic.value_range < 0:
            raise ValueError(f"value_range must be >= 0, got {statistic.value_range}")
        return Sensitivity(statistic.value_range / statistic.n)
    if isinstance(statistic, HTMeanFixedWeights):
        if statistic.n_pop < 1:
            raise ValueError(f"n_pop must be >= 1, got {statistic.n_pop}")
        if statistic.w_max <= 0:
            raise ValueError(f"w_max must be > 0, got {statistic.w_max}")
        if statistic.value_range < 0:
            raise ValueError(f"value_range must be >= 0, got {statistic.value_range}")
        return Sensitivity(statistic.w_max * statistic.value_range / statistic.n_pop)
    raise TypeError(f"unknown statistic descriptor: {statistic!r}")


@dataclass(frozen=True)
class LedgerCharge:
    """One mechanism invocation: a label, its epsilon, and the delta_f used."""

    label: str
    epsilon: float
    delta_f: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _epsilon_value(self.epsilon))
        if self.delta_f is not None:
            object.__setattr__(self, "delta_f", _delta_value(self.delta_f))


class PrivacyLedger:
    """Append-only record of privacy charges within one pipeline run."""

    def __init__(self):
        self._charges: list[LedgerCharge] = []

    def charge(self, label: str, eps, delta_f=None) -> LedgerCharge:
        entry = LedgerCharge(str(label), eps, delta_f)
        self._charges.append(entry)
        return entry

    @property
    def charges(self) -> tuple[LedgerCharge, ...]:
        return tuple(self._charges)

    def __len__(self) -> int:
        return len(self._charges)

    def total(self) -> float:
        """Exact (correctly rounded) sum of all charged epsilons."""
        return math.fsum(charge.epsilon for charge in self._charges)


def compose_sequential(ledger: PrivacyLedger) -> PrivacyLoss:
    """Total privacy loss of all charges under sequential composition.

    An empty ledger is rejected: no releases means there is no loss to
    report, and callers must handle that case explicitly.
    """
    if len(ledger) == 0:
        raise ValueError("cannot compose an empty ledger: no releases were made")
    return PrivacyLoss(ledger.total())
