"""Survey-weighted point estimation.

Horvitz-Thompson mean and total over the distinct sampled units, and the
unweighted mean.  Noisy release is the pipeline's job: its release stage
takes each sensitivity from ``pipeline._resolve_sensitivity`` and raises
``ReleaseRefusedError`` where no sound one is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import WeightedSample

__all__ = [
    "HTEstimate",
    "ReleaseRefusedError",
    "ht_mean",
    "ht_total",
    "unweighted_mean",
]


class ReleaseRefusedError(RuntimeError):
    """A DP release was refused because no safe sensitivity is available."""


@dataclass(frozen=True)
class HTEstimate:
    value: float


def ht_mean(sample: WeightedSample, n_pop: int) -> HTEstimate:
    """Weighted mean sum(w_i * y_i) / n_pop over the distinct sampled units.

    ``n_pop`` is the known, public population size.  With-replacement draws
    contribute once per unit, which keeps the estimator design-unbiased.
    """
    if n_pop < 1:
        raise ValueError(f"population size must be >= 1, got {n_pop}")
    return HTEstimate(ht_total(sample).value / n_pop)


def ht_total(sample: WeightedSample) -> HTEstimate:
    """Weighted total sum(w_i * y_i) over the distinct sampled units."""
    first, _ = sample.units()
    if not len(first):
        raise ValueError("cannot estimate from an empty sample")
    y = sample.y[first]
    missing = first[np.isnan(y)]
    if len(missing):
        raise ValueError(f"unit {sample.ids[missing.min()]} has a missing y value; "
                         "impute before estimating")
    return HTEstimate(math.fsum((sample.w[first] * y).tolist()))


def unweighted_mean(values) -> HTEstimate:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot take the mean of an empty sample")
    if any(math.isnan(v) for v in values):
        raise ValueError("missing y values present; impute before estimating")
    return HTEstimate(math.fsum(values) / len(values))
