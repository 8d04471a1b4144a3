"""Weight adjustments: nonresponse propensity cells, post-stratification,
and weight regularization.

The propensity model is deliberately cell-based (weighting classes): it is
exact, enumerable, and its privacy cost can be traced by the audit oracle.
Cells with no respondents are collapsed into the next cell in label order
so the adjustment is always well-defined and reproducible.
"""

from __future__ import annotations

import math

from .mechanisms import PrivacyLedger, _epsilon_value, release_laplace

__all__ = [
    "CalibrationError",
    "estimate_propensities_cells",
    "nonresponse_adjust",
    "poststratify",
    "regularize_weights",
    "dp_estimate_propensities_cells",
]


class CalibrationError(ValueError):
    """Post-stratification could not be carried out for some cell."""


def _cell_counts(cell_labels, respond_flags) -> tuple[dict[str, int], dict[str, int]]:
    """Sampled and responded counts per cell, keyed in sorted label order."""
    cell_labels = list(cell_labels)
    respond_flags = list(respond_flags)
    if len(cell_labels) != len(respond_flags):
        raise ValueError("cell labels and response flags must align")
    sampled = dict.fromkeys(sorted(set(cell_labels)), 0)
    responded = dict.fromkeys(sampled, 0)
    for label, flag in zip(cell_labels, respond_flags):
        sampled[label] += 1
        responded[label] += bool(flag)
    return sampled, responded


def estimate_propensities_cells(cell_labels, respond_flags) -> dict[str, float]:
    """Respondents / sampled per cell, collapsing zero-respondent cells.

    ``cell_labels`` holds the cell label of each sampled unit, aligned with
    ``respond_flags``.  A cell whose sampled units all failed to respond is
    merged into the next cell in label order (the last cell merges backward)
    until every group has a respondent, so the returned propensities are
    always in (0, 1].
    """
    sampled, responded = _cell_counts(cell_labels, respond_flags)

    # Groups of original labels that share one propensity after collapsing.
    groups: list[list[str]] = [[label] for label in sampled]
    if sum(responded.values()) == 0:
        raise ValueError("no respondents in any cell; nonresponse adjustment impossible")
    while True:
        empty_idx = next((i for i, group in enumerate(groups)
                          if sum(responded[lb] for lb in group) == 0), None)
        if empty_idx is None:
            break
        merge_into = empty_idx + 1 if empty_idx + 1 < len(groups) else empty_idx - 1
        keep = min(empty_idx, merge_into)
        drop = max(empty_idx, merge_into)
        groups[keep] = groups[keep] + groups[drop]
        del groups[drop]

    propensities: dict[str, float] = {}
    for group in groups:
        rate = sum(responded[lb] for lb in group) / sum(sampled[lb] for lb in group)
        for label in group:
            propensities[label] = rate
    return propensities


def nonresponse_adjust(weights, propensities, cell_labels) -> tuple[float, ...]:
    """w_nr_i = w_i / p_hat of unit i's cell."""
    weights = [float(w) for w in weights]
    cell_labels = list(cell_labels)
    if len(weights) != len(cell_labels):
        raise ValueError("weights and cell labels must align")
    adjusted = []
    for weight, label in zip(weights, cell_labels):
        p = propensities[label]
        if not (0.0 < p <= 1.0):
            raise ValueError(f"cell {label!r}: propensity {p!r} outside (0, 1]")
        adjusted.append(weight / p)
    return tuple(adjusted)


def poststratify(weights, cell_labels, benchmarks) -> tuple[float, ...]:
    """Rescale weights inside each benchmarked cell to hit the benchmark total.

    Cells without a benchmark pass through unchanged.  A benchmarked cell
    whose current weight total is zero (no respondents carrying weight)
    raises CalibrationError.  When a cell already matches its benchmark the
    weights are returned bit-identical, which makes repeated application a
    no-op.
    """
    weights = [float(w) for w in weights]
    cell_labels = list(cell_labels)
    if len(weights) != len(cell_labels):
        raise ValueError("weights and cell labels must align")
    members: dict[str, list[float]] = {}
    for weight, label in zip(weights, cell_labels):
        members.setdefault(label, []).append(weight)
    # fsum is exactly rounded, so the grouping order cannot move a total
    totals = {label: math.fsum(ws) for label, ws in members.items()}
    ratios: dict[str, tuple[float, float]] = {}
    for label, benchmark in benchmarks.items():
        if not (benchmark > 0):
            raise CalibrationError(f"cell {label!r}: benchmark must be > 0, got {benchmark!r}")
        if label not in totals:
            raise CalibrationError(f"cell {label!r} has a benchmark but no weighted units")
        if totals[label] <= 0.0:
            raise CalibrationError(f"cell {label!r}: weight total is 0; cannot calibrate")
        ratios[label] = (benchmark, totals[label])
    out = []
    for weight, label in zip(weights, cell_labels):
        if label not in ratios:
            out.append(weight)
            continue
        benchmark, total = ratios[label]
        # (w * B) / S keeps already-calibrated cells bit-identical
        out.append(weight if total == benchmark else weight * benchmark / total)
    return tuple(out)


def regularize_weights(weights, lower: float, upper: float) -> tuple[float, ...]:
    """Clamp every weight into [lower, upper]; lower == upper equalizes them."""
    if not (0.0 < lower <= upper) or not math.isfinite(upper):
        raise ValueError(f"bounds must satisfy 0 < lower <= upper, got [{lower}, {upper}]")
    return tuple(min(upper, max(lower, float(w))) for w in weights)


def dp_estimate_propensities_cells(cell_labels, respond_flags, eps, rng,
                                   ledger: PrivacyLedger | None = None) -> dict[str, float]:
    """Experimental: cell propensities from Laplace-noised cell counts.

    ``cell_labels`` and ``respond_flags`` are aligned per sampled unit, as in
    ``estimate_propensities_cells``.  Releases noisy sampled counts and noisy
    respondent counts, cell by cell in label order (replacing one record can
    move it across cells and flip its response, so each count vector has L1
    sensitivity 2), then post-processes the ratio into (0, 1].  Charges the
    full ``eps`` to the ledger.
    """
    eps_value = _epsilon_value(eps)
    sampled, responded = _cell_counts(cell_labels, respond_flags)

    eps_each = eps_value / 2.0
    propensities = {}
    for label in sampled:
        noisy_sampled = release_laplace(sampled[label], 2.0, eps_each, rng)
        noisy_responded = release_laplace(responded[label], 2.0, eps_each, rng)
        denom = max(noisy_sampled, 1.0)
        numer = max(noisy_responded, 0.5)
        propensities[label] = min(1.0, numer / denom)
    if ledger is not None:
        ledger.charge("dp-propensity-cells", eps_value, 2.0)
    return propensities
