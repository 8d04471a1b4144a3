"""Weight adjustments: nonresponse propensity cells, post-stratification,
and weight regularization.

The propensity model is deliberately cell-based (weighting classes): it is
exact, enumerable, and its privacy cost can be traced by the audit oracle.
Cells with no respondents are collapsed into the next cell in label order
so the adjustment is always well-defined and reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from .frames import _group, _Labels
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


def _coded(cell_labels, values, kind, pair: str) -> tuple[_Labels, np.ndarray]:
    """The cells coded as a frame codes a label column, and the values aligned with
    them as ``kind``.  A coded column is taken as it is."""
    values = np.fromiter(map(kind, values), kind)
    if not isinstance(cell_labels, _Labels):
        labels = list(cell_labels)
        names = sorted(set(labels))
        code = dict(zip(names, range(len(names))))
        cell_labels = _Labels(tuple(names), np.array([code[label] for label in labels], np.intp))
    if len(values) != len(cell_labels.codes):
        raise ValueError(f"{pair} must align")
    return cell_labels, values


def _check_finite(weights: np.ndarray, cells: _Labels | None = None) -> None:
    """Refuse a NaN or infinite weight, naming its position (and cell)."""
    bad = ~np.isfinite(weights)
    if bad.any():
        i = int(bad.argmax())
        cell = "" if cells is None else f" in cell {cells.names[cells.codes[i]]!r}"
        raise ValueError(f"weight at position {i}{cell} is {float(weights[i])!r}; "
                         f"weights must be finite")


def _cell_counts(cell_labels, respond_flags) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The labels in sorted order, and the sampled and responded count of each."""
    (names, codes), flags = _coded(cell_labels, respond_flags, bool,
                                   "cell labels and response flags")
    return (names, np.bincount(codes, minlength=len(names)),
            np.bincount(codes[flags], minlength=len(names)))


def estimate_propensities_cells(cell_labels, respond_flags) -> dict[str, float]:
    """Respondents / sampled per cell, collapsing zero-respondent cells.

    ``cell_labels`` holds the cell label of each sampled unit, aligned with
    ``respond_flags``.  A cell whose sampled units all failed to respond is
    merged into the next cell in label order (the last cell merges backward)
    until every group has a respondent, so the returned propensities are
    always in (0, 1].
    """
    names, sampled, responded = _cell_counts(cell_labels, respond_flags)
    if not responded.any():
        raise ValueError("no respondents in any cell; nonresponse adjustment impossible")
    # each cell's group: the next cell with respondents, past the last one the last one
    has = responded > 0
    group = np.minimum(np.cumsum(has) - has, has.sum() - 1)
    rates = np.bincount(group, responded) / np.bincount(group, sampled)
    return dict(zip(names, rates[group].tolist()))


def nonresponse_adjust(weights, propensities, cell_labels) -> tuple[float, ...]:
    """w_nr_i = w_i / p_hat of unit i's cell; a NaN or infinite weight is refused."""
    cells, weights = _coded(cell_labels, weights, float, "weights and cell labels")
    _check_finite(weights, cells)
    names, codes = cells
    for label in map(names.__getitem__, dict.fromkeys(codes.tolist())):  # in unit order
        if not (0.0 < propensities[label] <= 1.0):
            raise ValueError(f"cell {label!r}: propensity {propensities[label]!r} outside (0, 1]")
    p = np.array([propensities[label] for label in names], float)[codes]
    with np.errstate(over="ignore"):
        adjusted = weights / p
    over = np.isinf(adjusted)
    if over.any():
        i = over.argmax()
        raise ValueError(f"cell {names[codes[i]]!r}: weight {float(weights[i])!r} / propensity "
                         f"{float(p[i])!r} overflows")
    return tuple(adjusted.tolist())


def poststratify(weights, cell_labels, benchmarks) -> tuple[float, ...]:
    """Rescale weights inside each benchmarked cell to hit the benchmark total.

    Cells without a benchmark pass through unchanged.  A benchmarked cell
    whose current weight total is zero (no respondents carrying weight)
    raises CalibrationError, as does one whose total or rescaled weights
    overflow; a NaN or infinite weight raises ValueError.  When a cell
    already matches its benchmark the weights are returned bit-identical,
    which makes repeated application a no-op.
    """
    cells, weights = _coded(cell_labels, weights, float, "weights and cell labels")
    _check_finite(weights, cells)
    members = _group(cells)
    # each cell's (B, S) of w * B / S; (1, 1) passes a cell through bit-identical
    scale = dict.fromkeys(members, (1.0, 1.0))
    for label, benchmark in benchmarks.items():
        if not (benchmark > 0):
            raise CalibrationError(f"cell {label!r}: benchmark must be > 0, got {benchmark!r}")
        if label not in members:
            raise CalibrationError(f"cell {label!r} has a benchmark but no weighted units")
        try:  # fsum is exactly rounded, so the grouping order cannot move a total
            total = math.fsum(weights[members[label]].tolist())
        except OverflowError:
            raise CalibrationError(f"cell {label!r}: weight total overflows") from None
        if total <= 0.0:
            raise CalibrationError(f"cell {label!r}: weight total is 0; cannot calibrate")
        if total != benchmark:
            scale[label] = benchmark, total
    benchmark, total = np.reshape(list(scale.values()), (-1, 2))[cells.codes].T
    with np.errstate(over="ignore", invalid="ignore"):
        out = weights * benchmark / total
        # where w * B overflows, w / S <= 1 (a total of positive weights) does not
        over = np.isinf(out)
        out[over] = weights[over] / total[over] * benchmark[over]
    over &= np.isinf(out)
    if over.any():
        raise CalibrationError(f"cell {cells.names[cells.codes[over.argmax()]]!r}: "
                               f"a calibrated weight overflows")
    return tuple(out.tolist())


def regularize_weights(weights, lower: float, upper: float) -> tuple[float, ...]:
    """Clamp every finite weight into [lower, upper]; lower == upper equalizes them."""
    if not (0.0 < lower <= upper) or not math.isfinite(upper):
        raise ValueError(f"bounds must satisfy 0 < lower <= upper, got [{lower}, {upper}]")
    weights = [float(w) for w in weights]
    _check_finite(np.array(weights, float))
    return tuple(min(upper, max(lower, w)) for w in weights)


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
    names, sampled, responded = _cell_counts(cell_labels, respond_flags)

    eps_each = eps_value / 2.0
    propensities = {}
    for label, n_sampled, n_responded in zip(names, sampled.tolist(), responded.tolist()):
        noisy_sampled = release_laplace(n_sampled, 2.0, eps_each, rng)
        noisy_responded = release_laplace(n_responded, 2.0, eps_each, rng)
        denom = max(noisy_sampled, 1.0)
        numer = max(noisy_responded, 0.5)
        propensities[label] = min(1.0, numer / denom)
    if ledger is not None:
        ledger.charge("dp-propensity-cells", eps_value, 2.0)
    return propensities
