"""Imputation of missing values under differential privacy.

Parametric imputation keeps record-level conditional independence: once the
model parameters are fitted (privately, with budget eps1), each record's
imputed values depend only on that record, the parameters, and its own
noise stream.  Analyzing the completed data with any eps2 mechanism then
costs eps1 + eps2 in total.  Hot-deck imputation is provided as the
counterexample: donors couple records, and one donor's value can propagate
into every imputed record.

Data is a 2-D float array with NaN marking missing entries; bounds are a
(lo, hi) pair per column and every released statistic is clipped to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import PrivacyLedger, _epsilon_value, laplace_draws, release_laplace

__all__ = [
    "ImputationParams",
    "fit_dp_mean_model",
    "fit_dp_regression",
    "impute_parametric",
    "impute_dataset",
    "hot_deck",
    "record_rng",
]

RIDGE_FACTOR = 1e-3  # fit_dp_regression's ridge penalty per mean noisy predictor moment


def _as_matrix(data) -> np.ndarray:
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ValueError(f"data must be 1- or 2-dimensional, got shape {matrix.shape}")
    return matrix


def _check_bounds(bounds, n_cols: int) -> list[tuple[float, float]]:
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if len(bounds) != n_cols:
        raise ValueError(f"expected {n_cols} (lo, hi) bounds, got {len(bounds)}")
    for j, (lo, hi) in enumerate(bounds):
        if not (math.isfinite(lo) and math.isfinite(hi) and hi >= lo):
            raise ValueError(f"column {j}: bounds must be finite with hi >= lo, got ({lo}, {hi})")
    return bounds


@dataclass(frozen=True)
class ImputationParams:
    """Fitted imputation model and the privacy budget of each released entry."""

    method: str                                    # "mean" | "regression"
    bounds: tuple[tuple[float, float], ...]
    epsilon_per_entry: float
    means: tuple[float, ...] | None = None         # mean model
    residual_scales: tuple[float, ...] | None = None
    coefficients: tuple[float, ...] | None = None  # regression: intercept first
    predictors: tuple[int, ...] | None = None
    target: int | None = None
    residual_scale: float = 0.0


def record_rng(seed: int, record_index: int) -> np.random.Generator:
    """Independent per-record noise substream derived from (seed, record id)."""
    # modulo 2**64 any int64 id is a valid seed word, and an id >= 0 keeps its stream
    return np.random.default_rng([int(seed), int(record_index) % 2 ** 64])


def fit_dp_mean_model(data, bounds, eps1, rng, *, estimate_spread: bool = False,
                      ledger: PrivacyLedger | None = None) -> ImputationParams:
    """Per-column DP means of the complete records (optionally plus DP spreads).

    The budget eps1 is split equally across the released quantities: one per
    column, or two per column when ``estimate_spread`` is set.  Each mean is
    released with Laplace noise at sensitivity range_j / n_obs and clipped
    back into bounds.
    """
    matrix = _as_matrix(data)
    n_rows, n_cols = matrix.shape
    bounds = _check_bounds(bounds, n_cols)
    eps_total = _epsilon_value(eps1)
    n_entries = n_cols * (2 if estimate_spread else 1)
    eps_entry = eps_total / n_entries

    fit_rows = matrix[~np.isnan(matrix).any(axis=1)]
    if fit_rows.shape[0] == 0:
        raise ValueError("no fully observed records to fit on")

    means = []
    spreads = []
    for j in range(n_cols):
        lo, hi = bounds[j]
        clipped = np.clip(fit_rows[:, j], lo, hi)
        col_range = hi - lo
        delta = col_range / clipped.size
        noisy_mean = release_laplace(float(np.mean(clipped)), delta, eps_entry, rng)
        means.append(min(hi, max(lo, noisy_mean)))
        if estimate_spread:
            abs_dev = float(np.mean(np.abs(clipped - means[-1])))
            noisy_spread = release_laplace(abs_dev, delta, eps_entry, rng)
            spreads.append(max(0.0, min(col_range, noisy_spread)))
        else:
            spreads.append(0.0)

    if ledger is not None:
        ledger.charge("impute-fit[mean]", eps_total)
    return ImputationParams(
        method="mean", bounds=tuple(bounds), epsilon_per_entry=eps_entry,
        means=tuple(means), residual_scales=tuple(spreads))


def _product_range(a_lo, a_hi, b_lo, b_hi) -> float:
    corners = [a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi]
    return max(corners) - min(corners)


def fit_dp_regression(data, predictors, target, bounds, eps1, rng, *,
                      ledger: PrivacyLedger | None = None) -> ImputationParams:
    """Linear model for ``target`` from ``predictors`` via noisy sufficient stats.

    Complete cases are clipped to bounds, cross-product matrices are formed,
    and every data-dependent entry (the record count is invariant under
    replace-one neighbors and stays exact) receives Laplace noise scaled to
    its per-record contribution range at budget eps1 / n_entries.  The
    coefficients come from ridge-regularized normal equations, so a noisy
    near-singular system still yields a solution.
    """
    matrix = _as_matrix(data)
    n_rows, n_cols = matrix.shape
    bounds = _check_bounds(bounds, n_cols)
    predictors = tuple(int(p) for p in predictors)
    target = int(target)
    if target in predictors:
        raise ValueError("target column cannot also be a predictor")
    for j in (*predictors, target):
        if not (0 <= j < n_cols):
            raise ValueError(f"column index {j} out of range")
    eps_total = _epsilon_value(eps1)
    p = len(predictors)

    used = (*predictors, target)
    keep = ~np.isnan(matrix[:, list(used)]).any(axis=1)
    rows = matrix[keep]
    if rows.shape[0] < p + 1:
        raise ValueError(f"need at least {p + 1} complete cases, got {rows.shape[0]}")

    design = np.column_stack([np.ones(rows.shape[0])] +
                             [np.clip(rows[:, j], *bounds[j]) for j in predictors])
    response = np.clip(rows[:, target], *bounds[target])
    z_bounds = [(1.0, 1.0)] + [bounds[j] for j in predictors]
    y_lo, y_hi = bounds[target]

    cross = design.T @ design
    moment = design.T @ response
    response_sq = float(response @ response)

    # Noised in order: cross's upper triangle but the record count (exact under
    # replace-one), the moment vector, the response sum of squares; (p+1)(p+4)/2 in all.
    eps_entry = eps_total / ((p + 1) * (p + 4) // 2)
    noisy_cross = cross.copy()
    for a in range(p + 1):
        for b in range(max(a, 1), p + 1):
            delta = _product_range(*z_bounds[a], *z_bounds[b])
            noisy_cross[a, b] = noisy_cross[b, a] = release_laplace(
                cross[a, b], delta, eps_entry, rng)
    noisy_moment = np.array([
        release_laplace(moment[a], _product_range(*z_bounds[a], y_lo, y_hi), eps_entry, rng)
        for a in range(p + 1)])
    noisy_resp_sq = release_laplace(
        response_sq, _product_range(y_lo, y_hi, y_lo, y_hi), eps_entry, rng)

    predictor_trace = float(np.trace(noisy_cross[1:, 1:])) if p else 0.0
    lam = RIDGE_FACTOR * predictor_trace / p if p else 0.0
    if not (lam > 0.0) or not math.isfinite(lam):
        lam = RIDGE_FACTOR
    system = noisy_cross + lam * np.diag([0.0] + [1.0] * p)
    try:
        beta = np.linalg.solve(system, noisy_moment)
    except np.linalg.LinAlgError:
        beta, *_ = np.linalg.lstsq(system, noisy_moment, rcond=None)

    n_fit = rows.shape[0]
    resid_var = (noisy_resp_sq - 2.0 * float(beta @ noisy_moment)
                 + float(beta @ noisy_cross @ beta)) / n_fit
    residual_scale = math.sqrt(max(resid_var, 0.0) / 2.0)

    if ledger is not None:
        ledger.charge("impute-fit[regression]", eps_total)
    return ImputationParams(
        method="regression", bounds=tuple(bounds), epsilon_per_entry=eps_entry,
        coefficients=tuple(float(v) for v in beta), predictors=predictors, target=target,
        residual_scale=residual_scale)


def impute_parametric(record, params: ImputationParams, rng) -> np.ndarray:
    """Fill one record's missing entries from the fitted model.

    The inputs are exactly (record, params, rng): the fill for a record can
    never depend on any other record.  Fully observed records are returned
    unchanged.
    """
    row = np.asarray(record, dtype=float).copy()
    if row.ndim != 1 or row.size != len(params.bounds):
        raise ValueError(f"record must have {len(params.bounds)} entries")
    missing = np.isnan(row)
    if not missing.any():
        return row

    if params.method == "mean":
        for j in np.flatnonzero(missing):
            lo, hi = params.bounds[j]
            value = params.means[j]
            scale = params.residual_scales[j]
            if scale > 0.0:
                value = value + laplace_draws(scale, rng)
            row[j] = min(hi, max(lo, value))
        return row

    if params.method == "regression":
        fillable = set(np.flatnonzero(missing).tolist())
        if fillable != {params.target}:
            raise ValueError(
                f"regression model imputes only column {params.target}; "
                f"record is missing columns {sorted(fillable)}")
        z = [1.0] + [min(params.bounds[j][1], max(params.bounds[j][0], row[j]))
                     for j in params.predictors]
        value = math.fsum(c * v for c, v in zip(params.coefficients, z))
        if params.residual_scale > 0.0:
            value = value + laplace_draws(params.residual_scale, rng)
        lo, hi = params.bounds[params.target]
        row[params.target] = min(hi, max(lo, value))
        return row

    raise ValueError(f"unknown imputation method {params.method!r}")


def impute_dataset(data, params: ImputationParams, seed: int) -> np.ndarray:
    """Impute every record with its own (seed, row index) noise substream."""
    matrix = _as_matrix(data).copy()
    for i in range(matrix.shape[0]):
        if np.isnan(matrix[i]).any():
            matrix[i] = impute_parametric(matrix[i], params, record_rng(seed, i))
    return matrix


def hot_deck(data, rng) -> tuple[np.ndarray, dict[int, int]]:
    """Fill each incomplete record from one uniformly drawn complete donor.

    Returns the filled matrix and the donor assignment (recipient row ->
    donor row) so audits can reproduce the realized coupling.
    """
    matrix = _as_matrix(data).copy()
    complete = np.flatnonzero(~np.isnan(matrix).any(axis=1))
    incomplete = np.flatnonzero(np.isnan(matrix).any(axis=1))
    if incomplete.size and complete.size == 0:
        raise ValueError("hot deck needs at least one fully observed donor record")
    donors: dict[int, int] = {}
    for i in incomplete:
        donor = int(complete[rng.integers(0, complete.size)])
        donors[int(i)] = donor
        missing = np.isnan(matrix[i])
        matrix[i, missing] = matrix[donor, missing]
    return matrix, donors
