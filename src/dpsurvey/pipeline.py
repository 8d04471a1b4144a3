"""Pipeline orchestration: config ingestion, staged execution, reporting.

A run walks the survey pipeline in order (draw the sample, simulate
response, adjust weights, impute, estimate and release) and charges every
release to a privacy ledger.  The config fixes where the data-release
mechanism starts, and the start fixes which earlier stages are invariant;
only the three analyzed combinations are accepted:

* start="processed-data", invariant="none"     - the mechanism computes
  outputs from processed data; nothing upstream is held fixed.
* start="frame", invariant="population"        - sampling, response and
  processing happen inside the mechanism.
* start="responding-sample", invariant="frame" - the frame (hence weights)
  is pinned; the mechanism sees the responding sample.

Closed-form noise calibration is only used where the declared invariants
make it sound; anywhere the sensitivity is data-dependent the run refuses
to release unless the config supplies an audited sensitivity.

Reports never contain the realized sample, weights, or imputed values:
everything intermediary to the mechanism stays out of the output.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import designs, weighting
from .audit import (
    AuditInstance,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    effective_epsilon,
)
from .designs import (
    ClusterSRSWOR,
    Design,
    EnumerationCapExceeded,
    Poisson,
    PPS,
    SRSWOR,
    SRSWR,
    StratifiedSRSWOR,
    Systematic,
    TwoStageDesign,
    WeightedSample,
    inclusion_probs,
)
from .estimators import ReleaseRefusedError, ht_mean, ht_total, unweighted_mean
from .frames import Frame, ValueUniverse, _frozen, _Labels, _named, load_frame_csv
from .imputation import (
    fit_dp_mean_model,
    fit_dp_regression,
    hot_deck,
    impute_parametric,
    record_rng,
)
from .mechanisms import (
    BoundedMean,
    HTMeanFixedWeights,
    PrivacyLedger,
    Proportion,
    analytic_sensitivity,
    laplace_scale,
    release_laplace,
)

__all__ = [
    "ConfigError",
    "PipelineStageError",
    "ReleaseSpec",
    "PipelineConfig",
    "RunReport",
    "parse_config",
    "parse_config_file",
    "run_pipeline",
    "round_report",
    "SUPPORTED_START_INVARIANT",
]

SUPPORTED_START_INVARIANT = {
    "processed-data": "none",
    "frame": "population",
    "responding-sample": "frame",
}

STAGES = ("sample", "respond", "adjust", "impute", "release")

RELEASE_STATISTICS = ("mean", "proportion", "ht_mean", "ht_total")

BUDGET_TOLERANCE = 1e-9


class ConfigError(ValueError):
    """Config rejected; ``path`` points at the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class PipelineStageError(RuntimeError):
    """A stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.error = error
        super().__init__(f"stage {stage!r}: {error}")


@dataclass(frozen=True)
class ReleaseSpec:
    statistic: str
    epsilon: float
    audited_sensitivity: float | None = None


@dataclass(frozen=True)
class PipelineConfig:
    """One run's settings.  Construction checks every rule on them (each
    epsilon and the budget > 0, known names, the cells that benchmarks and DP
    propensities need, the budget as the sum of the epsilons, ...), so a
    config built in code fails as a config file does, with the same
    ``ConfigError`` path."""

    frame_path: str
    universe: ValueUniverse
    design: Design
    releases: tuple[ReleaseSpec, ...]
    mechanism_start: str
    budget: float
    response_model: str = "full"            # "full" | "propensity"
    cells: tuple | None = None              # (sorted unit ids, frames._Labels of their cells)
    benchmarks: dict | None = None          # label -> population total
    regularize_bounds: tuple[float, float] | None = None
    dp_propensity_epsilon: float | None = None
    imputation_method: str | None = None    # "dp_mean" | "dp_regression" | "hot_deck"
    imputation_epsilon: float | None = None
    audit_design_stage_epsilon: float | None = None
    seed: int | None = None

    def __post_init__(self):
        for i, spec in enumerate(self.releases):
            if spec.audited_sensitivity is not None:
                _number(spec.audited_sensitivity, f"releases[{i}].audited_sensitivity",
                        nonnegative=True)
            _number(spec.epsilon, f"releases[{i}].epsilon", positive=True)
        for path, epsilon in (("adjustment.dp_propensities.epsilon", self.dp_propensity_epsilon),
                              ("imputation.epsilon", self.imputation_epsilon),
                              ("audit.design_stage.epsilon", self.audit_design_stage_epsilon),
                              ("budget", self.budget)):
            if epsilon is not None:
                _number(epsilon, path, positive=True)
        starts = sorted(SUPPORTED_START_INVARIANT)
        if self.mechanism_start not in starts:  # a list: a JSON value may be unhashable
            raise ConfigError("mechanism_start",
                              f"must be one of {starts}, got {self.mechanism_start!r}")
        if not self.releases:
            raise ConfigError("releases", "expected a non-empty list")
        for i, spec in enumerate(self.releases):
            if spec.statistic not in RELEASE_STATISTICS:
                raise ConfigError(f"releases[{i}].statistic",
                                  f"must be one of {RELEASE_STATISTICS}, got {spec.statistic!r}")
        proportions = [i for i, spec in enumerate(self.releases) if spec.statistic == "proportion"]
        if proportions and not (self.universe.y_min >= 0.0 and self.universe.y_max <= 1.0):
            # the 1/n closed form assumes an indicator variable
            raise ConfigError(f"releases[{proportions[0]}].statistic",
                              "a proportion release requires a universe contained in [0, 1]")
        if self.response_model not in ("full", "propensity"):
            raise ConfigError("response.model",
                              f"must be 'full' or 'propensity', got {self.response_model!r}")
        if self.benchmarks is not None:
            if self.cells is None:
                raise ConfigError("adjustment.benchmarks", "benchmarks require cells")
            labels = set(self.cells[1].names)
            for label in self.benchmarks:
                if label not in labels:
                    raise ConfigError(f"adjustment.benchmarks.{label}", "no such cell")
        bounds = self.regularize_bounds
        if bounds is not None and bounds[0] > bounds[1]:
            raise ConfigError("adjustment.regularize", "lower must be <= upper")
        if self.dp_propensity_epsilon is not None and self.cells is None:
            raise ConfigError("adjustment.dp_propensities", "requires cells")
        method = self.imputation_method
        if method not in (None, "dp_mean", "dp_regression", "hot_deck"):
            raise ConfigError("imputation.method", f"unknown method {method!r}")
        if method in ("dp_mean", "dp_regression"):
            if self.imputation_epsilon is None:
                raise ConfigError("imputation.epsilon",
                                  f"method {method!r} needs a privacy budget")
        elif self.imputation_epsilon is not None:
            raise ConfigError("imputation.epsilon",
                              f"{method or 'no imputation'} is not a DP mechanism")
        if self.audit_design_stage_epsilon is not None and self.mechanism_start != "frame":
            raise ConfigError("audit.design_stage",
                              "a design-stage audit needs sampling inside the mechanism "
                              "(mechanism_start 'frame')")
        spent = (self.imputation_epsilon, self.dp_propensity_epsilon)
        committed = math.fsum([spec.epsilon for spec in self.releases]
                              + [eps for eps in spent if eps is not None])
        if abs(committed - self.budget) > BUDGET_TOLERANCE:
            raise ConfigError("budget", f"declared budget {self.budget} != sum of configured "
                                        f"epsilons {committed}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")

    @property
    def invariant(self) -> str:
        """What stays fixed upstream of the mechanism; the start decides it."""
        return SUPPORTED_START_INVARIANT[self.mechanism_start]


# ---------------------------------------------------------------------------
# JSON config parsing
# ---------------------------------------------------------------------------

def _object(value, path: str, allowed=None, required=()) -> dict:
    """``value`` as a JSON object: only ``allowed`` keys (any, if None), every ``required`` one."""
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    if allowed is not None:
        for key in value:
            if key not in allowed:
                raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in value:
            raise ConfigError(path, f"missing required key {key!r}")
    return value


def _number(value, path: str, *, positive=False, nonnegative=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(path, "must be finite")
    if positive and value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")
    if nonnegative and value < 0:
        raise ConfigError(path, f"must be >= 0, got {value}")
    return value


def _integer(value, path: str, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


# kind -> (design class, its required key, its optional key or None)
_DESIGN_KINDS = {
    "srswr": (SRSWR, "n", None),
    "srswor": (SRSWOR, "n", None),
    "poisson": (Poisson, "rate", None),
    "stratified_srswor": (StratifiedSRSWOR, "n", "allocation"),
    "cluster_srswor": (ClusterSRSWOR, "m", "inner"),
    "pps": (PPS, "n", None),
    "systematic": (Systematic, "n", "ordering"),
}


def _parse_design(spec, path: str) -> Design:
    """A design from its JSON object; the design's own ValueError names the optional key."""
    kind = _object(spec, path, required=("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _DESIGN_KINDS:
        raise ConfigError(f"{path}.kind", f"unknown design kind {kind!r}")
    cls, key, option = _DESIGN_KINDS[kind]
    spec = _object(spec, path, {"kind", key, option}, (key,))
    if key == "rate":
        value = _number(spec["rate"], f"{path}.rate", positive=True)
        if value > 1.0:
            raise ConfigError(f"{path}.rate", f"must be <= 1, got {value}")
    else:
        value = _integer(spec[key], f"{path}.{key}", minimum=1)
    if option not in spec:
        return cls(value)
    if option == "inner":  # two stages: clusters first, then units inside each
        cls, args = TwoStageDesign, (cls(value), _parse_design(spec["inner"], f"{path}.inner"))
    else:
        args = (value, spec[option])
    try:
        return cls(*args)
    except ValueError as err:
        raise ConfigError(f"{path}.{option}", str(err)) from err


def _check_cells(cells: dict) -> None:
    """Refuse the first entry, in listed order, that is no unit id or in another cell."""
    owner_of = {}
    for label, ids in cells.items():
        if not isinstance(ids, list) or not ids:
            raise ConfigError(f"adjustment.cells.{label}", "expected a non-empty list of unit ids")
        for j, unit in enumerate(ids):
            _integer(unit, f"adjustment.cells.{label}[{j}]")
            if owner_of.setdefault(unit, label) != label:
                raise ConfigError(f"adjustment.cells.{label}[{j}]", f"unit {unit} is already in "
                                  f"cell {owner_of[unit]!r}; cells must be disjoint")


def _parse_cells(cells: dict) -> tuple[np.ndarray, _Labels]:
    """The cells as the frame holds a label column: the listed ids sorted, once each,
    and the code of each one's cell.  ``_check_cells`` refuses a fault, and checks an
    id beyond int64, which matches no frame unit and is left out."""
    if not all(isinstance(ids, list) and ids and {int}.issuperset(map(type, ids))
               for ids in cells.values()):
        _check_cells(cells)  # refuses the first fault
    owner = np.repeat(np.arange(len(cells)), [len(ids) for ids in cells.values()])
    flat = list(itertools.chain.from_iterable(cells.values()))
    try:
        ids = np.array(flat, np.int64)
    except OverflowError:
        _check_cells(cells)
        keep = np.array([-2 ** 63 <= unit < 2 ** 63 for unit in flat])
        ids, owner = np.array(list(itertools.compress(flat, keep)), np.int64), owner[keep]
    del flat
    order = np.argsort(ids, kind="stable")
    ids, owner = ids[order], owner[order]
    repeat = ids[1:] == ids[:-1]
    if (repeat & (owner[1:] != owner[:-1])).any():  # an id in two cells
        _check_cells(cells)
    first = np.r_[True, ~repeat][:len(ids)]
    return _frozen(ids[first]), _named(dict(zip(cells, range(len(cells)))), owner[first])


def parse_config(text: str) -> PipelineConfig:
    """Read a JSON config, checking its keys, value types, ranges and ``invariant``.

    Rules between values are ``PipelineConfig``'s, the design's and
    ``ValueUniverse``'s; their errors are located by the same paths.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON: {err}") from err
    top = _object(raw, "", {"frame", "universe", "design", "releases", "mechanism_start",
                            "invariant", "budget", "response", "adjustment", "imputation",
                            "audit", "seed"},
                  ("frame", "universe", "design", "releases", "mechanism_start", "invariant",
                   "budget"))

    if not isinstance(top["frame"], str) or not top["frame"]:
        raise ConfigError("frame", "expected a CSV file path")

    uni = _object(top["universe"], "universe", {"y_min", "y_max", "x_values"}, ("y_min", "y_max"))
    x_values = uni.get("x_values", [1.0])
    if not isinstance(x_values, list) or not x_values:
        raise ConfigError("universe.x_values", "expected a non-empty list of numbers")
    fields = (_number(uni["y_min"], "universe.y_min"), _number(uni["y_max"], "universe.y_max"),
              tuple(_number(v, f"universe.x_values[{i}]", positive=True)
                    for i, v in enumerate(x_values)))
    try:
        universe = ValueUniverse(*fields)
    except ValueError as err:  # the numbers are valid one by one, not together
        raise ConfigError("universe", str(err)) from err

    design = _parse_design(top["design"], "design")

    if not isinstance(top["releases"], list):
        raise ConfigError("releases", "expected a non-empty list")
    releases = []
    for i, item in enumerate(top["releases"]):
        path = f"releases[{i}]"
        item = _object(item, path, {"statistic", "epsilon", "audited_sensitivity"},
                       ("statistic", "epsilon"))
        audited = item.get("audited_sensitivity")
        if audited is not None:
            audited = _number(audited, f"{path}.audited_sensitivity")
        releases.append(ReleaseSpec(item["statistic"], _number(item["epsilon"], f"{path}.epsilon"),
                                    audited))

    response_model = "full"
    if "response" in top:
        response_model = _object(top["response"], "response", {"model"}, ("model",))["model"]

    cells = benchmarks = regularize = dp_prop_eps = None
    if "adjustment" in top:
        adj = _object(top["adjustment"], "adjustment",
                      {"cells", "benchmarks", "regularize", "dp_propensities"})
        if "cells" in adj:
            cells = _parse_cells(_object(adj["cells"], "adjustment.cells"))
        if "benchmarks" in adj:
            totals = _object(adj["benchmarks"], "adjustment.benchmarks")
            benchmarks = {label: _number(total, f"adjustment.benchmarks.{label}", positive=True)
                          for label, total in totals.items()}
        if "regularize" in adj:
            reg = _object(adj["regularize"], "adjustment.regularize", {"lower", "upper"},
                          ("lower", "upper"))
            regularize = (_number(reg["lower"], "adjustment.regularize.lower", positive=True),
                          _number(reg["upper"], "adjustment.regularize.upper", positive=True))
        if "dp_propensities" in adj:
            dp = _object(adj["dp_propensities"], "adjustment.dp_propensities", {"epsilon"},
                         ("epsilon",))
            dp_prop_eps = _number(dp["epsilon"], "adjustment.dp_propensities.epsilon")

    imputation_method = imputation_eps = None
    if "imputation" in top:
        imp = _object(top["imputation"], "imputation", {"method", "epsilon"}, ("method",))
        imputation_method = imp["method"]
        if "epsilon" in imp:
            imputation_eps = _number(imp["epsilon"], "imputation.epsilon")

    audit_eps = None
    if "audit" in top:
        aud = _object(top["audit"], "audit", {"design_stage"})
        if "design_stage" in aud:
            ds = _object(aud["design_stage"], "audit.design_stage", {"epsilon"}, ("epsilon",))
            audit_eps = _number(ds["epsilon"], "audit.design_stage.epsilon")

    config = PipelineConfig(
        frame_path=top["frame"], universe=universe, design=design,
        releases=tuple(releases), mechanism_start=top["mechanism_start"],
        budget=_number(top["budget"], "budget"),
        response_model=response_model, cells=cells, benchmarks=benchmarks,
        regularize_bounds=regularize, dp_propensity_epsilon=dp_prop_eps,
        imputation_method=imputation_method, imputation_epsilon=imputation_eps,
        audit_design_stage_epsilon=audit_eps,
        seed=_integer(top["seed"], "seed") if "seed" in top else None)
    if top["invariant"] != config.invariant:
        raise ConfigError("invariant", f"start {config.mechanism_start!r} is only supported with "
                                       f"invariant {config.invariant!r}, got {top['invariant']!r}")
    return config


def parse_config_file(path) -> PipelineConfig:
    with open(path, encoding="utf-8") as handle:
        return parse_config(handle.read())


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Everything a run publishes.  Holds released values and privacy
    accounting only; nothing intermediary to the mechanism appears here."""

    seed: int
    mechanism_start: str
    invariant: str
    n_population: int
    budget_declared: float
    releases: tuple[dict, ...]
    ledger_charges: tuple[dict, ...]
    ledger_total: float
    stage_trace: tuple[dict, ...]
    audit: dict | None = None

    def as_dict(self) -> dict:
        report = {
            "seed": self.seed,
            "mechanism_start": self.mechanism_start,
            "invariant": self.invariant,
            "n_population": self.n_population,
            "budget": {
                "declared": self.budget_declared,
                "ledger_total": self.ledger_total,
                "charges": list(self.ledger_charges),
                # the sum rule assumes fresh noise per charge; runs sharing
                # sampling randomness are not covered by this total
                "composition": "sequential-independent-noise",
            },
            "releases": list(self.releases),
            "stage_trace": list(self.stage_trace),
        }
        if self.audit is not None:
            report["audit"] = self.audit
        return report

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def round_report(report_dict: dict, ndigits: int = 6) -> dict:
    """Post-processing: round released values for display.

    Operates on the report alone; it cannot touch a ledger, so it charges
    no additional privacy loss.
    """
    rounded = json.loads(json.dumps(report_dict))
    for release in rounded.get("releases", []):
        release["value"] = round(release["value"], ndigits)
    return rounded


def _simulate_response(config: PipelineConfig, sample: WeightedSample,
                       rng: np.random.Generator) -> np.ndarray:
    """One response flag per sampled row; at least one row responds."""
    # one uniform per row, in sample order: the stream of a scalar rng.random() per row
    flags = (np.ones(sample.size, dtype=bool) if config.response_model == "full"
             else rng.random(sample.size) < sample.frame.propensity_array[sample.positions])
    if not flags.any():
        raise ValueError("no respondents; cannot continue the pipeline")
    return flags


def _sample_cells(cells: tuple[np.ndarray, _Labels], units: np.ndarray) -> _Labels:
    """The cell column of the sampled unit ids, over only the cells they touch."""
    cell_ids, labels = cells
    at = np.searchsorted(cell_ids, units)
    covered = at < len(cell_ids)
    covered[covered] = cell_ids[at[covered]] == units[covered]
    if not covered.all():
        raise ValueError(f"units {units[~covered].tolist()} are not covered by any "
                         f"adjustment cell")
    return labels.take(at)


def _adjust_stage(config: PipelineConfig, full_sample: WeightedSample,
                  respondents: WeightedSample, flags, ledger: PrivacyLedger,
                  rng: np.random.Generator) -> WeightedSample:
    weights = respondents.w
    if config.regularize_bounds is not None:
        weights = weighting.regularize_weights(weights, *config.regularize_bounds)
    if config.cells is not None:
        labels = _sample_cells(config.cells, full_sample.frame.id_array[full_sample.positions])
        if config.dp_propensity_epsilon is not None:
            propensities = weighting.dp_estimate_propensities_cells(
                labels, flags, config.dp_propensity_epsilon, rng, ledger=ledger)
        else:
            propensities = weighting.estimate_propensities_cells(labels, flags)
        respondent_labels = labels.take(flags)
        weights = weighting.nonresponse_adjust(weights, propensities, respondent_labels)
        if config.benchmarks is not None:
            weights = weighting.poststratify(weights, respondent_labels, config.benchmarks)
    return respondents.with_weights(weights)


def _impute_stage(config: PipelineConfig, respondents: WeightedSample, ledger: PrivacyLedger,
                  rng: np.random.Generator, seed: int) -> WeightedSample:
    if config.imputation_method is None:
        return respondents
    universe = config.universe

    if config.imputation_method == "hot_deck":
        filled, _ = hot_deck(respondents.y, rng)
        return respondents.with_y(filled[:, 0])

    if config.imputation_method == "dp_mean":
        data = respondents.y.reshape(-1, 1)
        params = fit_dp_mean_model(
            data, [(universe.y_min, universe.y_max)], config.imputation_epsilon, rng, ledger=ledger)
        y_column = 0
    else:
        # dp_regression: predict y from the frame's size measure x
        data = np.column_stack([respondents.frame.x_array[respondents.positions], respondents.y])
        x_bounds = (min(universe.x_values), max(universe.x_values))
        params = fit_dp_regression(
            data, predictors=(0,), target=1,
            bounds=[x_bounds, (universe.y_min, universe.y_max)],
            eps1=config.imputation_epsilon, rng=rng, ledger=ledger)
        y_column = 1
    new_y = respondents.y.copy()
    for i in np.flatnonzero(np.isnan(new_y)).tolist():
        row = impute_parametric(data[i], params, record_rng(seed, respondents.ids[i]))
        new_y[i] = row[y_column]
    return respondents.with_y(new_y)


def _resolve_sensitivity(config: PipelineConfig, spec: ReleaseSpec,
                         processed: WeightedSample, pi: np.ndarray) -> tuple[float, str]:
    """(delta_f, source) for one release, or raise ReleaseRefusedError.

    Closed forms are only sound when the quantities they depend on are
    pinned by the declared invariants; otherwise an audited sensitivity
    must come from the config.  Every closed form is the one
    ``analytic_sensitivity`` gives for its descriptor, the form the audit
    oracle checks.
    """
    value_range = config.universe.value_range()
    if spec.audited_sensitivity is not None:
        return spec.audited_sensitivity, "audited"
    if value_range == 0.0:
        return 0.0, "degenerate-universe"
    hint = ("supply releases[*].audited_sensitivity from the audit oracle "
            "or switch to a frame-invariant pipeline")
    if config.imputation_method == "hot_deck":
        raise ReleaseRefusedError(
            f"refusing to release {spec.statistic!r}: hot-deck imputation couples "
            f"records through donors, inflating the sensitivity beyond every "
            f"closed form; {hint}")
    if config.mechanism_start == "frame":
        raise ReleaseRefusedError(
            f"refusing to release {spec.statistic!r}: with the mechanism starting "
            f"at the frame, sampling and response make every closed-form "
            f"sensitivity data-dependent; {hint}")
    if spec.statistic in ("mean", "proportion"):
        n_resp = processed.size
        statistic = (Proportion(n_resp) if spec.statistic == "proportion"
                     else BoundedMean(value_range, n_resp))
        delta = analytic_sensitivity(statistic).delta_f
        if config.mechanism_start == "responding-sample":
            # a unit drawn more than once (SRSWR) fills one row per draw with its y
            delta *= int(np.bincount(processed.units()[1]).max())
        return delta, "analytic-equal-weights"
    # weighted statistics
    if config.invariant != "frame":
        raise ReleaseRefusedError(
            f"refusing to release {spec.statistic!r}: weights are data under the "
            f"{config.invariant!r} invariant and no audited sensitivity was "
            f"supplied; {hint}")
    # each unit's weights summed in sample order, from 0.0
    unit_weight = np.bincount(processed.units()[1], weights=processed.w)
    w_max = max(float(np.max(1.0 / pi)), float(unit_weight.max()))
    # a total is a mean over a population of one
    n_pop = processed.frame.n if spec.statistic == "ht_mean" else 1
    statistic = HTMeanFixedWeights(w_max, value_range, n_pop)
    return analytic_sensitivity(statistic).delta_f, "analytic-fixed-weights"


def _release_stage(config: PipelineConfig, processed: WeightedSample, pi: np.ndarray,
                   ledger: PrivacyLedger, rng: np.random.Generator) -> list[dict]:
    released = []
    for spec in config.releases:
        if spec.statistic == "ht_mean":
            value = ht_mean(processed, processed.frame.n).value
        elif spec.statistic == "ht_total":
            value = ht_total(processed).value
        else:
            value = unweighted_mean(processed.y).value
        delta, source = _resolve_sensitivity(config, spec, processed, pi)
        noisy = release_laplace(value, delta, spec.epsilon, rng)
        ledger.charge(f"release[{spec.statistic}]", spec.epsilon, delta)
        released.append({
            "statistic": spec.statistic,
            "value": noisy,
            "epsilon": spec.epsilon,
            "delta_f": delta,
            "delta_f_source": source,
            "noise_scale": laplace_scale(delta, spec.epsilon).scale_b,
        })
    return released


def _audit_stage(config: PipelineConfig, frame: Frame) -> dict | None:
    if config.audit_design_stage_epsilon is None:
        return None
    eps = config.audit_design_stage_epsilon
    try:
        instance = AuditInstance(
            name="design-stage", statistic="mean",
            y_grid=(config.universe.y_min, config.universe.y_max),
            design=config.design, frame=frame)
        mechanism = SampledReleaseMechanism(
            "mean", RandomizedResponse(eps), design=config.design)
        report = effective_epsilon(mechanism, instance,
                                   NeighborRelation("population", "y-only"))
        return {"eps_nominal": report.eps_nominal,
                "eps_effective": report.eps_effective,
                "status": report.status}
    except (EnumerationCapExceeded, ValueError) as err:  # an intractable audit is reported
        return {"status": f"error: {err}"}


@contextmanager
def _stage(name: str):
    """A failure becomes ``PipelineStageError(name)``; a refused release passes through."""
    try:
        yield
    except ReleaseRefusedError:
        raise
    except Exception as err:
        raise PipelineStageError(name, err) from err


def _resolve_seed(config: PipelineConfig, seed: int | None) -> int:
    """The seed argument if given, else ``config.seed``; a run needs one, and it is >= 0."""
    seed = config.seed if seed is None else int(seed)
    if seed is None:
        raise ValueError("a seed is required (the seed argument or --seed, else config.seed)")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def run_pipeline(config: PipelineConfig, seed: int | None = None) -> RunReport:
    """Execute the configured pipeline deterministically for the given seed."""
    seed = _resolve_seed(config, seed)
    rng = np.random.default_rng(seed)
    ledger = PrivacyLedger()

    try:
        frame = load_frame_csv(config.frame_path)
    except OSError as err:
        raise PipelineStageError("load-frame", err) from err
    universe = config.universe
    outside = (frame.y_array < universe.y_min) | (frame.y_array > universe.y_max)
    if outside.any():
        i = int(np.argmax(outside))
        raise PipelineStageError(
            "load-frame",
            ValueError(f"record {frame.id_array[i]}: y={frame.y_array[i].item()} outside "
                       f"the declared universe [{universe.y_min}, {universe.y_max}]"))

    inside_from = {"frame": "sample", "responding-sample": "adjust",
                   "processed-data": "release"}[config.mechanism_start]
    boundary = STAGES.index(inside_from)
    stage_trace = [{"stage": stage, "inside_mechanism": i >= boundary}
                   for i, stage in enumerate(STAGES)]

    with _stage("sample"):
        # the design's pi over the frame weighs the sample and bounds the frame's weights
        pi = inclusion_probs(config.design, frame)
        sample = designs.draw(config.design, frame, rng, pi)
    with _stage("respond"):
        flags = _simulate_response(config, sample, rng)
        respondents = sample.take(flags)
    with _stage("adjust"):
        adjusted = _adjust_stage(config, sample, respondents, flags, ledger, rng)
    with _stage("impute"):
        processed = _impute_stage(config, adjusted, ledger, rng, seed)
    with _stage("release"):
        released = _release_stage(config, processed, pi, ledger, rng)

    audit = _audit_stage(config, frame)

    charges = tuple({"label": c.label, "epsilon": c.epsilon, "delta_f": c.delta_f}
                    for c in ledger.charges)
    return RunReport(
        seed=seed, mechanism_start=config.mechanism_start,
        invariant=config.invariant, n_population=frame.n,
        budget_declared=config.budget, releases=tuple(released),
        ledger_charges=charges, ledger_total=ledger.total(),
        stage_trace=tuple(stage_trace), audit=audit)
