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

import json
import math
from collections import Counter
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
from .frames import Frame, ValueUniverse, load_frame_csv
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
    "TwoStageDesign",
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


def _check_start(start) -> None:
    if start not in SUPPORTED_START_INVARIANT:
        raise ConfigError("mechanism_start",
                          f"must be one of {sorted(SUPPORTED_START_INVARIANT)}, got {start!r}")


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
    frame_path: str
    universe: ValueUniverse
    design: Design
    releases: tuple[ReleaseSpec, ...]
    mechanism_start: str
    budget: float
    response_model: str = "full"            # "full" | "propensity"
    cell_of: dict | None = None             # unit id -> adjustment cell label
    benchmarks: dict | None = None          # label -> population total
    regularize_bounds: tuple[float, float] | None = None
    dp_propensity_epsilon: float | None = None
    imputation_method: str | None = None    # "dp_mean" | "dp_regression" | "hot_deck"
    imputation_epsilon: float | None = None
    audit_design_stage_epsilon: float | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_start(self.mechanism_start)
        proportions = [i for i, spec in enumerate(self.releases) if spec.statistic == "proportion"]
        if proportions and not (self.universe.y_min >= 0.0 and self.universe.y_max <= 1.0):
            # the 1/n closed form assumes an indicator variable
            raise ConfigError(f"releases[{proportions[0]}].statistic",
                              "a proportion release requires a universe contained in [0, 1]")

    @property
    def invariant(self) -> str:
        """What stays fixed upstream of the mechanism; the start decides it."""
        return SUPPORTED_START_INVARIANT[self.mechanism_start]


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(mapping: dict, allowed: set[str], required: tuple[str, ...], path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in mapping:
            raise ConfigError(path, f"missing required key {key!r}")


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


def _parse_design(spec, path: str):
    spec = _expect_mapping(spec, path)
    if "kind" not in spec:
        raise ConfigError(path, "missing required key 'kind'")
    kind = spec["kind"]
    if kind == "srswr":
        _check_keys(spec, {"kind", "n"}, ("n",), path)
        return SRSWR(_integer(spec["n"], f"{path}.n", minimum=1))
    if kind == "srswor":
        _check_keys(spec, {"kind", "n"}, ("n",), path)
        return SRSWOR(_integer(spec["n"], f"{path}.n", minimum=1))
    if kind == "poisson":
        _check_keys(spec, {"kind", "rate"}, ("rate",), path)
        rate = _number(spec["rate"], f"{path}.rate", positive=True)
        if rate > 1.0:
            raise ConfigError(f"{path}.rate", f"must be <= 1, got {rate}")
        return Poisson(rate)
    if kind == "stratified_srswor":
        _check_keys(spec, {"kind", "n", "allocation"}, ("n",), path)
        allocation = spec.get("allocation", "proportional")
        if allocation not in ("proportional", "neyman"):
            raise ConfigError(f"{path}.allocation", f"unknown allocation {allocation!r}")
        return StratifiedSRSWOR(_integer(spec["n"], f"{path}.n", minimum=1), allocation)
    if kind == "cluster_srswor":
        _check_keys(spec, {"kind", "m", "inner"}, ("m",), path)
        outer = ClusterSRSWOR(_integer(spec["m"], f"{path}.m", minimum=1))
        if "inner" in spec:
            inner = _parse_design(spec["inner"], f"{path}.inner")
            if isinstance(inner, (ClusterSRSWOR, TwoStageDesign, StratifiedSRSWOR)):
                raise ConfigError(f"{path}.inner", "inner stage must select units directly")
            return TwoStageDesign(outer, inner)
        return outer
    if kind == "pps":
        _check_keys(spec, {"kind", "n"}, ("n",), path)
        return PPS(_integer(spec["n"], f"{path}.n", minimum=1))
    if kind == "systematic":
        _check_keys(spec, {"kind", "n", "ordering"}, ("n",), path)
        ordering = spec.get("ordering", "frame")
        if ordering not in ("frame", "random"):
            raise ConfigError(f"{path}.ordering", f"unknown ordering {ordering!r}")
        return Systematic(_integer(spec["n"], f"{path}.n", minimum=1), ordering)
    raise ConfigError(f"{path}.kind", f"unknown design kind {kind!r}")


def parse_config(text: str) -> PipelineConfig:
    """Validate a JSON config document; unknown keys are rejected with their path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("", f"invalid JSON: {err}") from err
    top = _expect_mapping(raw, "")
    allowed = {"frame", "universe", "design", "releases", "mechanism_start", "invariant",
               "budget", "response", "adjustment", "imputation", "audit", "seed"}
    required = ("frame", "universe", "design", "releases", "mechanism_start",
                "invariant", "budget")
    _check_keys(top, allowed, required, "")

    if not isinstance(top["frame"], str) or not top["frame"]:
        raise ConfigError("frame", "expected a CSV file path")

    uni = _expect_mapping(top["universe"], "universe")
    _check_keys(uni, {"y_min", "y_max", "x_values"}, ("y_min", "y_max"), "universe")
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

    start = top["mechanism_start"]
    invariant = top["invariant"]
    _check_start(start)
    if SUPPORTED_START_INVARIANT[start] != invariant:
        raise ConfigError(
            "invariant",
            f"start {start!r} is only supported with invariant "
            f"{SUPPORTED_START_INVARIANT[start]!r}, got {invariant!r}")

    if not isinstance(top["releases"], list) or not top["releases"]:
        raise ConfigError("releases", "expected a non-empty list")
    releases = []
    for i, item in enumerate(top["releases"]):
        path = f"releases[{i}]"
        item = _expect_mapping(item, path)
        _check_keys(item, {"statistic", "epsilon", "audited_sensitivity"},
                    ("statistic", "epsilon"), path)
        stat = item["statistic"]
        if stat not in RELEASE_STATISTICS:
            raise ConfigError(f"{path}.statistic",
                              f"must be one of {RELEASE_STATISTICS}, got {stat!r}")
        audited = item.get("audited_sensitivity")
        if audited is not None:
            audited = _number(audited, f"{path}.audited_sensitivity", nonnegative=True)
        releases.append(ReleaseSpec(stat, _number(item["epsilon"], f"{path}.epsilon",
                                                  positive=True), audited))

    response_model = "full"
    if "response" in top:
        resp = _expect_mapping(top["response"], "response")
        _check_keys(resp, {"model"}, ("model",), "response")
        response_model = resp["model"]
        if response_model not in ("full", "propensity"):
            raise ConfigError("response.model",
                              f"must be 'full' or 'propensity', got {response_model!r}")

    cell_of = benchmarks = regularize = dp_prop_eps = None
    if "adjustment" in top:
        adj = _expect_mapping(top["adjustment"], "adjustment")
        _check_keys(adj, {"cells", "benchmarks", "regularize", "dp_propensities"},
                    (), "adjustment")
        if "cells" in adj:
            cells_raw = _expect_mapping(adj["cells"], "adjustment.cells")
            cell_of = {}
            for label, ids in cells_raw.items():
                if not isinstance(ids, list) or not ids:
                    raise ConfigError(f"adjustment.cells.{label}",
                                      "expected a non-empty list of unit ids")
                for j, unit in enumerate(ids):
                    # paths are formatted only for the entry being rejected
                    if isinstance(unit, bool) or not isinstance(unit, int):
                        _integer(unit, f"adjustment.cells.{label}[{j}]")
                    owner = cell_of.setdefault(unit, label)
                    if owner != label:
                        raise ConfigError(f"adjustment.cells.{label}[{j}]",
                                          f"unit {unit} is already in cell {owner!r}; "
                                          f"cells must be disjoint")
        if "benchmarks" in adj:
            if cell_of is None:
                raise ConfigError("adjustment.benchmarks", "benchmarks require cells")
            bench_raw = _expect_mapping(adj["benchmarks"], "adjustment.benchmarks")
            benchmarks = {}
            for label, total in bench_raw.items():
                if label not in cells_raw:
                    raise ConfigError(f"adjustment.benchmarks.{label}", "no such cell")
                benchmarks[str(label)] = _number(
                    total, f"adjustment.benchmarks.{label}", positive=True)
        if "regularize" in adj:
            reg = _expect_mapping(adj["regularize"], "adjustment.regularize")
            _check_keys(reg, {"lower", "upper"}, ("lower", "upper"), "adjustment.regularize")
            lower = _number(reg["lower"], "adjustment.regularize.lower", positive=True)
            upper = _number(reg["upper"], "adjustment.regularize.upper", positive=True)
            if lower > upper:
                raise ConfigError("adjustment.regularize", "lower must be <= upper")
            regularize = (lower, upper)
        if "dp_propensities" in adj:
            if cell_of is None:
                raise ConfigError("adjustment.dp_propensities", "requires cells")
            dp = _expect_mapping(adj["dp_propensities"], "adjustment.dp_propensities")
            _check_keys(dp, {"epsilon"}, ("epsilon",), "adjustment.dp_propensities")
            dp_prop_eps = _number(dp["epsilon"], "adjustment.dp_propensities.epsilon",
                                  positive=True)

    imputation_method = imputation_eps = None
    if "imputation" in top:
        imp = _expect_mapping(top["imputation"], "imputation")
        _check_keys(imp, {"method", "epsilon"}, ("method",), "imputation")
        imputation_method = imp["method"]
        if imputation_method not in ("dp_mean", "dp_regression", "hot_deck"):
            raise ConfigError("imputation.method",
                              f"unknown method {imputation_method!r}")
        if imputation_method in ("dp_mean", "dp_regression"):
            if "epsilon" not in imp:
                raise ConfigError("imputation.epsilon",
                                  f"method {imputation_method!r} needs a privacy budget")
            imputation_eps = _number(imp["epsilon"], "imputation.epsilon", positive=True)
        elif "epsilon" in imp:
            raise ConfigError("imputation.epsilon", "hot_deck is not a DP mechanism")

    audit_eps = None
    if "audit" in top:
        aud = _expect_mapping(top["audit"], "audit")
        _check_keys(aud, {"design_stage"}, (), "audit")
        if "design_stage" in aud:
            ds = _expect_mapping(aud["design_stage"], "audit.design_stage")
            _check_keys(ds, {"epsilon"}, ("epsilon",), "audit.design_stage")
            if start != "frame":
                raise ConfigError(
                    "audit.design_stage",
                    "a design-stage audit needs sampling inside the mechanism "
                    "(mechanism_start 'frame')")
            audit_eps = _number(ds["epsilon"], "audit.design_stage.epsilon", positive=True)

    budget = _number(top["budget"], "budget", positive=True)
    committed = math.fsum(
        [spec.epsilon for spec in releases]
        + ([imputation_eps] if imputation_eps is not None else [])
        + ([dp_prop_eps] if dp_prop_eps is not None else []))
    if abs(committed - budget) > BUDGET_TOLERANCE:
        raise ConfigError("budget",
                          f"declared budget {budget} != sum of configured epsilons "
                          f"{committed}")

    seed = None
    if "seed" in top:
        seed = _integer(top["seed"], "seed", minimum=0)

    return PipelineConfig(
        frame_path=top["frame"], universe=universe, design=design,
        releases=tuple(releases), mechanism_start=start, budget=budget,
        response_model=response_model, cell_of=cell_of, benchmarks=benchmarks,
        regularize_bounds=regularize, dp_propensity_epsilon=dp_prop_eps,
        imputation_method=imputation_method, imputation_epsilon=imputation_eps,
        audit_design_stage_epsilon=audit_eps, seed=seed)


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


def _simulate_response(config: PipelineConfig, sample: WeightedSample, frame: Frame,
                       rng: np.random.Generator):
    if config.response_model == "full":
        return [True] * sample.size
    # one uniform per sampled unit, in sample order: the same stream as a
    # scalar rng.random() per unit
    propensity = frame.propensity_array[frame.positions(sample.ids)]
    return (rng.random(sample.size) < propensity).tolist()


def _respondent_sample(sample: WeightedSample, flags) -> WeightedSample:
    kept = [i for i, flag in enumerate(flags) if flag]
    if not kept:
        raise ValueError("no respondents; cannot continue the pipeline")
    return WeightedSample(
        tuple(sample.ids[i] for i in kept), tuple(sample.pi[i] for i in kept),
        tuple(sample.w[i] for i in kept), tuple(sample.y[i] for i in kept))


def _adjust_stage(config: PipelineConfig, full_sample: WeightedSample,
                  respondents: WeightedSample, flags, ledger: PrivacyLedger,
                  rng: np.random.Generator) -> WeightedSample:
    weights = respondents.w
    if config.regularize_bounds is not None:
        weights = weighting.regularize_weights(weights, *config.regularize_bounds)
    if config.cell_of is not None:
        # only the cells the realized sample touches are adjusted
        labels = [config.cell_of.get(unit) for unit in full_sample.ids]
        if None in labels:
            missing = [unit for unit, label in zip(full_sample.ids, labels) if label is None]
            raise ValueError(f"units {missing} are not covered by any adjustment cell")
        if config.dp_propensity_epsilon is not None:
            propensities = weighting.dp_estimate_propensities_cells(
                labels, flags, config.dp_propensity_epsilon, rng, ledger=ledger)
        else:
            propensities = weighting.estimate_propensities_cells(labels, flags)
        respondent_labels = [label for label, flag in zip(labels, flags) if flag]
        weights = weighting.nonresponse_adjust(weights, propensities, respondent_labels)
        if config.benchmarks is not None:
            weights = weighting.poststratify(weights, respondent_labels, config.benchmarks)
    return respondents.with_weights(weights)


def _impute_stage(config: PipelineConfig, respondents: WeightedSample, frame: Frame,
                  ledger: PrivacyLedger, rng: np.random.Generator,
                  seed: int) -> WeightedSample:
    if config.imputation_method is None:
        return respondents
    universe = config.universe

    if config.imputation_method == "hot_deck":
        data = np.array([[v] for v in respondents.y])
        filled, _ = hot_deck(data, rng)
        return respondents.with_y(tuple(float(v) for v in filled[:, 0]))

    if config.imputation_method == "dp_mean":
        data = np.array([[v] for v in respondents.y])
        params = fit_dp_mean_model(
            data, [(universe.y_min, universe.y_max)], config.imputation_epsilon, rng, ledger=ledger)
        y_column = 0
    else:
        # dp_regression: predict y from the frame's size measure x
        xs = frame.x_array[frame.positions(respondents.ids)]
        data = np.column_stack([xs, respondents.y])
        x_bounds = (min(universe.x_values), max(universe.x_values))
        params = fit_dp_regression(
            data, predictors=(0,), target=1,
            bounds=[x_bounds, (universe.y_min, universe.y_max)],
            eps1=config.imputation_epsilon, rng=rng, ledger=ledger)
        y_column = 1
    new_y = list(respondents.y)
    for i, (unit, y) in enumerate(zip(respondents.ids, respondents.y)):
        if math.isnan(y):
            row = impute_parametric(data[i], params, record_rng(seed, unit))
            new_y[i] = float(row[y_column])
    return respondents.with_y(new_y)


def _resolve_sensitivity(config: PipelineConfig, spec: ReleaseSpec,
                         processed: WeightedSample, frame: Frame,
                         pi: np.ndarray) -> tuple[float, str]:
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
            delta *= max(Counter(processed.ids).values())
        return delta, "analytic-equal-weights"
    # weighted statistics
    if config.invariant != "frame":
        raise ReleaseRefusedError(
            f"refusing to release {spec.statistic!r}: weights are data under the "
            f"{config.invariant!r} invariant and no audited sensitivity was "
            f"supplied; {hint}")
    unit_weight = Counter()
    for unit, w in zip(processed.ids, processed.w):
        unit_weight[unit] += w
    w_max = max(float(np.max(1.0 / pi)), max(unit_weight.values()))
    # a total is a mean over a population of one
    n_pop = frame.n if spec.statistic == "ht_mean" else 1
    statistic = HTMeanFixedWeights(w_max, value_range, n_pop)
    return analytic_sensitivity(statistic).delta_f, "analytic-fixed-weights"


def _release_stage(config: PipelineConfig, processed: WeightedSample, frame: Frame,
                   pi: np.ndarray, ledger: PrivacyLedger,
                   rng: np.random.Generator) -> list[dict]:
    released = []
    for spec in config.releases:
        if spec.statistic == "ht_mean":
            value = ht_mean(processed, frame.n).value
        elif spec.statistic == "ht_total":
            value = ht_total(processed).value
        else:
            value = unweighted_mean(processed.y).value
        delta, source = _resolve_sensitivity(config, spec, processed, frame, pi)
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
    except Exception as err:  # per-attachment errors are reported, not fatal
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


def run_pipeline(config: PipelineConfig, seed: int | None = None) -> RunReport:
    """Execute the configured pipeline deterministically for the given seed."""
    seed = config.seed if seed is None else seed
    if seed is None:
        raise ValueError("a seed is required (config.seed or the seed argument)")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
        flags = _simulate_response(config, sample, frame, rng)
        respondents = _respondent_sample(sample, flags)
    with _stage("adjust"):
        adjusted = _adjust_stage(config, sample, respondents, flags, ledger, rng)
    with _stage("impute"):
        processed = _impute_stage(config, adjusted, frame, ledger, rng, seed)
    with _stage("release"):
        released = _release_stage(config, processed, frame, pi, ledger, rng)

    audit = _audit_stage(config, frame)

    charges = tuple({"label": c.label, "epsilon": c.epsilon, "delta_f": c.delta_f}
                    for c in ledger.charges)
    return RunReport(
        seed=seed, mechanism_start=config.mechanism_start,
        invariant=config.invariant, n_population=frame.n,
        budget_declared=config.budget, releases=tuple(released),
        ledger_charges=charges, ledger_total=ledger.total(),
        stage_trace=tuple(stage_trace), audit=audit)
