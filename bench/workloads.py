"""Workload inputs, ops and output checks for the dpsurvey benchmark.

Inputs are made from the workload seed with the standard library alone
(``random`` and ``csv``), so the program under test receives only generated
files and configs, and a fresh process can time ``import dpsurvey`` without
numpy already loaded.  Only names that ``dpsurvey.__all__`` exports are
called, so the benchmark keeps running across internal refactors.

Each workload is one closed loop: a single caller issues one op, waits for
it, checks its output, then issues the next.

* ``survey-run``: ``run_pipeline`` on an N=10^5 stratified frame.  Every op
  in a run repeats the same config and seed, so each op after the first
  must reproduce the first op's report byte for byte.
* ``pps-run``: ``run_pipeline`` with a PPS design on a fresh N=300 frame per
  op, so the conditional-Poisson calibration cache is cold on every op, as
  for every ``dpsurvey run`` invocation.
* ``audit``: one op is a round of one ``effective_epsilon`` call and one
  ``exact_sensitivity`` call, each checked against a pinned oracle value.
"""

from __future__ import annotations

import csv
import json
import math
import random
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter as clock

WORKLOADS = ("survey-run", "pps-run", "audit")

# Mirrors the pipeline's own budget check (declared budget == sum of epsilons).
BUDGET_TOLERANCE = 1e-9

SIZES = {
    "full": {
        "survey_n": 100_000, "survey_sample": 1000,
        "pps_n": 300, "pps_sample": 30,
        "eps_n": 9, "sens_n": 7,
    },
    "tiny": {
        "survey_n": 2000, "survey_sample": 100,
        "pps_n": 60, "pps_sample": 6,
        "eps_n": 5, "sens_n": 4,
    },
}

# effective_epsilon of RandomizedResponse(1.0) after Poisson(0.25) sampling of
# the mean, on 0/1 data, per frame size N: the value the oracle returned at
# the commit that introduced this benchmark, with its pair and category counts
# (2^N * N pairs; distinct fractions k/m with m <= N, plus the empty sample).
EPSILON_EXPECTED = {
    9: (0.18140724173529513, 4608, 30),
    5: (0.20569533883553587, 160, 12),
}
EPSILON_TOLERANCE = 1e-9

SURVEY_STRATA = 10
SURVEY_MISSING = 0.10
SURVEY_X = (1.0, 2.0, 4.0)
PPS_X = (1.0, 2.0, 3.0, 4.0)
SENS_SAMPLE = 2
SENS_GRID = (0.0, 0.5, 1.0)
RR_EPSILON = 1.0
POISSON_RATE = 0.25

CSV_HEADER = ("id", "y", "x", "stratum", "cluster", "propensity")


def min_ops(workload: str) -> int:
    """Ops a run always completes, whatever its time budget.

    survey-run needs two so the same-seed byte-identity check always runs.
    """
    return 2 if workload == "survey-run" else 1


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _write_frame(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _survey_inputs(seed: int, sizes: dict, work) -> dict:
    rng = random.Random(f"survey-run:{seed}")
    n = sizes["survey_n"]
    rows = []
    cells: dict[str, list[int]] = {f"s{h}": [] for h in range(SURVEY_STRATA)}
    for unit in range(1, n + 1):
        stratum = f"s{rng.randrange(SURVEY_STRATA)}"
        y = "" if rng.random() < SURVEY_MISSING else repr(rng.random())
        rows.append((unit, y, repr(rng.choice(SURVEY_X)), stratum, "0",
                     repr(rng.uniform(0.5, 1.0))))
        cells[stratum].append(unit)
    frame_path = str(work / "survey-frame.csv")
    _write_frame(frame_path, rows)
    config = {
        "frame": frame_path,
        "universe": {"y_min": 0.0, "y_max": 1.0, "x_values": list(SURVEY_X)},
        "design": {"kind": "stratified_srswor", "n": sizes["survey_sample"],
                   "allocation": "proportional"},
        "response": {"model": "propensity"},
        "adjustment": {"cells": cells,
                       "benchmarks": {label: float(len(ids)) for label, ids in cells.items()}},
        "imputation": {"method": "dp_regression", "epsilon": 0.2},
        "releases": [{"statistic": "ht_mean", "epsilon": 0.5},
                     {"statistic": "mean", "epsilon": 0.3}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }
    config_path = work / "survey-config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return {"config": str(config_path), "n": n, "budget": 1.0,
            "sources": {"ht_mean": "analytic-fixed-weights",
                        "mean": "analytic-equal-weights"},
            "op_seed": seed}


def pps_op_inputs(seed: int, op: int, sizes: dict, work) -> tuple[str, str, int]:
    """Fresh frame and config for one pps-run op: (config text, frame path, run seed)."""
    rng = random.Random(f"pps-run:{seed}:{op}")
    n = sizes["pps_n"]
    rows = [(unit, repr(rng.random()), repr(rng.choice(PPS_X)), "0", "0",
             repr(rng.uniform(0.5, 1.0))) for unit in range(1, n + 1)]
    frame_path = str(work / f"pps-frame-{op}.csv")
    _write_frame(frame_path, rows)
    config = {
        "frame": frame_path,
        "universe": {"y_min": 0.0, "y_max": 1.0, "x_values": list(PPS_X)},
        "design": {"kind": "pps", "n": sizes["pps_sample"]},
        "response": {"model": "propensity"},
        "releases": [{"statistic": "ht_total", "epsilon": 1.0}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    }
    return json.dumps(config), frame_path, rng.randrange(2 ** 31)


def _audit_frame(rng: random.Random, n: int, path) -> None:
    ids = rng.sample(range(1, 1000), n)
    _write_frame(path, [(unit, repr(rng.choice((0.0, 1.0))), repr(rng.choice(PPS_X)),
                         "0", "0", "1.0") for unit in ids])


def _audit_inputs(seed: int, sizes: dict, work) -> dict:
    rng = random.Random(f"audit:{seed}")
    eps_path = work / "audit-epsilon-frame.csv"
    sens_path = work / "audit-sensitivity-frame.csv"
    _audit_frame(rng, sizes["eps_n"], eps_path)
    _audit_frame(rng, sizes["sens_n"], sens_path)
    n_sens = sizes["sens_n"]
    return {"epsilon_frame": str(eps_path), "sensitivity_frame": str(sens_path),
            "epsilon_expected": EPSILON_EXPECTED[sizes["eps_n"]],
            # HTMeanFixedWeights(N/n, R, N): w_max * R / n_pop
            "sensitivity_expected": (n_sens / SENS_SAMPLE)
            * (max(SENS_GRID) - min(SENS_GRID)) / n_sens}


def prepare(workload: str, seed: int, size: str, work) -> dict:
    """Write the workload's inputs under ``work``; return a JSON-able manifest."""
    sizes = SIZES[size]
    manifest = {"workload": workload, "seed": seed, "size": size, "work": str(work)}
    if workload == "survey-run":
        manifest.update(_survey_inputs(seed, sizes, work))
    elif workload == "pps-run":
        # setup_s parses the first op's config
        text, _, _ = pps_op_inputs(seed, 0, sizes, work)
        config_path = work / "pps-config-0.json"
        config_path.write_text(text, encoding="utf-8")
        manifest.update({"config": str(config_path), "n": sizes["pps_n"], "budget": 1.0,
                         "sources": {"ht_total": "analytic-fixed-weights"}})
    else:
        manifest.update(_audit_inputs(seed, sizes, work))
    return manifest


# ---------------------------------------------------------------------------
# Setup: the work timed as setup_s (after ``import dpsurvey``)
# ---------------------------------------------------------------------------

def setup(dpsurvey, manifest: dict, texts: dict):
    """Parse configs or build audit instances from pre-read input texts."""
    if "config" in texts:
        return {"config": dpsurvey.parse_config(texts["config"])}
    relation = dpsurvey.NeighborRelation("population", "y-only")
    eps_frame = dpsurvey.load_frame_csv(manifest["epsilon_frame"])
    sens_frame = dpsurvey.load_frame_csv(manifest["sensitivity_frame"])
    design = dpsurvey.Poisson(POISSON_RATE)
    return {
        "relation": relation,
        "epsilon_instance": dpsurvey.AuditInstance(
            name="bench-epsilon", statistic="mean", y_grid=(0.0, 1.0),
            design=design, frame=eps_frame),
        "mechanism": dpsurvey.SampledReleaseMechanism(
            "mean", dpsurvey.RandomizedResponse(RR_EPSILON), design),
        "sensitivity_instance": dpsurvey.AuditInstance(
            name="bench-sensitivity", statistic="ht_mean", y_grid=SENS_GRID,
            design=dpsurvey.SRSWOR(SENS_SAMPLE), frame=sens_frame, n_pop=sens_frame.n),
    }


def setup_texts(manifest: dict) -> dict:
    """Input files the setup step parses, read before the setup timer starts."""
    if "config" not in manifest:
        return {}
    with open(manifest["config"], encoding="utf-8") as handle:
        return {"config": handle.read()}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_report(report: dict, manifest: dict) -> list[str]:
    """Problems with one run report; an empty list means the op passed."""
    problems = []
    if report.get("n_population") != manifest["n"]:
        problems.append(f"n_population {report.get('n_population')} != {manifest['n']}")
    total = report.get("budget", {}).get("ledger_total")
    if not isinstance(total, float) or abs(total - manifest["budget"]) > BUDGET_TOLERANCE:
        problems.append(f"ledger_total {total!r} != budget {manifest['budget']}")
    sources = manifest["sources"]
    releases = report.get("releases", [])
    if [r.get("statistic") for r in releases] != list(sources):
        problems.append(f"released statistics {[r.get('statistic') for r in releases]}")
    for release in releases:
        value = release.get("value")
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{release.get('statistic')}: release {value!r} is not finite")
        expected = sources.get(release.get("statistic"))
        if release.get("delta_f_source") != expected:
            problems.append(f"{release.get('statistic')}: delta_f_source "
                            f"{release.get('delta_f_source')!r} != {expected!r}")
    return problems


def check_epsilon(report, expected) -> list[str]:
    value, pairs, categories = expected
    problems = []
    if report.status != "ok" or abs(report.eps_effective - value) > EPSILON_TOLERANCE:
        problems.append(f"eps_effective {report.eps_effective!r} ({report.status}) != {value!r}")
    if report.n_pairs != pairs:
        problems.append(f"n_pairs {report.n_pairs} != {pairs}")
    if report.categories is None or len(report.categories) != categories:
        problems.append(f"categories {report.categories!r} (expected {categories})")
    return problems


def check_sensitivity(sensitivity, expected: float) -> list[str]:
    if abs(sensitivity.delta_f - expected) > 1e-12:
        return [f"exact_sensitivity {sensitivity.delta_f!r} != closed form {expected!r}"]
    return []


def epsilon_text(report) -> str:
    """Canonical text of an effective-epsilon report, for byte comparisons."""
    return repr((report.eps_nominal, report.eps_effective, report.status,
                 report.worst_pair, report.worst_event, report.n_pairs, report.categories))


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def calls_per_op(workload: str) -> int:
    return 2 if workload == "audit" else 1


def make_op(dpsurvey, np, manifest: dict, state: dict, tracer=None):
    """Return ``op(index) -> dict`` for the manifest's workload.

    The dict holds the wall time of each timed call under its end-to-end
    name, the report text compared byte for byte across ops and processes,
    the output-check problems, and (traced only) extra per-layer values.
    With a tracer, each call into the program is a root span.
    """
    workload = manifest["workload"]

    def root(name: str, group: str):
        return tracer.span(name, group) if tracer is not None else nullcontext()

    if workload == "survey-run":
        config = state["config"]

        def survey_op(index: int) -> dict:
            with root("run_pipeline", "pipeline"):
                start = clock()
                report = dpsurvey.run_pipeline(config, manifest["op_seed"])
                elapsed = clock() - start
            return {"times": {"run_s": elapsed}, "text": report.to_json(),
                    "problems": check_report(report.as_dict(), manifest)}

        return survey_op

    if workload == "pps-run":
        sizes = SIZES[manifest["size"]]
        work = Path(manifest["work"])

        def pps_op(index: int) -> dict:
            text, frame_path, seed = pps_op_inputs(manifest["seed"], index, sizes, work)
            config = dpsurvey.parse_config(text)
            with root("run_pipeline", "pipeline"):
                start = clock()
                report = dpsurvey.run_pipeline(config, seed)
                elapsed = clock() - start
            result = {"times": {"run_s": elapsed}, "text": report.to_json(),
                      "problems": check_report(report.as_dict(), manifest)}
            if tracer is not None:
                result.update(_warm_draw_probe(dpsurvey, np, tracer, frame_path,
                                               sizes["pps_sample"], seed))
            return result

        return pps_op

    relation = state["relation"]
    epsilon_expected = tuple(manifest["epsilon_expected"])

    def audit_op(index: int) -> dict:
        with root("effective_epsilon", "audit"):
            start = clock()
            report = dpsurvey.effective_epsilon(
                state["mechanism"], state["epsilon_instance"], relation)
            epsilon_s = clock() - start
        with root("exact_sensitivity", "audit"):
            start = clock()
            sensitivity = dpsurvey.exact_sensitivity(state["sensitivity_instance"], relation)
            sensitivity_s = clock() - start
        result = {"times": {"epsilon_s": epsilon_s, "sensitivity_s": sensitivity_s},
                  "text": epsilon_text(report) + "\n" + repr(sensitivity.delta_f),
                  "problems": check_epsilon(report, epsilon_expected)
                  + check_sensitivity(sensitivity, manifest["sensitivity_expected"])}
        if tracer is not None:
            result["layer"] = {"audit.categories": len(report.categories or ())}
        return result

    return audit_op


def _warm_draw_probe(dpsurvey, np, tracer, frame_path: str, n: int, seed: int) -> dict:
    """Draw again on the op's frame with the op's seed, untraced.

    ``run_pipeline`` seeds one generator and draws with it first, so this
    repeats the op's selection path with the PPS calibration cache now warm;
    designs.draw_s - designs.draw_warm_s is then the calibration cost.
    """
    with tracer.paused():
        frame = dpsurvey.load_frame_csv(frame_path)
        start = clock()
        sample = dpsurvey.draw(dpsurvey.PPS(n), frame, np.random.default_rng(seed))
        warm = clock() - start
    result = {"layer": {"designs.draw_warm_s": warm}}
    cold = getattr(tracer.last_result.get("designs.draw"), "ids", None)
    if cold is not None and tuple(cold) != tuple(getattr(sample, "ids", ())):
        result["notes"] = ["warm draw probe took a different selection path than the op"]
    return result
