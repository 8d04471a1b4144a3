"""Command-line interface.

Subcommands: run, validate-config, sample, impute, audit-sensitivity,
audit-amplification.  Every command accepts --seed.  Failures exit 1 with a
machine-readable JSON error on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .audit import (
    NeighborRelation,
    amplification_sweep,
    exact_sensitivity,
    write_sweep_csv,
)
from .designs import ClusterSRSWOR, Poisson, PPS, SRSWOR, SRSWR, Systematic, draw
from .frames import load_frame_csv, write_csv
from .imputation import fit_dp_mean_model, impute_parametric, record_rng
from .instances import formula_agreement_instances, four_unit_frame
from .mechanisms import analytic_sensitivity
from .pipeline import _resolve_seed, parse_config_file, run_pipeline


def _error_json(err: Exception) -> str:
    return json.dumps({"error": type(err).__name__, "message": str(err)},
                      sort_keys=True)


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    report = run_pipeline(config, seed=args.seed)
    _write_text(report.to_json(), args.out)
    return 0


def _cmd_validate(args) -> int:
    parse_config_file(args.config)
    print("ok")
    return 0


def _cmd_sample(args) -> int:
    config = parse_config_file(args.config)
    seed = _resolve_seed(config, args.seed)
    frame = load_frame_csv(config.frame_path)
    sample = draw(config.design, frame, np.random.default_rng(seed))
    rows = ([unit, "" if np.isnan(y) else repr(y), repr(pi), repr(w)]
            for unit, y, pi, w in zip(sample.ids, sample.y, sample.pi, sample.w))
    _write_text(write_csv(["id", "y", "pi", "w"], rows), args.out)
    return 0


def _cmd_impute(args) -> int:
    config = parse_config_file(args.config)
    seed = _resolve_seed(config, args.seed)
    if config.imputation_method != "dp_mean":
        raise ValueError("the impute command supports configs with imputation.method "
                         "'dp_mean'; run the full pipeline for other methods")
    frame = load_frame_csv(config.frame_path)
    universe = config.universe
    data = np.array(frame.y_array).reshape(-1, 1)
    params = fit_dp_mean_model(data, [(universe.y_min, universe.y_max)],
                               config.imputation_epsilon, np.random.default_rng(seed))
    rows = []
    for unit, y, row in zip(frame.ids, frame.y, data):
        if np.isnan(y):
            filled = impute_parametric(row, params, record_rng(seed, unit))
            rows.append([unit, repr(float(filled[0])), 1])
        else:
            rows.append([unit, repr(y), 0])
    _write_text(write_csv(["id", "y", "imputed"], rows), args.out)
    return 0


def _cmd_audit_sensitivity(args) -> int:
    relation = NeighborRelation(args.invariant, args.mutable)
    rows = []
    for instance, descriptor in formula_agreement_instances():
        exact = exact_sensitivity(instance, relation).delta_f
        analytic = analytic_sensitivity(descriptor).delta_f
        rows.append([instance.name, instance.statistic, relation.invariant,
                     relation.mutable, repr(exact), repr(analytic),
                     int(abs(exact - analytic) <= 1e-12)])
    header = ["instance", "statistic", "invariant", "mutable", "exact", "analytic", "match"]
    _write_text(write_csv(header, rows), args.out)
    return 0


_DESIGN_BUILDERS = {
    "srswr": lambda args: SRSWR(args.n),
    "srswor": lambda args: SRSWOR(args.n),
    "poisson": lambda args: Poisson(args.rate),
    "cluster": lambda args: ClusterSRSWOR(args.m),
    "pps": lambda args: PPS(args.n),
    "systematic": lambda args: Systematic(args.n, args.ordering),
}


def _cmd_audit_amplification(args) -> int:
    if args.design == "poisson" and args.rate is None:
        raise ValueError("--rate is required for the poisson design")
    frame = load_frame_csv(args.frame) if args.frame else four_unit_frame()
    design = _DESIGN_BUILDERS[args.design](args)
    rows = amplification_sweep([design], args.eps, frame, statistic=args.statistic)
    _write_text(write_sweep_csv(rows, None), args.out)
    return 0


def _write_text(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsurvey",
        description="Differentially private survey pipelines with a desk-scale audit oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a pipeline config and write the run report")
    run.add_argument("config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate-config", help="exit 0 if the config is valid")
    validate.add_argument("config")
    validate.add_argument("--seed", type=int, default=None)
    validate.set_defaults(func=_cmd_validate)

    sample = sub.add_parser("sample", help="draw one sample under the config's design")
    sample.add_argument("config")
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--out", default=None)
    sample.set_defaults(func=_cmd_sample)

    impute = sub.add_parser("impute", help="fill missing y values per the config")
    impute.add_argument("config")
    impute.add_argument("--seed", type=int, default=None)
    impute.add_argument("--out", default=None)
    impute.set_defaults(func=_cmd_impute)

    sens = sub.add_parser("audit-sensitivity",
                          help="oracle vs closed-form sensitivities on bundled instances")
    sens.add_argument("--invariant", default="none",
                      choices=["none", "population", "frame"])
    sens.add_argument("--mutable", default="y-only", choices=["y-only", "full-record"])
    sens.add_argument("--seed", type=int, default=None)
    sens.add_argument("--out", default=None)
    sens.set_defaults(func=_cmd_audit_sensitivity)

    amp = sub.add_parser("audit-amplification",
                         help="exact effective epsilon of a sampled release")
    amp.add_argument("--design", required=True, choices=sorted(_DESIGN_BUILDERS))
    amp.add_argument("--rate", type=float, default=None, help="poisson rate")
    amp.add_argument("-n", type=int, default=1, help="sample size (fixed-size designs)")
    amp.add_argument("-m", type=int, default=1, help="clusters to select")
    amp.add_argument("--ordering", default="frame", choices=["frame", "random"])
    amp.add_argument("--eps", type=float, action="append", required=True,
                     help="base-mechanism epsilon (repeatable)")
    amp.add_argument("--statistic", default="max",
                     choices=["max", "mean", "proportion", "total"])
    amp.add_argument("--frame", default=None, help="frame CSV (default: bundled 4-unit)")
    amp.add_argument("--seed", type=int, default=None)
    amp.add_argument("--out", default=None)
    amp.set_defaults(func=_cmd_audit_amplification)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        sys.stderr.write(_error_json(err) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
