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
from .designs import ClusterSRSWOR, Poisson, PPS, SRSWOR, SRSWR, Systematic, build_sample, draw
from .frames import load_frame_csv, write_csv
from .instances import formula_agreement_instances, four_unit_frame
from .mechanisms import PrivacyLedger, analytic_sensitivity
from .pipeline import _impute_stage, _resolve_seed, parse_config_file, run_pipeline


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


def _config_and_seed(args):
    config = parse_config_file(args.config)
    return config, _resolve_seed(config, args.seed)


def _cmd_sample(args) -> int:
    config, seed = _config_and_seed(args)
    frame = load_frame_csv(config.frame_path)
    sample = draw(config.design, frame, np.random.default_rng(seed))
    rows = ([unit, "" if np.isnan(y) else repr(y), repr(pi), repr(w)] for unit, y, pi, w in
            zip(sample.ids, sample.y.tolist(), sample.pi.tolist(), sample.w.tolist()))
    _write_text(write_csv(["id", "y", "pi", "w"], rows), args.out)
    return 0


def _cmd_impute(args) -> int:
    config, seed = _config_and_seed(args)
    if config.imputation_method != "dp_mean":
        raise ValueError("the impute command supports configs with imputation.method "
                         "'dp_mean'; run the full pipeline for other methods")
    frame = load_frame_csv(config.frame_path)
    # the run's imputation stage on a census of the frame, with a ledger of its own
    census = build_sample(frame, np.arange(frame.n), np.ones(frame.n))
    filled = _impute_stage(config, census, PrivacyLedger(), np.random.default_rng(seed), seed)
    rows = zip(frame.ids, map(repr, filled.y.tolist()), np.isnan(census.y).astype(int).tolist())
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
    commands = {}
    for name, func, text in (
            ("run", _cmd_run, "execute a pipeline config and write the run report"),
            ("validate-config", _cmd_validate, "exit 0 if the config is valid"),
            ("sample", _cmd_sample, "draw one sample under the config's design"),
            ("impute", _cmd_impute, "fill missing y values per the config"),
            ("audit-sensitivity", _cmd_audit_sensitivity,
             "oracle vs closed-form sensitivities on bundled instances"),
            ("audit-amplification", _cmd_audit_amplification,
             "exact effective epsilon of a sampled release")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)

    sens = commands["audit-sensitivity"]
    sens.add_argument("--invariant", default="none", choices=["none", "population", "frame"])
    sens.add_argument("--mutable", default="y-only", choices=["y-only", "full-record"])

    amp = commands["audit-amplification"]
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

    for name, command in commands.items():  # the arguments that commands share
        if not name.startswith("audit-"):
            command.add_argument("config")
        command.add_argument("--seed", type=int, default=None)
        if name != "validate-config":
            command.add_argument("--out", default=None)
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
