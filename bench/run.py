"""dpsurvey benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload survey-run --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed`` into ``.bench_work/``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it print every metric by name and unit.

Each run uses separate single-threaded processes:

* ``--trace 0``: seven processes each time ``import dpsurvey`` plus the
  workload's config parsing or audit-instance construction (setup_s, the
  median); then one process runs the closed loop of ops for ``--seconds``
  (op_s, the median op time; peak_rss_mb, its peak resident set).
* ``--trace 1``: one untraced and one traced process each run the loop for
  half of ``--seconds`` on the same inputs.  The traced one wraps the
  program's public functions (see ``tracer.py``) and reports per-layer
  medians per op; trace.overhead_s is the difference of the two median op
  times, and every report must be byte-identical between the two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 7
# Everything a run does, builds included, must end well inside 180 s.
RUN_BUDGET_S = 170.0
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _import_dpsurvey():
    sys.path.insert(0, str(SRC))
    import dpsurvey
    if Path(dpsurvey.__file__).resolve().parent != (SRC / "dpsurvey").resolve():
        raise BenchError(f"imported dpsurvey from {dpsurvey.__file__}, not from {SRC}")
    return dpsurvey


def _child_setup(manifest: dict) -> dict:
    texts = workloads.setup_texts(manifest)
    start = clock()
    dpsurvey = _import_dpsurvey()
    workloads.setup(dpsurvey, manifest, texts)
    return {"setup_s": clock() - start}


def _child_ops(manifest: dict, seconds: float, traced: bool) -> dict:
    texts = workloads.setup_texts(manifest)
    dpsurvey = _import_dpsurvey()
    state = workloads.setup(dpsurvey, manifest, texts)
    import numpy as np  # already loaded by dpsurvey

    workload = manifest["workload"]
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    op = workloads.make_op(dpsurvey, np, manifest, state, tracer)
    calls = workloads.calls_per_op(workload)

    records = []
    start = clock()
    index = 0
    while index < workloads.min_ops(workload) or clock() - start < seconds:
        if tracer is not None:
            tracer.begin_op(index)
        records.append(_run_op(op, index, calls))
        if tracer is not None:
            records[-1]["layer"] = {**tracer.op_metrics(index), **records[-1].get("layer", {})}
        index += 1

    if workload == "survey-run":
        # every op repeats one config and seed
        first = records[0]["text"]
        for record in records[1:]:
            if record["text"] is not None and first is not None and record["text"] != first:
                record["problems"].append("report differs from the first op with the same seed")
    if workload == "pps-run" and not traced:
        # same frame and seed again, now with a warm calibration cache
        repeat = _run_op(op, 0, calls)
        repeat["repeat"] = True
        if repeat["text"] != records[0]["text"]:
            repeat["problems"].append("repeating op 0 with the same seed changed its report")
        records.append(repeat)

    result = {"ops": records,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload}-seed{manifest['seed']}.jsonl"
        tracer.write(trace_file)
        result.update({"missing": tracer.missing, "wrapped": len(tracer.wrapped),
                       "trace_file": str(trace_file.relative_to(ROOT))})
    return result


def _run_op(op, index: int, calls: int) -> dict:
    """One op; an exception fails it without ending the run."""
    try:
        record = op(index)
    except Exception as err:  # the op is counted as failed and the loop goes on
        print(f"op {index} raised {type(err).__name__}: {err}", file=sys.stderr)
        return {"times": {}, "text": None, "problems": [f"raised {type(err).__name__}"],
                "calls": calls}
    for problem in record["problems"]:
        print(f"op {index}: {problem}", file=sys.stderr)
    record["calls"] = calls
    return record


def _child_main(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    if args.child == "setup":
        result = _child_setup(manifest)
    else:
        result = _child_ops(manifest, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _spawn(kind: str, manifest_path: Path, deadline: float, seconds: float = 0.0,
           traced: bool = False) -> dict:
    remaining = deadline - clock()
    if remaining <= 0:
        raise BenchError(f"no time left for the {kind} process")
    command = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
               "--manifest", str(manifest_path), "--seconds", repr(seconds),
               "--trace", "1" if traced else "0"]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{kind} process did not finish within {remaining:.0f} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{kind} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _timed(records) -> list[dict]:
    return [r for r in records if r["times"] and not r.get("repeat")]


def _tally(records) -> tuple[int, int]:
    attempted = sum(r["calls"] for r in records)
    failed = sum(r["calls"] for r in records if r["problems"])
    return attempted, failed


def _op_time(record) -> float:
    return sum(record["times"].values())


def _untraced(manifest_path: Path, seconds: float, deadline: float):
    setups = [_spawn("setup", manifest_path, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS)]
    result = _spawn("ops", manifest_path, deadline, seconds)
    records = result["ops"]
    timed = _timed(records)
    if not timed:
        raise BenchError("every op failed; no timing to report")
    attempted, failed = _tally(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(_op_time(r) for r in timed),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    lines = [("setup_s", metrics["setup_s"], "s", f"median of {len(setups)} processes")]
    for name in timed[0]["times"]:
        lines.append((name, statistics.median(r["times"][name] for r in timed), "s",
                      f"median of {len(timed)} ops"))
    lines += [
        ("op_s", metrics["op_s"], "s", f"median of {len(timed)} ops, "
         + " + ".join(timed[0]["times"])),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss of the op process"),
        ("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} calls failed"),
    ]
    return metrics, lines, attempted, failed, []


def _traced(manifest_path: Path, seconds: float, deadline: float):
    plain = _spawn("ops", manifest_path, deadline, seconds / 2)
    traced = _spawn("ops", manifest_path, deadline, seconds / 2, traced=True)
    records = plain["ops"] + traced["ops"]
    plain_ops = [r for r in plain["ops"] if not r.get("repeat")]
    for index, (a, b) in enumerate(zip(plain_ops, traced["ops"])):
        if a["text"] is not None and b["text"] is not None and a["text"] != b["text"]:
            b["problems"].append(f"op {index}: traced report differs from untraced")
            print(b["problems"][-1], file=sys.stderr)
    timed = _timed(traced["ops"])
    if not timed or not _timed(plain["ops"]):
        raise BenchError("every op failed; no timing to report")
    attempted, failed = _tally(records)
    metrics = {name: statistics.median(r["layer"][name] for r in timed)
               for name in timed[0]["layer"]}
    metrics["trace.overhead_s"] = (statistics.median(_op_time(r) for r in timed)
                                   - statistics.median(_op_time(r) for r in _timed(plain["ops"])))
    notes = sorted({note for r in traced["ops"] for note in r.get("notes", ())})
    notes.append(f"{traced['wrapped']} wrap targets, spans in {traced['trace_file']}")
    notes += [f"missing wrap target: {site}" for site in traced["missing"]]
    lines = [(name, value, "", f"median of {len(timed)} traced ops")
             for name, value in metrics.items()]
    lines.append(("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} calls failed"))
    return metrics, lines, attempted, failed, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks every input for the benchmark's self-tests")
    parser.add_argument("--child", choices=("setup", "ops"), help=argparse.SUPPRESS)
    parser.add_argument("--manifest", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.child is not None:
        return _child_main(args)
    deadline = clock() + RUN_BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dpsurvey" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"needs src/dpsurvey and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        manifest = workloads.prepare(args.workload, args.seed, args.size, work)
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        measure = _traced if args.trace else _untraced
        metrics, lines, attempted, failed, notes = measure(manifest_path, args.seconds, deadline)
        absent = [m["name"] for m in wanted if m["name"] not in metrics]
        if absent:
            raise BenchError(f"metrics not measured: {absent}")
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}: "
          f"closed loop, one caller, one op at a time")
    for name, value, unit, note in lines:
        print(f"  {name:<28} {value:>14.6g} {units.get(name, unit):<6} {note}")
    for note in notes:
        print(f"  note: {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
