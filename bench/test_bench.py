"""Self-tests of the benchmark, on tiny inputs: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# The end-to-end metrics each workload prints by name, with their units.
PRINTED = {
    "survey-run": {"setup_s": "s", "run_s": "s", "op_s": "s", "peak_rss_mb": "MB",
                   "fail_ratio": "ratio"},
    "pps-run": {"setup_s": "s", "run_s": "s", "op_s": "s", "peak_rss_mb": "MB",
                "fail_ratio": "ratio"},
    "audit": {"setup_s": "s", "epsilon_s": "s", "sensitivity_s": "s", "op_s": "s",
              "peak_rss_mb": "MB", "fail_ratio": "ratio"},
}


def _bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _units(metrics) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


def _check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(spec_metrics)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric_with_its_unit(workload):
    lines, result = _result(_bench(workload, trace=0))
    _check_result(result, SPEC["end_to_end"])
    printed = {line.split()[0]: line.split()[2] for line in lines[1:]}
    assert {name: printed.get(name) for name in PRINTED[workload]} == PRINTED[workload]
    assert float(lines[-1].split()[1]) == 0.0  # fail_ratio


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_counts_repeat(workload):
    first_lines, first = _result(_bench(workload, trace=1))
    _, second = _result(_bench(workload, trace=1))
    for result in (first, second):
        # correct also covers traced vs untraced byte identity of every report
        _check_result(result, SPEC["per_layer"])
    assert not [line for line in first_lines if "missing wrap target" in line]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_layer_metric_table_matches_benchmark_json():
    assert set(tracer.LAYER_METRICS) | {"trace.overhead_s"} == set(_units(SPEC["per_layer"]))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_missing_wrap_target_is_reported_and_originals_restored():
    import dpsurvey.designs
    original = dpsurvey.designs.draw
    t = tracer.Tracer()
    t.install([
        ("dpsurvey.frames.Frame.no_such_method", "frames.lookup", "leaf", None),
        ("dpsurvey.no_such_module.function", "frames.load", "span", None),
        ("dpsurvey.designs.draw", "designs.draw", "span", None),
    ])
    assert t.missing == ["dpsurvey.frames.Frame.no_such_method",
                         "dpsurvey.no_such_module.function"]
    assert dpsurvey.designs.draw is not original
    t.uninstall()
    assert dpsurvey.designs.draw is original


def test_self_time_excludes_child_spans_and_leaf_calls():
    t = tracer.Tracer()
    t.begin_op(0)
    leaf = t._leaf_wrapper(lambda: time.sleep(0.01), "leafy")
    with t.span("root", "root"):
        with t.span("child", "child"):
            time.sleep(0.02)
        leaf()
        time.sleep(0.01)
    root, child = t.spans
    assert root.parent is None and child.parent == root.id
    assert root.child == pytest.approx(child.duration + t.leaves["leafy"][0], abs=1e-12)
    assert root.self_time == pytest.approx(root.duration - root.child, abs=1e-12)
    assert t.leaves["leafy"][1] == 1
    assert t.op_metrics(0)["trace.coverage"] == pytest.approx(root.child / root.duration)


def test_exits_nonzero_without_the_program():
    bare = ROOT / ".bench_work" / f"bare-{id(object())}"
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = _bench("pps-run", trace=0, cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
