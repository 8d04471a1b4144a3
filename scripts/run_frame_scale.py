"""Time the frame path of a survey run on a large stratified frame.

Writes a frame shaped like the benchmark's survey run (10 strata, 10% of y
missing, x in {1, 2, 4}, propensities U(0.5, 1)) and a config that draws a
proportional stratified SRSWOR of N/100 units, adjusts within strata,
imputes by DP regression and releases an HT mean and a mean.  It then times
``load_frame_csv``, the first ``strata()`` call, the stratified inclusion
probabilities and one ``run_pipeline`` (which loads the frame again).  The
config parse, the load and the run are then each called once more under
``tracemalloc``, whose peak is the memory that call itself allocates, numpy
buffers included; for the parse it also reports what the parsed config keeps
(its adjustment cells).  The traced calls run several times slower and are
not timed.

Usage: python scripts/run_frame_scale.py [N] [seed]    (default 10000 1)
"""

import csv
import json
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from dpsurvey import parse_config, run_pipeline
from dpsurvey.designs import inclusion_probs
from dpsurvey.frames import CSV_HEADER, load_frame_csv

STRATA = 10


def write_inputs(directory: Path, n_frame: int, seed: int) -> str:
    """Write the frame and the config; returns the config text."""
    rng = np.random.default_rng(seed)
    strata = rng.integers(STRATA, size=n_frame)
    ys = rng.random(n_frame)
    missing = rng.random(n_frame) < 0.1
    xs = rng.choice([1.0, 2.0, 4.0], size=n_frame)
    propensities = rng.uniform(0.5, 1.0, size=n_frame)
    frame_path = directory / "frame.csv"
    with frame_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            (unit, "" if gone else repr(y), repr(x), f"s{h}", "0", repr(p))
            for unit, y, gone, x, h, p in zip(range(1, n_frame + 1), ys.tolist(),
                                               missing.tolist(), xs.tolist(),
                                               strata.tolist(), propensities.tolist()))
    ids = np.arange(1, n_frame + 1)
    cells = {f"s{h}": ids[strata == h].tolist() for h in range(STRATA)}
    return json.dumps({
        "frame": str(frame_path),
        "universe": {"y_min": 0.0, "y_max": 1.0, "x_values": [1.0, 2.0, 4.0]},
        "design": {"kind": "stratified_srswor", "n": max(STRATA, n_frame // 100),
                   "allocation": "proportional"},
        "response": {"model": "propensity"},
        "adjustment": {"cells": cells,
                       "benchmarks": {label: float(len(units)) for label, units in cells.items()}},
        "imputation": {"method": "dp_regression", "epsilon": 0.2},
        "releases": [{"statistic": "ht_mean", "epsilon": 0.5},
                     {"statistic": "mean", "epsilon": 0.3}],
        "mechanism_start": "responding-sample",
        "invariant": "frame",
        "budget": 1.0,
    })


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def traced_mb(fn, *args) -> tuple[float, float]:
    """The tracemalloc peak of one call and what its result still holds, in MB."""
    tracemalloc.start()
    try:
        result = fn(*args)  # held: "kept" is what is still allocated while it lives
        kept, peak = tracemalloc.get_traced_memory()
        return peak / 2 ** 20, kept / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    n_frame, seed = (int(v) for v in (argv + ["10000", "1"][len(argv):]))
    with tempfile.TemporaryDirectory() as directory:
        text = write_inputs(Path(directory), n_frame, seed)
        config, config_s = timed(parse_config, text)
        frame, load_s = timed(load_frame_csv, config.frame_path)
        strata, strata_s = timed(frame.strata)
        _, pi_s = timed(inclusion_probs, config.design, frame)
        report, run_s = timed(run_pipeline, config, seed)
        if len(strata) != STRATA or report.n_population != n_frame:
            raise SystemExit(f"expected {STRATA} strata and N={n_frame}")
        del frame, strata, report  # the traced calls start from the loaded config alone
        parse_mb, kept_mb = traced_mb(parse_config, text)
        load_mb, _ = traced_mb(load_frame_csv, config.frame_path)
        run_mb, _ = traced_mb(run_pipeline, config, seed)
    print(f"survey run on N={n_frame}, seed {seed}")
    print(f"  parse_config   {config_s:10.4f} s {parse_mb:8.1f} MB peak {kept_mb:8.1f} MB kept   "
          "adjustment cells over every id")
    print(f"  load_frame_csv {load_s:10.4f} s {load_mb:8.1f} MB peak")
    print(f"  first strata() {strata_s:10.4f} s")
    print(f"  stratified pi  {pi_s:10.4f} s   allocation, then one gather")
    print(f"  run_pipeline   {run_s:10.4f} s {run_mb:8.1f} MB peak   "
          f"load, draw, respond, adjust, impute, release")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
