"""Time a conditional-Poisson PPS draw on two large frames and report peak memory.

The cold draw calibrates the working odds and then draws; the warm draw
reuses the cached calibration, so it times the selection alone.  Beside the
cold time stand the calibration's path and passes, and beside the warm time
the draw's path, so a smaller algorithm can be told apart from a smaller
constant factor.  The class path makes one pass over the classes of equal
size measure (``_class_masses`` calls) and then draws count-first: the class
counts, then a simple random sample in each class.  The blocked path makes
one pass over the units (``_cps_masses`` calls) and then draws sequentially,
one unit at a time over blocks of tail tables (``_tail_blocks``).  The
first frame draws its size measures from {1, 2, 3, 4}, the second from
[1, 2), each with a generator seeded by the seed: few distinct size measures
against one per unit.  Peak RSS is the process's high-water mark after each
frame, so the second row includes the first.

Usage: python scripts/run_pps_scale.py [N] [n] [seed]    (default 10000 100 1)
"""

import resource
import sys
import time
from unittest import mock

import numpy as np

from dpsurvey import designs
from dpsurvey.designs import PPS, draw
from dpsurvey.frames import make_frame


def time_draws(xs: np.ndarray, n: int, seed: int) -> tuple[list[float], str, int, str]:
    """Cold and warm draw times, the calibration's path and passes, the warm draw's path."""
    frame = make_frame(np.zeros(len(xs)), xs=xs)
    passes = {"_cps_masses": 0, "_class_masses": 0}
    tail_passes = 0
    real = {name: getattr(designs, name) for name in (*passes, "_tail_blocks")}

    def counted(name):
        def call(odds, size, *rest):
            passes[name] += 1
            return real[name](odds, size, *rest)
        return call

    def counted_blocks(odds, size):
        nonlocal tail_passes
        tail_passes += 1
        return real["_tail_blocks"](odds, size)

    times = []
    with mock.patch.multiple(designs, _tail_blocks=counted_blocks,
                             **{name: counted(name) for name in passes}):
        for run in range(2):
            tail_passes = 0
            start = time.perf_counter()
            sample = draw(PPS(n), frame, np.random.default_rng(seed + run))
            times.append(time.perf_counter() - start)
            if sample.size != n:
                raise SystemExit(f"draw returned {sample.size} units, expected {n}")
    path = "class" if passes["_class_masses"] else "blocked"
    return times, path, sum(passes.values()), "sequential" if tail_passes else "count-first"


def main(argv: list[str]) -> int:
    n_frame, n, seed = (int(v) for v in (argv + ["10000", "100", "1"][len(argv):]))
    shapes = {
        "x in {1, 2, 3, 4}": np.random.default_rng(seed).choice([1.0, 2.0, 3.0, 4.0], n_frame),
        "x in [1, 2)": 1.0 + np.random.default_rng(seed).random(n_frame),
    }
    print(f"PPS({n}) on N={n_frame}, seed {seed}")
    for label, xs in shapes.items():
        times, path, passes, draw_path = time_draws(xs, n, seed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  {label}: {path} path")
        print(f"    cold draw  {times[0]:10.4f} s   calibration and selection: {passes} passes")
        print(f"    warm draw  {times[1]:10.4f} s   selection, calibration cached: {draw_path}")
        print(f"    peak RSS   {peak_mb:10.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
