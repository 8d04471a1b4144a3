"""Time a conditional-Poisson PPS draw on two large frames and report peak memory.

The cold draw calibrates the working odds and then draws; the warm draw
reuses the cached calibration and its count tree, so it times the selection
alone.  Beside the cold time stand the tree's leaf count (one leaf per size
class of equal size measure) and the calibration's passes (one trip up and
down the tree each), so a smaller algorithm can be told apart from a smaller
constant factor.  The first frame draws its size measures from {1, 2, 3, 4},
the second from [1, 2), each with a generator seeded by the seed: four leaves
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


def time_draws(xs: np.ndarray, n: int, seed: int) -> tuple[list[float], int, int]:
    """Cold and warm draw times, the tree's leaf count and the calibration's passes."""
    frame = make_frame(np.zeros(len(xs)), xs=xs)
    times, passes, masses = [], [], designs._CountTree.masses

    def counted(tree):  # a mock's call record would keep every pass's tree alive
        passes.append(None)
        return masses(tree)

    with mock.patch.object(designs._CountTree, "masses", counted):
        for run in range(2):
            start = time.perf_counter()
            sample = draw(PPS(n), frame, np.random.default_rng(seed + run))
            times.append(time.perf_counter() - start)
            if sample.size != n:
                raise SystemExit(f"draw returned {sample.size} units, expected {n}")
    tree = PPS(n)._split(frame)[4]
    return times, len(tree.order), len(passes)


def main(argv: list[str]) -> int:
    n_frame, n, seed = (int(v) for v in (argv + ["10000", "100", "1"][len(argv):]))
    shapes = {
        "x in {1, 2, 3, 4}": np.random.default_rng(seed).choice([1.0, 2.0, 3.0, 4.0], n_frame),
        "x in [1, 2)": 1.0 + np.random.default_rng(seed).random(n_frame),
    }
    print(f"PPS({n}) on N={n_frame}, seed {seed}")
    for label, xs in shapes.items():
        times, leaves, passes = time_draws(xs, n, seed)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  {label}: {leaves} leaves")
        print(f"    cold draw  {times[0]:10.4f} s   calibration and selection: {passes} passes")
        print(f"    warm draw  {times[1]:10.4f} s   selection from the cached tree")
        print(f"    peak RSS   {peak_mb:10.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
