"""Time a conditional-Poisson PPS draw on a large frame and report peak memory.

The cold draw calibrates the working odds and then draws; the warm draw
reuses the cached calibration, so it times the selection pass alone.  Beside
the cold time stand the calibration's passes (``_cps_masses`` calls) and the
number of blocks the units are cut into, so a smaller algorithm can be told
apart from a smaller constant factor.  Size measures are drawn from
{1, 2, 3, 4} with a seeded generator.  Peak RSS is the process's high-water
mark, frame included.

Usage: python scripts/run_pps_scale.py [N] [n] [seed]    (default 10000 100 1)
"""

import resource
import sys
import time

import numpy as np

from dpsurvey import designs
from dpsurvey.designs import PPS, draw
from dpsurvey.frames import make_frame


def main(argv: list[str]) -> int:
    n_frame, n, seed = (int(v) for v in (argv + ["10000", "100", "1"][len(argv):]))
    xs = np.random.default_rng(seed).choice([1.0, 2.0, 3.0, 4.0], size=n_frame)
    frame = make_frame(np.zeros(n_frame), xs=xs)
    passes, blocks = 0, 0
    masses, tail_blocks = designs._cps_masses, designs._tail_blocks

    def counted_masses(odds, size):
        nonlocal passes
        passes += 1
        return masses(odds, size)

    def counted_blocks(odds, size):
        nonlocal blocks
        found = tail_blocks(odds, size)
        blocks = len(found)
        return found

    designs._cps_masses, designs._tail_blocks = counted_masses, counted_blocks
    times = []
    for run in range(2):
        start = time.perf_counter()
        sample = draw(PPS(n), frame, np.random.default_rng(seed + run))
        times.append(time.perf_counter() - start)
        if sample.size != n:
            raise SystemExit(f"draw returned {sample.size} units, expected {n}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"PPS({n}) on N={n_frame}, seed {seed}")
    print(f"  cold draw  {times[0]:10.4f} s   calibration and selection: "
          f"{passes} passes, {blocks} blocks")
    print(f"  warm draw  {times[1]:10.4f} s   selection, calibration cached")
    print(f"  peak RSS   {peak_mb:10.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
