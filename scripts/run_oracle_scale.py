"""Time the audit oracle's phases as the frame size N grows.

Runs the benchmark's two audit shapes for N = 3..max_N:

* ``epsilon``: effective_epsilon of RandomizedResponse(1.0) after
  Poisson(0.25) sampling of the mean, y in {0, 1};
* ``sensitivity``: exact_sensitivity of ht_mean under SRSWOR(2),
  y in {0, 0.5, 1};

both with population-invariant y-only neighbors.  Each row prints the
dataset, sampling-outcome, outcome-probability-class, pair, truth-category
and distinct-table counts beside the time of each phase: the sample space,
the tables, and the scan, then the end-to-end call.  ``peak_mb`` is the
tracemalloc peak (numpy buffers included, 10^6 bytes per MB) of one more
end-to-end call, made after the timed ones and not timed itself.

For ``epsilon`` the tables are the frame-level pair table, the truths and
the mass histograms.  ``classes`` counts the distinct outcome probabilities,
which is the number of accumulation passes of the histograms: N+1 for
Poisson.  SRSWOR's space ignores y, so the ``sensitivity``
stage is fixed and scanned sample by sample: its tables are the sampling
stage and its distinct (draw pattern, weights) tables; its datasets and
pairs are those of the distinct tables.

The ``epsilon`` shape holds one byte per (dataset, outcome) cell of its
category matrix, 4^N bytes, and its memory grows with it; the shape stops,
with one line, at the first N whose matrix exceeds ``CATEGORY_BUDGET`` bytes.

Usage: python scripts/run_oracle_scale.py [max_N]   (default 6)
"""

import sys
import tracemalloc
from time import perf_counter

from dpsurvey.audit import (
    AuditInstance,
    NeighborRelation,
    RandomizedResponse,
    SampledReleaseMechanism,
    _distributions,
    _epsilon_report,
    _histograms,
    _sample_tables,
    _sampling_stage,
    _scan_tables,
    effective_epsilon,
    exact_sensitivity,
)
from dpsurvey.designs import SRSWOR, EnumerationCapExceeded, Poisson, sample_space
from dpsurvey.frames import make_frame

RELATION = NeighborRelation("population", "y-only")
CATEGORY_BUDGET = 2 ** 26  # bytes; N=13 (4^13 bytes) peaks near 90 MB under tracemalloc


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def epsilon_row(n: int) -> tuple:
    design = Poisson(0.25)
    instance = AuditInstance(name="scale-epsilon", statistic="mean", y_grid=(0.0, 1.0),
                             design=design, frame=make_frame([0.0] * n))
    mechanism = SampledReleaseMechanism("mean", RandomizedResponse(1.0), design)
    space, space_s = timed(sample_space, design, instance.frame)
    start = perf_counter()
    table, hist, categories = _histograms(mechanism, instance, RELATION)
    events, dist, of = _distributions(mechanism.base, hist, categories)
    tables_s = perf_counter() - start
    _, scan_s = timed(_epsilon_report, 1.0, table, dist, of, events, categories)
    _, total_s = timed(effective_epsilon, mechanism, instance, RELATION)
    return (len(table.codes), len(space), len({p for _, p in space}), table.n_pairs,
            len(categories), "-",
            space_s, tables_s, scan_s, total_s,
            peak_mb(effective_epsilon, mechanism, instance, RELATION))


def sensitivity_row(n: int) -> tuple:
    design = SRSWOR(2)
    instance = AuditInstance(name="scale-sensitivity", statistic="ht_mean",
                             y_grid=(0.0, 0.5, 1.0), design=design,
                             frame=make_frame([0.0] * n), n_pop=n)
    space, space_s = timed(sample_space, design, instance.frame)
    start = perf_counter()
    samples, _, weights = _sampling_stage(instance)
    tables = _sample_tables(samples, weights)
    tables_s = perf_counter() - start
    _, scan_s = timed(_scan_tables, instance, tables)
    _, total_s = timed(exact_sensitivity, instance, RELATION)
    k = len(instance.y_grid)
    return (sum(k ** m for m in tables.values()), len(space), "-",
            sum(k ** m * m * (k - 1) for m in tables.values()), "-", len(tables),
            space_s, tables_s, scan_s, total_s, peak_mb(exact_sensitivity, instance, RELATION))


def main(argv) -> int:
    max_n = int(argv[1]) if len(argv) > 1 else 6
    print(f"{'shape':<12}{'N':>3}{'datasets':>10}{'outcomes':>10}{'classes':>9}{'pairs':>9}"
          f"{'categories':>12}{'tables':>8}{'space_s':>10}{'tables_s':>10}{'scan_s':>10}"
          f"{'total_s':>10}{'peak_mb':>10}")
    for shape, row in (("epsilon", epsilon_row), ("sensitivity", sensitivity_row)):
        for n in range(3, max_n + 1):
            if shape == "epsilon" and 4 ** n > CATEGORY_BUDGET:  # 2^N datasets x 2^N outcomes
                print(f"{shape:<12}{n:>3}  category matrix of {4 ** n} bytes exceeds budget "
                      f"{CATEGORY_BUDGET}")
                break
            try:
                datasets, outcomes, classes, pairs, categories, tables, *times, peak = row(n)
            except EnumerationCapExceeded as err:  # DPSURVEY_ENUM_CAP raises the cap
                print(f"{shape:<12}{n:>3}  {err}")
                break
            print(f"{shape:<12}{n:>3}{datasets:>10}{outcomes:>10}{classes:>9}{pairs:>9}"
                  f"{categories:>12}"
                  f"{tables:>8}"
                  + "".join(f"{t:>10.4f}" for t in times) + f"{peak:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
