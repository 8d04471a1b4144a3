"""Sweep effective epsilon across designs and budgets on the bundled frame.

Reproduces the qualitative picture behind the design guidance: Poisson and
SRSWOR amplify roughly linearly in the sampling rate, cluster and
frame-ordered systematic sampling do not, and PPS tracks the largest
inclusion probability.

Usage: python scripts/run_amplification_sweep.py [out.csv]
"""

import sys

from dpsurvey.audit import amplification_sweep, write_sweep_csv
from dpsurvey.designs import SRSWOR, ClusterSRSWOR, Poisson, PPS, Systematic
from dpsurvey.instances import four_unit_frame, pps_maxpi_frame


def main() -> int:
    frame = four_unit_frame()
    designs = [
        Poisson(0.1), Poisson(0.25), Poisson(0.5),
        SRSWOR(1), SRSWOR(2),
        ClusterSRSWOR(1),
        Systematic(2, "frame"), Systematic(2, "random"),
    ]
    eps_grid = [0.05, 0.1, 0.2]
    rows = amplification_sweep(designs, eps_grid, frame, statistic="mean")
    for max_pi in (0.2, 0.4, 0.6):
        rows += amplification_sweep([PPS(1)], eps_grid, pps_maxpi_frame(max_pi),
                                    statistic="max")

    out = sys.argv[1] if len(sys.argv) > 1 else None
    text = write_sweep_csv(rows, out)
    print(f"{'design':<34}{'eps':>6}{'rate/maxpi':>12}{'eps_eff':>12}{'ratio':>8}")
    for row in rows:
        if row["status"] != "ok":
            print(f"{row['design']:<34}{row['epsilon']:>6}  {row['status']}")
            continue
        ratio = row["eps_effective"] / row["epsilon"]
        print(f"{row['design']:<34}{row['epsilon']:>6}{row['rate_or_maxpi']:>12.3f}"
              f"{row['eps_effective']:>12.6f}{ratio:>8.3f}")
    if out:
        print(f"\nwrote {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
