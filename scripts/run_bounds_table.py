#!/usr/bin/env python3
"""Sample-complexity comparison table on a grid, plus bound-vs-delta curves.

The delta sweep shows the crossover: the Rademacher-based bound overtakes
the elementary one as delta shrinks (ln(1/delta) vs 1/delta^2 growth).
"""

import argparse
import sys
from pathlib import Path

from vclab import BoundQuery, bound_report
from vclab.cli import (AT_LEAST_1, BOUNDS_COLUMNS, IN_UNIT_INTERVAL, bounds_rows,
                       emit_plot_data, exit_code, read_flag, write_csv)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--m", default=1)
    parser.add_argument("--eps", default=0.1)
    args = parser.parse_args()
    m, eps = read_flag(args, "m", int, AT_LEAST_1), read_flag(args, "eps", float, IN_UNIT_INTERVAL)
    out = Path(args.output_dir)

    rows = bounds_rows((1, 2, 4, 8), (0.05, 0.1, 0.2), (0.05, 0.1, 0.2))
    write_csv(out / "bounds_grid.csv", BOUNDS_COLUMNS, rows)

    deltas = [10 ** (-e / 2.0) for e in range(1, 13)]
    k_el, k_rad = [], []
    for delta in deltas:
        r = bound_report(BoundQuery(m=m, eps=eps, delta=delta))
        k_el.append(r.k_elementary)
        k_rad.append(r.k_rademacher)
    emit_plot_data(
        [(deltas, k_el, "k_elementary"), (deltas, k_rad, "k_rademacher")],
        out / "bounds_vs_delta_plotdata.csv",
    )
    for d, a, b in zip(deltas, k_el, k_rad):
        marker = "<-- rademacher wins" if b < a else ""
        print(f"delta={d:.3e}  k_elementary={a:>15}  k_rademacher={b:>12} {marker}")


if __name__ == "__main__":
    sys.exit(exit_code(Path(__file__).name, main))
