#!/usr/bin/env python3
"""Growth curves and fitted VC-density slopes for the stock classes.

Emits one growth CSV per class, a density summary CSV, and a combined
plot-data CSV (log-log growth curves) under --output-dir.
"""

import argparse
import sys
from pathlib import Path

from vclab import LinearThreshold, UnionOfMPoints, estimate_vc_density
from vclab.cli import (DEFAULT_SEED, DENSITY_COLUMNS, GROWTH_COLUMNS, density_row, emit_plot_data,
                       exit_code, growth_rows, read_budget_seed, write_csv)
from vclab.dichotomy import DEFAULT_BUDGET, growth_samples
from vclab.hypotheses import load_class_spec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--seed", default=DEFAULT_SEED)
    parser.add_argument("--budget", default=DEFAULT_BUDGET)
    args = parser.parse_args()
    budget, seed = read_budget_seed(args)
    out = Path(args.output_dir)

    configs = Path(__file__).resolve().parent.parent / "configs"
    classes = [
        ("union2", UnionOfMPoints(capacity=2, domain=tuple((float(i),) for i in range(200))), "oracle"),
        ("ltf2", LinearThreshold(dim=2), "oracle"),
        ("net_m4", load_class_spec(configs / "net_1hidden_threshold.json"), "sampled"),
    ]
    n_values = [16, 32, 64, 128]
    series = []
    density_rows = []
    for name, cls, method in classes:
        g = growth_samples(cls, n_values, method=method, budget=budget, seed=seed)
        write_csv(out / f"growth_{name}.csv", GROWTH_COLUMNS, growth_rows(g))
        d = estimate_vc_density(g)
        density_rows.append(density_row(g.class_id, d))
        series.append(([s.n for s in g.samples], [s.count for s in g.samples], name))
        print(f"{name}: slope = {d.slope:.3f} (fit on n in {d.fit_range})")
    write_csv(out / "density_summary.csv", DENSITY_COLUMNS, density_rows)
    emit_plot_data(series, out / "growth_curves_plotdata.csv")


if __name__ == "__main__":
    sys.exit(exit_code(Path(__file__).name, main))
