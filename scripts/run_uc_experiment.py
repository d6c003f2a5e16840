#!/usr/bin/env python3
"""Uniform-convergence Monte Carlo on the planar threshold class.

Runs the stock 8-point uniform distribution at k = k_elementary(m=3, eps,
delta) with exact supremum via trace enumeration, and reports the empirical
failure rate against the delta target.
"""

import argparse
from pathlib import Path

from vclab import BoundQuery, LinearThreshold, k_elementary, load_distribution, run_uc_experiment
from vclab.cli import UC_COLUMNS, uc_row, write_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--eps", type=float, default=0.25)
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1729)
    args = parser.parse_args()
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    configs = Path(__file__).resolve().parent.parent / "configs"
    dist = load_distribution(configs / "dist8_uniform.json")
    k = k_elementary(BoundQuery(m=3, eps=args.eps, delta=args.delta))
    res = run_uc_experiment(
        LinearThreshold(dim=2), dist, eps=args.eps, k=k, trials=args.trials, seed=args.seed
    )
    write_csv(out / "uc_result.csv", UC_COLUMNS, [uc_row(res, args.eps, args.delta)])
    print(
        f"k={res.k} trials={res.trials} failures={res.failures} "
        f"rate={res.empirical_rate:.4f} (target delta={args.delta}) "
        f"mean sup deviation={res.mean_sup_deviation:.5f}"
    )


if __name__ == "__main__":
    main()
