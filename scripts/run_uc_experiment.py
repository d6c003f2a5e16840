#!/usr/bin/env python3
"""Uniform-convergence Monte Carlo on the planar threshold class.

Runs the stock 8-point uniform distribution at k = k_elementary(m=3, eps,
delta) with exact supremum via trace enumeration, and reports the empirical
failure rate against the delta target.
"""

import argparse
import sys
from pathlib import Path

from vclab import BoundQuery, LinearThreshold, k_elementary, load_distribution, run_uc_experiment
from vclab.cli import (AT_LEAST_0, AT_LEAST_1, DEFAULT_SEED, IN_UNIT_INTERVAL, UC_COLUMNS,
                       exit_code, read_flag, uc_row, write_csv)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--eps", default=0.25)
    parser.add_argument("--delta", default=0.2)
    parser.add_argument("--trials", default=200)
    parser.add_argument("--seed", default=DEFAULT_SEED)
    args = parser.parse_args()
    eps, delta = (read_flag(args, dest, float, IN_UNIT_INTERVAL) for dest in ("eps", "delta"))
    trials = read_flag(args, "trials", int, AT_LEAST_1)
    seed = read_flag(args, "seed", int, AT_LEAST_0)
    out = Path(args.output_dir)

    configs = Path(__file__).resolve().parent.parent / "configs"
    dist = load_distribution(configs / "dist8_uniform.json")
    k = k_elementary(BoundQuery(m=3, eps=eps, delta=delta))
    res = run_uc_experiment(LinearThreshold(dim=2), dist, eps=eps, k=k, trials=trials, seed=seed)
    write_csv(out / "uc_result.csv", UC_COLUMNS, [uc_row(res, eps, delta)])
    print(
        f"k={res.k} trials={res.trials} failures={res.failures} "
        f"rate={res.empirical_rate:.4f} (target delta={delta}) "
        f"mean sup deviation={res.mean_sup_deviation:.5f}"
    )


if __name__ == "__main__":
    sys.exit(exit_code(Path(__file__).name, main))
