"""Command-line front end: bounds tables, growth curves, VC-dimension and
VC-density estimation, and uniform-convergence experiments, all emitted as
CSV.

Every number in the output is produced by a library operation; this layer
only parses configs, dispatches, and formats. The default seed is a fixed
constant so repeated runs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import bounds as bnd
from . import dichotomy as dch
from . import ucheck as uc
from .errors import CapExceededError, ConfigError
from .hypotheses import load_class_spec

DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CAP = 3
EXIT_IO = 4

GROWTH_COLUMNS = ["n", "count", "exactness", "seed", "class_id"]
BOUNDS_COLUMNS = [
    "m", "eps", "delta",
    "k_elementary", "k_rademacher", "k_solver_elem", "k_solver_rad",
    "classical_m2", "classical_m4", "classical_mlogm",
]
UC_COLUMNS = [
    "k", "eps", "delta_target", "trials", "failures",
    "empirical_rate", "sup_method", "seed",
]
DENSITY_COLUMNS = ["class_id", "slope", "n_min", "n_max", "residual"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _resolve_output(path: str) -> Path:
    out_dir = os.environ.get("VCLAB_OUTPUT_DIR")
    p = Path(path)
    if out_dir and not p.is_absolute():
        p = Path(out_dir) / p
    return p


def write_csv(path, columns, rows) -> None:
    p = _resolve_output(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_plot_data(series, path) -> None:
    """Write a two-column-per-series CSV (label_x, label_y pairs) for
    external plotting. Shorter series are padded with empty cells."""
    series = list(series)
    if not series:
        raise ValueError("series list must be nonempty")
    header = []
    for xs, ys, label in series:
        if len(xs) != len(ys):
            raise ValueError(f"series {label!r}: x/y length mismatch")
        header += [f"{label}_x", f"{label}_y"]
    depth = max(len(xs) for xs, _, _ in series)
    rows = [
        [v for xs, ys, _ in series for v in ((xs[i], ys[i]) if i < len(xs) else ("", ""))]
        for i in range(depth)
    ]
    write_csv(path, header, rows)


# --------------------------------------------------------------------------
# Row builders, one per CSV schema (shared with scripts/)
# --------------------------------------------------------------------------


def bounds_rows(ms, epss, deltas, constants=bnd.BoundConstants()) -> list[list]:
    """BOUNDS_COLUMNS rows over the (m, eps, delta) grid."""
    rows = []
    for m in ms:
        for eps in epss:
            for delta in deltas:
                q = bnd.BoundQuery(m=m, eps=eps, delta=delta, constants=constants)
                r = bnd.bound_report(q)
                rows.append([
                    m, eps, delta,
                    r.k_elementary, r.k_rademacher,
                    r.k_solver_elementary, r.k_solver_rademacher,
                    r.classical_m2, r.classical_m4, r.classical_mlogm,
                ])
    return rows


def growth_rows(estimate: dch.GrowthEstimate) -> list[list]:
    """GROWTH_COLUMNS rows, one per growth sample."""
    return [
        [s.n, s.count, s.exactness, estimate.seed, estimate.class_id]
        for s in estimate.samples
    ]


def density_row(class_id: str, density: dch.DensityEstimate) -> list:
    """The DENSITY_COLUMNS row of one fitted slope."""
    return [class_id, density.slope, density.fit_range[0], density.fit_range[1],
            density.residual]


def uc_row(result: uc.UCExperimentResult, eps: float, delta: float) -> list:
    """The UC_COLUMNS row of one Monte Carlo experiment."""
    return [
        result.k, eps, delta, result.trials, result.failures,
        result.empirical_rate, result.sup_method, result.seed,
    ]


def _print_table(columns, rows) -> None:
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    print("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    for r in cells:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)))


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    constants = bnd.BoundConstants(C=args.c, C_prime=args.c_prime, C_hat=args.c_hat)
    rows = bounds_rows(_ints(args.m), _floats(args.eps), _floats(args.delta), constants)
    _print_table(BOUNDS_COLUMNS, rows)
    if args.output:
        write_csv(args.output, BOUNDS_COLUMNS, rows)
    return EXIT_OK


def cmd_growth(args) -> int:
    cls = load_class_spec(args.class_spec)
    estimate = dch.growth_samples(
        cls,
        _ints(args.n),
        method=args.method,
        draws=args.draws,
        budget=args.budget,
        seed=args.seed,
    )
    rows = growth_rows(estimate)
    _print_table(GROWTH_COLUMNS, rows)
    if args.output:
        write_csv(args.output, GROWTH_COLUMNS, rows)
    return EXIT_OK


def cmd_vcdim(args) -> int:
    cls = load_class_spec(args.class_spec)
    result = dch.vc_dim_bruteforce(
        cls, max_d=args.max_d, seed=args.seed, tries=args.tries, budget=args.budget
    )
    columns = ["class_id", "vc_dim", "saturated", "seed"]
    rows = [[dch.class_id(cls), result.value, int(result.saturated), args.seed]]
    _print_table(columns, rows)
    if args.output:
        write_csv(args.output, columns, rows)
    return EXIT_OK


def read_growth_csv(path) -> dch.GrowthEstimate:
    """Parse the growth CSV schema back into a GrowthEstimate."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != GROWTH_COLUMNS:
            raise ConfigError(
                f"{path}: expected growth CSV columns {GROWTH_COLUMNS}, "
                f"got {reader.fieldnames}"
            )
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: growth CSV has no data rows")
    samples = tuple(
        dch.GrowthSample(n=int(r["n"]), count=int(r["count"]), exactness=r["exactness"])
        for r in rows
    )
    return dch.GrowthEstimate(
        samples=samples,
        class_id=rows[0]["class_id"],
        policy="csv",
        seed=int(rows[0]["seed"]),
    )


def cmd_density(args) -> int:
    estimate = read_growth_csv(args.input)
    policy = dch.FitPolicy(upper_fraction=args.fit_fraction)
    density = dch.estimate_vc_density(estimate, policy)
    rows = [density_row(estimate.class_id, density)]
    _print_table(DENSITY_COLUMNS, rows)
    if args.output:
        write_csv(args.output, DENSITY_COLUMNS, rows)
    return EXIT_OK


def cmd_ucheck(args) -> int:
    cls = load_class_spec(args.class_spec)
    dist = uc.load_distribution(args.dist)
    if args.k is not None:
        k = args.k
    else:
        if args.m is None:
            raise ConfigError("ucheck needs either --k or --m (for k_elementary)")
        k = bnd.k_elementary(bnd.BoundQuery(m=args.m, eps=args.eps, delta=args.delta))
    result = uc.run_uc_experiment(
        cls, dist, eps=args.eps, k=k, trials=args.trials, seed=args.seed,
        budget=args.budget,
    )
    rows = [uc_row(result, args.eps, args.delta)]
    _print_table(UC_COLUMNS, rows)
    if args.output:
        write_csv(args.output, UC_COLUMNS, rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vclab",
        description="growth functions, VC-density, and sample-complexity bounds at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate both sample-complexity bounds")
    p.add_argument("--m", required=True, help="weight count(s), comma separated")
    p.add_argument("--eps", required=True, help="accuracy value(s), comma separated")
    p.add_argument("--delta", required=True, help="confidence value(s), comma separated")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c-prime", type=float, default=2.0)
    p.add_argument("--c-hat", type=float, default=64.0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("growth", help="growth-function samples for a class")
    p.add_argument("--class", dest="class_spec", required=True, help="class spec JSON")
    p.add_argument("--n", required=True, help="set size(s), comma separated")
    p.add_argument("--method", choices=["auto", "oracle", "exact", "sampled"], default="auto")
    p.add_argument("--draws", type=int, default=3)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("vcdim", help="brute-force VC-dimension lower bound")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--max-d", type=int, default=6)
    p.add_argument("--tries", type=int, default=12)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output")
    p.set_defaults(func=cmd_vcdim)

    p = sub.add_parser("density", help="fit a VC-density slope to a growth CSV")
    p.add_argument("--input", required=True, help="growth CSV produced by `vclab growth`")
    p.add_argument("--fit-fraction", type=float, default=0.5)
    p.add_argument("--output")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("ucheck", help="Monte Carlo uniform-convergence experiment")
    p.add_argument("--class", dest="class_spec", required=True)
    p.add_argument("--dist", required=True, help="distribution spec JSON")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=int, help="sample size; omit to use k_elementary(--m)")
    p.add_argument("--m", type=int, help="weight count for k_elementary when --k is omitted")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--output")
    p.set_defaults(func=cmd_ucheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as e:
        print(f"vclab: invalid configuration: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceededError as e:
        print(f"vclab: cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except OSError as e:
        print(f"vclab: I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
