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
import functools
import itertools
import math
import os
import sys
from pathlib import Path

from . import bounds as bnd
from . import dichotomy as dch
from . import ucheck as uc
from .errors import CapExceededError, ConfigError
from .hypotheses import (LinearThreshold, NetworkSpec, UnionOfMPoints, load_class_spec,
                         shown_value)

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
    return f"{x:.10g}" if isinstance(x, float) else str(x)


def _resolve_output(path: str) -> Path:
    # joining an absolute path onto VCLAB_OUTPUT_DIR gives the absolute path
    out_dir = os.environ.get("VCLAB_OUTPUT_DIR")
    return Path(out_dir) / path if out_dir else Path(path)


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
    external plotting; every x and y list has the same length."""
    series = list(series)
    columns = [v for xs, ys, _ in series for v in (xs, ys)]
    if len({len(c) for c in columns}) != 1:
        raise ValueError("series must be nonempty, with x and y lists of one length")
    header = [f"{label}_{axis}" for _, _, label in series for axis in "xy"]
    write_csv(path, header, zip(*columns))


# --------------------------------------------------------------------------
# Row builders, one per CSV schema (shared with scripts/)
# --------------------------------------------------------------------------


def bounds_rows(ms, epss, deltas, c_prime=2.0, c_hat=64.0) -> list[list]:
    """BOUNDS_COLUMNS rows over the (m, eps, delta) grid."""
    grid = itertools.product(ms, epss, deltas)
    reports = ((q, bnd.bound_report(bnd.BoundQuery(*q, c_prime, c_hat))) for q in grid)
    return [
        [*q, r.k_elementary, r.k_rademacher, r.k_solver_elementary, r.k_solver_rademacher,
         r.classical_m2, r.classical_m4, r.classical_mlogm]
        for q, r in reports
    ]


def growth_rows(estimate: dch.GrowthEstimate) -> list[list]:
    """GROWTH_COLUMNS rows, one per growth sample. A count with more digits
    than Python prints (sys.get_int_max_str_digits(); 0 is no limit) is a
    CapExceededError naming its n, raised before any row is printed."""
    limit = sys.get_int_max_str_digits()
    for s in estimate.samples:
        # 10^limit has more than 3 limit bits: the bit length screens first
        if limit and s.count.bit_length() > 3 * limit and s.count >= 10**limit:
            raise CapExceededError(f"the count at n = {s.n} is {shown_value(s.count)}, over "
                                   f"Python's {limit}-digit limit")
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


def _shown(text) -> str:
    """repr(text) for an error message; but an integer literal in it (or in
    one of its comma-separated parts) too long for int(), past
    sys.get_int_max_str_digits() digits, is named by its digit count."""
    limit = sys.get_int_max_str_digits()
    for part in text.split(",") if isinstance(text, str) else ():
        digits = part.strip().lstrip("+-")
        if 0 < limit < len(digits) and digits.isdecimal():
            return f"an integer of {len(digits)} digits, over Python's {limit}-digit limit"
    return repr(text)


# (test, phrase) rules for read_flag; NaN fails every test
AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
IN_UNIT_INTERVAL = (lambda v: 0 < v < 1, "in (0, 1)")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and positive")


def read_flag(args, dest: str, parse, *rules, many: bool = False):
    """The value of flag --dest (dest with dashes for underscores) in parsed
    args: parse (int or float) of its text, or with many a list of the
    comma-separated values, at least one. A value that does not parse, or
    fails a (test, phrase) rule, is a ConfigError naming the flag, as "flag
    must be <phrase>"; None (a flag left out) stays None."""
    flag, text = "--" + dest.replace("_", "-"), getattr(args, dest)
    if text is None:
        return None
    parts = [v for v in text.split(",") if v] if many else [text]
    try:
        values = [parse(v) for v in parts]
    except ValueError:
        values = []
    if not values:
        kind = f"list {parse.__name__}s" if many else {int: "be an int", float: "be a float"}[parse]
        raise ConfigError(f"{flag} must {kind}, got {_shown(text)}")
    for test, phrase in rules:
        for v in values:
            if not test(v):
                raise ConfigError(f"{flag} must be {phrase}, got {shown_value(v)}")
    return values if many else values[0]


def read_budget_seed(args) -> tuple[int, int]:
    """--budget (>= 1) and --seed (>= 0), the flags of every weight-drawing run."""
    return read_flag(args, "budget", int, AT_LEAST_1), read_flag(args, "seed", int, AT_LEAST_0)


# --------------------------------------------------------------------------
# Subcommands: each returns (columns, rows); main prints and writes them
# --------------------------------------------------------------------------


def cmd_bounds(args):
    ms = read_flag(args, "m", int, AT_LEAST_1, many=True)
    eps = read_flag(args, "eps", float, IN_UNIT_INTERVAL, many=True)
    delta = read_flag(args, "delta", float, IN_UNIT_INTERVAL, many=True)
    c_prime = read_flag(args, "c_prime", float, _FINITE_POSITIVE, (
        lambda v: v >= bnd.MIN_C_PRIME,
        f">= {bnd.MIN_C_PRIME:g} (the Rademacher solver needs a bound that decreases in k)"))
    c_hat = read_flag(args, "c_hat", float, _FINITE_POSITIVE)
    return BOUNDS_COLUMNS, bounds_rows(ms, eps, delta, c_prime, c_hat)


def cmd_growth(args):
    ns = read_flag(args, "n", int, AT_LEAST_0, many=True)
    draws = read_flag(args, "draws", int, AT_LEAST_1)
    budget, seed = read_budget_seed(args)
    cls = load_class_spec(args.class_spec)
    estimate = dch.growth_samples(cls, ns, method=args.method, draws=draws, budget=budget,
                                  seed=seed)
    return GROWTH_COLUMNS, growth_rows(estimate)


def cmd_vcdim(args):
    max_d, tries = (read_flag(args, dest, int, AT_LEAST_1) for dest in ("max_d", "tries"))
    budget, seed = read_budget_seed(args)
    cls = load_class_spec(args.class_spec)
    result = dch.vc_dim_bruteforce(cls, max_d=max_d, seed=seed, tries=tries, budget=budget)
    columns = ["class_id", "vc_dim", "saturated", "seed"]
    return columns, [[dch.class_id(cls), result.value, int(result.saturated), seed]]


def read_growth_csv(path) -> dch.GrowthEstimate:
    """Parse the growth CSV schema back into a GrowthEstimate. A non-UTF-8
    file, a cell that is not an integer, a sample GrowthSample rejects, an n
    or count past the float range (the fit logs floats), a class_id other
    than data row 1's (the fit is of one class; a row short of that cell is
    left to the next check) and a row with more or fewer cells than the
    header are ConfigErrors, in that order."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            columns, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigError(f"{path}: not a UTF-8 CSV file: {e}") from None
    if columns != GROWTH_COLUMNS:
        raise ConfigError(f"{path}: expected growth CSV columns {GROWTH_COLUMNS}, got {columns}")
    if not rows:
        raise ConfigError(f"{path}: growth CSV has no data rows")
    samples = []
    for i, r in enumerate(rows, start=1):
        where = f"{path} data row {i}"
        for key in ("n", "count", "seed"):
            try:
                r[key] = int(r[key])
            except (TypeError, ValueError):  # TypeError: the row is short of the cell
                got = _shown(r[key])
                raise ConfigError(f"{where}: {key} must be an integer, got {got}") from None
        try:
            samples.append(dch.GrowthSample(n=r["n"], count=r["count"], exactness=r["exactness"]))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
        if max(r["n"], r["count"]) > sys.float_info.max:
            raise ConfigError(f"{where}: n and count must be within the float range")
    first = rows[0]["class_id"]
    for i, r in enumerate(rows[1:], start=2):
        # a row short of its class_id cell reads None there: the width check names it
        if None not in (first, r["class_id"]) and r["class_id"] != first:
            raise ConfigError(f"{path} data row {i}: class_id {_shown(r['class_id'])} differs "
                              f"from data row 1's {_shown(first)}")
    for i, r in enumerate(rows, start=1):
        # csv.DictReader gives a short row's missing cells None, a long row's extras under None
        cells = len(columns) - list(r.values()).count(None) + len(r.get(None, ()))
        if cells != len(columns):
            raise ConfigError(f"{path} data row {i}: {cells} cells, the header has {len(columns)}")
    return dch.GrowthEstimate(samples=tuple(samples), class_id=rows[0]["class_id"],
                              seed=rows[0]["seed"])


def cmd_density(args):
    fraction = read_flag(args, "fit_fraction", float, (lambda v: 0 < v <= 1, "in (0, 1]"))
    estimate = read_growth_csv(args.input)
    density = dch.estimate_vc_density(estimate, upper_fraction=fraction)
    return DENSITY_COLUMNS, [density_row(estimate.class_id, density)]


def cmd_ucheck(args):
    eps, delta = (read_flag(args, dest, float, IN_UNIT_INTERVAL) for dest in ("eps", "delta"))
    k, trials, m = (read_flag(args, dest, int, AT_LEAST_1) for dest in ("k", "trials", "m"))
    budget, seed = read_budget_seed(args)
    if k is None and m is None:
        raise ConfigError("ucheck needs either --k or --m (for k_elementary)")
    if k is not None and m is not None:
        raise ConfigError("ucheck takes --k or --m, not both")
    cls = load_class_spec(args.class_spec)
    dist = uc.load_distribution(args.dist)
    # a union class with an empty domain takes points of any dimension
    if isinstance(cls, LinearThreshold):
        dim = cls.dim
    elif isinstance(cls, NetworkSpec):
        dim = cls.input_dim
    elif isinstance(cls, UnionOfMPoints) and cls.domain:
        dim = len(cls.domain[0])
    else:
        dim = None
    if dim is not None and dist.support.dim != dim:
        raise ConfigError(f"--dist support points have dimension {dist.support.dim}; "
                          f"--class {dch.class_id(cls)} takes dimension {dim}")
    k = k or bnd.k_elementary(bnd.BoundQuery(m=m, eps=eps, delta=delta))
    result = uc.run_uc_experiment(cls, dist, eps=eps, k=k, trials=trials, seed=seed,
                                  budget=budget)
    return UC_COLUMNS, [uc_row(result, eps, delta)]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The vclab argument parser, built once per process: parse_args leaves
    a parser unchanged, and a rebuild costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="vclab",
        description="growth functions, VC-density, and sample-complexity bounds at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by subcommands, declared once: every subcommand writes a
    # CSV, and growth, vcdim and ucheck also read a class and draw weights
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output")
    run = argparse.ArgumentParser(add_help=False, parents=[out])
    run.add_argument("--class", dest="class_spec", required=True, help="class spec JSON")
    run.add_argument("--budget", default=dch.DEFAULT_BUDGET)
    run.add_argument("--seed", default=DEFAULT_SEED)

    p = sub.add_parser("bounds", parents=[out], help="compute both sample-complexity bounds")
    p.add_argument("--m", required=True, help="weight count(s), comma separated")
    p.add_argument("--eps", required=True, help="accuracy value(s), comma separated")
    p.add_argument("--delta", required=True, help="confidence value(s), comma separated")
    p.add_argument("--c-prime", default=2.0)
    p.add_argument("--c-hat", default=64.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("growth", parents=[run], help="growth-function samples for a class")
    p.add_argument("--n", required=True, help="set size(s), comma separated")
    p.add_argument("--method", choices=["auto", "oracle", "exact", "sampled"], default="auto")
    p.add_argument("--draws", default=3)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("vcdim", parents=[run], help="VC-dimension (exact for baselines)")
    p.add_argument("--max-d", default=6)
    p.add_argument("--tries", default=12)
    p.set_defaults(func=cmd_vcdim)

    p = sub.add_parser("density", parents=[out], help="fit a VC-density slope to a growth CSV")
    p.add_argument("--input", required=True, help="growth CSV produced by `vclab growth`")
    p.add_argument("--fit-fraction", default=0.5)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("ucheck", parents=[run], help="Monte Carlo uniform-convergence experiment")
    p.add_argument("--dist", required=True, help="distribution spec JSON")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--k", help="sample size; omit to use k_elementary(--m)")
    p.add_argument("--m", help="weight count for k_elementary when --k is omitted")
    p.add_argument("--trials", default=200)
    p.set_defaults(func=cmd_ucheck)

    return parser


def exit_code(prog: str, run, *args) -> int:
    """run(*args) as an exit code: 0, or 2 for a ConfigError (bad flag or
    file), 3 for a CapExceededError (a cap or the float range), 4 for an
    OSError, each reported in one stderr line that starts with prog. Any
    other exception is a bug and propagates with its traceback."""
    try:
        run(*args)
    except ConfigError as e:
        print(f"{prog}: invalid configuration: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except CapExceededError as e:
        print(f"{prog}: cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except OSError as e:
        print(f"{prog}: I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _run(args) -> None:
    columns, rows = args.func(args)
    _print_table(columns, rows)
    if args.output:
        write_csv(args.output, columns, rows)


def main(argv=None) -> int:
    """Run one subcommand and return its exit_code."""
    return exit_code("vclab", _run, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
