"""One small call of every vclab subcommand and of each experiment script,
in one process; exits 1 naming each call that exits nonzero.

    python tests/smoke_commands.py OUTPUT_DIR

A numpy-only install (`pip install -e .`) runs every one of them:
tests/test_numpy_only.py runs this file with scipy made unimportable."""

import runpy
import sys
from pathlib import Path

from vclab.cli import main

ROOT = Path(__file__).resolve().parent.parent


def calls(out: Path) -> list[list[str]]:
    ltf2, net, dist = (str(ROOT / "configs" / name) for name in
                       ("ltf2.json", "net_1hidden_threshold.json", "dist8_uniform.json"))
    growth = str(out / "growth.csv")
    return [
        ["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1",
         "--output", str(out / "bounds.csv")],
        ["growth", "--class", ltf2, "--n", "2,4,8", "--method", "exact", "--output", growth],
        ["density", "--input", growth, "--output", str(out / "density.csv")],
        ["vcdim", "--class", net, "--max-d", "2", "--tries", "2", "--budget", "200",
         "--output", str(out / "vcdim.csv")],
        # 5000 trials are more than one Monte Carlo chunk (1129 trials on
        # dist8's 58 traces), so ucheck's draw-ahead worker thread runs
        ["ucheck", "--class", ltf2, "--dist", dist, "--eps", "0.25", "--delta", "0.2",
         "--m", "3", "--trials", "5000", "--output", str(out / "uc.csv")],
        ["run_bounds_table.py", "--output-dir", str(out)],
        ["run_growth_curves.py", "--output-dir", str(out), "--budget", "200"],
        ["run_uc_experiment.py", "--output-dir", str(out), "--trials", "5"],
    ]


def run(argv: list[str]) -> int:
    """A subcommand's exit code from cli.main, or a script's from its
    SystemExit."""
    if not argv[0].endswith(".py"):
        return main(argv)
    sys.argv = argv
    try:
        runpy.run_path(str(ROOT / "scripts" / argv[0]), run_name="__main__")
    except SystemExit as done:
        return done.code
    return 0


if __name__ == "__main__":
    failed = [argv[0] for argv in calls(Path(sys.argv[1])) if run(argv) != 0]
    if failed:
        print(f"nonzero exit: {', '.join(failed)}", file=sys.stderr)
    sys.exit(1 if failed else 0)
