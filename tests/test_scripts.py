import runpy
import sys
from pathlib import Path

from vclab.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_scripts_write_their_csvs(tmp_path, monkeypatch):
    monkeypatch.delenv("VCLAB_OUTPUT_DIR", raising=False)
    out = tmp_path / "results"
    run_script(monkeypatch, "run_bounds_table.py", "--output-dir", str(out))
    run_script(monkeypatch, "run_growth_curves.py", "--output-dir", str(out), "--budget", "200")
    run_script(monkeypatch, "run_uc_experiment.py", "--output-dir", str(out), "--trials", "5")
    for name in ("bounds_vs_delta_plotdata.csv", "growth_union2.csv", "growth_ltf2.csv",
                 "growth_net_m4.csv", "density_summary.csv", "growth_curves_plotdata.csv",
                 "uc_result.csv"):
        assert (out / name).stat().st_size > 0, name

    cli_grid = tmp_path / "cli_grid.csv"
    assert main(["bounds", "--m", "1,2,4,8", "--eps", "0.05,0.1,0.2",
                 "--delta", "0.05,0.1,0.2", "--output", str(cli_grid)]) == 0
    assert (out / "bounds_grid.csv").read_bytes() == cli_grid.read_bytes()
