import runpy
import sys
from pathlib import Path

import pytest

from vclab.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# 1 followed by 4400 zeros, past the 4300 digits int() reads from a string
LONG_INT = "1" + "0" * 4400
LONG_INT_SHOWN = "an integer of 4401 digits, over Python's 4300-digit limit"


def run_script(monkeypatch, name, *args) -> int:
    """Run a script as __main__ and return its exit code."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_scripts_write_their_csvs(tmp_path, monkeypatch):
    monkeypatch.delenv("VCLAB_OUTPUT_DIR", raising=False)
    out = tmp_path / "results"
    assert run_script(monkeypatch, "run_bounds_table.py", "--output-dir", str(out)) == 0
    assert run_script(monkeypatch, "run_growth_curves.py", "--output-dir", str(out),
                      "--budget", "200") == 0
    assert run_script(monkeypatch, "run_uc_experiment.py", "--output-dir", str(out),
                      "--trials", "5") == 0
    for name in ("bounds_vs_delta_plotdata.csv", "growth_union2.csv", "growth_ltf2.csv",
                 "growth_net_m4.csv", "density_summary.csv", "growth_curves_plotdata.csv",
                 "uc_result.csv"):
        assert (out / name).stat().st_size > 0, name

    cli_grid = tmp_path / "cli_grid.csv"
    assert main(["bounds", "--m", "1,2,4,8", "--eps", "0.05,0.1,0.2",
                 "--delta", "0.05,0.1,0.2", "--output", str(cli_grid)]) == 0
    assert (out / "bounds_grid.csv").read_bytes() == cli_grid.read_bytes()


@pytest.mark.parametrize("name, flag, value, message", [
    ("run_bounds_table.py", "--eps", "1.5", "--eps must be in (0, 1), got 1.5"),
    ("run_bounds_table.py", "--m", LONG_INT, f"--m must be an int, got {LONG_INT_SHOWN}"),
    ("run_growth_curves.py", "--budget", "0", "--budget must be >= 1, got 0"),
    ("run_growth_curves.py", "--budget", LONG_INT,
     f"--budget must be an int, got {LONG_INT_SHOWN}"),
    ("run_uc_experiment.py", "--trials", "0", "--trials must be >= 1, got 0"),
    ("run_uc_experiment.py", "--trials", LONG_INT,
     f"--trials must be an int, got {LONG_INT_SHOWN}"),
], ids=lambda v: "4401-digits" if v == LONG_INT else None)
def test_bad_flag_exits_2_before_any_csv(tmp_path, monkeypatch, capsys, name, flag, value,
                                         message):
    monkeypatch.delenv("VCLAB_OUTPUT_DIR", raising=False)
    out = tmp_path / "results"
    assert run_script(monkeypatch, name, "--output-dir", str(out), flag, value) == 2
    err = capsys.readouterr().err
    assert err == f"{name}: invalid configuration: {message}\n"
    assert not out.exists()
