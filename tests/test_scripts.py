import hashlib
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


# SHA-256 of each CSV the three scripts write at their default arguments
SCRIPT_CSV_DIGESTS = {
    "bounds_grid.csv": "26f7bb7694c93fdcc3348bc8c6bfbb68fa6fa6b75b2b724cdc09473f7fccfb31",
    "bounds_vs_delta_plotdata.csv":
        "7d4481e332ce18b2eeaac372c8c04dcec5ceb7396b9ebba001de121a46735b72",
    "density_summary.csv": "b118e83037f4bbd2f98701197211afcb1da8e5af8546482e6097e6f1cc1625e1",
    "growth_curves_plotdata.csv":
        "1df11fe06d0e357bc68b94d38e20d9dba4fec5368820a8b0c4399e30097c89ed",
    "growth_ltf2.csv": "c6a255e8186ab935f957bffd6966530539a2b7027c303b9dde4d0ae3f9dd616f",
    "growth_net_m4.csv": "1fc3232ab82569494da94f931d92622c45aceb25e211382d9afa7914e2c6012c",
    "growth_union2.csv": "dc649f4dc5a2b019f64b4d81bd5dc068364fd8dd7f2266a0a3c77180f71a87d1",
    "uc_result.csv": "0a1503ebeb26972b5607319d5cf42b51b3164296099c04f51b4c41a01bd61697",
}


def test_scripts_at_default_arguments_keep_their_csvs(tmp_path, monkeypatch):
    monkeypatch.delenv("VCLAB_OUTPUT_DIR", raising=False)
    for name in ("run_bounds_table.py", "run_growth_curves.py", "run_uc_experiment.py"):
        assert run_script(monkeypatch, name, "--output-dir", str(tmp_path)) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == SCRIPT_CSV_DIGESTS


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
