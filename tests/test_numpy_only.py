"""The numpy-only install: with scipy unimportable, every subcommand and
each experiment script exits 0 and writes its CSVs."""

import os
import subprocess
import sys
from pathlib import Path

import vclab

SMOKE = Path(__file__).resolve().parent / "smoke_commands.py"
# sys.modules["scipy"] = None makes `import scipy` raise ImportError, as on an
# install without it; the smoke file then runs as __main__ on the output dir
BLOCK_SCIPY = ("import runpy, sys; sys.modules['scipy'] = None; sys.argv = sys.argv[1:]; "
               "runpy.run_path(sys.argv[0], run_name='__main__')")


def test_every_command_runs_without_scipy(tmp_path):
    src = str(Path(vclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", BLOCK_SCIPY, str(SMOKE), str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("bounds.csv", "growth.csv", "density.csv", "vcdim.csv", "uc.csv",
                 "bounds_grid.csv", "density_summary.csv", "uc_result.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
