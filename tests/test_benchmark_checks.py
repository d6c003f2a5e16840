"""The benchmark's own output checks (perfbench/workloads.py): every job of
every workload runs once and must pass its check, which includes the
byte-identical pinned-CSV digests. A change that moves a pinned CSV fails
here rather than at `perfbench/run.py`."""

import importlib.util
import sys
from pathlib import Path

import pytest

from vclab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name):
    """Import perfbench/<name>.py; it is registered in sys.modules so its
    dataclasses resolve their module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    return load(monkeypatch, "run"), load(monkeypatch, "workloads")


@pytest.mark.parametrize("workload", ["ltf_exact", "net_growth", "uc_montecarlo"])
def test_every_job_passes_its_check(perfbench, workload, tmp_path, monkeypatch):
    run, wl = perfbench
    assert workload in wl.WORKLOADS
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv("VCLAB_OUTPUT_DIR", str(out_dir))
    inp = wl.generate_inputs(PERFBENCH.parent, tmp_path / "inputs", 1)
    jobs = wl.jobs_for(workload, inp, out_dir)
    runner = run.Runner(main, jobs, out_dir, wl.load_pins())
    errors = {job.name: runner.run_job(job, main)[1] for job in jobs}
    assert errors == {job.name: None for job in jobs}
