"""The benchmark's span tracer (perfbench/tracer.py) looks up vclab
functions by name; a rename or deletion of a traced name must fail here
rather than at `perfbench/run.py --trace 1`. One traced `net_growth` pass
must also meet every job's work counters, so no change can route the
sampler around a traced site unnoticed."""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import vclab.cli as cli
from vclab import dichotomy
from vclab.hypotheses import load_class_spec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """Import perfbench/<name>.py under its plain name, as run.py and its
    lazy imports find it on perfbench's own sys.path; registered in
    sys.modules for the test's duration, so its dataclasses resolve it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_without_errors(monkeypatch):
    tracer = _load(monkeypatch, "tracer").Tracer()
    tracer.install()
    try:
        assert tracer.install_errors() == []
    finally:
        tracer.uninstall()


def _forward_blocks(job, wl, inp) -> int:
    """forward_batch calls of a sampled growth job: DRAWS trace sets per n,
    each in ceil(budget / block rows) blocks."""
    net = load_class_spec(inp.net1d if job.name == "net1d_growth" else inp.net2d)
    ns = [int(n) for n in job.argv[job.argv.index("--n") + 1].split(",")]
    return sum(wl.DRAWS * math.ceil(wl.BUDGET / dichotomy._block_rows(net, n)) for n in ns)


def test_traced_net_growth_pass_meets_every_closed_form(monkeypatch, tmp_path):
    calibration, tracer_mod, wl, run = (
        _load(monkeypatch, name) for name in ("calibration", "tracer", "workloads", "run"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setenv("VCLAB_OUTPUT_DIR", str(out_dir))
    inp = wl.generate_inputs(PERFBENCH.parent, tmp_path / "inputs", 1)
    jobs = wl.jobs_for("net_growth", inp, out_dir)
    sampled = [job for job in jobs if "hypotheses.forward_batch.evals" in job.expect]
    assert [job.name for job in sampled] == ["net1d_growth", "net2d_growth"]
    assert all("dichotomy.weight_draws" in job.expect for job in sampled)
    jobs = [dataclasses.replace(job, expect={
        **job.expect, "hypotheses.forward_batch.calls": _forward_blocks(job, wl, inp)})
        if job in sampled else job for job in jobs]

    runner = run.Runner(cli.main, jobs, out_dir, wl.load_pins())
    runner.calibrations.append(calibration.calibrate())
    tracer = tracer_mod.Tracer()
    hooks = run.TraceHooks(tracer, wl.BUDGET)
    hooks.run_pass(runner, tracer.span("cli.main", cli.main))
    # TraceHooks also checks weight_draws = budget x sampled_trace_set calls
    assert runner.failures == []
    assert hooks.mismatches == set()
