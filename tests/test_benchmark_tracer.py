"""The benchmark's span tracer (perfbench/tracer.py) looks up vclab
functions by name; a rename or deletion of a traced name must fail here
rather than at `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import vclab.cli  # noqa: F401  (loads every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_without_errors():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.install_errors() == []
    finally:
        tracer.uninstall()
