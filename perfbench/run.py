#!/usr/bin/env python3
"""Benchmark of the vclab CLI, run in process from the root of a checkout:

    python3 perfbench/run.py --workload ltf_exact --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of `vclab.cli.main(argv)` jobs run as a closed
loop on one thread: a job starts when the previous one has returned, and a
pass is the whole list. Passes repeat until --seconds have elapsed. Inputs are
the stock configs/ plus files generated from --seed; CSVs go to a temporary
VCLAB_OUTPUT_DIR inside the checkout and are checked after every job.

--trace 0 reports the end-to-end metrics: wall_s (median pass time),
setup_s (median over fresh interpreters), peak_rss_mb. Both times are
rescaled to reference host speed with calibration.py; the raw medians are
printed too. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of tracer.py. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CAL_EVERY_S = 1.0  # job seconds between calibrations within a pass
SINGLE_THREAD = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class Runner:
    """Runs one workload's job list and checks every CSV it writes."""

    def __init__(self, main, jobs, out_dir: Path, pins: dict):
        self.main = main
        self.jobs = jobs
        self.out_dir = out_dir
        self.pins = pins
        self.first_digests: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []

    def run_job(self, job, main):
        """Returns (seconds in main, error message or None)."""
        self.attempted += 1
        csv_path = self.out_dir / f"{job.name}.csv"
        csv_path.unlink(missing_ok=True)
        argv = [*job.argv, "--output", csv_path.name]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as e:
                return perf_counter() - start, f"raised {e!r}"
            elapsed = perf_counter() - start
        if rc != 0:
            return elapsed, f"exit code {rc}: {err.getvalue().strip()}"
        return elapsed, self.check_output(job, csv_path)

    def check_output(self, job, csv_path: Path):
        try:
            data = csv_path.read_bytes()
            msg = job.check(list(csv.DictReader(io.StringIO(data.decode()))))
        except (OSError, UnicodeDecodeError, csv.Error, KeyError, ValueError, IndexError) as e:
            return f"unreadable CSV: {e!r}"
        if msg:
            return msg
        digest = hashlib.sha256(data).hexdigest()
        if job.pinned and self.pins.get(job.name) != digest:
            return f"CSV digest {digest} differs from the pinned seed-commit digest"
        first = self.first_digests.setdefault(job.name, digest)
        if digest != first:
            return "CSV bytes differ from this run's first pass"
        return None

    def run_pass(self, main, hooks=None) -> tuple[float, float]:
        """Raw seconds of one pass, and the same seconds rescaled to reference
        host speed. The calibration mix runs at the first job boundary after
        each CAL_EVERY_S of job time and at the end of the pass; each segment
        of jobs is rescaled by the mean of the calibrations around it."""
        from calibration import CAL_REF_S, calibrate

        raw = ref = segment = 0.0
        for i, job in enumerate(self.jobs):
            seconds, error = self.run_job(job, main)
            segment += seconds
            if error:
                self.failures.append(f"{job.name}: {error}")
            if hooks is not None:
                hooks.end_job(job)
            if segment >= CAL_EVERY_S or i == len(self.jobs) - 1:
                before = self.calibrations[-1]
                self.calibrations.append(calibrate())
                raw += segment
                ref += segment * 2 * CAL_REF_S / (before + self.calibrations[-1])
                segment = 0.0
        return raw, ref

    def run_passes(self, seconds: float, passes=None, min_rounds=2):
        """Runs `passes` (default: one untraced pass) in turn, at least
        `min_rounds` times and then while one more round still fits into
        `seconds` with 10% slack. Returns, per entry of `passes`, the raw and
        the rescaled pass times."""
        from calibration import calibrate

        passes = passes or [lambda: self.run_pass(self.main)]
        raw = [[] for _ in passes]
        ref = [[] for _ in passes]
        start = perf_counter()
        self.calibrations.append(calibrate())
        while len(raw[0]) < min_rounds or perf_counter() - start + sum(
                statistics.median(t) for t in raw) <= 1.1 * seconds:
            for run, r, f in zip(passes, raw, ref):
                took, rescaled = run()
                r.append(took)
                f.append(rescaled)
        return raw, ref


def measure_setup(calls, env) -> tuple[float, float, int, int]:
    """Median set-up seconds over fresh interpreters, after one unmeasured
    start that fills the bytecode caches, raw and rescaled by the calibration
    each probe runs after its timed part. Returns (raw, rescaled, calls,
    failed)."""
    from calibration import CAL_REF_S

    raw, ref, attempted, failed = [], [], 0, 0
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(calls)],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        doc = json.loads(lines[-1])
        if i:
            raw.append(doc["setup_s"])
            ref.append(doc["setup_s"] * CAL_REF_S / doc["calibration_s"])
            attempted += doc["calls"]
            failed += doc["failed"]
    return statistics.median(raw), statistics.median(ref), attempted, failed


class TraceHooks:
    """Collects per-pass metrics and checks each job's traced counters
    against its closed forms."""

    def __init__(self, tracer, budget):
        self.tracer = tracer
        self.budget = budget
        self.before: dict = {}
        self.per_pass: list[tuple] = []
        self.mismatches: set[str] = set()

    def end_job(self, job):
        now = self.tracer.metrics()
        for key, want in job.expect.items():
            got = now[key] - self.before[key]
            if got != want:
                self.mismatches.add(f"{job.name}: {key} = {got}, closed form {want}")
        self.before = now

    def run_pass(self, runner, main) -> tuple[float, float]:
        self.tracer.reset()
        self.before = self.tracer.metrics()
        self.tracer.install()
        try:
            times = runner.run_pass(main, self)
        finally:
            self.tracer.uninstall()
        c = self.before
        if c["dichotomy.weight_draws"] != self.budget * c["dichotomy.sampled_trace_set.calls"]:
            self.mismatches.add("weight_draws != budget x sampled_trace_set calls")
        self.per_pass.append((self.tracer.metrics(), self.tracer.layer_self_times()))
        return times


def traced_run(runner, cli, seconds):
    """Untraced and traced passes in turn, so both see the same machine
    load. Returns raw and rescaled untraced pass times, rescaled traced pass
    times, per-layer metrics and layer self times (medians over traced
    passes), wrapper installation errors and closed-form mismatches."""
    from tracer import Tracer
    from workloads import BUDGET

    tracer = Tracer()
    traced_main = tracer.span("cli.main", cli.main)

    def main(argv):
        rc = traced_main(argv)
        tracer.counts["cli.nonzero_exits"] += rc != 0
        return rc

    hooks = TraceHooks(tracer, BUDGET)
    tracer.install()
    problems = tracer.install_errors()
    tracer.uninstall()
    (raw, _), (ref, traced_ref) = runner.run_passes(seconds, [
        lambda: runner.run_pass(cli.main),
        lambda: hooks.run_pass(runner, main),
    ], min_rounds=1)
    metrics = {k: statistics.median_low(m[k] for m, _ in hooks.per_pass)
               for k in hooks.per_pass[0][0]}
    layers = {k: statistics.median_low(l[k] for _, l in hooks.per_pass)
              for k in hooks.per_pass[0][1]}
    return raw, ref, traced_ref, metrics, layers, problems, sorted(hooks.mismatches)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "vclab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        return fail(f"no vclab sources under {ROOT}; run from a full checkout")
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(src), str(HERE)]
    import vclab.cli as cli
    import workloads as wl

    if Path(cli.__file__).resolve().parent != (src / "vclab").resolve():
        return fail(f"imported vclab from {cli.__file__}, not from {src}")
    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {wl.WORKLOADS}")

    work_root = ROOT / ".perfbench_out"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        out_dir = work / "out"
        out_dir.mkdir()
        os.environ["VCLAB_OUTPUT_DIR"] = str(out_dir)
        inp = wl.generate_inputs(ROOT, work / "inputs", args.seed)
        jobs = wl.jobs_for(args.workload, inp, out_dir)
        calls = wl.setup_calls(args.workload, inp, work / "setup")
        env = {**os.environ, "PYTHONPATH": str(src), "VCLAB_OUTPUT_DIR": str(work / "setup")}
        setup_raw_s, setup_s, setup_attempted, setup_failed = measure_setup(calls, env)

        # the same tiny calls in this process, so lazy set-up is not timed;
        # the probes above already counted any of them that failed
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv in calls:
                try:
                    cli.main(argv)
                except Exception:
                    pass

        runner = Runner(cli.main, jobs, out_dir, wl.load_pins())
        if args.trace:
            raw, ref, traced_ref, metrics, layers, problems, mismatches = traced_run(
                runner, cli, args.seconds)
        else:
            [raw], [ref] = runner.run_passes(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    attempted = runner.attempted + setup_attempted
    failed = len(runner.failures) + setup_failed
    for msg in runner.failures:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    wall_s = statistics.median(ref)
    wall_raw_s = statistics.median(raw)
    calibration_s = statistics.median(runner.calibrations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed={args.seed}: wall_s={wall_s:.4f} s (median of "
          f"{len(ref)} passes; raw {wall_raw_s:.4f} s) setup_s={setup_s:.4f} s "
          f"(median of {SETUP_SAMPLES}; raw {setup_raw_s:.4f} s) "
          f"peak_rss_mb={peak_rss_mb:.1f} MB error_rate={failed / attempted:g} "
          f"({failed}/{attempted} jobs) calibration_s={calibration_s:.4f}")
    correct = failed == 0

    if args.trace:
        for msg in problems:
            print(f"perfbench: TRACER {msg}", file=sys.stderr)
        for msg in mismatches:
            print(f"perfbench: closed form not met: {msg}", file=sys.stderr)
        correct = correct and not problems
        metrics["trace.overhead_s"] = statistics.median(traced_ref) - wall_s
        metrics["trace.closed_form_mismatches"] = len(mismatches)
        metrics["wall_s.samples"] = len(ref)
        metrics["wall_raw_s"] = wall_raw_s
        metrics["setup_raw_s"] = setup_raw_s
        metrics["calibration_s"] = calibration_s
        metrics["error_rate"] = failed / attempted
        ranking = sorted(layers, key=layers.get, reverse=True)
        print("layer self time: " + ", ".join(f"{k}={layers[k]:.4f}s" for k in ranking))
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in units}
    else:
        out = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
