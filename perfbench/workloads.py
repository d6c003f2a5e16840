"""Workload definitions for the vclab benchmark: seeded input files, the job
list of each workload, the tiny calls that make up set-up, and the output
checks.

Every check compares a CSV against a reference computed here, independently
of the code under test: closed forms (Cover's count, the union-of-points
count, k_elementary), known VC-dimensions, a closed-form Monte Carlo replay
for the union-of-points experiment, and SHA-256 digests pinned from the seed
commit for every CSV whose inputs do not depend on --seed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PINS_FILE = Path(__file__).resolve().parent / "pins.json"

BUDGET = 20000  # the CLI's default --budget, used by every sampled job
DRAWS = 3  # the CLI's default --draws

UC_DIST8 = ["--eps", "0.25", "--delta", "0.2"]
UNION_UC = {"k": 100, "eps": 0.1, "trials": 40000}
LTF_UC_TRIALS = 40000


@dataclass(frozen=True)
class Job:
    """One CLI call. `argv` writes `<name>.csv`; `check(rows)` returns a
    failure message or None. `pinned` marks a CSV whose bytes depend only on
    stock inputs, so its digest is compared with pins.json. `expect` maps
    per-layer metrics of tracer.py that count work to the values they must
    take over this job on the seed commit's algorithms."""

    name: str
    argv: list[str]
    check: Callable[[list[dict]], str | None]
    pinned: bool
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Inputs:
    """Paths of the stock configs and of the files generated from --seed."""

    ltf2: str
    dist8: str
    net1d: str
    union2: str
    ltf3: str
    net2d: str
    union_dist: str
    cli_seed: int
    union_p: tuple
    union_y: tuple


# --------------------------------------------------------------------------
# Seeded inputs
# --------------------------------------------------------------------------


def generate_inputs(root: Path, out: Path, seed: int) -> Inputs:
    """Write the d=3 LTF spec, the 2-D tanh net and a random distribution over
    the 20-point union2 domain. The same seed writes the same files."""
    rng = np.random.default_rng(seed % 2**32)
    configs = root / "configs"
    out.mkdir(parents=True, exist_ok=True)

    ltf3 = {"schema_version": 1, "kind": "baseline",
            "baseline": {"kind": "linear_threshold", "dim": 3}}
    net2d = {"schema_version": 1, "kind": "network", "network": {
        "input_dim": 2,
        "layers": [
            {"fan_in": 2, "width": 3, "activation": {"kind": "tanh"}},
            {"fan_in": 3, "width": 1, "activation": {"kind": "threshold"}},
        ]}}

    domain = json.loads((configs / "union2.json").read_text())["baseline"]["domain"]
    support = [domain[i] for i in rng.permutation(len(domain))]
    x = rng.dirichlet(np.ones(len(support)))
    p = [float(v) for v in x / x.sum()]
    p[-1] = 1.0 - sum(p[:-1])
    if p[-1] <= 0 or abs(sum(p) - 1.0) > 1e-12:
        raise ValueError("generated probabilities do not sum to 1")
    y = [int(v) for v in rng.integers(0, 2, len(support))]
    dist = {"schema_version": 1, "support": support, "probabilities": p, "labels": y}

    paths = {}
    for name, doc in (("ltf3", ltf3), ("net2d", net2d), ("union_dist", dist)):
        paths[name] = out / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return Inputs(
        ltf2=str(configs / "ltf2.json"),
        dist8=str(configs / "dist8_uniform.json"),
        net1d=str(configs / "net_1hidden_threshold.json"),
        union2=str(configs / "union2.json"),
        ltf3=str(paths["ltf3"]),
        net2d=str(paths["net2d"]),
        union_dist=str(paths["union_dist"]),
        cli_seed=int(rng.integers(2**31)),
        union_p=tuple(p),
        union_y=tuple(y),
    )


# --------------------------------------------------------------------------
# Independent references
# --------------------------------------------------------------------------


def cover_count(n: int, d: int) -> int:
    """Dichotomies of n points in general position in R^d by affine
    thresholds (Cover 1965)."""
    return 2 * sum(math.comb(n - 1, i) for i in range(d + 1))


def k_elementary_ref(m: int, eps: float, delta: float) -> int:
    a = 4.0 * m / (eps**2 * delta**2)
    return 1 if a <= 1.0 else math.ceil(a * math.log(a))


def union_uc_failures(p, y, k: int, eps: float, trials: int, seed: int):
    """Failure-count window for ucheck on a union-of-2-points class whose
    domain covers the support, replaying the documented sampling protocol
    (one multinomial count vector per trial from default_rng(seed)).

    The sup over traces has a closed form: starting from the empty set, adding
    point i shifts the signed deviation by s_i * delta_i, so the extremes take
    the two largest (smallest) shifts. Trials within 1e-9 of eps may go either
    way under a different summation order, which widens the window."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y)
    sign = np.where(y == 0, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    strict = ambiguous = 0
    for _ in range(trials):
        delta = p - rng.multinomial(k, p) / k
        base = float(delta[y == 1].sum())
        shift = np.sort(sign * delta)
        hi = base + max(shift[-1], 0.0) + max(shift[-2], 0.0)
        lo = base + min(shift[0], 0.0) + min(shift[1], 0.0)
        sup = max(abs(hi), abs(lo))
        if abs(sup - eps) <= 1e-9:
            ambiguous += 1
        elif sup > eps:
            strict += 1
    return strict, strict + ambiguous


# --------------------------------------------------------------------------
# Checks: each returns None when the CSV rows are right, else a message
# --------------------------------------------------------------------------


def _growth_check(ns, exactness, cap=None):
    """Rows for exactly `ns`, each with 1 <= count <= 2^n, the given tag, and
    count == cap(n) (or <= cap(n) for lower bounds) when a cap is given."""

    def check(rows):
        if [int(r["n"]) for r in rows] != sorted(ns):
            return f"rows for n={[r['n'] for r in rows]}, wanted {sorted(ns)}"
        for r in rows:
            n, count = int(r["n"]), int(r["count"])
            if r["exactness"] != exactness:
                return f"n={n}: exactness {r['exactness']!r}, wanted {exactness!r}"
            if not 1 <= count <= 2**n:
                return f"n={n}: count {count} outside [1, 2^n]"
            if cap is not None:
                want = cap(n)
                if exactness == "exact" and count != want:
                    return f"n={n}: count {count} != reference {want}"
                if exactness == "lower_bound" and count > want:
                    return f"n={n}: lower bound {count} > true value {want}"
        return None

    return check


def _vcdim_check(want):
    def check(rows):
        got = int(rows[0]["vc_dim"])
        return None if got == want else f"vc_dim {got}, wanted {want}"

    return check


def _ucheck_check(k, trials, failures=None):
    def check(rows):
        r = rows[0]
        if int(r["k"]) != k or int(r["trials"]) != trials:
            return f"k={r['k']} trials={r['trials']}, wanted k={k} trials={trials}"
        if r["sup_method"] != "exact_trace_enumeration":
            return f"sup_method {r['sup_method']!r}"
        got = int(r["failures"])
        lo, hi = failures if failures is not None else (0, trials)
        if not lo <= got <= hi:
            return f"failures {got} outside reference window [{lo}, {hi}]"
        return None

    return check


def _bounds_check(rows):
    for r in rows:
        want = k_elementary_ref(int(r["m"]), float(r["eps"]), float(r["delta"]))
        if int(r["k_elementary"]) != want:
            return f"k_elementary {r['k_elementary']} != reference {want}"
    return None


def _density_check(rows):
    # union of 2 points: VC-density 2, approached from below at finite n
    slope = float(rows[0]["slope"])
    return None if 1.9 <= slope <= 2.0 else f"slope {slope} outside [1.9, 2]"


def _union_count(n: int) -> int:
    return sum(math.comb(n, i) for i in range(3))


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def _lp_sweep(ns) -> int:
    """LP solves of the seed commit's exact growth: DRAWS point sets per n,
    2^(n-1) labelings each (complement symmetry halves 2^n)."""
    return DRAWS * sum(2 ** (n - 1) for n in ns)


def _sampled(ns) -> dict:
    return {
        "dichotomy.sampled_trace_set.calls": DRAWS * len(ns),
        "dichotomy.weight_draws": DRAWS * len(ns) * BUDGET,
        "hypotheses.forward_batch.evals": DRAWS * BUDGET * sum(ns),
        "linsep.lp_solves": 0,
    }


def _csv(ns) -> str:
    return ",".join(str(n) for n in ns)


def jobs_for(workload: str, inp: Inputs, out_dir: Path) -> list[Job]:
    """The fixed job list of one workload, run in order as one pass."""
    seed = ["--seed", str(inp.cli_seed)]
    if workload == "ltf_exact":
        ns2, ns3 = [4, 6, 8, 10], [5, 7, 9]
        return [
            Job("ltf2_exact", ["growth", "--class", inp.ltf2, "--n", _csv(ns2),
                               "--method", "exact"],
                _growth_check(ns2, "exact", lambda n: cover_count(n, 2)), True,
                {"linsep.lp_solves": _lp_sweep(ns2)}),
            Job("ltf3_exact", ["growth", "--class", inp.ltf3, "--n", _csv(ns3),
                               "--method", "exact", *seed],
                _growth_check(ns3, "exact", lambda n: cover_count(n, 3)), False,
                {"linsep.lp_solves": _lp_sweep(ns3)}),
            Job("ltf2_vcdim", ["vcdim", "--class", inp.ltf2, "--max-d", "4"],
                _vcdim_check(3), True),
            Job("ltf2_ucheck", ["ucheck", "--class", inp.ltf2, "--dist", inp.dist8,
                                *UC_DIST8, "--m", "3", "--trials", "200"],
                _ucheck_check(k_elementary_ref(3, 0.25, 0.2), 200), True,
                {"linsep.lp_solves": 2**7, "ucheck.trials": 200}),
        ]
    if workload == "net_growth":
        ns1, ns2 = [16, 32, 64, 128], [16, 32, 64]
        return [
            # the stock net is exactly half-lines plus constants: 2n traces
            Job("net1d_growth", ["growth", "--class", inp.net1d, "--n", _csv(ns1)],
                _growth_check(ns1, "lower_bound", lambda n: 2 * n), True,
                _sampled(ns1)),
            Job("net1d_vcdim", ["vcdim", "--class", inp.net1d],
                _vcdim_check(2), True, {"linsep.lp_solves": 0}),
            Job("net2d_growth", ["growth", "--class", inp.net2d, "--n", _csv(ns2),
                                 *seed],
                _growth_check(ns2, "lower_bound"), False, _sampled(ns2)),
        ]
    if workload == "uc_montecarlo":
        t, u = LTF_UC_TRIALS, UNION_UC
        growth_csv = str(out_dir / "union2_growth.csv")
        ns = [16, 32, 64, 128]
        return [
            Job("ltf2_ucheck_m3", ["ucheck", "--class", inp.ltf2, "--dist", inp.dist8,
                                   *UC_DIST8, "--m", "3", "--trials", str(t)],
                _ucheck_check(k_elementary_ref(3, 0.25, 0.2), t), True,
                {"linsep.lp_solves": 2**7, "ucheck.trials": t, "bounds.calls": 1}),
            Job("ltf2_ucheck_k50", ["ucheck", "--class", inp.ltf2, "--dist", inp.dist8,
                                    "--eps", "0.1", "--delta", "0.2", "--k", "50",
                                    "--trials", str(t)],
                _ucheck_check(50, t), True,
                {"linsep.lp_solves": 2**7, "ucheck.trials": t}),
            Job("union2_ucheck", ["ucheck", "--class", inp.union2, "--dist", inp.union_dist,
                                  "--eps", str(u["eps"]), "--delta", "0.1",
                                  "--k", str(u["k"]), "--trials", str(u["trials"]), *seed],
                _ucheck_check(u["k"], u["trials"], union_uc_failures(
                    inp.union_p, inp.union_y, u["k"], u["eps"], u["trials"], inp.cli_seed)),
                False,
                {"linsep.lp_solves": 0, "ucheck.trials": u["trials"],
                 "ucheck.trace_rows": _union_count(20)}),
            Job("bounds_grid", ["bounds", "--m", "1,2,4,8", "--eps", "0.05,0.1,0.2",
                                "--delta", "0.05,0.1,0.2"],
                _bounds_check, True, {"bounds.calls": 36}),
            Job("union2_vcdim", ["vcdim", "--class", inp.union2, "--max-d", "4"],
                _vcdim_check(2), True),
            Job("union2_growth", ["growth", "--class", inp.union2, "--n", _csv(ns),
                                  "--method", "oracle"],
                _growth_check(ns, "exact", _union_count), True),
            Job("union2_density", ["density", "--input", growth_csv],
                _density_check, True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ltf_exact", "net_growth", "uc_montecarlo")


def setup_calls(workload: str, inp: Inputs, out_dir: Path) -> list[list[str]]:
    """One tiny first call of each command the workload uses."""
    uc = ["ucheck", "--class", inp.ltf2, "--dist", inp.dist8, *UC_DIST8,
          "--k", "5", "--trials", "1"]
    if workload == "ltf_exact":
        return [
            ["growth", "--class", inp.ltf2, "--n", "3", "--method", "exact", "--draws", "1"],
            ["vcdim", "--class", inp.ltf2, "--max-d", "1", "--tries", "1"],
            uc,
        ]
    if workload == "net_growth":
        return [
            ["growth", "--class", inp.net1d, "--n", "2", "--draws", "1", "--budget", "10"],
            ["vcdim", "--class", inp.net1d, "--max-d", "1", "--tries", "1", "--budget", "10"],
        ]
    if workload == "uc_montecarlo":
        growth_csv = out_dir / "setup_growth.csv"
        return [
            uc,
            ["bounds", "--m", "1", "--eps", "0.1", "--delta", "0.1"],
            ["vcdim", "--class", inp.union2, "--max-d", "1", "--tries", "1"],
            ["growth", "--class", inp.union2, "--n", "4,8,16", "--method", "oracle",
             "--output", str(growth_csv)],
            ["density", "--input", str(growth_csv)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())
