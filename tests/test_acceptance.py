"""End-to-end acceptance checks, one test per criterion. Each prints a
PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -s
"""

import math
import time

import numpy as np
import pytest

from conftest import GP8
from vclab.bounds import (
    BoundQuery,
    deviation_bound_growth,
    deviation_bound_rademacher,
    k_elementary,
    k_rademacher,
    solve_k_rademacher,
)
from vclab.dichotomy import (
    estimate_vc_density,
    growth_samples,
    sauer_shelah_cap,
    trace_set,
    vc_dim_bruteforce,
)
from vclab.hypotheses import (
    ActivationSpec,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
)
from vclab.pointsets import random_general_position
from vclab.ucheck import DiscreteDistribution, run_uc_experiment

LTF2 = LinearThreshold(dim=2)
THR = ActivationSpec(kind="threshold")
# one hidden threshold unit feeding a threshold output: 4 weights total
NET_M4 = NetworkSpec(input_dim=1, layers=(LayerSpec(1, THR), LayerSpec(1, THR)))

GRID = [
    BoundQuery(m=m, eps=eps, delta=delta)
    for m in (1, 2, 4, 8)
    for eps in (0.05, 0.1, 0.2)
    for delta in (0.05, 0.1, 0.2)
]


def union(m, domain_size=200):
    return UnionOfMPoints(capacity=m, domain=tuple((float(i),) for i in range(domain_size)))


def report(n, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def gp(n, d, seed):
    return random_general_position(n, d, np.random.default_rng(seed))


def test_criterion_1_cover_count_reproduction():
    start = time.monotonic()
    expected = [2, 4, 8, 14, 22, 32, 44, 58]
    got = [len(trace_set(LTF2, gp(n, 2, seed=300 + n))[0]) for n in range(1, 9)]
    elapsed = time.monotonic() - start
    report(1, got == expected and elapsed < 10.0,
           f"planar counts n=1..8 = {got}, {elapsed:.2f}s")


def test_criterion_2_vc_dimension_oracles():
    start = time.monotonic()
    ltf = vc_dim_bruteforce(LTF2, max_d=4, seed=17)
    unions = {m: vc_dim_bruteforce(union(m), max_d=m + 2, seed=17).value for m in (1, 2, 3)}
    elapsed = time.monotonic() - start
    ok = ltf.value == 3 and not ltf.saturated and unions == {1: 1, 2: 2, 3: 3}
    report(2, ok and elapsed < 60.0,
           f"LTF={ltf.value}, unions={unions}, {elapsed:.2f}s")


def test_criterion_3_vc_density_slopes():
    start = time.monotonic()
    n_values = [16, 32, 64, 128]
    slope_union = estimate_vc_density(
        growth_samples(union(2), n_values, method="oracle")
    ).slope
    slope_ltf = estimate_vc_density(
        growth_samples(LTF2, n_values, method="oracle")
    ).slope
    slope_net = estimate_vc_density(
        growth_samples(NET_M4, n_values, method="sampled", budget=20000, seed=1729)
    ).slope
    elapsed = time.monotonic() - start
    ok = (1.8 <= slope_union <= 2.05 and 1.8 <= slope_ltf <= 2.05
          and slope_net <= 4.1 and elapsed < 300.0)
    report(3, ok,
           f"union(2)={slope_union:.3f}, LTF={slope_ltf:.3f}, "
           f"net(m=4)={slope_net:.3f}, {elapsed:.1f}s")


def test_criterion_4_sauer_shelah_cap_zero_violations():
    violations = []
    for n in range(1, 9):  # planar LTF, measured VC-dim 3
        count = len(trace_set(LTF2, gp(n, 2, seed=300 + n))[0])
        if count > sauer_shelah_cap(3, n):
            violations.append(("ltf", n, count))
    for m in (1, 2, 3):  # union classes, measured VC-dim m
        for n in range(1, 13):
            from vclab.dichotomy import growth_function_oracle

            count = growth_function_oracle(union(m), n)
            if count > sauer_shelah_cap(m, n):
                violations.append((f"union{m}", n, count))
    report(4, not violations, f"violations={violations}")


def test_criterion_5_elementary_back_verification():
    start = time.monotonic()
    checked = failures = 0
    for q in GRID:
        k = k_elementary(q)
        if q.m * math.log(2 * k) < 16.0:
            continue
        checked += 1
        if deviation_bound_growth((2 * k) ** q.m, k, q.delta) > q.eps:
            failures += 1
    elapsed = time.monotonic() - start
    report(5, failures == 0 and checked > 0 and elapsed < 1.0,
           f"{checked} grid queries in regime, {failures} violations, {elapsed:.3f}s")


def test_criterion_6_rademacher_back_verification():
    failures = []
    for q in GRID:
        k = k_rademacher(q)
        if deviation_bound_rademacher(k, q.m, q.delta, q.c_prime) > q.eps:
            failures.append((q, "bound"))
        if solve_k_rademacher(q) > k:
            failures.append((q, "solver above closed form"))
    report(6, not failures, f"{len(GRID)} grid queries, failures={failures}")


def test_criterion_7_delta_crossover():
    def pair(delta):
        q = BoundQuery(m=1, eps=0.1, delta=delta)
        return k_elementary(q), k_rademacher(q)

    crossover_deltas = [
        d for d in (0.2, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 2e-6)
        if pair(d)[1] < pair(d)[0]
    ]
    k_el, k_rad = pair(1e-4)
    ratio = k_el / k_rad
    ok = bool(crossover_deltas) and ratio > 10.0
    report(7, ok, f"crossover at delta<={max(crossover_deltas, default=None)}, "
                  f"ratio at 1e-4 = {ratio:.1f}")


def test_criterion_8_uniform_convergence_monte_carlo():
    start = time.monotonic()
    eps, delta, trials = 0.25, 0.2, 200
    D = DiscreteDistribution(
        support=GP8, probabilities=(0.125,) * 8, true_labels=(1, 0, 1, 0, 1, 1, 0, 0)
    )
    k = k_elementary(BoundQuery(m=3, eps=eps, delta=delta))
    res = run_uc_experiment(LTF2, D, eps=eps, k=k, trials=trials, seed=1729)
    elapsed = time.monotonic() - start
    threshold = delta + 3 * math.sqrt(delta * (1 - delta) / trials)
    ok = (res.empirical_rate <= threshold
          and res.sup_method == "exact_trace_enumeration" and elapsed < 300.0)
    report(8, ok, f"k={k}, rate={res.empirical_rate:.4f} <= {threshold:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_9_byte_identical_reruns(tmp_path, monkeypatch):
    import os

    from vclab.cli import main

    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    growth_args = ["growth", "--class", "configs/net_1hidden_threshold.json",
                   "--n", "16,32,64,128", "--method", "sampled",
                   "--budget", "5000", "--seed", "1729"]
    uc_args = ["ucheck", "--class", "configs/ltf2.json",
               "--dist", "configs/dist8_uniform.json",
               "--eps", "0.25", "--delta", "0.2", "--m", "3",
               "--trials", "200", "--seed", "1729"]
    pairs = []
    for args, name in ((growth_args, "g"), (uc_args, "u")):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    report(9, all(pairs), f"growth identical={pairs[0]}, ucheck identical={pairs[1]}")
