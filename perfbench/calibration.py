"""A fixed calibration mix that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed drifts by up to 2x over
minutes, and process CPU time drifts with it, so raw seconds from runs minutes
apart are not comparable. The mix repeats the kinds of work vclab does, in
code independent of vclab: a pure-Python loop, `np.unique` over boolean rows,
small HiGHS LPs, and multinomial draws with a small matrix product. It takes
about CAL_REF_S seconds on the host where the baseline was recorded. Timings
are rescaled to that host's speed: seconds * CAL_REF_S / calibration seconds
measured beside them.
"""

from time import perf_counter

import numpy as np
from scipy.optimize import linprog

CAL_REF_S = 0.3


def calibrate() -> float:
    """Seconds one run of the mix takes now. The work is the same every call."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 2, size=(8192, 64)).astype(bool)
    A = np.hstack([rng.uniform(-1, 1, (10, 2)), -np.ones((10, 1)), np.ones((10, 1))])
    p = np.full(20, 0.05)
    errs = rng.integers(0, 2, (211, 20)).astype(float)
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    for _ in range(4):
        np.unique(rows, axis=0)
    for _ in range(40):
        linprog([0, 0, 0, -1], A_ub=A, b_ub=np.zeros(10),
                bounds=[(-1, 1)] * 3 + [(0, 2)], method="highs")
    for _ in range(3000):
        np.abs(errs @ (p - rng.multinomial(100, p) / 100)).max()
    return perf_counter() - start
