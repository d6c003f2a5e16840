import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vclab.bounds import (
    BoundQuery,
    back_verify_elementary,
    back_verify_rademacher,
    bound_report,
    classical_reference_bounds,
    deviation_bound_growth,
    deviation_bound_rademacher,
    k_elementary,
    k_rademacher,
    rademacher_cap,
    solve_k_elementary,
    solve_k_rademacher,
)
from vclab.errors import CapExceededError

GRID = [
    BoundQuery(m=m, eps=eps, delta=delta)
    for m in (1, 2, 4, 8)
    for eps in (0.05, 0.1, 0.2)
    for delta in (0.05, 0.1, 0.2)
]


class TestDeviationGrowth:
    def test_single_hypothesis(self):
        assert deviation_bound_growth(1, k=8, delta=0.5) == pytest.approx(2.0)

    def test_polynomial_growth_value(self):
        # tau(2k) = (2k)^m with m=2, k=50: (4 + sqrt(2 ln 100)) / (0.1*10)
        val = deviation_bound_growth((2 * 50) ** 2, k=50, delta=0.1)
        assert val == pytest.approx((4 + math.sqrt(2 * math.log(100))) / 1.0, rel=1e-12)
        assert val == pytest.approx(7.0348, abs=1e-3)

    def test_oracle_tau_at_2k(self):
        # exact planar perceptron growth at 2k = 8: 2*(1+7+21) = 58
        from vclab.dichotomy import growth_function_oracle
        from vclab.hypotheses import LinearThreshold

        tau = growth_function_oracle(LinearThreshold(dim=2), 2 * 4)
        expected = (4 + math.sqrt(math.log(58))) / (0.2 * math.sqrt(8))
        assert deviation_bound_growth(tau, k=4, delta=0.2) == pytest.approx(expected)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            deviation_bound_growth(0, k=4, delta=0.2)


class TestKElementary:
    def test_reference_value(self):
        k = k_elementary(BoundQuery(m=1, eps=0.1, delta=0.1))
        assert abs(k - 423866) <= 1

    def test_monotone_in_m(self):
        for eps in (0.05, 0.2):
            for delta in (0.05, 0.2):
                ks = [k_elementary(BoundQuery(m=m, eps=eps, delta=delta)) for m in range(1, 9)]
                assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_monotone_in_eps_delta(self):
        base = BoundQuery(m=2, eps=0.1, delta=0.1)
        assert k_elementary(BoundQuery(m=2, eps=0.05, delta=0.1)) > k_elementary(base)
        assert k_elementary(BoundQuery(m=2, eps=0.1, delta=0.05)) > k_elementary(base)

    def test_floor_of_one(self):
        assert k_elementary(BoundQuery(m=1, eps=0.999, delta=0.999)) >= 1


class TestSolveKElementary:
    # near a = 1e15, rounding in a * ln x no longer tells neighbouring x apart
    @given(
        m=st.integers(1, 1000),
        eps=st.floats(1e-3, 1, exclude_max=True),
        delta=st.floats(1e-3, 1, exclude_max=True),
    )
    @settings(max_examples=200)
    def test_least_solution(self, m, eps, delta):
        a = 4.0 * m / (eps**2 * delta**2)
        assume(a <= 1e9)
        two_k = 2 * solve_k_elementary(BoundQuery(m=m, eps=eps, delta=delta))
        assert two_k >= a * math.log(two_k)
        assert two_k - 2 < a * math.log(two_k - 2)

    def test_reference_value(self):
        # a = 4 / (0.5^2 0.5^2) = 64: 381 is the least x >= 64 ln x, so 2k = 382
        assert solve_k_elementary(BoundQuery(m=1, eps=0.5, delta=0.5)) == 191
        assert 381 >= 64 * math.log(381) and 380 < 64 * math.log(380)

    def test_solver_closed_form_beyond_float_range_is_a_cap(self):
        # a ln a is finite here, so k_elementary is not capped, but 4a ln(2a) is not
        q = BoundQuery(m=1, eps=0.1, delta=5e-152)
        assert k_elementary(q) > 0
        with pytest.raises(CapExceededError, match="eps = 0.1, delta = 5e-152, m = 1 exceeds"):
            solve_k_elementary(q)


class TestFloatRange:
    @pytest.mark.parametrize("field", ["C_prime", "C_hat"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_constants_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            BoundQuery(m=3, eps=0.1, delta=0.1, **{field.lower(): value})

    @pytest.mark.parametrize("c_prime", [1e-300, 1.5, 1.9999999999999998])
    def test_query_rejects_c_prime_below_solver_range(self, c_prime):
        with pytest.raises(ValueError, match=f"C_prime must be >= 2 .*got {c_prime}"):
            BoundQuery(m=3, eps=0.1, delta=0.1, c_prime=c_prime)

    def test_query_accepts_c_prime_at_solver_bound(self):
        q = BoundQuery(m=3, eps=0.1, delta=0.1, c_prime=2.0)
        assert bound_report(q).verified_rademacher

    @pytest.mark.parametrize("eps", [1e-200, 1e-160])
    def test_k_elementary_beyond_float_range_is_a_cap(self, eps):
        q = BoundQuery(m=3, eps=eps, delta=0.1)
        for f in (k_elementary, solve_k_elementary):
            with pytest.raises(CapExceededError, match=f"eps = {eps}, delta = 0.1, m = 3"):
                f(q)

    def test_k_rademacher_solver_beyond_float_range_is_a_cap(self):
        # the least k is about 5.7e309: the search passes k ~ 1e308, where k
        # no longer converts to a float
        q = BoundQuery(m=100, eps=1e-152, delta=0.999)
        with pytest.raises(CapExceededError, match="eps = 1e-152, delta = 0.999, m = 100"):
            solve_k_rademacher(q)
        # the least k is about 5.7e307, where C'k = 1.1e308 still fits a float
        q = BoundQuery(m=100, eps=1e-151, delta=0.999)
        k = solve_k_rademacher(q)
        assert back_verify_rademacher(q, k) and not back_verify_rademacher(q, k - 1)
        # a little inside the float range the solver still answers, with an exact integer
        k = solve_k_rademacher(BoundQuery(m=100, eps=1e-140, delta=0.999))
        assert 1e280 < k < 1e308 and isinstance(k, int)

    @pytest.mark.parametrize("f", [k_elementary, k_rademacher, solve_k_elementary,
                                   solve_k_rademacher, bound_report])
    def test_m_beyond_float_range_is_a_cap_naming_its_digits(self, f):
        q = BoundQuery(m=10**399, eps=0.1, delta=0.1)
        with pytest.raises(CapExceededError, match="delta = 0.1, m = an integer of 400 digits"):
            f(q)

    def test_m_past_the_digit_limit_is_a_cap_naming_its_digits(self):
        # str() of this m would raise ValueError past Python's int-to-str limit
        q = BoundQuery(m=10**5000, eps=0.1, delta=0.1)
        with pytest.raises(CapExceededError, match="m = an integer of 5001 digits exceeds"):
            k_elementary(q)

    @pytest.mark.parametrize("m,column", [
        (10**77, "classical_m4"),  # m^4 fits a float, m^4 / eps^2 does not
        (10**78, "classical_m4"),  # m^4 itself does not fit
        (10**155, "classical_m2"),
    ])
    def test_classical_column_beyond_float_range_is_a_cap_naming_it(self, m, column):
        with pytest.raises(CapExceededError) as e:
            bound_report(BoundQuery(m=m, eps=0.1, delta=0.1))
        want = f"{column} for eps = 0.1, delta = 0.1, m = {m} exceeds the float range"
        assert str(e.value) == want

    def test_m_just_inside_classical_range_gives_a_row(self):
        r = bound_report(BoundQuery(m=10**76, eps=0.1, delta=0.1))
        assert r.classical_m4 == pytest.approx(1e306) and r.verified_elementary


class TestRademacherCap:
    def test_single_vector(self):
        for k in (2, 10, 1000):
            assert rademacher_cap(k, m=0, C=1.0) == 0.0

    def test_reference_value(self):
        k = math.e**2
        assert rademacher_cap(k, m=1, C=1.0) == pytest.approx(2 / math.e)

    def test_eventually_decreasing_in_k(self):
        vals = [rademacher_cap(k, m=2, C=1.0) for k in range(10, 200)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestDeviationRademacher:
    def test_confidence_term_identity(self):
        # delta = 4/e^2 makes ln(4/delta) = 2, so the confidence term is 2/sqrt(k)
        delta = 4 / math.e**2
        k = 64
        val = deviation_bound_rademacher(k, m=1, delta=delta, c_prime=1.0)
        first = math.sqrt(8 * math.log(k) / k)
        assert val == pytest.approx(first + 2 / math.sqrt(k))

    def test_reference_value(self):
        val = deviation_bound_rademacher(100, m=1, delta=0.1, c_prime=1.0)
        assert val == pytest.approx(0.8786, abs=1e-4)

    @pytest.mark.parametrize("c_prime", [math.nan, math.inf, 0.0, -1.0])
    def test_c_prime_must_be_finite_and_positive(self, c_prime):
        with pytest.raises(ValueError, match="C_prime must be finite and positive"):
            deviation_bound_rademacher(100, m=1, delta=0.1, c_prime=c_prime)

    @pytest.mark.parametrize("k", [2, 10, 10**6, 10**300], ids=["2", "10", "1e6", "1e300"])
    def test_finite_when_c_prime_times_k_passes_the_float_range(self, k):
        val = deviation_bound_rademacher(k, m=1, delta=0.1, c_prime=1e308)
        first = math.sqrt(8 * (math.log(1e308) + math.log(k)) / k)
        assert math.isfinite(val)
        assert val == pytest.approx(first + math.sqrt(2 * math.log(40) / k))

    def test_decreasing_in_k(self):
        vals = [
            deviation_bound_rademacher(k, m=3, delta=0.1) for k in range(10, 5000, 37)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestKRademacher:
    def test_reference_value(self):
        k = k_rademacher(BoundQuery(m=1, eps=0.1, delta=0.1))
        expected = 64 * (100 * math.log(200) + 100 * math.log(40))
        assert k == math.ceil(expected)

    def test_halving_delta_adds_fixed_increment(self):
        q1 = BoundQuery(m=2, eps=0.1, delta=0.1)
        q2 = BoundQuery(m=2, eps=0.1, delta=0.05)
        inc = 64 * math.log(2) / 0.1**2
        raw1 = 64 * ((2 / 0.01) * math.log(4 / 0.01) + math.log(4 / 0.1) / 0.01)
        raw2 = raw1 + inc
        assert k_rademacher(q1) == math.ceil(raw1)
        assert k_rademacher(q2) == math.ceil(raw2)

    def test_beats_elementary_at_small_delta(self):
        q = BoundQuery(m=1, eps=0.1, delta=1e-4)
        assert k_rademacher(q) < k_elementary(q)

    def test_monotonicity_grid(self):
        for q in GRID:
            bigger_m = BoundQuery(m=q.m + 1, eps=q.eps, delta=q.delta)
            assert k_rademacher(bigger_m) >= k_rademacher(q)
            smaller_eps = BoundQuery(m=q.m, eps=q.eps / 2, delta=q.delta)
            assert k_rademacher(smaller_eps) >= k_rademacher(q)
            smaller_delta = BoundQuery(m=q.m, eps=q.eps, delta=q.delta / 2)
            assert k_rademacher(smaller_delta) >= k_rademacher(q)


class TestBackVerification:
    def test_elementary_chain_on_grid(self):
        for q in GRID:
            assert back_verify_elementary(q, k_elementary(q))

    def test_rademacher_chain_on_grid(self):
        for q in GRID:
            assert back_verify_rademacher(q, k_rademacher(q))

    def test_solver_below_closed_form(self):
        for q in GRID:
            assert solve_k_rademacher(q) <= k_rademacher(q)
            assert solve_k_elementary(q) <= k_elementary(q)

    def test_solver_minimality_rademacher(self):
        q = BoundQuery(m=2, eps=0.1, delta=0.1)
        k = solve_k_rademacher(q)
        assert deviation_bound_rademacher(k, q.m, q.delta) <= q.eps
        assert deviation_bound_rademacher(k - 1, q.m, q.delta) > q.eps

    def test_solver_minimality_rademacher_at_c_prime_near_float_max(self):
        # C'k passes the float maximum at every k >= 2
        q = BoundQuery(m=1, eps=0.1, delta=0.1, c_prime=1e308)
        k = solve_k_rademacher(q)
        assert back_verify_rademacher(q, k)
        assert not back_verify_rademacher(q, k - 1)


def exact_back_verify_elementary(q, k):
    """back_verify_elementary through the exact integer tau(2k) = (2k)^m."""
    if q.m * math.log(2 * k) < 16.0:
        return True
    return deviation_bound_growth((2 * k) ** q.m, k, q.delta) <= q.eps


def least_exact_k(q, hi):
    """Least k in the regime m ln(2k) >= 16 at which the exact deviation
    bound is <= eps, given that it is at hi; the bound decreases in k there."""
    lo = math.ceil(math.exp(16.0 / q.m) / 2) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if deviation_bound_growth((2 * mid) ** q.m, mid, q.delta) <= q.eps:
            hi = mid
        else:
            lo = mid
    return hi


class TestBackVerificationFromLogTau:
    @pytest.mark.parametrize("m", range(1, 65))
    def test_equals_exact_integer_reference(self, m):
        outcomes = set()
        for eps in (0.05, 0.1, 0.2, 0.5):
            for delta in (0.01, 0.1, 0.5, 0.9):
                q = BoundQuery(m=m, eps=eps, delta=delta)
                k_sol = solve_k_elementary(q)
                k_min = least_exact_k(q, k_sol)  # where the exact check turns True
                for k in (k_elementary(q), k_sol, k_sol - 1, k_min, k_min - 1,
                          *(2**j for j in range(45))):
                    want = exact_back_verify_elementary(q, k)
                    assert back_verify_elementary(q, k) == want, (q, k)
                    outcomes.add(want)
        assert outcomes == {True, False}

    def test_report_at_a_billion_weights_is_finite(self):
        r = bound_report(BoundQuery(m=10**9, eps=0.1, delta=0.1))
        assert r.verified_elementary and r.verified_rademacher
        for value in (r.k_elementary, r.k_rademacher, r.k_solver_elementary,
                      r.k_solver_rademacher, r.classical_m2, r.classical_m4, r.classical_mlogm):
            assert math.isfinite(value) and value > 0


class TestClassicalReference:
    def test_reference_value(self):
        q = BoundQuery(m=1, eps=0.5, delta=0.5)
        assert classical_reference_bounds(q, 1) == pytest.approx((1 + math.log(2)) / 0.25)

    def test_increasing_in_vcdim(self):
        q = BoundQuery(m=3, eps=0.1, delta=0.1)
        assert classical_reference_bounds(q, 9) < classical_reference_bounds(q, 81)

    def test_delta_near_one_limit(self):
        q = BoundQuery(m=1, eps=0.5, delta=1 - 1e-12)
        assert classical_reference_bounds(q, 4) == pytest.approx(4 / 0.25)


class TestReport:
    def test_report_fields_consistent(self):
        q = BoundQuery(m=2, eps=0.1, delta=0.1)
        r = bound_report(q)
        assert r.k_elementary == k_elementary(q)
        assert r.k_rademacher == k_rademacher(q)
        assert r.verified_elementary and r.verified_rademacher
        assert r.classical_m2 <= r.classical_m4

    def test_invalid_queries_rejected(self):
        with pytest.raises(ValueError):
            BoundQuery(m=0, eps=0.1, delta=0.1)
        with pytest.raises(ValueError):
            BoundQuery(m=1, eps=1.5, delta=0.1)
        with pytest.raises(ValueError):
            BoundQuery(m=1, eps=0.1, delta=0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: deviation_bound_growth(4, 0, 0.1), "k must be >= 1"),
    (lambda: deviation_bound_growth(4, 1, 1.0), "delta must be in (0, 1)"),
    (lambda: rademacher_cap(1, 1), "k must be >= 2"),
    (lambda: rademacher_cap(2, 1, C=0.1), "need C * k^m >= 1"),
    (lambda: deviation_bound_rademacher(1, 1, 0.1), "k must be >= 2"),
    (lambda: deviation_bound_rademacher(2, 1, 0.0), "delta must be in (0, 1)"),
    (lambda: classical_reference_bounds(BoundQuery(m=1, eps=0.1, delta=0.1), 0),
     "vcdim must be >= 1"),
], ids=["growth_k", "growth_delta", "cap_k", "cap_size", "rademacher_k", "rademacher_delta",
        "classical_vcdim"])
def test_bad_argument_raises_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
