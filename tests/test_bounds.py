import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.bounds import (
    BoundConstants,
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
    solve_k_log_inequality,
    solve_k_rademacher,
)

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

    def test_oracle_tau_via_callback(self):
        # exact planar perceptron growth at 2k = 8: 2*(1+7+21) = 58
        from vclab.dichotomy import growth_function_oracle
        from vclab.hypotheses import LinearThreshold

        tau = lambda n: growth_function_oracle(LinearThreshold(dim=2), n)
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


class TestSolveKLog:
    def test_no_log_term(self):
        assert solve_k_log_inequality(0.0, 0.5)[0] == 1
        assert solve_k_log_inequality(0.0, 3.0)[0] == 3

    def test_a4_b0(self):
        k, sufficient = solve_k_log_inequality(4.0, 0.0)
        assert k == 9
        assert 9 >= 4 * math.log(9)
        assert 8 < 4 * math.log(8)
        assert k <= sufficient

    @given(a=st.floats(0, 50), b=st.floats(0, 50))
    @settings(max_examples=80)
    def test_solution_and_minimality(self, a, b):
        k, sufficient = solve_k_log_inequality(a, b)
        assert k >= a * math.log(k) + b
        assert sufficient >= a * math.log(sufficient) + b
        assert k <= sufficient
        if k > max(1, math.ceil(a)):
            assert k - 1 < a * math.log(k - 1) + b

    @pytest.mark.parametrize("a, b", [(-1.0, 0.0), (0.0, -0.5)])
    def test_negative_coefficients_rejected(self, a, b):
        with pytest.raises(ValueError, match=r"^a and b must be >= 0$"):
            solve_k_log_inequality(a, b)


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
        val = deviation_bound_rademacher(k, m=1, delta=delta, constants=BoundConstants(C_prime=1.0))
        first = math.sqrt(8 * math.log(k) / k)
        assert val == pytest.approx(first + 2 / math.sqrt(k))

    def test_reference_value(self):
        val = deviation_bound_rademacher(100, m=1, delta=0.1, constants=BoundConstants(C_prime=1.0))
        assert val == pytest.approx(0.8786, abs=1e-4)

    def test_decreasing_in_k(self):
        vals = [
            deviation_bound_rademacher(k, m=3, delta=0.1) for k in range(10, 5000, 37)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_printed_m_denominator_variant(self):
        as_printed = deviation_bound_rademacher(1000, m=4, delta=0.1, printed_m_denominator=True)
        corrected = deviation_bound_rademacher(1000, m=4, delta=0.1)
        # the printed variant's confidence term does not shrink with k
        assert as_printed > corrected


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
