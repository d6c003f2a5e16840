import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GP8
from vclab import dichotomy, pointsets
from vclab.dichotomy import (
    GrowthEstimate,
    GrowthSample,
    as_network,
    estimate_vc_density,
    growth_function_oracle,
    growth_samples,
    is_shattered,
    sampled_trace_set,
    sauer_shelah_cap,
    trace_set,
    vc_dim_bruteforce,
)
from vclab.errors import CapExceededError, ConfigError
from vclab.hypotheses import (
    ActivationSpec,
    ExplicitFinite,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    forward_batch,
)
from vclab.pointsets import PointSet, random_general_position

THR = ActivationSpec(kind="threshold")
LTF2 = LinearThreshold(dim=2)


def union(m, domain_size=30):
    return UnionOfMPoints(capacity=m, domain=tuple((float(i),) for i in range(domain_size)))


def gp(n, d, seed):
    return random_general_position(n, d, np.random.default_rng(seed))


def exact_count(B):
    """Exact planar LTF dichotomy count of B."""
    return len(trace_set(LTF2, B)[0])


def sampled_count(B, budget, seed):
    """Sampled lower bound on the planar LTF dichotomy count of B."""
    return len(sampled_trace_set(LTF2, B, budget, seed))


def bits(net, w, B):
    """Trace of the network with weight vector w on B, as a 0/1 list."""
    return (forward_batch(net, [w], B.as_array())[0] > 0).astype(int).tolist()


class TestTrace:
    def test_zero_weight_network_constant_zero(self):
        net = NetworkSpec(input_dim=2, layers=(LayerSpec(2, THR), LayerSpec(1, THR)))
        B = gp(3, 2, seed=5)
        assert bits(net, (0.0,) * net.weight_count, B) == [0, 0, 0]

    def test_ltf_parameter_trace(self):
        B = PointSet(points=((0.0, 0.0), (1.0, 0.0)))
        assert bits(as_network(LTF2), (1.0, 0.0, -0.5), B) == [0, 1]

    def test_tanh_net_trace_matches_forward_oracle(self):
        tanh = ActivationSpec(kind="tanh")
        net = NetworkSpec(input_dim=2, layers=(LayerSpec(2, tanh), LayerSpec(1, tanh)))
        w = (1.0, -0.5, 0.2, -0.3, 0.8, 0.1, 1.5, -2.0, 0.05)
        B = PointSet(points=((0.1, 0.2), (-0.4, 0.9), (1.2, -1.0), (0.0, 0.0)))
        expected = []
        for x in B.points:
            h1 = math.tanh(1.0 * x[0] - 0.5 * x[1] + 0.2)
            h2 = math.tanh(-0.3 * x[0] + 0.8 * x[1] + 0.1)
            out = math.tanh(1.5 * h1 - 2.0 * h2 + 0.05)
            expected.append(1 if out > 0 else 0)
        assert bits(net, w, B) == expected


class TestExactCounting:
    def test_single_point(self):
        B = PointSet(points=((0.3, 0.7),))
        assert exact_count(B) == 2

    def test_three_points_shattered(self):
        assert exact_count(gp(3, 2, seed=11)) == 8

    def test_four_points_cover_count(self):
        # closed-form cross-check: 2 * (C(3,0)+C(3,1)+C(3,2)) = 14
        assert exact_count(gp(4, 2, seed=11)) == 14

    def test_planar_cover_formula_through_n8(self):
        for n in range(1, 9):
            B = gp(n, 2, seed=100 + n)
            expected = 2 * sum(math.comb(n - 1, i) for i in range(3))
            assert exact_count(B) == min(expected, 2**n)

    def test_cap_enforced(self):
        pts = tuple((float(i), float(i * i % 7) + 0.01 * i) for i in range(21))
        with pytest.raises(CapExceededError):
            exact_count(PointSet(points=pts))


class TestSampledCounting:
    def test_budget_one_finds_one_trace(self):
        assert sampled_count(gp(4, 2, seed=3), budget=1, seed=0) == 1

    def test_recovers_exact_count_at_high_budget(self):
        B = gp(4, 2, seed=21)
        exact = exact_count(B)
        assert sampled_count(B, budget=100000, seed=7) == exact == 14

    def test_lower_bound_never_exceeds_exact(self):
        for seed in range(4):
            B = gp(5, 2, seed=40 + seed)
            exact = exact_count(B)
            sampled = sampled_count(B, budget=2000, seed=seed)
            assert sampled <= exact

    @given(b1=st.integers(1, 400), b2=st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_budget_for_fixed_seed(self, b1, b2):
        B = PointSet(points=((0.2, 0.4), (-0.7, 0.1), (0.5, -0.9), (-0.1, -0.3)))
        lo, hi = sorted((b1, b2))
        assert sampled_count(B, lo, seed=13) <= sampled_count(B, hi, seed=13)


class TestGrowthOracle:
    def test_union_m2_n4_matches_subset_enumeration(self):
        # brute-force oracle: all subsets of size <= 2 of a 4-set
        expected = sum(
            1 for r in range(3) for _ in itertools.combinations(range(4), r)
        )
        assert expected == 11
        assert growth_function_oracle(union(2), 4) == 11

    def test_union_m0_only_empty_set(self):
        assert growth_function_oracle(union(0), 5) == 1

    def test_union_shatters_small_sets(self):
        for m in (1, 2, 3):
            for n in range(m + 1):
                assert growth_function_oracle(union(m), n) == 2**n

    def test_ltf_matches_exact_counter(self):
        assert growth_function_oracle(LTF2, 4) == 14
        for n in range(1, 9):
            assert growth_function_oracle(LTF2, n) == exact_count(
                gp(n, 2, seed=100 + n)
            )

    def test_ltf_is_covers_count(self):
        for d in range(1, 5):
            c = LinearThreshold(dim=d)
            assert growth_function_oracle(c, 0) == 1
            for n in range(1, d + 2):
                assert growth_function_oracle(c, n) == 2**n
            for n in range(1, 16):
                cover = 2 * sum(math.comb(n - 1, i) for i in range(d + 1))
                assert growth_function_oracle(c, n) == cover

    def test_union_is_sauer_shelah_cap(self):
        for m in range(5):
            for n in range(12):
                assert growth_function_oracle(union(m), n) == sauer_shelah_cap(m, n)

    def test_explicit_finite_exhaustive(self):
        c = ExplicitFinite(
            domain=((0.0,), (1.0,), (2.0,)),
            traces=((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)),
        )
        assert growth_function_oracle(c, 3) == 4
        assert growth_function_oracle(c, 1) == 2

    def test_explicit_finite_walk_stops_at_first_full_subset(self, monkeypatch):
        # points 0 and 1 carry all four labelings, so of the C(8, 2) pairs
        # only the first is counted; two traces that differ at point 7 stop
        # the walk at (0, 7), the seventh pair
        counted = []
        packed = dichotomy._packed
        monkeypatch.setattr(dichotomy, "_packed", lambda bits: counted.append(1) or packed(bits))
        domain = tuple((float(i),) for i in range(8))
        c = ExplicitFinite(domain=domain, traces=tuple((a, b) + (0,) * 6
                                                       for a in (0, 1) for b in (0, 1)))
        assert growth_function_oracle(c, 2) == 4 and len(counted) == 1
        c = ExplicitFinite(domain=domain, traces=((0,) * 8, (0,) * 7 + (1,)))
        assert growth_function_oracle(c, 2) == 2 and len(counted) == 1 + 7

    @pytest.mark.parametrize("table_rows, entries", [(1 << 15, 1 << 16), (7, 5)])
    def test_explicit_finite_equals_per_subset_reference(self, monkeypatch, table_rows, entries):
        # subsets deduped a block at a time, from cached or fresh subset
        # tables, agree with one dedupe per subset
        monkeypatch.setattr(pointsets, "_TABLE_ROWS", table_rows)
        monkeypatch.setattr(dichotomy, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(table_rows)
        for k, t in [(0, 3), (1, 0), (4, 1), (6, 9), (9, 40), (11, 5)]:
            traces = tuple(map(tuple, rng.integers(0, 2, size=(t, k)).tolist()))
            c = ExplicitFinite(domain=tuple((float(i),) for i in range(k)), traces=traces)
            rows = np.reshape(c.traces, (len(c.traces), k))
            for n in range(k + 2):
                want = max((len(dichotomy._packed(rows[:, list(idx)]))
                            for idx in itertools.combinations(range(k), min(n, k))), default=0)
                assert growth_function_oracle(c, n) == want

    @pytest.mark.parametrize("k, capped", [(100001, False), (100002, True)])
    def test_explicit_finite_subset_cap_is_exact(self, k, capped):
        # n = 1 visits the k singletons; more than 100001 subsets is a cap
        c = ExplicitFinite(domain=tuple((float(i),) for i in range(k)),
                           traces=((0,) * k, (0,) * (k - 1) + (1,)))
        if capped:
            with pytest.raises(CapExceededError) as err:
                growth_function_oracle(c, 1)
            assert str(err.value) == ("too many subsets for exhaustive growth count: "
                                      "C(100002, 1) = 100002 exceeds cap 100001")
        else:
            assert growth_function_oracle(c, 1) == 2

    def test_big_values_exact_integers(self):
        # unbounded ints: no overflow at large n
        assert growth_function_oracle(union(3), 10**4) == sum(
            math.comb(10**4, i) for i in range(4)
        )


class TestShattering:
    def test_empty_set_vacuously_shattered(self):
        assert is_shattered(LTF2, PointSet(points=()))

    def test_triangle_shattered(self):
        r = is_shattered(LTF2, gp(3, 2, seed=2))
        assert r.shattered and r.exact

    def test_four_points_never_shattered(self):
        for seed in range(3):
            r = is_shattered(LTF2, gp(4, 2, seed=60 + seed))
            assert not r.shattered and r.exact

    def test_network_sampled_positive_is_certificate(self):
        net = NetworkSpec(input_dim=2, layers=(LayerSpec(1, THR),))
        r = is_shattered(net, gp(3, 2, seed=2), budget=50000, seed=1)
        assert r.shattered and r.exact

    def test_cap(self):
        pts = tuple((float(i), 0.5 * i * i) for i in range(17))
        with pytest.raises(CapExceededError):
            is_shattered(LTF2, PointSet(points=pts))


class TestVcDim:
    def test_planar_ltf_is_three(self):
        r = vc_dim_bruteforce(LTF2, max_d=4, seed=8)
        assert r.value == 3 and not r.saturated

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_union_of_points(self, m):
        r = vc_dim_bruteforce(union(m), max_d=m + 2, seed=0)
        assert r.value == m

    def test_single_trace_class_is_zero(self):
        c = ExplicitFinite(domain=((0.0,), (1.0,)), traces=((1, 0),))
        assert vc_dim_bruteforce(c, max_d=2, seed=0).value == 0

    def test_saturation_flag(self):
        r = vc_dim_bruteforce(union(3), max_d=2, seed=0)
        assert r.value == 2 and r.saturated

    def test_explicit_finite_shattering_late_points(self):
        # the traces shatter the last three of six points; the first 12
        # domain subsets of size 2 and of size 3 each contain point 0, 1 or
        # 2, which every trace labels 0, so a 12-subset walk reads 1
        c = ExplicitFinite(
            domain=tuple((float(i),) for i in range(6)),
            traces=tuple((0, 0, 0, *t) for t in itertools.product((0, 1), repeat=3)),
        )
        r = vc_dim_bruteforce(c, max_d=4, tries=12)
        assert (r.value, r.saturated) == (3, False)

    def test_union_capacity_above_domain_size_is_domain_size(self):
        r = vc_dim_bruteforce(union(5, domain_size=3), max_d=6)
        assert (r.value, r.saturated) == (3, False)


class TestSauerShelah:
    def test_d_zero(self):
        for n in (0, 1, 5, 40):
            assert sauer_shelah_cap(0, n) == 1

    def test_d_at_least_n_gives_power(self):
        for n in range(6):
            assert sauer_shelah_cap(n, n) == 2**n
            assert sauer_shelah_cap(n + 3, n) == 2**n

    def test_direct_binomials(self):
        assert sauer_shelah_cap(2, 4) == 11

    @given(d=st.integers(0, 8), n=st.integers(0, 12))
    def test_matches_subset_enumeration(self, d, n):
        expected = sum(
            1 for r in range(min(d, n) + 1) for _ in itertools.combinations(range(n), r)
        )
        assert sauer_shelah_cap(d, n) == expected

    def test_matches_binomial_sum_at_large_n(self):
        for d, n in ((7, 500), (250, 500), (499, 500), (600, 500)):
            assert sauer_shelah_cap(d, n) == sum(math.comb(n, i) for i in range(min(d, n) + 1))

    def test_cap_binds_measured_classes(self):
        # exact counts never exceed the cap at the brute-forced VC-dimension
        for n in range(1, 9):
            B = gp(n, 2, seed=100 + n)
            assert exact_count(B) <= sauer_shelah_cap(3, n)
        for m in (1, 2, 3):
            for n in range(1, 12):
                assert growth_function_oracle(union(m), n) <= sauer_shelah_cap(m, n)


@pytest.mark.parametrize("n, count, ok", [
    (70, 2**70, True), (70, 2**70 + 1, False), (1, 0, False), (0, 1, True), (0, 2, False),
    # 2^n is never formed, so a huge n costs nothing
    (10**18, 5, True),
])
def test_growth_sample_count_range(n, count, ok):
    if ok:
        GrowthSample(n=n, count=count, exactness="exact")
    else:
        with pytest.raises(ValueError, match=f"count {count} outside"):
            GrowthSample(n=n, count=count, exactness="exact")


class TestDensityFit:
    def _synthetic(self, counts_by_n):
        samples = tuple(
            GrowthSample(n=n, count=c, exactness="exact") for n, c in counts_by_n
        )
        return GrowthEstimate(samples=samples, class_id="synthetic", seed=0)

    def test_exact_square_power_law(self):
        g = self._synthetic([(n, n * n) for n in (8, 16, 32, 64)])
        d = estimate_vc_density(g)
        assert d.slope == pytest.approx(2.0, abs=1e-9)
        assert d.residual == pytest.approx(0.0, abs=1e-9)

    def test_union_m2_slope(self):
        g = growth_samples(union(2, domain_size=200), [16, 32, 64, 128], method="oracle")
        assert 1.8 <= estimate_vc_density(g).slope <= 2.05

    def test_ltf_slope(self):
        g = growth_samples(LTF2, [16, 32, 64, 128], method="oracle")
        assert 1.8 <= estimate_vc_density(g).slope <= 2.05

    def test_requires_three_samples(self):
        g = self._synthetic([(8, 64), (64, 4096)])
        with pytest.raises(ValueError):
            estimate_vc_density(g)

    def test_requires_span(self):
        g = self._synthetic([(8, 1), (9, 1), (10, 1)])
        with pytest.raises(ValueError):
            estimate_vc_density(g)

    def test_fit_range_uses_upper_half(self):
        g = self._synthetic([(n, n) for n in (4, 8, 16, 32, 64, 128)])
        d = estimate_vc_density(g, upper_fraction=0.5)
        assert d.fit_range == (32, 128)

    def test_density_slope_bounded_by_vcdim(self):
        # estimator version of vc <= VC, with fit tolerance 0.1
        for m in (1, 2, 3):
            g = growth_samples(union(m, domain_size=200), [16, 32, 64, 128], method="oracle")
            slope = estimate_vc_density(g).slope
            vc = vc_dim_bruteforce(union(m), max_d=m + 1, seed=0).value
            assert slope <= vc + 0.1

    def test_network_slope_bounded_by_weight_count(self):
        # weight-count cap on density, probed on the sampled network class
        net = NetworkSpec(input_dim=1, layers=(LayerSpec(1, THR), LayerSpec(1, THR)))
        g = growth_samples(net, [16, 32, 64, 128], method="sampled", budget=5000, seed=4)
        assert estimate_vc_density(g).slope <= net.weight_count + 0.1


def test_sampled_count_on_gp8_respects_cover_bound():
    # every trace found by sampling is realizable, so counts stay below the
    # exact planar arrangement count
    sampled = sampled_count(GP8, budget=30000, seed=1)
    assert sampled <= growth_function_oracle(LTF2, 8) == 58


@pytest.mark.parametrize("call, error, message", [
    (lambda: trace_set(LinearThreshold(2), PointSet(((0.0,),))), ValueError,
     "point dim 1 != class dim 2"),
    (lambda: trace_set("x", PointSet(())), TypeError, "no trace set for 'x'"),
    (lambda: sampled_trace_set(LinearThreshold(1), PointSet(((0.0,),)), 0, 0), ValueError,
     "budget must be >= 1"),
    (lambda: growth_function_oracle(UnionOfMPoints(1, ()), -1), ValueError, "n must be >= 0"),
    (lambda: sauer_shelah_cap(-1, 3), ValueError, "d and n must be >= 0"),
    # class_id names a class of no known kind by its type
    (lambda: as_network("x"), ConfigError,
     "sampled counting needs a network or linear_threshold class, not str"),
    (lambda: growth_samples(LinearThreshold(1), [2], method="bogus"), ConfigError,
     "unknown growth method 'bogus'"),
], ids=["ltf_dim", "unknown_class", "budget", "oracle_n", "sauer_shelah", "class_id_fallback",
        "growth_method"])
def test_bad_argument_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
