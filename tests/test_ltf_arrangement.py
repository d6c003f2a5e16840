"""Properties of the exact LTF trace enumeration (hyperplane arrangement):
agreement with the margin-LP sweep and with the recursive integer-only
enumeration on degenerate, near-degenerate and scaled sets, the exact
fallback of the filtered float predicate and the float-only path of
generic draws, the integer cofactors against Bareiss, the certified float
signs against the exact ones, the cached level tables, scale invariance,
complement closure and Cover's count."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lp_ltf_traces, ltf_tuples, recursive_ltf_traces
from vclab import linsep
from vclab.dichotomy import sauer_shelah_cap
from vclab.pointsets import random_general_position, random_points, subset_table


def cover_count(n, d):
    """Dichotomies of n points in general position in R^d (Cover 1965),
    the most any n points in R^d have."""
    return 2 * sum(math.comb(n - 1, i) for i in range(d + 1)) if n else 1


@st.composite
def grid_sets(draw, max_n, max_d=3):
    """Points (repeats allowed) on the integer grid {-2..2}^d, d = 1..max_d,
    so collinear and coplanar subsets are common. Every coordinate is 0, ±1
    or ±2, so scaling by any float factor is exact."""
    d = draw(st.integers(1, max_d))
    n = draw(st.integers(0, max_n))
    coords = draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
    return np.array(coords, dtype=float).reshape(n, d)


def gp_or_grid_sets(max_n):
    gp = st.builds(
        lambda n, d, seed: random_general_position(n, d, np.random.default_rng(seed)).as_array(),
        st.integers(1, max_n), st.integers(1, 3), st.integers(0, 2**16),
    )
    return st.one_of(grid_sets(max_n), gp)


@given(pts=grid_sets(max_n=7))
@example(pts=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]))
@example(pts=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]))
@example(pts=np.array([[0.0, 0], [1, 0], [0, 1], [0.0, 0]]))
@settings(max_examples=50, deadline=None)
def test_arrangement_matches_lp_sweep_on_degenerate_sets(pts):
    traces = ltf_tuples(pts)
    assert traces == lp_ltf_traces(pts)
    n, d = pts.shape
    assert len(traces) <= cover_count(n, d) <= sauer_shelah_cap(d + 1, n)


@given(pts=grid_sets(max_n=8), factor=st.sampled_from([2.0**-30, 1e-8, 1e6]))
@example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), factor=1e-8)
@settings(max_examples=60, deadline=None)
def test_traces_are_scale_invariant(pts, factor):
    assert ltf_tuples(pts * factor) == ltf_tuples(pts)


@given(pts=gp_or_grid_sets(max_n=10))
@settings(max_examples=60, deadline=None)
def test_trace_set_closed_under_complement(pts):
    traces = set(ltf_tuples(pts))
    assert {tuple(1 - b for b in t) for t in traces} == traces


@given(nd=st.sampled_from([(32, 2), (64, 2), (20, 3)]), seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_general_position_count_is_covers_count(nd, seed):
    n, d = nd
    pts = random_general_position(n, d, np.random.default_rng(seed)).as_array()
    traces = ltf_tuples(pts)
    assert len(traces) == cover_count(n, d)


def gp_sets(max_n, max_d):
    return st.builds(
        lambda n, d, seed: random_general_position(n, d, np.random.default_rng(seed)).as_array(),
        st.integers(1, max_n), st.integers(1, max_d), st.integers(0, 2**16),
    )


@st.composite
def near_degenerate_sets(draw, max_n):
    """Grid sets moved by a few units in the last places (multiples of
    2^-50), so many side determinants are nonzero but far below the float
    predicate's error bound and take the exact fallback."""
    pts = draw(grid_sets(max_n, max_d=4))
    nudge = draw(st.lists(st.integers(-2, 2), min_size=pts.size, max_size=pts.size))
    return pts + np.reshape(nudge, pts.shape) * 2.0**-50


SCALES = st.sampled_from([1.0, 2.0**-30, 1e-8, 1e6])

NEAR_COLLINEAR = np.array([[0, 0], [1, 1], [2, 2 + 2**-50], [3, 3], [0, 1]])
# one set mixing 1e-300 and 1e300 coordinates, and grid sets at either extreme
EXTREME_SETS = [
    np.array([[1e-300, 1e300], [2e-300, -1e300], [1e300, 3e-300], [-1e300, 1e-300], [0, 0]]),
    np.array([[0, 0], [1, 1], [2, 2], [0, 1], [1, 0]]) * 1e-300,
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]) * 1e300,
]


def top_level_sides(pts):
    """`linsep._float_sides` on the rows (x, 1) of a set of full rank d + 1,
    for every d-subset: the first step of the enumeration."""
    rows = np.hstack([pts, np.ones((len(pts), 1))])
    subsets = np.array(list(itertools.combinations(range(len(pts)), pts.shape[1])))
    return linsep._float_sides(rows, subsets)


@given(pts=st.one_of(grid_sets(max_n=7, max_d=4), gp_sets(max_n=7, max_d=4)), factor=SCALES)
@example(pts=np.array([[0.0, 0, 0, 0], [1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1],
                       [0, 0, 2, 2]]), factor=1.0)
@settings(max_examples=60, deadline=None)
def test_filtered_predicate_matches_recursive_reference_and_lp(pts, factor):
    traces = ltf_tuples(pts * factor)
    assert traces == recursive_ltf_traces(pts * factor)
    # traces do not depend on scale (the reference is exact), so the LP
    # runs on the unscaled set, where its margins are O(1)
    assert traces == lp_ltf_traces(pts)


@given(pts=near_degenerate_sets(max_n=7), factor=SCALES)
@settings(max_examples=60, deadline=None)
def test_filtered_predicate_matches_recursive_reference_near_degeneracy(pts, factor):
    assert ltf_tuples(pts * factor) == recursive_ltf_traces(pts * factor)


def test_near_collinear_set_takes_exact_fallback():
    side, certain = top_level_sides(NEAR_COLLINEAR)
    # det of (0,0), (1,1), (2, 2 + 2^-50) is 2^-50, below the error bound
    assert not certain[0, 2]
    traces = ltf_tuples(NEAR_COLLINEAR)
    assert traces == recursive_ltf_traces(NEAR_COLLINEAR)
    # exactly collinear the four points allow fewer traces
    assert len(traces) > len(ltf_tuples(np.round(NEAR_COLLINEAR)))


@pytest.mark.parametrize("pts", EXTREME_SETS)
def test_extreme_magnitudes_are_exact_and_warning_free(pts):
    _, certain = top_level_sides(pts)
    assert not certain.any()  # outside the float range every sign is exact
    want = recursive_ltf_traces(pts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ltf_tuples(pts) == want


@pytest.mark.parametrize("n, d", [(128, 2), (20, 3), (20, 4)])
def test_covers_count_at_scale(n, d):
    pts = random_general_position(n, d, np.random.default_rng(n + d)).as_array()
    traces = ltf_tuples(pts)
    assert len(traces) == cover_count(n, d)
    assert traces == sorted(set(traces))


@pytest.mark.parametrize("w, count", [(2, 14), (3, 104), (4, 1882)])
def test_cube_gives_the_threshold_function_count(w, count):
    """The cube {0,1}^w, where every plane through w corners holds more of
    them, has as many traces as there are threshold functions of w
    variables (OEIS A000609)."""
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=w)))
    assert len(linsep.enumerate_ltf_traces(cube)) == count
    if w <= 3:
        assert ltf_tuples(cube) == recursive_ltf_traces(cube)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_generic_draws_take_no_integer_arithmetic(monkeypatch, d):
    """Floats settle every sign of a uniform draw of d + 1 or more points,
    rank included, so the enumeration runs with the integer lift and the
    Bareiss elimination both unavailable."""
    draws = [random_points(n, d, np.random.default_rng(100 * d + n)).as_array()
             for n in range(d + 1, 21)]
    want = [recursive_ltf_traces(pts) for pts in draws]

    def unavailable(*args):
        raise AssertionError("integer arithmetic on a generic draw")

    monkeypatch.setattr(linsep, "_integer_lift", unavailable)
    monkeypatch.setattr(linsep, "_bareiss", unavailable)
    assert [ltf_tuples(pts) for pts in draws] == want


# a degenerate plane (the line x = y through four points) whose signs the
# floats leave open
DIAGONAL_TINY = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [1, 0], [3, 3]]) * 1e-300


@pytest.mark.parametrize("pts, max_bareiss", [
    (NEAR_COLLINEAR, 0), *((pts, None) for pts in EXTREME_SETS), (np.round(NEAR_COLLINEAR), 0),
    (DIAGONAL_TINY, 2),
], ids=["near_collinear", "extreme0", "extreme1", "extreme2", "collinear_grid", "diagonal_tiny"])
def test_uncertain_signs_take_integer_arithmetic(monkeypatch, pts, max_bareiss):
    """A set with a sign the floats leave open builds its integers at most
    once per cell call and takes its open signs from the integer cofactors,
    so Bareiss runs at most once per cell call, for a rank alone; the float
    sides are taken once per cell call, and the rows are the reference's."""
    want = recursive_ltf_traces(pts)
    calls = {"_integer_lift": 0, "_bareiss": 0, "_cells": 0, "_float_sides": 0}

    def counted(name):
        real = getattr(linsep, name)

        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    for name in calls:
        monkeypatch.setattr(linsep, name, counted(name))
    assert ltf_tuples(pts) == want
    assert 1 <= calls["_integer_lift"] <= calls["_cells"]
    assert calls["_bareiss"] <= (calls["_cells"] if max_bareiss is None else max_bareiss)
    assert calls["_float_sides"] == calls["_cells"]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_integer_cofactors_give_the_bareiss_determinant(r):
    """det[S; v] = _cofactors(S) . v over the integers, for independent and
    dependent S alike."""
    rng = np.random.default_rng(r)
    for trial in range(40):
        S = rng.integers(-3, 4, size=(r - 1, r))
        if trial % 4 == 0 and r > 1:
            S[-1] = 2 * S[0] if r > 2 else 0  # a dependent S
        vs = rng.integers(-3, 4, size=(6, r))
        cof = linsep._cofactors(S.astype(object)[None])[0]
        for v in vs.tolist():
            assert sum(map(int.__mul__, cof.tolist(), v)) == linsep._bareiss([*S.tolist(), v])[1]


@given(pts=st.one_of(grid_sets(max_n=8, max_d=4), near_degenerate_sets(max_n=7)).filter(len),
       factor=st.sampled_from([1.0, 2.0**-30, 2.0**30]))
@example(pts=NEAR_COLLINEAR, factor=1.0)
@settings(max_examples=60, deadline=None)
def test_certified_float_signs_are_exact(pts, factor):
    """Every sign `_float_sides` certifies is the sign of the exact side
    from the integer cofactors of the lifted rows."""
    rows = np.hstack([pts * factor, np.ones((len(pts), 1))])
    subsets = subset_table(len(rows), pts.shape[1])
    side, certain = linsep._float_sides(rows, subsets)
    ints = linsep._integer_lift(rows)
    exact = np.sign(linsep._cofactors(ints[subsets]) @ ints.T).astype(int)
    assert (np.sign(side)[certain] == exact[certain]).all()


def test_cached_tables_are_right_and_read_only():
    for r in range(1, 7):
        levels = linsep._levels(r)
        assert linsep._levels(r) is levels
        index = {(): 0}
        for t, (sets, sub, sign) in enumerate(levels, start=1):
            fresh = list(itertools.combinations(range(r), t))
            assert sets.tolist() == [list(T) for T in fresh]
            assert sub.tolist() == [[index[T[:s] + T[s + 1:]] for s in range(t)] for T in fresh]
            assert sign.tolist() == [(-1) ** (s + t - 1) for s in range(t)]
            index = {T: i for i, T in enumerate(fresh)}
            for table in (sets, sub, sign):
                with pytest.raises(ValueError):
                    table[...] = 0
    for m in range(7):
        patterns = linsep._all_patterns(m)
        assert patterns.tolist() == [list(p) for p in itertools.product((0, 1), repeat=m)]
        with pytest.raises(ValueError):
            patterns[...] = 0
