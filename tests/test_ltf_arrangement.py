"""Properties of the exact LTF trace enumeration (hyperplane arrangement):
agreement with the margin-LP sweep on degenerate sets, scale invariance,
complement closure and Cover's count."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lp_ltf_traces
from vclab.dichotomy import sauer_shelah_cap
from vclab.linsep import enumerate_ltf_traces
from vclab.pointsets import random_general_position


def cover_count(n, d):
    """Dichotomies of n points in general position in R^d (Cover 1965),
    the most any n points in R^d have."""
    return 2 * sum(math.comb(n - 1, i) for i in range(d + 1)) if n else 1


@st.composite
def grid_sets(draw, max_n):
    """Points (repeats allowed) on the integer grid {-2..2}^d, d = 1..3, so
    collinear and coplanar subsets are common. Every coordinate is 0, ±1 or
    ±2, so scaling by any float factor is exact."""
    d = draw(st.integers(1, 3))
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
    traces = enumerate_ltf_traces(pts)
    assert traces == lp_ltf_traces(pts)
    n, d = pts.shape
    assert len(traces) <= cover_count(n, d) <= sauer_shelah_cap(d + 1, n)


@given(pts=grid_sets(max_n=8), factor=st.sampled_from([2.0**-30, 1e-8, 1e6]))
@example(pts=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), factor=1e-8)
@settings(max_examples=60, deadline=None)
def test_traces_are_scale_invariant(pts, factor):
    assert enumerate_ltf_traces(pts * factor) == enumerate_ltf_traces(pts)


@given(pts=gp_or_grid_sets(max_n=10))
@settings(max_examples=60, deadline=None)
def test_trace_set_closed_under_complement(pts):
    traces = set(enumerate_ltf_traces(pts))
    assert {tuple(1 - b for b in t) for t in traces} == traces


@given(nd=st.sampled_from([(32, 2), (64, 2), (20, 3)]), seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_general_position_count_is_covers_count(nd, seed):
    n, d = nd
    pts = random_general_position(n, d, np.random.default_rng(seed)).as_array()
    traces = enumerate_ltf_traces(pts)
    assert len(traces) == cover_count(n, d)
