import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lp_ltf_traces
from vclab import dichotomy
from vclab.dichotomy import is_shattered, sampled_trace_set, trace_set, vc_dim_bruteforce
from vclab.errors import ConfigError
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

LTF2 = LinearThreshold(dim=2)


def planar_gp(n, seed):
    return random_general_position(n, 2, np.random.default_rng(seed))


@given(n=st.integers(1, 8), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_ltf_rows_are_packed_lp_traces_and_cover_count(n, seed):
    B = planar_gp(n, seed)
    rows, exact = trace_set(LTF2, B)
    assert exact
    expected = np.packbits(np.array(lp_ltf_traces(B.as_array()), dtype=bool), axis=1)
    assert np.array_equal(rows, expected)
    cover = 2 * sum(math.comb(n - 1, i) for i in range(3))
    assert len(rows) == min(cover, 2**n)


@given(n=st.integers(1, 6), seed=st.integers(0, 2**16), budget=st.integers(1, 3000))
@settings(max_examples=12, deadline=None)
def test_sampled_rows_subset_of_exact_rows(n, seed, budget):
    B = planar_gp(n, seed)
    sampled = sampled_trace_set(LTF2, B, budget=budget, seed=seed)
    exact = trace_set(LTF2, B)[0]
    assert {r.tobytes() for r in sampled} <= {r.tobytes() for r in exact}


@given(
    capacity=st.integers(0, 4),
    coords=st.lists(st.integers(-6, 6), min_size=0, max_size=9, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_union_count_is_binomial_sum(capacity, coords):
    cls = UnionOfMPoints(capacity=capacity, domain=tuple((float(i),) for i in range(5)))
    B = PointSet(points=tuple((float(c),) for c in coords))
    inside = sum(1 for c in coords if 0 <= c < 5)
    rows, exact = trace_set(cls, B)
    assert exact
    assert len(rows) == sum(math.comb(inside, i) for i in range(min(capacity, inside) + 1))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_shattered_iff_all_labelings_present(data):
    size = data.draw(st.integers(1, 5))
    domain = tuple((float(i),) for i in range(size))
    labelings = list(itertools.product((0, 1), repeat=size))
    traces = tuple(data.draw(st.lists(st.sampled_from(labelings), min_size=1, max_size=20)))
    idx = data.draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    cls = ExplicitFinite(domain=domain, traces=traces)
    B = PointSet(points=tuple(domain[i] for i in idx))
    distinct = {tuple(t[i] for i in idx) for t in traces}
    r = is_shattered(cls, B)
    assert r.shattered == (len(trace_set(cls, B)[0]) == 2 ** len(idx))
    assert r.shattered == (len(distinct) == 2 ** len(idx))
    assert r.exact


@pytest.mark.parametrize(
    "cls, vc",
    [
        (LinearThreshold(dim=1), 2),
        (LTF2, 3),
        (UnionOfMPoints(capacity=2, domain=tuple((float(i),) for i in range(8))), 2),
    ],
)
def test_vc_dim_stops_at_closed_form_ceiling(monkeypatch, cls, vc):
    sizes = []
    real = dichotomy.is_shattered

    def spy(cls, B, **kw):
        sizes.append(len(B))
        return real(cls, B, **kw)

    monkeypatch.setattr(dichotomy, "is_shattered", spy)
    result = vc_dim_bruteforce(cls, max_d=16)
    assert (result.value, result.saturated) == (vc, False)
    assert max(sizes) == vc


def test_explicit_finite_rejects_points_outside_domain():
    cls = ExplicitFinite(domain=((0.0,), (1.0,)), traces=((0, 1), (1, 0)))
    with pytest.raises(ConfigError, match="outside the declared domain"):
        is_shattered(cls, PointSet(points=((2.0,),)))


@given(
    kind=st.sampled_from(["threshold", "logistic", "tanh", "relu", "identity"]),
    bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    in_weights=st.booleans(),
    pos=st.integers(0, 8),
)
@settings(max_examples=40, deadline=None)
def test_forward_batch_rejects_nonfinite_input(kind, bad, in_weights, pos):
    act = ActivationSpec(kind=kind)
    net = NetworkSpec(input_dim=2, layers=(LayerSpec((act, act)), LayerSpec((act,))))
    W = np.full((2, net.weight_count), 0.5)
    X = np.full((3, 2), 0.25)
    if in_weights:
        W[1, pos % net.weight_count] = bad
    else:
        X[pos % 3, pos % 2] = bad
    with pytest.raises(ValueError, match="finite"):
        forward_batch(net, W, X)
