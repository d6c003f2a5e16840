import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIG_DIR,
    einsum_forward_batch,
    lp_ltf_traces,
    recursive_ltf_traces,
    unique_packed_rows,
)
from vclab import dichotomy, hypotheses, pointsets
from vclab.dichotomy import is_shattered, sampled_trace_set, trace_set, vc_dim_bruteforce
from vclab.errors import CapExceededError, ConfigError
from vclab.hypotheses import (
    ACTIVATION_KINDS,
    ActivationSpec,
    ExplicitFinite,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    forward_batch,
    load_class_spec,
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


# sets whose hyperplanes pass through more than d points, so linsep._cells
# recurses: collinear points, a line plus off-line points, coplanar points in R^3
DEGENERATE_SETS = [
    ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)),
    ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (0.0, 1.0), (2.0, -1.0)),
    ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (2.0, 3.0, 0.0),
     (0.0, 0.0, 1.0)),
]
PACKED_LTF_CASES = (
    [(d, PointSet(points=())) for d in (1, 2, 3, 4)]
    + [(len(pts[0]), PointSet(points=pts)) for pts in DEGENERATE_SETS]
    + [(d, random_general_position(n, d, np.random.default_rng(n)))
       for d in (1, 2, 3, 4) for n in (1, d + 2, 9)]
)


@pytest.mark.parametrize("d, B", PACKED_LTF_CASES)
def test_ltf_rows_are_packed_recursive_reference(d, B):
    rows, exact = trace_set(LinearThreshold(d), B)
    want = np.packbits(np.array(recursive_ltf_traces(B.as_array()), dtype=bool), axis=1)
    assert exact and rows.dtype == np.uint8
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    # strictly increasing as big-endian byte strings: sorted and distinct
    keys = [r.tobytes() for r in rows]
    assert all(a < b for a, b in zip(keys, keys[1:]))


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


@pytest.mark.parametrize("table_rows", [1, 3, pointsets._TABLE_ROWS])
@pytest.mark.parametrize("capacity", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("coords", [(), (9,), (0, 9, 2, -1, 4), (4, 3, 2, 1, 0),
                                    (0, 1, 2, 3, 4, 7, 8)])
def test_union_rows_equal_itertools_reference(monkeypatch, table_rows, capacity, coords):
    # domain 0..4: coordinates outside it are points B has but the domain lacks;
    # subset tables built afresh (1, 3) and cached (_TABLE_ROWS)
    monkeypatch.setattr(pointsets, "_TABLE_ROWS", table_rows)
    cls = UnionOfMPoints(capacity=capacity, domain=tuple((float(i),) for i in range(5)))
    B = PointSet(points=tuple((float(c),) for c in coords))
    inside = [i for i, c in enumerate(coords) if 0 <= c < 5]
    subsets = [s for r in range(capacity + 1) for s in itertools.combinations(inside, r)]
    bits = np.zeros((len(subsets), len(coords)), dtype=bool)
    for row, s in zip(bits, subsets):
        row[list(s)] = True
    rows, exact = trace_set(cls, B)
    assert exact
    assert np.array_equal(rows, unique_packed_rows(bits))


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
    # a baseline is answered from its growth oracle alone, which is read at
    # n = 1, 2, ... up to the first n it leaves unshattered
    shattered, oracle_ns = [], []
    real_oracle = dichotomy.growth_function_oracle

    def oracle_spy(cls, n):
        oracle_ns.append(n)
        return real_oracle(cls, n)

    monkeypatch.setattr(dichotomy, "is_shattered", lambda *a, **kw: shattered.append(a))
    monkeypatch.setattr(dichotomy, "growth_function_oracle", oracle_spy)
    result = vc_dim_bruteforce(cls, max_d=16)
    assert (result.value, result.saturated) == (vc, False)
    assert shattered == []
    assert oracle_ns == list(range(1, vc + 2))


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
    net = NetworkSpec(input_dim=2, layers=(LayerSpec(2, act), LayerSpec(1, act)))
    W = np.full((2, net.weight_count), 0.5)
    X = np.full((3, 2), 0.25)
    if in_weights:
        W[1, pos % net.weight_count] = bad
    else:
        X[pos % 3, pos % 2] = bad
    with pytest.raises(ValueError, match="weights and points must be finite") as info:
        forward_batch(net, W, X)
    assert not isinstance(info.value, CapExceededError)


@st.composite
def activations(draw):
    kind = draw(st.sampled_from(ACTIVATION_KINDS))
    coefficients = ()
    if kind == "polynomial":
        coef = st.floats(-2.0, 2.0, allow_nan=False)
        coefficients = tuple(draw(st.lists(coef, min_size=1, max_size=4)))
    restriction = None
    if draw(st.booleans()):
        a = draw(st.floats(-3.0, 1.0))
        restriction = (a, a + draw(st.floats(0.5, 4.0)))
    return ActivationSpec(kind, coefficients, restriction)


@st.composite
def networks(draw, max_width=5):
    """Nets of 1-3 layers with 1 to max_width inputs and hidden nodes, each
    layer with its own activation."""
    widths = draw(st.lists(st.integers(1, max_width), max_size=2)) + [1]
    layers = tuple(LayerSpec(w, draw(activations())) for w in widths)
    return NetworkSpec(input_dim=draw(st.integers(1, max_width)), layers=layers)


# every kind, one per hidden layer, one of them restricted
ALL_KINDS_NET = NetworkSpec(
    input_dim=2,
    layers=tuple(LayerSpec(2, act) for act in (
        ActivationSpec("threshold"),
        ActivationSpec("tanh", restriction=(-0.5, 0.5)),
        ActivationSpec("logistic"),
        ActivationSpec("identity"),
        ActivationSpec("polynomial", coefficients=(0.5, -1.0, 0.25)),
        ActivationSpec("relu"),
    )) + (LayerSpec(1, ActivationSpec("tanh")),),
)


@given(net=networks(), s=st.integers(1, 6), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(net=ALL_KINDS_NET, s=1, n=1, seed=0)
@example(net=ALL_KINDS_NET, s=7, n=5, seed=1)
@settings(max_examples=150, deadline=None)
def test_node_major_forward_matches_einsum_reference(net, s, n, seed):
    # a sum of at most two products comes out the same in any order; from
    # three on, einsum may pair its terms differently (SIMD lanes), so only
    # rounding may differ
    rng = np.random.default_rng(seed)
    W = rng.uniform(-3.0, 3.0, size=(s, net.weight_count))
    X = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
    got = forward_batch(net, W, X)
    want = einsum_forward_batch(net, W, X)
    assert got.shape == want.shape == (s, n) and got.flags.c_contiguous
    if max(net.fan_in(i) for i in range(len(net.layers))) <= 2:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# 1e308 t^2 on two nodes clamped to [-0.001, 0.001], feeding a threshold:
# the polynomial overflows at |t| > 1.34, where the clamp forces it to 0
CLAMPED_POLY_NET = NetworkSpec(1, (
    LayerSpec(2, ActivationSpec("polynomial", coefficients=(0.0, 0.0, 1e308),
                                restriction=(-0.001, 0.001))),
    LayerSpec(1, ActivationSpec("threshold")),
))

STOCK_NET = load_class_spec(CONFIG_DIR / "net_1hidden_threshold.json")
# the benchmark's 2-D net: three tanh units, a threshold output
TANH_2D_NET = NetworkSpec(
    2, (LayerSpec(3, ActivationSpec("tanh")), LayerSpec(1, ActivationSpec("threshold")))
)
PLAIN_THRESHOLD = ActivationSpec("threshold")
RESTRICTED_THRESHOLD = ActivationSpec("threshold", restriction=(-0.5, 0.5))
# a width-2 threshold hidden layer, which trace mode cuts at from n = 5 points
TWO_BIT_NET = NetworkSpec(1, (LayerSpec(2, PLAIN_THRESHOLD), LayerSpec(3, ActivationSpec("tanh")),
                              LayerSpec(1, PLAIN_THRESHOLD)))


@pytest.mark.parametrize("net", [STOCK_NET, TANH_2D_NET], ids=["stock", "tanh2d"])
@pytest.mark.parametrize("s, n", [
    (20000, 3), (4096, 16), (1024, 64), (512, 128), (64, 1024), (1, 300), (300, 1),
])
def test_point_major_forward_equals_einsum_at_block_shapes(net, s, n):
    # the sampler's block shapes (weight rows x points, about 2^16 entries)
    # and the two extremes: weight rows and points carried in either layout
    # give the same float values, bit for bit
    rng = np.random.default_rng(s * 1000 + n)
    W = rng.uniform(-3.0, 3.0, size=(s, net.weight_count))
    X = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
    got = forward_batch(net, W, X)
    assert got.shape == (s, n) and got.flags.c_contiguous
    assert np.array_equal(got, einsum_forward_batch(net, W, X))


def test_forward_sums_each_node_in_the_documented_order():
    # w_1 a_1 + ... + w_fanin a_fanin, then the bias, one rounding per
    # operation: a Python float loop in that order gives the same bits, and
    # any other order of four or five terms would not (identity and relu
    # nodes add no rounding of their own)
    rng = np.random.default_rng(3)
    W = rng.uniform(-3.0, 3.0, size=(40, 25))
    X = rng.uniform(-2.0, 2.0, size=(30, 4))
    for hidden in ("identity", "relu"):
        net = NetworkSpec(4, (LayerSpec(4, ActivationSpec(hidden)),
                              LayerSpec(1, ActivationSpec("identity"))))
        want = np.empty((40, 30))
        for i, w in enumerate(W.tolist()):
            for p, x in enumerate(X.tolist()):
                outs = []
                for node in range(4):
                    v = w[5 * node] * x[0]
                    for j in range(1, 4):
                        v += w[5 * node + j] * x[j]
                    v += w[5 * node + 4]
                    outs.append(max(v, 0.0) if hidden == "relu" else v)
                v = w[20] * outs[0]
                for j in range(1, 4):
                    v += w[20 + j] * outs[j]
                want[i, p] = v + w[24]
        assert np.array_equal(forward_batch(net, W, X), want), hidden


@pytest.mark.parametrize("cls, n, dim", [(STOCK_NET, 128, 1), (TANH_2D_NET, 64, 2)])
def test_sampled_trace_set_same_rows_as_einsum_pass(monkeypatch, cls, n, dim):
    B = random_general_position(n, dim, np.random.default_rng(11))
    rows = sampled_trace_set(cls, B, budget=20000, seed=5)
    modes = []

    def einsum_pass(net, W, X, *, traces=False):
        modes.append(traces)
        v = einsum_forward_batch(net, W, X)
        return v > 0 if traces else v

    monkeypatch.setattr(dichotomy, "forward_batch", einsum_pass)
    assert np.array_equal(rows, sampled_trace_set(cls, B, budget=20000, seed=5))
    assert modes and all(modes)


@pytest.mark.parametrize("cls, dim", [(STOCK_NET, 1), (TANH_2D_NET, 2), (TWO_BIT_NET, 1)])
@pytest.mark.parametrize("n", [0, 1, 128])
def test_sampled_rows_do_not_depend_on_block_size(monkeypatch, cls, dim, n):
    # the reference draws all `budget` weight rows at once; a block of one
    # row, blocks that split the budget unevenly and one block for all must
    # give the same rows, byte for byte
    B = random_general_position(n, dim, np.random.default_rng(11))
    lo, hi = dichotomy.default_weight_box(B)
    X = B.as_array().reshape(n, dim)
    for budget in (1, 8191, 8193, 20000):
        W = np.random.default_rng(5).uniform(lo, hi, size=(budget, cls.weight_count))
        want = unique_packed_rows(forward_batch(cls, W, X) > 0)
        for entries in (1, 7, 128, 2**16, 2**22):
            monkeypatch.setattr(dichotomy, "_BLOCK_ENTRIES", entries)
            got = sampled_trace_set(cls, B, budget=budget, seed=5)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (budget, entries)


@pytest.mark.parametrize("cls, dim", [(STOCK_NET, 1), (TANH_2D_NET, 2)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 3.5, 1e3, 1e150])
def test_block_weights_are_one_uniform_call(monkeypatch, cls, dim, scale):
    # a block is lo + (hi - lo) * rng.random(...); across the 8192-row blocks
    # of 8 points its rows are those of one rng.uniform call, bit for bit
    B = PointSet(points=tuple(tuple(scale * np.linspace(-1.0, 1.0, 8 * dim)[i::8])
                              for i in range(8)))
    lo, hi = dichotomy.default_weight_box(B)
    blocks = []

    def capture(net, W, X, *, traces=False):
        blocks.append(np.array(W))
        return forward_batch(net, W, X, traces=traces)

    monkeypatch.setattr(dichotomy, "forward_batch", capture)
    for budget, count in ((1, 1), (8191, 1), (8193, 2), (20000, 3)):
        blocks.clear()
        sampled_trace_set(cls, B, budget=budget, seed=7)
        want = np.random.default_rng(7).uniform(lo, hi, (budget, cls.weight_count))
        assert len(blocks) == count
        assert np.concatenate(blocks).tobytes() == want.tobytes(), budget


def test_weight_box_past_the_float_range_is_a_cap():
    B = PointSet(points=((1e308,), (-1e308,), (0.5,)))
    with pytest.raises(CapExceededError, match=r"weight box \[-1e\+308, 1e\+308\]"):
        dichotomy.default_weight_box(B)
    with pytest.raises(CapExceededError, match="wider than the float range"):
        sampled_trace_set(STOCK_NET, B, budget=10, seed=0)
    assert dichotomy.default_weight_box(PointSet(points=((-8e307,),))) == (-8e307, 8e307)


@given(net=networks(max_width=2), s=st.integers(1, 6), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), w_exp=st.integers(-5, 200), x_exp=st.integers(-5, 200))
@example(net=ALL_KINDS_NET, s=3, n=4, seed=0, w_exp=0, x_exp=0)
@example(net=ALL_KINDS_NET, s=3, n=4, seed=0, w_exp=150, x_exp=150)
@example(net=CLAMPED_POLY_NET, s=7, n=5, seed=1, w_exp=1, x_exp=0)
@settings(max_examples=200, deadline=None)
def test_forward_pass_raises_exactly_where_the_reference_overflows(net, s, n, seed, w_exp,
                                                                   x_exp):
    # at fan-in <= 2 the einsum reference gives the same bits; it checks its
    # own planes, so forward_batch must raise its CapExceededError iff a
    # pre-activation or post-clamp plane of the reference is not finite,
    # and otherwise return the reference's exact bits
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(s, net.weight_count)) * 10.0**w_exp
    X = rng.uniform(-1.0, 1.0, size=(n, net.input_dim)) * 10.0**x_exp
    try:
        want = einsum_forward_batch(net, W, X)
    except CapExceededError as e:
        with pytest.raises(CapExceededError, match=f"^{e}$"):
            forward_batch(net, W, X)
    else:
        assert forward_batch(net, W, X).tobytes() == want.tobytes()


@contextlib.contextmanager
def _caller_bufsize(size):
    """Run the block with numpy's ufunc buffer at `size` elements, then
    restore the buffer the test started with."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("net", [STOCK_NET, TANH_2D_NET], ids=["stock", "tanh2d"])
@pytest.mark.parametrize("s, n", [(4096, 16), (1024, 64), (512, 128), (64, 1024)])
def test_forward_pass_ignores_and_restores_the_callers_bufsize(net, s, n):
    # forward_batch runs its layer loop at its own ufunc buffer size: the
    # output bytes are the same whatever buffer the caller set, and the
    # caller's setting is back when it returns
    rng = np.random.default_rng(s + n)
    W = rng.uniform(-3.0, 3.0, size=(s, net.weight_count))
    X = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
    outputs = set()
    for size in (64, 8192, 65536):
        with _caller_bufsize(size):
            outputs.add(forward_batch(net, W, X).tobytes())
            assert np.getbufsize() == size
    assert len(outputs) == 1


@pytest.mark.parametrize("size", [64, 8192, 65536])
def test_raising_forward_pass_restores_the_callers_bufsize(size):
    # 1e300 * 1e10 overflows inside the layer loop
    net = NetworkSpec(1, (LayerSpec(1, ActivationSpec("identity")),
                          LayerSpec(1, ActivationSpec("threshold"))))
    with _caller_bufsize(size):
        with pytest.raises(CapExceededError, match="activation input must be finite"):
            forward_batch(net, [[1e300, 0.0, 1.0, 0.0]], [[1e10]])
        assert np.getbufsize() == size


@pytest.mark.parametrize("caller", ["raise", "ignore"])
def test_forward_pass_restores_the_callers_fp_error_state(caller):
    # forward_batch sets its own np.errstate for the layer loop: an exp that
    # underflows (to a subnormal at t = -720, to 0 at t = -800) is no error
    # even where the caller raises on underflow, and the caller's state is
    # back after a pass that returns and after one that raises
    logistic = NetworkSpec(1, (LayerSpec(1, ActivationSpec("logistic")),))
    overflow = NetworkSpec(1, (LayerSpec(1, ActivationSpec("identity")),
                               LayerSpec(1, ActivationSpec("threshold"))))
    with np.errstate(all=caller):
        state = np.geterr()
        out = forward_batch(logistic, [[1.0, 0.0]], [[-720.0], [-800.0]])
        assert np.geterr() == state
        with pytest.raises(CapExceededError, match="activation input must be finite"):
            forward_batch(overflow, [[1e300, 0.0, 1.0, 0.0]], [[1e10]])
        assert np.geterr() == state
    assert 0.0 < out[0, 0] < 2.0**-1022 and out[0, 1] == 0.0


# --------------------------------------------------------------------------
# forward_batch(..., traces=True): the bits of v > 0, cut at a threshold layer
# --------------------------------------------------------------------------


def _assert_trace_mode_bits(net, s, n, seed):
    """Trace mode gives the bytes of forward_batch(...) > 0 and of the einsum
    reference > 0, as an (s, n) bool array."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(-3.0, 3.0, size=(s, net.weight_count))
    X = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
    got = forward_batch(net, W, X, traces=True)
    assert got.shape == (s, n) and got.dtype == bool
    want = forward_batch(net, W, X) > 0
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == (einsum_forward_batch(net, W, X) > 0).tobytes()


def _threshold_at(w, first, act=PLAIN_THRESHOLD):
    """A width-w threshold hidden layer `act`, first or after a tanh layer,
    followed by six relu units and an identity output: enough float passes
    after it that trace mode cuts there on 40 points."""
    before = () if first else (LayerSpec(3, ActivationSpec("tanh")),)
    return NetworkSpec(2, before + (
        LayerSpec(w, act),
        LayerSpec(6, ActivationSpec("relu")),
        LayerSpec(1, ActivationSpec("identity")),
    ))


@pytest.mark.parametrize("first", [True, False], ids=["first", "middle"])
@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_trace_mode_cut_at_threshold_layer_gives_the_same_bits(w, first):
    cut = 0 if first else 1
    # a restricted threshold outputs only 0.0 and 1.0 too, so it is cut alike
    for act in (PLAIN_THRESHOLD, RESTRICTED_THRESHOLD):
        net = _threshold_at(w, first, act)
        # the corner table must be smaller than the point set
        assert hypotheses._cut_layer(net, 2**w) is None
        assert hypotheses._cut_layer(net, 40) == cut
        for n in sorted({0, 1, 2**w - 1, 2**w, 2**w + 1, 40}):
            for s in (1, 9, 300):
                _assert_trace_mode_bits(net, s, n, seed=100 * w + n + s)


@pytest.mark.parametrize("n", [0, 1, 3, 40])
def test_trace_mode_cuts_restricted_thresholds(n):
    act = RESTRICTED_THRESHOLD
    net = NetworkSpec(2, (LayerSpec(2, act), LayerSpec(6, ActivationSpec("relu")),
                          LayerSpec(1, act)))
    assert hypotheses._cut_layer(net, 40) == 0
    _assert_trace_mode_bits(net, 50, n, seed=n)


def _every_kind():
    for kind in ACTIVATION_KINDS:
        coefficients = (0.5, -1.0, 0.25) if kind == "polynomial" else ()
        yield ActivationSpec(kind, coefficients)
        yield ActivationSpec(kind, coefficients, restriction=(-0.5, 1.5))


@pytest.mark.parametrize("act", list(_every_kind()),
                         ids=lambda a: a.kind + ("_clamped" if a.restriction else ""))
def test_trace_mode_gives_the_same_bits_for_every_kind_after_the_cut(act):
    net = NetworkSpec(1, (LayerSpec(2, PLAIN_THRESHOLD), LayerSpec(4, act), LayerSpec(1, act)))
    assert hypotheses._cut_layer(net, 40) == 0
    for n in (0, 1, 4, 5, 40):
        _assert_trace_mode_bits(net, 200, n, seed=n)


@given(net=networks(), s=st.integers(1, 6), n=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
@example(net=_threshold_at(2, first=False), s=5, n=40, seed=0)
@settings(max_examples=100, deadline=None)
def test_trace_mode_is_the_sign_of_the_real_outputs(net, s, n, seed):
    rng = np.random.default_rng(seed)
    W = rng.uniform(-3.0, 3.0, size=(s, net.weight_count))
    X = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
    try:
        want = forward_batch(net, W, X) > 0
    except CapExceededError as e:
        with pytest.raises(CapExceededError, match=f"^{e}$"):
            forward_batch(net, W, X, traces=True)
    else:
        assert forward_batch(net, W, X, traces=True).tobytes() == want.tobytes()


# two threshold bits of x, then 1e308 t^2 of a * bit_0 + b * bit_1, which
# overflows wherever that input is 10 or 20; its output feeds a threshold
# (the polynomial is a hidden layer) or is the output itself
OVERFLOW_POLY = ActivationSpec("polynomial", coefficients=(0.0, 0.0, 1e308))
OVERFLOW_NETS = {
    "hidden": NetworkSpec(1, (LayerSpec(2, PLAIN_THRESHOLD), LayerSpec(1, OVERFLOW_POLY),
                              LayerSpec(1, PLAIN_THRESHOLD))),
    "output": NetworkSpec(1, (LayerSpec(2, PLAIN_THRESHOLD), LayerSpec(1, OVERFLOW_POLY))),
}
# both bits are [x > 0], so the points realize only the corners (0, 0) and (1, 1)
OVERFLOW_X = np.linspace(-1.0, 1.0, 8)[:, None]


def _overflow_weights(net, a, b):
    tail = [1.0, -0.5] if len(net.layers) == 3 else []
    return np.array([[1.0, 0.0, 1.0, 0.0, a, b, 0.0] + tail])


@pytest.mark.parametrize("where", OVERFLOW_NETS)
def test_trace_mode_ignores_an_overflow_at_a_corner_no_point_realizes(where):
    # a = 10, b = -10: the polynomial overflows at (1, 0) and (0, 1) alone
    net = OVERFLOW_NETS[where]
    W = _overflow_weights(net, 10.0, -10.0)
    assert hypotheses._cut_layer(net, len(OVERFLOW_X)) == 0
    Wt = np.ascontiguousarray(W.T)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(CapExceededError):
            hypotheses._layers(net, Wt, hypotheses._corners(2), 1, len(net.layers))
    got = forward_batch(net, W, OVERFLOW_X, traces=True)
    want = forward_batch(net, W, OVERFLOW_X) > 0
    assert got.tobytes() == want.tobytes() == np.zeros((1, 8), dtype=bool).tobytes()


@pytest.mark.parametrize("where, stage", [("hidden", "activation input"),
                                          ("output", "network output")])
def test_trace_mode_raises_the_real_pass_error_at_a_realized_corner(where, stage):
    # a = b = 10: the polynomial overflows at (1, 1), the corner of x > 0
    net = OVERFLOW_NETS[where]
    W = _overflow_weights(net, 10.0, 10.0)
    message = f"^{stage} must be finite: the forward pass overflowed$"
    with pytest.raises(CapExceededError, match=message):
        forward_batch(net, W, OVERFLOW_X)
    with pytest.raises(CapExceededError, match=message):
        forward_batch(net, W, OVERFLOW_X, traces=True)


@pytest.mark.parametrize("w", [1, 2, 3])
def test_shannon_compose_reads_the_corner_of_each_entry(w):
    # bool planes and packed uint64 words compose alike: out = table[k],
    # k = sum_j bits[j] << j, entry by entry and bit by bit
    rng = np.random.default_rng(w)
    bits = rng.random((w, 5, 64)) > 0.5
    table = rng.random((2**w, 5, 64)) > 0.5
    k = sum(bits[j].astype(int) << j for j in range(w))
    want = np.take_along_axis(table, k[None], axis=0)[0]
    assert np.array_equal(hypotheses.shannon_compose(bits, table), want)
    words = hypotheses.shannon_compose(np.packbits(bits, axis=-1).view(np.uint64),
                                       np.packbits(table, axis=-1).view(np.uint64))
    assert np.array_equal(words, np.packbits(want, axis=-1).view(np.uint64))
