"""The sampled-growth path: batched general-position checks and integer-key
trace dedupe against their per-item references, and sampled network counts
against Sauer-Shelah and Cover's count."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, loop_in_general_position, unique_packed_rows
from vclab import dichotomy, linsep, pointsets
from vclab.dichotomy import (
    as_network,
    growth_function_oracle,
    growth_samples,
    sampled_trace_set,
    sauer_shelah_cap,
    vc_dim_bruteforce,
)
from vclab.errors import CapExceededError
from vclab.hypotheses import (WEIGHT_CAP, ActivationSpec, LayerSpec, LinearThreshold, NetworkSpec,
                              load_class_spec)
from vclab.pointsets import in_general_position, random_general_position, random_points


@st.composite
def bool_matrices(draw):
    """0/1 matrices of the widths that matter to packing (0, within one
    byte, byte and 8-byte word edges, >= 128 columns), drawn from a small pool of rows so
    that duplicates are common."""
    width = draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 72, 128, 129, 131]))
    row = st.lists(st.booleans(), min_size=width, max_size=width)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=bool).reshape(len(picks), width)


def word_edge_rows(width):
    """All-ones and all-zeros rows, each beside a row that differs from it only
    in the last bit (so only in the last packed byte), with duplicates."""
    rows = np.ones((4, width), dtype=bool)
    rows[1, -1:] = False
    rows[2:] = False
    rows[3, -1:] = True
    return rows[[0, 1, 2, 3, 3, 1, 0, 2]]


@given(bits=bool_matrices())
@example(bits=word_edge_rows(0))
@example(bits=word_edge_rows(1))
@example(bits=word_edge_rows(63))
@example(bits=word_edge_rows(64))
@example(bits=word_edge_rows(65))
@example(bits=word_edge_rows(72))
@example(bits=word_edge_rows(128))
@example(bits=word_edge_rows(129))
@example(bits=np.zeros((0, 0), dtype=bool))
@example(bits=np.zeros((3, 0), dtype=bool))
@example(bits=np.zeros((0, 9), dtype=bool))
@example(bits=np.ones((1, 128), dtype=bool))
@example(bits=np.eye(130, dtype=bool)[[5, 5, 0, 129, 0, 7, 8]])
@settings(max_examples=200, deadline=None)
def test_byte_view_dedupe_equals_np_unique_rows(bits):
    got = dichotomy._packed(bits)
    want = unique_packed_rows(bits)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [0, 1, 300])
def test_flat_pack_equals_np_unique_rows_at_every_width(rows):
    rng = np.random.default_rng(rows)
    for width in range(131):
        bits = rng.integers(0, 2, size=(rows, width)).astype(bool)
        bits[rows // 2:] = bits[: rows - rows // 2]  # repeated rows
        assert np.array_equal(linsep.pack_rows(bits), np.packbits(bits, axis=1))
        got = dichotomy._packed(bits)
        want = unique_packed_rows(bits)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("table_rows", [1, 7, pointsets._TABLE_ROWS])
def test_subset_table_equals_itertools_combinations(monkeypatch, table_rows):
    # subset tables built afresh past the cache cap (1, 7), cached below it
    # (_TABLE_ROWS holds every table here)
    monkeypatch.setattr(pointsets, "_TABLE_ROWS", table_rows)
    for k in range(15):
        for r in range(k + 3):  # r = 0: one empty subset; r > k: none
            table = pointsets.subset_table(k, r)
            assert table.dtype == np.intp and not table.flags.writeable
            want = list(itertools.combinations(range(k), r))
            assert table.shape == (len(want), r)
            assert list(map(tuple, table.tolist())) == want


def test_subset_table_builds_only_rows_that_reach_size_r():
    # levels that kept every q-subset would hold about 2^60 rows here
    table = pointsets.subset_table(60, 58)
    assert table.shape == (1770, 58)
    assert table[0].tolist() == list(range(58))
    assert table[-1].tolist() == list(range(2, 60))


@pytest.mark.parametrize("table_rows", [1, 7, pointsets._TABLE_ROWS])
def test_general_position_equals_per_subset_reference(monkeypatch, table_rows):
    # on subset tables built afresh (1, 7) and cached (_TABLE_ROWS)
    monkeypatch.setattr(pointsets, "_TABLE_ROWS", table_rows)
    rng = np.random.default_rng(table_rows)
    for d in (1, 2, 3):
        for k in (d + 1, d + 2, 9):
            pts = rng.uniform(-1.0, 1.0, size=(k, d))
            assert in_general_position(pts) == loop_in_general_position(pts)
            # the last d+1 points are made exactly collinear (d = 2) or
            # coplanar (d = 3), or coincide (d = 1): the last subset visited
            pts[-1] = pts[-2] + 2.0 * (pts[-2] - pts[-d - 1])
            assert not loop_in_general_position(pts)
            assert not in_general_position(pts)
    grid = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [3, 0]], dtype=float)
    assert not in_general_position(grid) and not loop_in_general_position(grid)
    assert in_general_position(grid[[0, 1, 3, 4]]) == loop_in_general_position(grid[[0, 1, 3, 4]])


@given(d=st.integers(1, 3), extra=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_general_position_equals_loop_on_random_sets(d, extra, seed):
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(d + 1 + extra, d))
    assert in_general_position(pts) == loop_in_general_position(pts)


@given(d=st.integers(1, 3), extra=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_general_position_equals_loop_on_planted_degenerate_sets(d, extra, seed):
    # move one point into the affine hull of d others: those d+1 are dependent
    rng = np.random.default_rng(seed)
    k = d + 1 + extra
    pts = rng.uniform(-1.0, 1.0, size=(k, d))
    base, *span, target = rng.choice(k, size=d + 1, replace=False)
    pts[target] = pts[base] + sum(rng.uniform(-2, 2) * (pts[j] - pts[base]) for j in span)
    assert not loop_in_general_position(pts)
    assert not in_general_position(pts)


@given(d=st.integers(1, 3), k=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_batched_general_position_equals_loop_on_integer_grids(d, k, seed):
    # small grids: many exactly collinear/coplanar subsets, and k <= d sets
    pts = np.random.default_rng(seed).integers(-2, 3, size=(k, d)).astype(float)
    assert in_general_position(pts) == loop_in_general_position(pts)


def test_dependent_last_subset_of_an_uncached_table():
    # k = 64, d = 2: C(64, 3) = 41664 subsets, more than a cached table
    # holds; the only dependent triple is the last row, (61, 62, 63)
    rng = np.random.default_rng(7)
    pts = random_general_position(63, 2, rng).as_array()
    pts = np.vstack([pts, pts[61] + 0.37 * (pts[62] - pts[61])])
    dependent = [
        idx for idx in itertools.combinations(range(64), 3)
        if not loop_in_general_position(pts[list(idx)])
    ]
    assert dependent == [(61, 62, 63)]
    assert not in_general_position(pts)
    assert in_general_position(pts[:63])


def test_random_general_position_draws_unchanged_by_batching(monkeypatch):
    drawn = [random_general_position(24, d, np.random.default_rng(d)).as_array()
             for d in (1, 2, 3)]
    monkeypatch.setattr(pointsets, "in_general_position", loop_in_general_position)
    ref = [random_general_position(24, d, np.random.default_rng(d)).as_array()
           for d in (1, 2, 3)]
    assert all(np.array_equal(a, b) for a, b in zip(drawn, ref))


STOCK_NET = load_class_spec(CONFIG_DIR / "net_1hidden_threshold.json")


@given(n=st.integers(1, 128), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_stock_net_sampled_counts_below_sauer_shelah(n, seed):
    # the stock net realizes half-lines and constants: VC-dimension 2, 2n traces
    B = random_general_position(n, 1, np.random.default_rng(seed))
    count = len(sampled_trace_set(STOCK_NET, B, budget=2000, seed=seed))
    assert count <= sauer_shelah_cap(2, n)
    assert count <= 2 * n


@given(d=st.integers(1, 3), n=st.integers(1, 40), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_threshold_unit_sampled_counts_below_cover_count(d, n, seed):
    cls = LinearThreshold(dim=d)
    B = random_general_position(n, d, np.random.default_rng(seed))
    count = len(sampled_trace_set(as_network(cls), B, budget=2000, seed=seed))
    assert count <= growth_function_oracle(cls, n)
    assert count <= sauer_shelah_cap(d + 1, n)


def _net(input_dim, widths):
    act = ActivationSpec("tanh")
    return NetworkSpec(input_dim, tuple(LayerSpec(w, act) for w in (*widths, 1)))


@pytest.mark.parametrize("net", [STOCK_NET, _net(2, [3])], ids=["stock", "tanh2d"])
def test_block_rows_of_the_benchmark_nets_are_unchanged(net):
    # the benchmark runs these nets at the default budget of 20000 draws:
    # every block they draw keeps the size _BLOCK_ENTRIES // n gave
    for n in range(1, 129):
        old = max(1, dichotomy._BLOCK_ENTRIES // n)
        assert min(dichotomy._block_rows(net, n), 20000) == min(old, 20000), n


@pytest.mark.parametrize("input_dim, width, n", [(1, 300, 4), (1, 3000, 4), (40, 300, 16),
                                                 (WEIGHT_CAP - 3, 1, 1), (1, 1, 200000)])
def test_block_weights_and_layer_buffers_stay_within_the_cap(input_dim, width, n):
    net = _net(input_dim, [width])
    rows = dichotomy._block_rows(net, n)
    assert rows * net.weight_count <= WEIGHT_CAP and rows * width * n <= WEIGHT_CAP


@pytest.mark.parametrize("width, n", [(3000, 100), (1, WEIGHT_CAP + 1)])
def test_layer_too_wide_for_one_row_is_a_cap(width, n):
    with pytest.raises(CapExceededError, match=f"width {width} on {n} points exceeds"):
        dichotomy._block_rows(_net(1, [width]), n)


def test_sampled_draws_skip_the_general_position_check(monkeypatch):
    # a sampled count is a certified lower bound on any point set; only
    # exact growth rests on general position
    def fail(points):
        raise AssertionError("general-position check on a sampled draw")

    monkeypatch.setattr(pointsets, "in_general_position", fail)
    net = _net(2, [3])
    growth_samples(net, [4, 16], method="sampled", draws=2, budget=50, seed=2)
    growth_samples(LinearThreshold(dim=2), [4, 16], method="sampled", draws=2, budget=50)
    vc_dim_bruteforce(net, max_d=4, tries=3, budget=50, seed=2)
    with pytest.raises(AssertionError, match="general-position check"):
        growth_samples(LinearThreshold(dim=2), [4], method="exact", draws=1)


@pytest.mark.parametrize("k, d", [(0, 2), (1, 1), (24, 2), (24, 3), (7, 5)])
def test_random_general_position_keeps_a_passing_first_draw(k, d):
    first = random_points(k, d, np.random.default_rng(k + d))
    assert random_general_position(k, d, np.random.default_rng(k + d)) == first
    want = np.random.default_rng(k + d).uniform(-1.0, 1.0, size=(k, d))
    assert np.array_equal(first.as_array().reshape(k, d), want)
