"""Threshold nets with one hidden layer against their composition from LTF
traces: sampled traces lie in the composed set, and in 1-D the composed
count is Cover's count with d = w."""

import math

import numpy as np
import pytest

from conftest import composed_threshold_traces
from vclab.dichotomy import DEFAULT_BUDGET, sampled_trace_set
from vclab.hypotheses import ActivationSpec, LayerSpec, NetworkSpec
from vclab.pointsets import PointSet, random_points


def threshold_net(d, w) -> NetworkSpec:
    """A d-w-1 net whose hidden and output nodes are plain thresholds."""
    step = ActivationSpec("threshold")
    return NetworkSpec(input_dim=d, layers=(LayerSpec(w, step), LayerSpec(1, step)))


@pytest.mark.parametrize("d, w, n", [(1, 1, 8), (1, 2, 8), (1, 3, 7), (2, 2, 6), (2, 2, 7)])
def test_sampled_traces_are_composed(d, w, n):
    B = random_points(n, d, np.random.default_rng(100 * d + 10 * w + n))
    sampled = sampled_trace_set(threshold_net(d, w), B, DEFAULT_BUDGET, seed=0)
    composed = composed_threshold_traces(B.as_array(), w)
    assert set(map(bytes, sampled)) <= set(map(bytes, composed))
    assert len(composed) <= 2**n


@pytest.mark.parametrize("w, n", [(1, 8), (2, 8), (3, 7), (1, 3), (2, 5), (3, 4)])
def test_composed_1d_count_is_covers_count_in_w(w, n):
    # on a line the traces are the 0/1 strings with at most w label switches
    B = random_points(n, 1, np.random.default_rng(w * n))
    composed = composed_threshold_traces(B.as_array(), w)
    assert len(composed) == 2 * sum(math.comb(n - 1, i) for i in range(w + 1))


@pytest.mark.parametrize("w", [1, 2, 3])
def test_sampled_1d_traces_switch_at_most_w_times(w):
    x = np.sort(random_points(16, 1, np.random.default_rng(w)).as_array()[:, 0])
    B = PointSet(points=tuple((float(v),) for v in x))
    bits = np.unpackbits(sampled_trace_set(threshold_net(1, w), B, DEFAULT_BUDGET, seed=0),
                         axis=1, count=16)
    assert (np.diff(bits.astype(np.int8), axis=1) != 0).sum(axis=1).max() <= w
