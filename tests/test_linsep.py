import itertools

import numpy as np
import pytest

from conftest import ltf_tuples
from vclab.errors import IndeterminateLabelingError
from vclab.linsep import is_realizable, max_margin

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_triangle_shattered():
    for labeling in itertools.product((0, 1), repeat=3):
        assert is_realizable(TRIANGLE, labeling)


def test_xor_labeling_infeasible():
    # diagonal corners of the square cannot be separated
    assert not is_realizable(SQUARE, (1, 0, 0, 1))
    assert not is_realizable(SQUARE, (0, 1, 1, 0))


def test_near_degenerate_is_indeterminate():
    # middle point a hair off the segment: optimal margin ~1e-10..1e-7
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 5e-9]])
    with pytest.raises(IndeterminateLabelingError):
        is_realizable(pts, (0, 0, 1))


def test_constant_labelings_have_unit_scale_margin():
    assert max_margin(SQUARE, (1, 1, 1, 1)) > 0.5
    assert max_margin(SQUARE, (0, 0, 0, 0)) > 0.5


def test_complement_symmetry():
    for labeling in itertools.product((0, 1), repeat=4):
        comp = tuple(1 - b for b in labeling)
        assert max_margin(SQUARE, labeling) == pytest.approx(
            max_margin(SQUARE, comp), abs=1e-9
        )


def test_enumerate_square_traces():
    traces = ltf_tuples(SQUARE)
    assert len(traces) == 14
    assert len(set(traces)) == 14
    assert (1, 0, 0, 1) not in traces
    assert (0, 1, 1, 0) not in traces
