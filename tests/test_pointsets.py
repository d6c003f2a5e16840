import numpy as np

from vclab import pointsets
from vclab.pointsets import in_general_position, random_general_position


class CountingRng:
    """Forwards uniform draws to a seeded generator and counts them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)


class ScriptedRng:
    """Returns the given arrays as successive uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, size):
        draw = self.draws.pop(0)
        assert draw.shape == size
        return draw


def test_one_general_position_check_per_draw(monkeypatch):
    real = pointsets.in_general_position
    calls = []

    def counting(points):
        # reject the first draw, then defer to the real check
        calls.append(len(points))
        return False if len(calls) == 1 else real(points)

    monkeypatch.setattr(pointsets, "in_general_position", counting)
    rng = CountingRng(5)
    B = random_general_position(6, 2, rng)
    assert len(B) == 6 and in_general_position(B.as_array())
    assert rng.draws == 2
    assert len(calls) == rng.draws


def test_high_dimension_accepted_unchecked(monkeypatch):
    def fail(points):
        raise AssertionError("no general-position check above d = 3")

    monkeypatch.setattr(pointsets, "in_general_position", fail)
    rng = np.random.default_rng(3)
    B = random_general_position(7, 5, rng)
    expected = np.random.default_rng(3).uniform(-1.0, 1.0, size=(7, 5))
    assert np.array_equal(B.as_array(), expected)


def test_affinely_dependent_small_sets_rejected():
    # k <= d points: a collinear triple in R^3, two points 1e-12 apart in R^2
    collinear = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert not in_general_position(collinear)
    assert not in_general_position(np.array([[0.0, 0.0], [1e-12, 0.0]]))
    rng = ScriptedRng([collinear, np.eye(3)])
    assert random_general_position(3, 3, rng).points == tuple(map(tuple, np.eye(3)))
    assert rng.draws == []
    assert in_general_position(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert in_general_position(np.array([[0.5, -0.5]]))
