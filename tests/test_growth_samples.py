"""growth_samples' draw loop: a size stops being counted once a draw reaches
the most traces any point set of that size has (Cover's count for a
linear-threshold class, 2^n otherwise), while every draw is still made, so
the samples equal those of counting every draw."""

import pytest

from conftest import CONFIG_DIR, loop_growth_samples
from vclab import dichotomy
from vclab.dichotomy import growth_function_oracle, growth_samples
from vclab.hypotheses import (ActivationSpec, LayerSpec, LinearThreshold, NetworkSpec,
                              load_class_spec)
from vclab.pointsets import PointSet

STOCK_NET = load_class_spec(CONFIG_DIR / "net_1hidden_threshold.json")
TANH = ActivationSpec("tanh")
TANH2D = NetworkSpec(2, (LayerSpec(3, TANH), LayerSpec(1, TANH)))
# small sizes reach 2^n before larger ones are drawn, so a draw skipped or
# made out of turn would shift the points every later size counts on
SAMPLED_NS = [1, 2, 3, 4, 6, 9, 16]


def _record(monkeypatch, name, result=lambda r: r):
    """Wrap dichotomy.<name> so that each call appends result(its return
    value) to the returned list."""
    calls = []
    real = getattr(dichotomy, name)

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(result(out))
        return out

    monkeypatch.setattr(dichotomy, name, recorded)
    return calls


@pytest.mark.parametrize("draws", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_exact_ltf_growth_equals_counting_every_draw(d, draws):
    cls = LinearThreshold(dim=d)
    ns = range(13)
    got = growth_samples(cls, ns, method="exact", draws=draws, seed=d)
    assert got == loop_growth_samples(cls, ns, "exact", draws, seed=d)


@pytest.mark.parametrize("budget", [3, 30, 300])
@pytest.mark.parametrize("cls", [LinearThreshold(dim=2), STOCK_NET, TANH2D],
                         ids=["ltf2", "stock", "tanh2d"])
def test_sampled_growth_equals_counting_every_draw(monkeypatch, cls, budget):
    counted = _record(monkeypatch, "trace_set")
    got = growth_samples(cls, SAMPLED_NS, method="sampled", draws=3, budget=budget, seed=5)
    monkeypatch.undo()
    assert got == loop_growth_samples(cls, SAMPLED_NS, "sampled", 3, budget, seed=5)
    assert len(counted) < 3 * len(SAMPLED_NS)  # some size reached its ceiling


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_ltf_counts_one_draw_per_size(monkeypatch, d):
    # draws are checked for general position at d <= 3, so the first reaches Cover's count
    counts = _record(monkeypatch, "trace_set", lambda r: len(r[0]))
    drawn = _record(monkeypatch, "random_general_position")
    ns = [0, 1, d + 1, d + 2, 9, 14]
    growth_samples(LinearThreshold(dim=d), ns, method="exact", draws=3, seed=d)
    assert counts == [growth_function_oracle(LinearThreshold(dim=d), n) for n in ns]
    assert len(drawn) == 3 * len(ns)


def test_a_degenerate_draw_below_the_ceiling_is_followed_by_counted_draws(monkeypatch):
    # d = 4 draws are not checked for general position; make the first one
    # lie in the hyperplane x_4 = 0, where it has only the d = 3 count
    real = dichotomy.random_general_position

    def draw(k, d, rng):
        B = real(k, d, rng)
        if len(counts) == 0:
            B = PointSet(points=tuple((*p[:3], 0.0) for p in B.points))
        return B

    monkeypatch.setattr(dichotomy, "random_general_position", draw)
    counts = _record(monkeypatch, "trace_set", lambda r: len(r[0]))
    (sample,) = growth_samples(LinearThreshold(dim=4), [8], method="exact", draws=3).samples
    cover = growth_function_oracle(LinearThreshold(dim=4), 8)
    assert counts == [growth_function_oracle(LinearThreshold(dim=3), 8), cover]
    assert sample.count == cover


@pytest.mark.parametrize("method", ["exact", "sampled"])
def test_zero_draws_is_refused_before_any_draw(monkeypatch, method):
    drawn = [_record(monkeypatch, name) for name in ("random_general_position", "random_points")]
    with pytest.raises(ValueError, match="draws must be >= 1"):
        growth_samples(LinearThreshold(dim=2), [4], method=method, draws=0)
    assert drawn == [[], []]
