import itertools
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, GP6, GP8, loop_run_uc_experiment
from vclab.errors import CapExceededError, ConfigError
from vclab.hypotheses import ExplicitFinite, LinearThreshold, UnionOfMPoints, load_class_spec
from vclab import ucheck
from vclab.pointsets import PointSet
from vclab.ucheck import (
    _CHUNK_ENTRIES,
    EXACT,
    MAX_K,
    SAMPLED,
    DiscreteDistribution,
    _error_matrix,
    enumerate_support_traces,
    load_distribution,
    run_uc_experiment,
    sup_deviation_exact,
)

LTF2 = LinearThreshold(dim=2)

UNIFORM6 = DiscreteDistribution(
    support=GP6,
    probabilities=(1 / 6,) * 6,
    true_labels=(1, 0, 0, 1, 0, 1),
)

UNIFORM8 = DiscreteDistribution(
    support=GP8,
    probabilities=(0.125,) * 8,
    true_labels=(1, 0, 1, 0, 1, 1, 0, 0),
)


ONE_POINT = DiscreteDistribution(
    support=PointSet(points=((0.5, 0.5),)),
    probabilities=(1.0,),
    true_labels=(1,),
)


def single_trace_class(D, trace=None):
    return ExplicitFinite(domain=D.support.points, traces=(trace or D.true_labels,))


def true_loss(trace, D):
    """L_D of one trace: its error row from _error_matrix times p."""
    errs = _error_matrix(single_trace_class(D, trace), D, 1, 0)[0]
    return float(errs[0] @ np.array(D.probabilities))


def empirical_loss(trace, D, S):
    """L_S of one trace: its error row times the sample's per-point counts / k."""
    errs = _error_matrix(single_trace_class(D, trace), D, 1, 0)[0]
    return float(errs[0] @ np.bincount(S, minlength=len(D.support))) / len(S)


class TestLosses:
    def test_perfect_classifier(self):
        assert true_loss(UNIFORM6.true_labels, UNIFORM6) == 0.0

    def test_complement_classifier(self):
        comp = tuple(1 - b for b in UNIFORM6.true_labels)
        assert true_loss(comp, UNIFORM6) == pytest.approx(1.0)
        assert empirical_loss(comp, UNIFORM6, [0, 3, 3, 5]) == 1.0

    def test_quarter_mass_wrong(self):
        D = DiscreteDistribution(
            support=PointSet(points=((0.0,), (1.0,), (2.0,), (3.0,))),
            probabilities=(0.25,) * 4,
            true_labels=(0, 0, 0, 0),
        )
        assert true_loss((1, 0, 0, 0), D) == pytest.approx(0.25)

    def test_empirical_loss_direct_count(self):
        # errors exactly on index 2 of the sample (i, i, j)
        t = (1, 0, 0, 1, 0, 1)
        wrong_on_j = tuple(
            b if idx != 2 else 1 - b for idx, b in enumerate(UNIFORM6.true_labels)
        )
        assert empirical_loss(wrong_on_j, UNIFORM6, [0, 0, 2]) == pytest.approx(1 / 3)
        assert empirical_loss(t, UNIFORM6, [0, 0, 0]) == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sup_deviation_exact(single_trace_class(UNIFORM6), UNIFORM6, [])

    # np.asarray(S, dtype=int) would read 0.5 as index 0
    @pytest.mark.parametrize("bad", [0.5, 8, -1, True])
    def test_sample_entry_outside_the_support_indices_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"ints in range\(8\), got {bad!r}$"):
            sup_deviation_exact(single_trace_class(UNIFORM8), UNIFORM8, [0, bad])


class TestDistributionValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            DiscreteDistribution(
                support=PointSet(points=((0.0,), (1.0,))),
                probabilities=(0.6, 0.6),
                true_labels=(0, 1),
            )

    def test_negative_probability_rejected(self):
        with pytest.raises(ConfigError):
            DiscreteDistribution(
                support=PointSet(points=((0.0,), (1.0,))),
                probabilities=(1.2, -0.2),
                true_labels=(0, 1),
            )


class TestSupDeviation:
    def test_single_trace_matching_labels(self):
        cls = single_trace_class(UNIFORM6)
        for S in ([0], [1, 2, 3], [5, 5, 5, 5]):
            assert sup_deviation_exact(cls, UNIFORM6, S).value == 0.0

    def test_one_point_support_forces_agreement(self):
        assert sup_deviation_exact(LTF2, ONE_POINT, [0, 0, 0]).value == 0.0

    def test_ltf_on_6_points_matches_bruteforce(self):
        # independent route: find realizable traces by random hyperplane
        # sampling, then take the max deviation by explicit loops
        rng = np.random.default_rng(99)
        pts = GP6.as_array()
        traces = set()
        for _ in range(200000 // 100):
            W = rng.uniform(-2, 2, size=(100, 3))
            bits = (pts @ W[:, :2].T + W[:, 2]) > 0
            for row in bits.T:
                traces.add(tuple(int(v) for v in row))
        # Cover's count certifies completeness of the sampled enumeration
        assert len(traces) == 2 * (1 + 5 + 10)
        S = [0, 2, 2, 4]
        best = 0.0
        for t in traces:
            tl = sum(
                p for p, b, y in zip(UNIFORM6.probabilities, t, UNIFORM6.true_labels) if b != y
            )
            el = sum(1 for i in S if t[i] != UNIFORM6.true_labels[i]) / len(S)
            best = max(best, abs(tl - el))
        got = sup_deviation_exact(LTF2, UNIFORM6, S)
        assert got.method == EXACT
        assert got.value == pytest.approx(best, abs=1e-12)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            S = list(rng.integers(0, 6, size=8))
            v = sup_deviation_exact(LTF2, UNIFORM6, S).value
            assert 0.0 <= v <= 1.0

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_superset_never_decreases_sup(self, data):
        all_traces = list(itertools.product((0, 1), repeat=4))
        sub_size = data.draw(st.integers(1, 8))
        extra = data.draw(st.integers(0, 7))
        picked = data.draw(st.permutations(all_traces))
        small = tuple(picked[:sub_size])
        big = tuple(picked[: sub_size + extra])
        D = DiscreteDistribution(
            support=PointSet(points=((0.0,), (1.0,), (2.0,), (3.0,))),
            probabilities=(0.1, 0.2, 0.3, 0.4),
            true_labels=(0, 1, 1, 0),
        )
        S = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
        v_small = sup_deviation_exact(
            ExplicitFinite(domain=D.support.points, traces=small), D, S
        ).value
        v_big = sup_deviation_exact(
            ExplicitFinite(domain=D.support.points, traces=big), D, S
        ).value
        assert v_big >= v_small - 1e-12


class TestEnumeration:
    def test_union_traces_exact(self):
        c = UnionOfMPoints(capacity=2, domain=GP6.points)
        T, method = enumerate_support_traces(c, GP6)
        assert method == EXACT
        assert len(T) == 1 + 6 + 15
        assert set(T.sum(axis=1)) <= {0, 1, 2}

    def test_network_enumeration_tagged_sampled(self):
        from vclab.dichotomy import as_network

        net = as_network(LTF2)
        T, method = enumerate_support_traces(net, GP6, budget=500, seed=0)
        assert method == SAMPLED
        assert 1 <= len(T) <= 32


class TestRunExperiment:
    def test_single_trace_class_never_fails(self):
        cls = single_trace_class(UNIFORM8)
        res = run_uc_experiment(cls, UNIFORM8, eps=0.01, k=5, trials=50, seed=1)
        assert res.failures == 0

    def test_eps_at_least_one_never_fails(self):
        res = run_uc_experiment(LTF2, UNIFORM8, eps=1.0, k=3, trials=50, seed=2)
        assert res.failures == 0

    def test_bit_reproducible(self):
        a = run_uc_experiment(LTF2, UNIFORM6, eps=0.1, k=40, trials=60, seed=7)
        b = run_uc_experiment(LTF2, UNIFORM6, eps=0.1, k=40, trials=60, seed=7)
        assert a == b

    def test_statistical_soundness_at_k_elementary(self):
        from vclab.bounds import BoundQuery, k_elementary

        delta, eps, trials = 0.2, 0.25, 200
        k = k_elementary(BoundQuery(m=3, eps=eps, delta=delta))
        res = run_uc_experiment(LTF2, UNIFORM8, eps=eps, k=k, trials=trials, seed=42)
        slack = 3 * np.sqrt(delta * (1 - delta) / trials)
        assert res.empirical_rate <= delta + slack
        assert res.sup_method == EXACT

    def test_mean_deviation_shrinks_with_k(self):
        small = run_uc_experiment(LTF2, UNIFORM6, eps=0.5, k=50, trials=300, seed=11)
        large = run_uc_experiment(LTF2, UNIFORM6, eps=0.5, k=200, trials=300, seed=11)
        # nonincreasing up to Monte Carlo noise (2 standard errors)
        se = 2 * 1.0 / np.sqrt(300)
        assert large.mean_sup_deviation <= small.mean_sup_deviation + se


# (class, distribution) pairs with 58, 32, 1, 2 and 22 traces on the support
UC_CASES = {
    "ltf2_uniform8": (LTF2, UNIFORM8),
    "ltf2_uniform6": (LTF2, UNIFORM6),
    "single_trace": (single_trace_class(UNIFORM8), UNIFORM8),
    "one_point": (LTF2, ONE_POINT),
    "union2_uniform6": (UnionOfMPoints(capacity=2, domain=GP6.points), UNIFORM6),
}
# trial counts around run_uc_experiment's Monte Carlo chunk of c trials
TRIAL_COUNTS = {"one": lambda c: 1, "chunk-1": lambda c: c - 1, "chunk": lambda c: c,
                "chunk+1": lambda c: c + 1, "chunks+partial": lambda c: 3 * c + c // 2}


def _chunk(cls, D):
    """Trials per Monte Carlo chunk of run_uc_experiment on cls and D."""
    return max(1, _CHUNK_ENTRIES // max(_error_matrix(cls, D, 20000, 0)[0].shape))


CHUNK8 = _chunk(LTF2, UNIFORM8)  # trials per chunk on ltf2_uniform8


def assert_bitwise_equal(got, want):
    assert got == want
    assert got.empirical_rate.hex() == want.empirical_rate.hex()
    assert got.mean_sup_deviation.hex() == want.mean_sup_deviation.hex()


class TestChunkedTrials:
    """run_uc_experiment against the one-trial-at-a-time reference, every
    field bitwise, across the chunk boundaries of its trial loop."""

    @given(
        case=st.sampled_from(sorted(UC_CASES)),
        trials=st.sampled_from(sorted(TRIAL_COUNTS)) | st.integers(1, 300),
        k=st.sampled_from([1, 2, 50, 40687]) | st.integers(1, 10**6),
        eps=st.sampled_from([0.1, 0.125, 0.25, 0.5]) | st.floats(1e-3, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case="ltf2_uniform8", trials="one", k=50, eps=0.1, seed=1729)
    @example(case="ltf2_uniform8", trials="chunk-1", k=50, eps=0.1, seed=1729)
    @example(case="ltf2_uniform8", trials="chunk", k=50, eps=0.1, seed=1729)
    @example(case="ltf2_uniform8", trials="chunk+1", k=50, eps=0.1, seed=1729)
    @example(case="single_trace", trials="chunk+1", k=5, eps=0.01, seed=1)
    @example(case="one_point", trials="chunk+1", k=3, eps=0.1, seed=2)
    @example(case="union2_uniform6", trials="chunk+1", k=1, eps=0.5, seed=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_trial_reference(self, case, trials, k, eps, seed):
        cls, D = UC_CASES[case]
        if trials in TRIAL_COUNTS:
            trials = TRIAL_COUNTS[trials](_chunk(cls, D))
        got = run_uc_experiment(cls, D, eps=eps, k=k, trials=trials, seed=seed)
        want = loop_run_uc_experiment(cls, D, eps=eps, k=k, trials=trials, seed=seed)
        assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("count", sorted(TRIAL_COUNTS))
    @pytest.mark.parametrize("case", sorted(UC_CASES))
    def test_chunk_boundaries_match_per_trial_reference(self, case, count):
        cls, D = UC_CASES[case]
        args = dict(eps=0.1, k=50, trials=TRIAL_COUNTS[count](_chunk(cls, D)), seed=1729)
        got = run_uc_experiment(cls, D, **args)
        assert_bitwise_equal(got, loop_run_uc_experiment(cls, D, **args))

    # single_trace's chunk is set by its 8 support points, not its one trace
    @pytest.mark.parametrize("case,count,threads", [
        ("ltf2_uniform8", "one", 0), ("ltf2_uniform8", "chunk", 0),
        ("ltf2_uniform8", "chunk+1", 1), ("ltf2_uniform8", "chunks+partial", 1),
        ("single_trace", "chunk", 0), ("single_trace", "chunk+1", 1)])
    def test_worker_only_past_one_chunk(self, monkeypatch, case, count, threads):
        started = []

        def thread(**kwargs):
            started.append(threading.Thread(**kwargs))
            return started[-1]

        monkeypatch.setattr(ucheck, "threading", SimpleNamespace(Thread=thread))
        cls, D = UC_CASES[case]
        trials = TRIAL_COUNTS[count](_chunk(cls, D))
        run_uc_experiment(cls, D, eps=0.1, k=50, trials=trials, seed=0)
        assert len(started) == threads
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("fail", ["draw", "sup"])
    def test_error_mid_run_propagates_and_joins_worker(self, monkeypatch, fail):
        calls = []

        def failing(real):
            def call(*args, **kwargs):
                calls.append(threading.current_thread())
                if len(calls) == 2:  # the second chunk's draw, or its score
                    raise RuntimeError(f"{fail} failed")
                return real(*args, **kwargs)
            return call

        if fail == "draw":
            real_rng = np.random.default_rng

            def rng(seed):
                gen = real_rng(seed)
                return SimpleNamespace(multinomial=failing(gen.multinomial))

            monkeypatch.setattr(np.random, "default_rng", rng)
        else:
            monkeypatch.setattr(ucheck, "_sup_deviations", failing(ucheck._sup_deviations))
        raised = []

        def run():
            try:
                run_uc_experiment(LTF2, UNIFORM8, eps=0.1, k=50, trials=3 * CHUNK8, seed=0)
            except RuntimeError as exc:
                raised.append(exc)

        # run on a thread of its own, so a lost error fails the join's
        # timeout instead of hanging the suite
        baseline = threading.active_count()
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [str(e) for e in raised] == [f"{fail} failed"]
        assert threading.active_count() == baseline
        assert (calls[0] is not caller) == (fail == "draw")  # draws run on the worker

    def test_stock_near_tie_case(self):
        # dist8 at k = 50 puts 1851 of 40000 sups within 1e-12 of eps = 0.1,
        # so one rounding change flips failures
        cls = load_class_spec(CONFIG_DIR / "ltf2.json")
        D = load_distribution(CONFIG_DIR / "dist8_uniform.json")
        args = dict(eps=0.1, k=50, trials=40000, seed=1729)
        got = run_uc_experiment(cls, D, **args)
        assert_bitwise_equal(got, loop_run_uc_experiment(cls, D, **args))
        assert got.failures == 28432

    @given(
        case=st.sampled_from(sorted(UC_CASES)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sup_deviation_matches_single_gemv(self, case, data):
        cls, D = UC_CASES[case]
        n = len(D.support)
        S = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=200))
        errs, _ = _error_matrix(cls, D, 20000, 0)
        v = np.array(D.probabilities) - np.bincount(S, minlength=n).astype(float) / len(S)
        want = float(np.abs(errs @ v).max())
        assert sup_deviation_exact(cls, D, S).value.hex() == want.hex()

    def test_k_at_sampler_limit_runs(self):
        res = run_uc_experiment(LTF2, UNIFORM8, eps=0.1, k=MAX_K, trials=3, seed=0)
        assert res.k == 2**63 - 1

    def test_k_beyond_sampler_limit_is_cap(self):
        with pytest.raises(CapExceededError, match=r"k = 9223372036854775808 .*2\^63 - 1"):
            run_uc_experiment(LTF2, UNIFORM8, eps=0.1, k=MAX_K + 1, trials=1, seed=0)

    # the sampler would truncate k = 5.5 to 5 while the losses divide by 5.5
    @pytest.mark.parametrize("name,bad", [("k", 5.5), ("trials", 2.5), ("k", True)])
    def test_non_int_k_or_trials_rejected(self, name, bad):
        args = {"k": 5, "trials": 3, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be an int, got {bad!r}"):
            run_uc_experiment(LTF2, UNIFORM8, eps=0.1, seed=0, **args)

    @pytest.mark.parametrize("points", [256, 1000])
    def test_chunk_memory_is_bounded_on_a_large_support(self, points):
        # one trace on many points: a chunk sized by traces alone would be
        # 2^16 trials x |support| counts, 128 MiB per array at 256 points
        D = DiscreteDistribution(
            support=PointSet(points=tuple((float(i),) for i in range(points))),
            probabilities=(1 / points,) * points,
            true_labels=(0,) * points,
        )
        cls = single_trace_class(D)
        trials = 40 * _chunk(cls, D)
        tracemalloc.start()
        try:
            run_uc_experiment(cls, D, eps=0.1, k=50, trials=trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


DIST8 = load_distribution(CONFIG_DIR / "dist8_uniform.json")


@pytest.mark.parametrize("call, message", [
    (lambda: ucheck.UCExperimentResult(k=1, trials=1, failures=2, empirical_rate=2.0, seed=0,
                                       sup_method=EXACT, mean_sup_deviation=0.0),
     "failures cannot exceed trials"),
    (lambda: run_uc_experiment(LinearThreshold(2), DIST8, eps=0.1, k=1, trials=0, seed=0),
     "trials and k must be >= 1"),
    (lambda: run_uc_experiment(LinearThreshold(2), DIST8, eps=0.1, k=0, trials=1, seed=0),
     "trials and k must be >= 1"),
], ids=["failures", "trials", "k"])
def test_bad_argument_raises_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
