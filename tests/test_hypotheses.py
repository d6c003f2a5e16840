import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vclab.dichotomy import as_network, sampled_trace_set, trace_set
from vclab.errors import CapExceededError, ConfigError
from vclab.hypotheses import (
    ACTIVATION_KINDS,
    WEIGHT_CAP,
    ActivationSpec,
    ExplicitFinite,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    _apply_activation_batch,
    forward_batch,
    parse_class_spec,
    shown_value,
)
from vclab.pointsets import PointSet

THR = ActivationSpec(kind="threshold")
TANH = ActivationSpec(kind="tanh")


def make_net(input_dim, widths, act=THR):
    return NetworkSpec(
        input_dim=input_dim,
        layers=tuple(LayerSpec(w, act) for w in widths),
    )


def act_at(act, t):
    """The activation at one point, as a 1-element batch."""
    return float(_apply_activation_batch(act, np.array([t], dtype=float))[0])


def out_at(net, w, x):
    """Real output of the network with weight vector w at the point x."""
    return float(forward_batch(net, [w], [x])[0, 0])


def label_at(net, w, x):
    """Binary output of the network with weight vector w at x: 1 iff > 0."""
    return int(out_at(net, w, x) > 0)


def traces(cls, points):
    """The class's exact trace set on `points`, as a set of 0/1 tuples."""
    rows = trace_set(cls, PointSet(points=points))[0]
    return set(map(tuple, np.unpackbits(rows, axis=1, count=len(points)).tolist()))


class TestApplyActivation:
    def test_threshold_positive(self):
        assert act_at(THR, 1.0) == 1.0

    def test_threshold_tie_is_zero(self):
        assert act_at(THR, 0.0) == 0.0

    def test_clamp_outside_interval(self):
        act = ActivationSpec(kind="tanh", restriction=(-1.0, 1.0), clamp_outside=True)
        assert act_at(act, 2.0) == 0.0

    def test_tanh_reference_value(self):
        # independent reference: series evaluation of tanh at 0.5
        assert act_at(TANH, 0.5) == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_polynomial_matches_direct_sum(self):
        act = ActivationSpec(kind="polynomial", coefficients=(1.0, -2.0, 0.5))
        t = 1.7
        assert act_at(act, t) == pytest.approx(1.0 - 2.0 * t + 0.5 * t * t)

    @given(st.floats(-50, 50))
    def test_clamped_agrees_inside_zero_outside(self, t):
        plain = ActivationSpec(kind="logistic")
        clamped = ActivationSpec(kind="logistic", restriction=(-2.0, 3.0), clamp_outside=True)
        if -2.0 <= t <= 3.0:
            assert act_at(clamped, t) == act_at(plain, t)
        else:
            assert act_at(clamped, t) == 0.0

    def test_logistic_bits_equal_the_two_branch_formula(self):
        """1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) for t < 0, bit for
        bit, over both zeros, subnormals, the exp underflow edge near 745,
        huge magnitudes and a log-spaced sweep, on a new array and in place."""
        sweep = np.geomspace(5e-324, 1e308, 200000)
        edges = [0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 0.5, 1.0, 36.0, 37.0, 709.0,
                 709.8, 744.0, 745.0, 745.2, 746.0, 1e308, np.finfo(float).max]
        t = np.concatenate([sweep, edges])
        t = np.concatenate([t, -t])
        want = np.empty_like(t)
        pos = t >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        want[~pos] = e / (1.0 + e)
        act = ActivationSpec(kind="logistic")
        got = _apply_activation_batch(act, t)
        assert got.tobytes() == want.tobytes()
        buf = t.copy()
        assert _apply_activation_batch(act, buf, out=buf).tobytes() == want.tobytes()

    def test_bad_restriction_rejected(self):
        with pytest.raises(ConfigError):
            ActivationSpec(kind="tanh", restriction=(1.0, 1.0))

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ConfigError):
            ActivationSpec(kind="polynomial")


class TestNetworkSpec:
    def test_weight_count_sums_fanin_plus_one(self):
        net = make_net(2, [2, 1])
        # hidden: 2 nodes * (2+1), output: 1 node * (2+1)
        assert net.weight_count == 9

    def test_single_unit_weight_count(self):
        assert make_net(3, [1]).weight_count == 4

    def test_output_must_be_single_node(self):
        with pytest.raises(ConfigError):
            make_net(2, [2])

    @pytest.mark.parametrize("width", [0, -1])
    def test_layer_width_must_be_positive(self, width):
        with pytest.raises(ConfigError, match=f"layer width must be >= 1, got {width}"):
            LayerSpec(width, THR)

    def test_weight_vector_length_enforced(self):
        net = make_net(2, [1])
        with pytest.raises(ValueError, match="weight count"):
            forward_batch(net, [(1.0, 2.0)], [(0.0, 0.0)])


def _activation(kind, clamp):
    return ActivationSpec(
        kind,
        coefficients=(0.5, -1.0, 0.25) if kind == "polynomial" else (),
        restriction=(-0.5, 0.75) if clamp else None,
        clamp_outside=clamp,
    )


class TestActivationOut:
    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    @pytest.mark.parametrize("clamp", [False, True])
    def test_in_place_equals_new_array_bitwise(self, kind, clamp):
        act = _activation(kind, clamp)
        t = np.random.default_rng(3).uniform(-3.0, 3.0, size=(7, 9))
        # ties at 0 (both signs), the restriction ends and large magnitudes
        t[0, :6] = [0.0, -0.0, -0.5, 0.75, 40.0, -40.0]
        want = _apply_activation_batch(act, t)
        buf = t.copy()
        got = _apply_activation_batch(act, buf, out=buf)
        assert got is buf
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEvaluate:
    def test_threshold_unit_positive_preactivation(self):
        assert label_at(make_net(2, [1]), (1.0, 0.0, 0.0), (1.0, 5.0)) == 1

    def test_all_zero_weights_gives_zero(self):
        net = make_net(2, [2, 1])
        assert label_at(net, (0.0,) * net.weight_count, (3.0, -4.0)) == 0

    def test_tanh_net_matches_straight_line_oracle(self):
        # independent straight-line forward pass for a fixed 2-2-1 tanh net
        w = (0.3, -0.7, 0.1, 1.2, 0.4, -0.5, 0.9, -1.1, 0.2)
        x = (0.6, -0.3)
        h1 = math.tanh(0.3 * x[0] - 0.7 * x[1] + 0.1)
        h2 = math.tanh(1.2 * x[0] + 0.4 * x[1] - 0.5)
        out = math.tanh(0.9 * h1 - 1.1 * h2 + 0.2)
        expected = 1 if out > 0 else 0
        net = make_net(2, [2, 1], act=TANH)
        assert label_at(net, w, x) == expected
        assert out_at(net, w, x) == pytest.approx(out, abs=1e-12)

    def test_dimension_mismatch(self):
        B = PointSet(points=((1.0,), (2.0,)))
        with pytest.raises(ValueError, match="input_dim"):
            sampled_trace_set(make_net(2, [1]), B, budget=1, seed=0)

    @pytest.mark.parametrize("x", [(1.0, 1.0, -5.0), (1.0,)])
    def test_forward_batch_rejects_points_of_another_width(self, x):
        # weights (1, 1, 0) would label (1, 1, -5) 1 if the third
        # coordinate were silently dropped
        with pytest.raises(ValueError, match="input_dim = 2"):
            forward_batch(make_net(2, [1]), [(1.0, 1.0, 0.0)], [x])

    def test_pure_function(self):
        net = make_net(2, [2, 1], act=TANH)
        x = (0.4, 0.9)
        assert all(out_at(net, (0.1,) * 9, x) == out_at(net, (0.1,) * 9, x) for _ in range(5))

    @settings(max_examples=60)
    @given(
        w=st.lists(st.floats(-2, 2, allow_subnormal=False), min_size=9, max_size=9),
        x=st.lists(st.floats(-2, 2, allow_subnormal=False), min_size=2, max_size=2),
        lam=st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0, 16.0]),
    )
    def test_threshold_rescaling_invariance(self, w, x, lam):
        # scaling one threshold node's incoming row (weights+bias) by lam > 0
        # cannot change any output bit; powers of two keep the float
        # arithmetic exact, so the check is not polluted by rounding at ties.
        # That holds only while no step of the node's sum is subnormal, where
        # scaling loses bits (see test_threshold_rescaling_underflow)
        net = make_net(2, [2, 1])
        scaled = list(w)
        scaled[0:3] = [lam * v for v in w[0:3]]  # first hidden node's row
        for row in (w[0:3], scaled[0:3]):
            assume(all(_normal_or_zero(v) for v in _first_node_steps(row, x)))
        assume(all(_normal_or_zero(v) for v in scaled[0:3]))
        assert label_at(net, w, x) == label_at(net, scaled, x)

    def test_threshold_rescaling_underflow(self):
        # 0.125 * 5e-324 rounds to 0.0: the scaled row turns the first hidden
        # unit off, so the scaled net is a different function at x
        net = make_net(2, [2, 1])
        w = (0.0, 0.0, 5e-324, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0)
        scaled = (0.0, 0.0, 0.125 * 5e-324) + w[3:]
        assert scaled[2] == 0.0
        assert (label_at(net, w, (0.0, 0.0)), label_at(net, scaled, (0.0, 0.0))) == (0, 1)


def _first_node_steps(row, x):
    """Products, partial sum and result of a fan-in-2 node's pre-activation,
    in forward_batch's order."""
    p0, p1 = row[0] * x[0], row[1] * x[1]
    return p0, p1, p0 + p1, p0 + p1 + row[2]


def _normal_or_zero(v):
    return v == 0 or abs(v) >= 2.0**-1022


class TestOutputOverflow:
    POLY = ActivationSpec(kind="polynomial", coefficients=(-1.79e308, 1.7e308, 1.7e308))

    def test_polynomial_output_overflow_is_a_cap(self):
        # the true value at t = 0.5 is -5.15e307; float evaluation overflows to +inf
        net = NetworkSpec(input_dim=1, layers=(LayerSpec(1, self.POLY),))
        with pytest.raises(CapExceededError, match="network output must be finite"):
            forward_batch(net, [[1.0, 0.0]], [[0.5]])

    def test_finite_polynomial_output_passes(self):
        net = NetworkSpec(input_dim=1, layers=(LayerSpec(1, self.POLY),))
        assert forward_batch(net, [[0.0, 0.0]], [[0.5]])[0, 0] == -1.79e308

    @pytest.mark.parametrize("clamp", [True, False])
    def test_clamped_overflow_is_no_error(self, clamp):
        # 1e308 t^2 on two hidden nodes: the first sees t = 2, where the
        # polynomial overflows; clamped to [-0.001, 0.001] it is 0 there, so
        # the pass returns; the second sees t = 5e-4 and gives 2.5e301
        act = ActivationSpec("polynomial", coefficients=(0.0, 0.0, 1e308),
                             restriction=(-0.001, 0.001), clamp_outside=clamp)
        net = NetworkSpec(1, (LayerSpec(2, act), LayerSpec(1, THR)))
        w = [[2.0, 0.0, 0.0, 5e-4, 1.0, 1.0, -1.0]]
        if clamp:
            assert forward_batch(net, w, [[1.0]])[0, 0] == 1.0
        else:
            with pytest.raises(CapExceededError, match="activation input must be finite"):
                forward_batch(net, w, [[1.0]])


class TestBaselines:
    def test_union_membership(self):
        # the subset {0, 2} of the domain is a trace: 1 on 0 and 2, 0 on 1
        c = UnionOfMPoints(capacity=2, domain=((0.0,), (1.0,), (2.0,)))
        assert (1, 0, 1) in traces(c, c.domain)

    def test_union_capacity_enforced(self):
        c = UnionOfMPoints(capacity=1, domain=((0.0,), (1.0,)))
        assert traces(c, c.domain) == {(0, 0), (1, 0), (0, 1)}

    def test_linear_threshold_membership(self):
        net = as_network(LinearThreshold(dim=2))
        assert label_at(net, (1.0, 1.0, -1.0), (1.0, 1.0)) == 1
        assert label_at(net, (1.0, 1.0, -1.0), (0.0, 0.0)) == 0

    def test_explicit_finite_dedupes(self):
        c = ExplicitFinite(domain=((0.0,), (1.0,)), traces=((0, 1), (0, 1), (1, 0)))
        assert c.traces == ((0, 1), (1, 0))
        assert traces(c, c.domain) == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("bad", [2, -1])
    def test_explicit_finite_rejects_non_binary_entries(self, bad):
        with pytest.raises(ConfigError, match="0 or 1"):
            ExplicitFinite(domain=((0.0,), (1.0,)), traces=((0, bad), (0, 1), (1, 1), (0, 0)))

    @pytest.mark.parametrize("domain, message", [
        (((0.0,), (0.0,)), "domain points must be pairwise distinct"),
        (((0.0,), (1.0, 2.0)), "domain points must share a dimension"),
    ])
    def test_domains_follow_the_point_set_rule(self, domain, message):
        with pytest.raises(ConfigError, match=message):
            UnionOfMPoints(capacity=1, domain=domain)
        with pytest.raises(ConfigError, match=message):
            ExplicitFinite(domain=domain, traces=((0, 1), (1, 0)))


class TestWeightCap:
    def test_network_at_the_cap_is_accepted(self):
        # a hidden unit on d inputs has d + 1 weights, the output unit 2
        net = NetworkSpec(input_dim=WEIGHT_CAP - 3, layers=(LayerSpec(1, THR), LayerSpec(1, THR)))
        assert net.weight_count == WEIGHT_CAP

    def test_network_past_the_cap_is_refused(self):
        with pytest.raises(CapExceededError, match=f"m = {WEIGHT_CAP + 1} exceeds"):
            NetworkSpec(input_dim=WEIGHT_CAP - 2, layers=(LayerSpec(1, THR), LayerSpec(1, THR)))

    def test_weight_count_past_the_digit_limit_is_named_by_its_digit_count(self):
        # m = 100000 (10^4299 + 1) + 100001 has 4305 digits, more than str() converts
        layers = (LayerSpec(100000, ActivationSpec(kind="tanh")), LayerSpec(1, THR))
        with pytest.raises(CapExceededError, match="m = an integer of 4305 digits exceeds"):
            NetworkSpec(input_dim=10**4299, layers=layers)


@pytest.mark.parametrize("k", [40, 41, 100, 1233, 4299, 4300, 4301, 10**4])
def test_shown_value_counts_digits_at_every_power_of_ten(k):
    assert shown_value(10**k) == f"an integer of {k + 1} digits"
    assert shown_value(-(10**k)) == f"a negative integer of {k + 1} digits"
    assert shown_value(10**k - 1) == (str(10**k - 1) if k <= 40 else f"an integer of {k} digits")
    assert shown_value(2.5) == "2.5" and shown_value(-7) == "-7"


class TestConfigParsing:
    def test_network_round_trip(self):
        doc = {
            "schema_version": 1,
            "kind": "network",
            "network": {
                "input_dim": 2,
                "layers": [
                    {"fan_in": 2, "width": 2, "activation": {"kind": "tanh"}},
                    {"fan_in": 2, "activation": {"kind": "threshold"}},
                ],
            },
        }
        net = parse_class_spec(doc)
        assert isinstance(net, NetworkSpec)
        assert net.layers == (LayerSpec(2, TANH), LayerSpec(1, THR))
        assert net.weight_count == 9

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError):
            parse_class_spec({"kind": "network"})

    def test_fan_in_mismatch_rejected(self):
        doc = {
            "schema_version": 1,
            "kind": "network",
            "network": {
                "input_dim": 2,
                "layers": [{"fan_in": 3, "activation": {"kind": "threshold"}}],
            },
        }
        with pytest.raises(ConfigError):
            parse_class_spec(doc)

    def test_baseline_kinds(self):
        base = parse_class_spec({
            "schema_version": 1,
            "kind": "baseline",
            "baseline": {"kind": "union_of_points", "capacity": 2,
                         "domain": [[0.0], [1.0], [2.0]]},
        })
        assert isinstance(base, UnionOfMPoints)
        assert base.capacity == 2
