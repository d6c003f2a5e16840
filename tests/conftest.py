import itertools
import operator
from pathlib import Path

import numpy as np
import pytest

from vclab.dichotomy import (DEFAULT_BUDGET, GrowthEstimate, GrowthSample, as_network, class_id,
                             trace_set)
from vclab.errors import CapExceededError
from vclab.hypotheses import _apply_activation_batch
from vclab.linsep import _bareiss, _integer_lift, enumerate_ltf_traces, is_realizable
from vclab.pointsets import (_GP_TOL, PointSet, in_general_position, random_general_position,
                             random_points)
from vclab.ucheck import UCExperimentResult, _error_matrix

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# fixed general-position planar sets (checked below)
GP8 = PointSet(
    points=(
        (0.3517, -0.5714), (-0.3811, 0.5989), (0.9916, -0.7155), (-0.8425, -0.6384),
        (-0.2807, -0.6608), (0.1775, 0.2336), (-0.7892, 0.1315), (-0.9907, -0.0698),
    ),
)

GP6 = PointSet(
    points=(
        (0.5719, 0.1023), (-0.5122, -0.3311), (-0.3626, -0.2197),
        (0.6026, -0.8184), (-0.2528, 0.5826), (0.5173, 0.208),
    ),
)
assert in_general_position(GP8.as_array()) and in_general_position(GP6.as_array())


def ltf_tuples(points) -> list[tuple[int, ...]]:
    """linsep.enumerate_ltf_traces unpacked to sorted 0/1 tuples, the form of
    the lp_ltf_traces and recursive_ltf_traces references."""
    pts = np.asarray(points, dtype=float)
    bits = np.unpackbits(enumerate_ltf_traces(pts), axis=1, count=pts.shape[0])
    return list(map(tuple, bits.tolist()))


def lp_ltf_traces(points) -> list[tuple[int, ...]]:
    """Sorted LTF traces of `points` by the margin LP, one solve for each of
    the 2^n labelings: the reference for the arrangement enumeration."""
    pts = np.asarray(points, dtype=float)
    labelings = itertools.product((0, 1), repeat=pts.shape[0])
    return [lab for lab in labelings if is_realizable(pts, lab)]


def recursive_ltf_traces(points) -> list[tuple[int, ...]]:
    """Sorted LTF traces of `points` from the cells of the arrangement, with
    one integer Bareiss determinant per cofactor and one Python dot product
    per side test, hyperplane by hyperplane: the reference for the filtered
    float predicate and array assembly of linsep.enumerate_ltf_traces."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        return [()]
    rows = np.hstack([pts, np.ones((len(pts), 1))])
    return sorted(_recursive_cells(_integer_lift(rows).tolist()))


def _recursive_cells(vs):
    k = len(vs)
    cols = _bareiss(vs)[0]
    r = len(cols)
    if r == k:
        return set(itertools.product((0, 1), repeat=k))
    vs = [tuple(v[c] for c in cols) for v in vs]
    found = set()
    planes = set()
    for S in itertools.combinations(vs, r - 1):
        normal = [
            (-1) ** j * _bareiss([s[:j] + s[j + 1:] for s in S])[1] for j in range(r)
        ]
        if not any(normal):
            continue  # S is dependent
        side = [sum(map(operator.mul, normal, v)) for v in vs]
        on = tuple(i for i, s in enumerate(side) if s == 0)
        if on in planes:
            continue
        planes.add(on)
        rays = ([int(s > 0) for s in side], [int(s < 0) for s in side])
        for sub in _recursive_cells([vs[i] for i in on]):
            for bits in rays:
                for i, b in zip(on, sub):
                    bits[i] = b
                found.add(tuple(bits))
    return found


def composed_threshold_traces(points, w) -> np.ndarray:
    """Traces of every one-hidden-layer threshold net of width w on `points`,
    from all tuples, as sorted np.packbits rows: with L the LTF traces of the
    points and G those of the w-cube (vertices in itertools.product order),
    each (t_1, ..., t_w) in L^w and g in G give x -> g[sum_i t_i(x) 2^(w-1-i)].
    The reference for threshold nets composed from their LTF layers."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    L = np.unpackbits(enumerate_ltf_traces(pts), axis=1, count=n).astype(np.intp)
    cube = np.array(list(itertools.product((0, 1), repeat=w)), dtype=float)
    G = np.unpackbits(enumerate_ltf_traces(cube), axis=1, count=2**w)
    corner = np.zeros((1, n), dtype=np.intp)  # cube vertex of each point, per tuple
    for i in range(w):
        corner = (corner[:, None] + (L << (w - 1 - i))).reshape(-1, n)
    return unique_packed_rows(G[:, corner].reshape(-1, n))


def loop_in_general_position(points) -> bool:
    """General position by one np.linalg.det call per (d+1)-subset: the
    reference for the batched check in pointsets.in_general_position."""
    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    if k <= d:
        M = pts[1:] - pts[:1]
        return bool(np.sqrt(max(np.linalg.det(M @ M.T), 0.0)) > _GP_TOL)
    for idx in itertools.combinations(range(k), d + 1):
        sub = pts[list(idx)]
        if abs(np.linalg.det(sub[1:] - sub[0])) <= _GP_TOL:
            return False
    return True


def unique_packed_rows(bits) -> np.ndarray:
    """Distinct np.packbits rows of a 0/1 matrix by np.unique(axis=0): the
    reference for the integer-key dedupe in dichotomy._packed."""
    return np.unique(np.packbits(np.asarray(bits, dtype=bool), axis=1), axis=0)


def einsum_forward_batch(network, W, X):
    """One np.einsum per node over (n_samples, n_points, width) activations,
    stacked after each layer: the reference for the node-major pass in
    hypotheses.forward_batch. It runs with floating-point errors ignored and
    checks its own planes: at the first non-finite pre-activation, or
    activation output after its clamp, it raises forward_batch's
    CapExceededError."""
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    s = W.shape[0]
    values = np.broadcast_to(X, (s,) + X.shape)
    output_layer = len(network.layers) - 1
    pos = 0
    with np.errstate(all="ignore"):
        for i, layer in enumerate(network.layers):
            fan_in = network.fan_in(i)
            cols = []
            for _ in range(layer.width):
                w = W[:, pos : pos + fan_in]
                bias = W[:, pos + fan_in]
                pos += fan_in + 1
                pre = np.einsum("spj,sj->sp", values, w) + bias[:, None]
                _require_finite(pre, "activation input")
                cols.append(_apply_activation_batch(layer.activation, pre))
                _require_finite(cols[-1], "network output" if i == output_layer
                                else "activation input")
            values = np.stack(cols, axis=-1)
    return values[:, :, 0]


def _require_finite(plane, stage):
    if not np.isfinite(plane).all():
        raise CapExceededError(f"{stage} must be finite: the forward pass overflowed")


def loop_run_uc_experiment(cls, D, eps, k, trials, seed,
                           budget=DEFAULT_BUDGET) -> UCExperimentResult:
    """One multinomial draw and one `errs @ v` per trial, summed in a Python
    float: the reference for the chunked trials of ucheck.run_uc_experiment."""
    errs, method = _error_matrix(cls, D, budget, seed)
    p = np.array(D.probabilities, dtype=float)
    rng = np.random.default_rng(seed)
    failures = 0
    sup_sum = 0.0
    for _ in range(trials):
        counts = rng.multinomial(k, p).astype(float)
        sup = float(np.abs(errs @ (p - counts / k)).max())
        sup_sum += sup
        if sup > eps:
            failures += 1
    return UCExperimentResult(
        k=k,
        trials=trials,
        failures=failures,
        empirical_rate=failures / trials,
        seed=seed,
        sup_method=method,
        mean_sup_deviation=sup_sum / trials,
    )


def loop_growth_samples(cls, n_values, method, draws=3, budget=DEFAULT_BUDGET,
                        seed=0) -> GrowthEstimate:
    """Exact or sampled growth samples with one trace count per draw: the
    reference for dichotomy.growth_samples, which stops counting a size once
    a draw reaches the most traces any point set of that size has."""
    if method == "sampled":
        view, draw = as_network(cls), random_points
        dim = view.input_dim
    else:
        view, dim, draw = cls, cls.dim, random_general_position
    rng = np.random.default_rng(seed)
    samples = []
    for n in sorted(set(n_values)):
        best, exact = 0, True
        for j in range(draws):
            rows, exact = trace_set(view, draw(n, dim, rng), budget, seed + j)
            best = max(best, len(rows))
        samples.append(GrowthSample(n, best, "exact" if exact else "lower_bound"))
    return GrowthEstimate(samples=tuple(samples), class_id=class_id(cls), seed=seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def config_dir():
    return CONFIG_DIR
