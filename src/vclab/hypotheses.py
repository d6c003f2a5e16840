"""Binary hypothesis classes: small feed-forward networks with definable
activations, and exact baseline classes used as oracles.

A network with weight vector w defines the classifier x -> [v(x, w) > 0],
where v is its real output. `forward_batch` is the one evaluation path: one
layer loop computes v for a batch of weight vectors on a batch of points,
or, with traces=True, the traces [v > 0] themselves. A trace pass may run
the layers after a threshold hidden layer of width w on the 2^w corners
of {0,1}^w alone, where that layer's outputs lie, and read each
point's bit off the corner table with `shannon_compose`, bitwise Shannon
cofactor steps. The baseline classes carry no evaluator;
`dichotomy.trace_set` lists their traces directly. Everything here is
immutable and pure, so evaluation can be parallelized freely.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CapExceededError, ConfigError
from .pointsets import PointSet

ACTIVATION_KINDS = ("threshold", "logistic", "tanh", "relu", "polynomial", "identity")

SCHEMA_VERSION = 1
# the most weights a network may have: the weight sampler keeps a block's
# weight matrix (rows x m) and each layer buffer (width x n x rows) within
# this many entries, so one weight row must fit
WEIGHT_CAP = 1 << 18
# numpy's ufunc buffer (elements) inside forward_batch's layer loop; see there
_UFUNC_BUFFER = 1024
# cost of a bool plane pass as a share of a float one; see _cut_layer
_BOOL_PASS_SHARE = 0.125


@dataclass(frozen=True)
class ActivationSpec:
    """A scalar activation, optionally restricted to a closed interval.

    With ``restriction=(a, b)`` the function is 0 outside [a, b]; inside it
    agrees with the unrestricted kind. ``coefficients`` (ascending degree)
    are only used for kind='polynomial'.
    """

    kind: str
    coefficients: tuple[float, ...] = ()
    restriction: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        if self.kind == "polynomial" and len(self.coefficients) == 0:
            raise ConfigError("polynomial activation needs a nonempty coefficient list")
        if self.restriction is not None:
            a, b = self.restriction
            if not (a < b):
                raise ConfigError(f"restriction interval must satisfy a < b, got [{a}, {b}]")


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected layer of `width` nodes, each applying `activation`."""

    width: int
    activation: ActivationSpec

    def __post_init__(self):
        if self.width < 1:
            raise ConfigError(f"layer width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class NetworkSpec:
    """Layered feed-forward topology. Each node computes an affine combination
    of the previous layer's outputs (fan-in weights plus one bias) followed by
    its layer's activation. The final real output v classifies 1 iff v > 0.
    """

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        if self.layers[-1].width != 1:
            raise ConfigError("network must have exactly one output node")
        if self.weight_count > WEIGHT_CAP:
            raise CapExceededError(f"network weight count m = {shown_value(self.weight_count)} "
                                   f"exceeds the weight cap {WEIGHT_CAP}")

    def fan_in(self, layer_index: int) -> int:
        return self.input_dim if layer_index == 0 else self.layers[layer_index - 1].width

    @property
    def weight_count(self) -> int:
        """m = sum over nodes of (fan-in + 1). Computed, never user-supplied."""
        return sum(
            layer.width * (self.fan_in(i) + 1) for i, layer in enumerate(self.layers)
        )


def _apply_activation_batch(act: ActivationSpec, t, out=None):
    """Evaluate the activation elementwise on a float array.

    The result goes to `out`, shaped like `t`: a float array, which may be
    `t` itself, or for a threshold a bool one (True/False for 1.0/0.0);
    with out=None a new float array is returned. Outside the restriction
    interval the activation gives exactly 0: the clamp mask is taken from
    `t` before `out` is written, and where it is set the activation is
    evaluated at 0 instead, so an input forced to 0 raises no floating-point
    error under the caller's np.errstate (a polynomial that would overflow
    there, say). Threshold breaks the tie at 0 downward
    (threshold(0) = 0). Non-finite inputs are not checked for: they give
    what numpy's float arithmetic gives.
    """
    clamp = None
    if act.restriction is not None:
        a, b = act.restriction
        clamp = (t < a) | (t > b)
        if clamp.any():
            t = np.where(clamp, 0.0, t)
    if out is None:
        out = np.empty_like(t)
    if act.kind == "threshold":
        np.greater(t, 0, out=out)
    elif act.kind == "logistic":
        # 1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) below, which never overflow
        e = np.exp(-np.abs(t))
        np.divide(np.where(t >= 0, 1.0, e), 1.0 + e, out=out)
    elif act.kind == "tanh":
        np.tanh(t, out=out)
    elif act.kind == "relu":
        np.maximum(t, 0.0, out=out)
    elif act.kind == "polynomial":
        value = np.zeros_like(t)
        for c in reversed(act.coefficients):
            value = value * t + c
        out[...] = value
    elif act.kind == "identity":
        if out is not t:
            out[...] = t
    else:
        raise AssertionError(act.kind)
    if clamp is not None:
        out[clamp] = 0.0
    return out


def forward_batch(network: NetworkSpec, W, X, *, traces: bool = False):
    """Forward pass for a batch of weight vectors on a batch of points.

    W: (n_samples, m) weight matrix, each row a flat weight vector in layer
    order, within each node [w_1..w_fanin, bias]; X: (n_points, input_dim).
    Returns (n_samples, n_points) real outputs of the single output node,
    C-contiguous. With traces=True it returns the traces instead: the
    (n_samples, n_points) bool array v > 0, bit for bit what comparing the
    real outputs with 0 gives, without copying or transposing a float plane.

    Activations are carried node-major and point-major, as a (width,
    n_points, n_samples) array per layer: numpy runs a ufunc's inner loop
    along the last axis, so every multiply, add and activation loops over
    the weight rows, the long axis at the sampler's block sizes. W is
    transposed once, so each node reads contiguous (n_samples,) weight rows;
    the inputs broadcast as (n_points, 1) columns. A node's pre-activation
    is summed in its own plane of the layer buffer, in the fixed order
    w_1 a_1 + ... + w_fanin a_fanin (products after the first in one scratch
    plane per layer), plus the bias; the layer's one activation then
    overwrites the plane in place, so threshold, tanh, relu and identity
    layers allocate no temporary plane. Each entry sees the same float
    operations in the same order in any layout, so the values do not depend
    on it.

    Trace mode cuts the pass at the first threshold hidden layer of width w
    that _cut_layer finds worth it: 2^w < n_points, and the Shannon steps
    cost less than the float passes they replace. The layers up to the cut
    run on the points, the cut layer writing its activation into bool
    planes; the layers after it run, through the same loop, on the 2^w
    corners of {0,1}^w (_corners) in place of the points, giving a
    (2^w, n_samples) corner table of output bits, and `shannon_compose`
    reads each point's bit off it through the bit planes. The bits are
    those of the full pass: a threshold layer, restricted or not, outputs
    exactly 0.0 or 1.0, so each point's hidden outputs are one of the
    corners, and each later layer applies the same float operations in the
    same order to the same operands there. Without a cut, the output plane
    is read as bool on the points. The traces come back as the transpose
    of a (n_points, n_samples) bool plane, not C-contiguous.

    W and X must be finite (else a ValueError, before any plane is
    allocated). An overflow is then a CapExceededError, without numpy
    warnings. The layer loop runs under np.errstate with overflow, invalid
    and divide set to raise: from finite operands, IEEE 754 raises one of
    them at the first operation whose result is not finite, and a non-finite
    value stays non-finite through every later product, sum and Horner step,
    so the pass raises exactly when a pre-activation plane, or an activation
    output plane after its clamp, would hold a non-finite value. Raised
    inside the output node's activation (a polynomial, the one activation
    that can map finite inputs to a non-finite output) it reads "network
    output must be finite", anywhere else "activation input must be
    finite". A corner that no point realizes may overflow where no point
    does (a polynomial after the cut, say); when the corner pass raises,
    the whole pass is run again on the points without a cut, which raises
    exactly the error above or returns the traces. Underflow is ignored: a
    subnormal or zero result is a finite value. The caller's np.errstate is
    back on return and on every raise.

    The layer loop runs with numpy's ufunc buffer at _UFUNC_BUFFER = 1024
    elements instead of the default 8192. At 8192 the buffered iterator
    joins short rows into one chunk and first copies the broadcast operands,
    the (n_points, 1) input column and the (n_samples,) weight row, into its
    buffers: a product on rows shorter than about 2700 weight rows (every
    sampler block with n >= 32) takes about four times as long, and a bias
    add on rows shorter than 8192 (n >= 16) about twice as long. The buffer
    only holds copies of operand values, so the results are the same bits.
    The caller's buffer size is restored on return and on every raise; it
    is numpy's per-context (per-thread) setting, so concurrent passes do not
    see it.
    """
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    _, m = W.shape
    if m != network.weight_count:
        raise ValueError("weight matrix width != network weight count")
    if X.ndim != 2 or X.shape[1] != network.input_dim:
        raise ValueError(f"points must be (n, input_dim = {network.input_dim}), got {X.shape}")
    if not (np.isfinite(W).all() and np.isfinite(X).all()):
        raise ValueError("weights and points must be finite")
    Wt = np.ascontiguousarray(W.T)  # (m, n_samples)
    points = X.T[:, :, None]  # (input_dim, n_points, 1)
    depth = len(network.layers)
    cut = _cut_layer(network, X.shape[0]) if traces else None
    old_bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            if cut is not None:
                bits = _layers(network, Wt, points, 0, cut + 1, bits=True)
                try:
                    table = _layers(network, Wt, _corners(len(bits)), cut + 1, depth)[0] > 0
                except CapExceededError:  # perhaps at a corner no point realizes
                    cut = None
                else:
                    return shannon_compose(bits, table[:, None, :]).T
            out = _layers(network, Wt, points, 0, depth)[0]
    finally:
        np.setbufsize(old_bufsize)
    return (out > 0).T if traces else out.T.copy()


def _layers(network: NetworkSpec, Wt, values, first: int, stop: int, bits: bool = False):
    """Layers first..stop-1 of forward_batch's layer loop on `values`, the
    (fan_in, rows, 1 or n_samples) outputs of layer first - 1 (for first = 0,
    the inputs as columns) on `rows` points or corners. Returns the last
    layer's (width, rows, n_samples) float plane; with bits=True that layer
    is a threshold layer and the plane is bool. _apply_activation_batch
    writes every activation, into either plane. An overflow under the
    caller's np.errstate is a CapExceededError naming its stage."""
    s = Wt.shape[1]
    rows = values.shape[1]
    pos = sum(network.layers[i].width * (network.fan_in(i) + 1) for i in range(first))
    stage = "activation input"
    try:
        for i in range(first, stop):
            layer = network.layers[i]
            fan_in = network.fan_in(i)
            as_bits = bits and i == stop - 1
            out = np.empty((layer.width, rows, s), dtype=bool if as_bits else float)
            pre_plane = np.empty((rows, s)) if as_bits else None
            scratch = np.empty((rows, s)) if fan_in > 1 else None
            for node in range(layer.width):
                plane = out[node]
                pre = np.multiply(values[0], Wt[pos], out=pre_plane if as_bits else plane)
                for j in range(1, fan_in):
                    pre += np.multiply(values[j], Wt[pos + j], out=scratch)
                pre += Wt[pos + fan_in]
                pos += fan_in + 1
                if i == len(network.layers) - 1:
                    stage = "network output"
                _apply_activation_batch(layer.activation, pre, out=plane)
            values = out
    except FloatingPointError:
        raise CapExceededError(f"{stage} must be finite: the forward pass overflowed") from None
    return values


def _corners(w: int) -> np.ndarray:
    """The 2^w corners of {0,1}^w as (w, 2^w, 1) float columns: corner k has
    coordinate j = (k >> j) & 1."""
    k = np.arange(2**w)
    return ((k >> np.arange(w)[:, None]) & 1).astype(float)[:, :, None]


def shannon_compose(bits, table):
    """Compose a corner table through hidden bit planes: out[e] =
    table[k][e] where k = sum_j bits[j][e] << j, for every entry e.

    bits: (w, ...) planes t_0..t_{w-1}; table: (2^w, ...) with table[k]
    the output at the corner whose coordinate j is (k >> j) & 1, both
    broadcasting to one plane shape. Each step is Shannon's cofactor step
    on the top variable, new = (t & hi) | (~t & lo) over the table's two
    halves, written lo ^ (t & (hi ^ lo)); it halves the table, and w steps
    leave one plane. Only bitwise operators are used, so bool planes and
    planes of packed uint64 words compose alike."""
    for t in bits[::-1]:
        half = len(table) // 2
        lo, hi = table[:half], table[half:]
        table = lo ^ (t & (hi ^ lo))
    return table[0]


def _cut_layer(network: NetworkSpec, n: int):
    """The hidden layer forward_batch's trace mode cuts at on n points: the
    first threshold layer of width w with 2^w < n whose Shannon steps cost
    less than the float passes they save, else None. The steps take 2^w + 3
    (2^(w-1) - 1) bool plane passes; a layer after the cut takes at least
    width x (2 fan_in + 1) float passes (products, sums, bias, activation)
    on every point, of which the corner pass still runs the 2^w / n share. A
    bool pass (and, xor: one byte an entry) counts as _BOOL_PASS_SHARE = 1/8
    of a float pass (eight bytes an entry). With numpy 2.4 on x86-64 an and
    takes about 3 us per 65536 entries against 17 for a multiply, and an
    activation is one float pass (relu) to about ten (tanh), so the float
    side is a lower bound: on 1-w-1 threshold nets (w = 2, 3, 4) the cut
    trace pass measured 0.2-0.9 of the uncut one wherever this rule cuts."""
    for c, layer in enumerate(network.layers[:-1]):
        w = layer.width
        if layer.activation.kind != "threshold" or 2**w >= n:
            continue
        after = sum(network.layers[i].width * (2 * network.fan_in(i) + 1)
                    for i in range(c + 1, len(network.layers)))
        steps = 2**w + 3 * (2 ** (w - 1) - 1)
        if steps * _BOOL_PASS_SHARE * n < after * (n - 2**w):
            return c
    return None


# --------------------------------------------------------------------------
# Baseline classes with exact combinatorics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearThreshold:
    """Affine threshold functions on R^dim: x -> [w.x + b > 0]."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("LinearThreshold dim must be positive")


def named_point_set(points, name: str) -> PointSet:
    """PointSet(points), its rule (distinct, one dimension) broken as a
    ConfigError that starts with `name`: "domain points must be ..."."""
    try:
        return PointSet(points=points)
    except ConfigError as e:
        raise ConfigError(f"{name} {e}") from None


@dataclass(frozen=True)
class UnionOfMPoints:
    """All subsets of size <= capacity of a declared finite domain.

    This is the sharpness example: VC-dimension and VC-density both equal
    the capacity.
    """

    capacity: int
    domain: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.capacity < 0:
            raise ConfigError("capacity must be >= 0")
        named_point_set(self.domain, "domain")


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite class given by its full trace list over a declared domain."""

    domain: tuple[tuple[float, ...], ...]
    traces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        named_point_set(self.domain, "domain")
        for t in self.traces:
            if len(t) != len(self.domain):
                raise ConfigError("trace length must match domain size")
            for b in t:
                if isinstance(b, bool) or b not in (0, 1):
                    raise ConfigError(f"trace entries must be 0 or 1, got {b!r}")
        object.__setattr__(self, "traces", tuple(dict.fromkeys(self.traces)))


# --------------------------------------------------------------------------
# Config files (versioned JSON)
# --------------------------------------------------------------------------


def read_field(obj: dict, key: str, where: str):
    """obj[key], or a ConfigError naming the missing field."""
    if key not in obj:
        raise ConfigError(f"{where} missing field {key!r}")
    return obj[key]


def read_list(value, field: str) -> list:
    """`value` if it is a JSON list, else a ConfigError naming the field."""
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list, got {value!r}")
    return value


# longest integer an error message echoes in full
_SHOWN_DIGITS = 40


def shown_value(v) -> str:
    """str(v) for an error message; but an int of more than _SHOWN_DIGITS
    digits is named by its sign and digit count. The count is read off the
    bit length, so an int past Python's int-to-str digit limit is named too."""
    if not isinstance(v, int) or abs(v) < 10**_SHOWN_DIGITS:
        return str(v)
    digits = int(abs(v).bit_length() * math.log10(2)) + 1
    digits -= abs(v) < 10 ** (digits - 1)
    return f"{'a negative' if v < 0 else 'an'} integer of {digits} digits"


def read_number(value, field: str, whole: bool = False):
    """A JSON number, never a bool, as a float; with whole=True one with a
    whole value (x % 1 == 0, so not inf or nan), as an int. JSON integers
    are unbounded, so a float past the float range is a ConfigError too."""
    kind = "whole number" if whole else "number"
    if isinstance(value, bool) or not isinstance(value, (int, float)) or whole and value % 1:
        raise ConfigError(f"{field} must be a {kind}, got {value!r}")
    if whole:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"{field} must be a number within the float range, got {shown_value(value)}"
        ) from None


def _read_finite(value, field: str) -> float:
    """read_number, refusing the NaN and infinities Python's json accepts."""
    x = read_number(value, field)
    if not np.isfinite(x):
        raise ConfigError(f"{field} must be a finite number, got {x}")
    return x


def read_points(value, field: str) -> tuple[tuple[float, ...], ...]:
    """A JSON list of points, each a list of finite coordinates, as float
    tuples, else a ConfigError naming the field."""
    for p in read_list(value, field):
        if not isinstance(p, list):
            raise ConfigError(f"{field} must list points as lists, got {p!r}")
    return tuple(tuple(_read_finite(v, f"{field} coordinate") for v in p) for p in value)


def _parse_activation(obj) -> ActivationSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("activation must be an object with a 'kind' field")
    restriction = obj.get("restriction")
    if restriction is not None:
        field = "activation field 'restriction'"
        if len(read_list(restriction, field)) != 2:
            raise ConfigError(f"{field} must have two entries, got {restriction!r}")
        restriction = tuple(_read_finite(v, f"{field} entry") for v in restriction)
    coefficients = read_list(obj.get("coefficients", []), "activation field 'coefficients'")
    clamp_outside = obj.get("clamp_outside", False)
    if not isinstance(clamp_outside, bool):
        raise ConfigError(f"activation field 'clamp_outside' must be a bool, got {clamp_outside!r}")
    act = ActivationSpec(
        kind=obj["kind"],
        coefficients=tuple(_read_finite(c, "activation field 'coefficients' entry")
                           for c in coefficients),
        restriction=restriction,
    )
    # a restriction is checked either way, and kept only with "clamp_outside": true
    return act if clamp_outside else replace(act, restriction=None)


def parse_class_spec(doc: dict):
    """Parse an already-loaded JSON document into a NetworkSpec or baseline."""
    if isinstance(version := doc.get("schema_version"), bool) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported or missing schema_version (expected {SCHEMA_VERSION})"
        )
    kind = doc.get("kind")
    if kind == "network":
        net = doc.get("network")
        if not isinstance(net, dict):
            raise ConfigError("missing 'network' object")
        input_dim = read_field(net, "input_dim", "network spec")
        input_dim = read_number(input_dim, "network field 'input_dim'", whole=True)
        raw_layers = read_list(read_field(net, "layers", "network spec"), "network field 'layers'")
        layers = []
        prev = input_dim
        for i, entry in enumerate(raw_layers):
            if not isinstance(entry, dict):
                raise ConfigError(f"network layers[{i}] must be an object, got {entry!r}")
            where = f"network layers[{i}] field"
            width = read_number(entry.get("width", 1), f"{where} 'width'", whole=True)
            if width < 1:
                raise ConfigError(f"{where} 'width' must be >= 1, got {width}")
            if width > WEIGHT_CAP:  # a width-w layer has more than w weights
                raise CapExceededError(f"{where} 'width' {width} exceeds the weight cap "
                                       f"{WEIGHT_CAP}")
            fan_in = read_number(entry.get("fan_in", prev), f"{where} 'fan_in'", whole=True)
            if fan_in != prev:
                raise ConfigError(
                    f"layer fan_in {fan_in} != previous layer width {prev}"
                )
            act = _parse_activation(read_field(entry, "activation", f"network layers[{i}]"))
            layers.append(LayerSpec(width, act))
            prev = width
        return NetworkSpec(input_dim=input_dim, layers=tuple(layers))
    if kind == "baseline":
        base = doc.get("baseline")
        if not isinstance(base, dict):
            raise ConfigError("missing 'baseline' object")
        bkind = base.get("kind")
        where = f"{bkind} baseline"
        if bkind == "linear_threshold":
            dim = read_field(base, "dim", where)
            return LinearThreshold(dim=read_number(dim, f"{where} field 'dim'", whole=True))
        if bkind == "union_of_points":
            capacity = read_field(base, "capacity", where)
            return UnionOfMPoints(
                capacity=read_number(capacity, f"{where} field 'capacity'", whole=True),
                domain=read_points(read_field(base, "domain", where), f"{where} field 'domain'"),
            )
        if bkind == "explicit_finite":
            traces = read_list(read_field(base, "traces", where), f"{where} field 'traces'")
            if not traces:
                raise ConfigError(f"{where} field 'traces' must list at least one trace")
            return ExplicitFinite(
                domain=read_points(read_field(base, "domain", where), f"{where} field 'domain'"),
                traces=tuple(tuple(read_list(t, f"{where} field 'traces' entry")) for t in traces),
            )
        raise ConfigError(f"unknown baseline kind {bkind!r}")
    raise ConfigError(f"unknown class spec kind {kind!r}")


def read_json_object(path) -> dict:
    """The top-level object of a UTF-8 JSON file, else a ConfigError. An
    integer literal longer than int() reads (sys.get_int_max_str_digits())
    is named by its digit count, and arrays or objects nested past the
    recursion limit of Python's json decoder are refused."""
    def parse_int(literal: str) -> int:
        try:
            return int(literal)
        except ValueError:
            raise ConfigError(
                f"{path}: an integer of {len(literal.lstrip('-'))} digits is over Python's "
                f"{sys.get_int_max_str_digits()}-digit limit"
            ) from None

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=parse_int)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply to read "
                          "(past Python's recursion limit)") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def load_class_spec(path):
    """Load a network or baseline class from a versioned JSON file."""
    return parse_class_spec(read_json_object(path))
