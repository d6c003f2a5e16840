"""Binary hypothesis classes: small feed-forward networks with definable
activations, and exact baseline classes used as oracles.

A network with weight vector w defines the classifier x -> [v(x, w) > 0],
where v is its real output. `forward_batch` is the one evaluation path: it
computes v for a batch of weight vectors on a batch of points. The baseline
classes carry no evaluator; `dichotomy.trace_set` lists their traces
directly. Everything here is immutable and pure, so evaluation can be
parallelized freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapExceededError, ConfigError

ACTIVATION_KINDS = ("threshold", "logistic", "tanh", "relu", "polynomial", "identity")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ActivationSpec:
    """A scalar activation, optionally restricted to a closed interval.

    With ``restriction=(a, b)`` and ``clamp_outside=True`` the function is
    forced to 0 outside [a, b]; inside it agrees with the unrestricted kind.
    ``coefficients`` (ascending degree) are only used for kind='polynomial'.
    """

    kind: str
    coefficients: tuple[float, ...] = ()
    restriction: tuple[float, float] | None = None
    clamp_outside: bool = False

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
    """One fully-connected layer: ``activations[i]`` is applied to node i."""

    activations: tuple[ActivationSpec, ...]

    @property
    def width(self) -> int:
        return len(self.activations)


@dataclass(frozen=True)
class NetworkSpec:
    """Layered feed-forward topology. Each node computes an affine combination
    of the previous layer's outputs (fan-in weights plus one bias) followed by
    its activation. The final real output v classifies 1 iff v > 0.
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

    def fan_in(self, layer_index: int) -> int:
        return self.input_dim if layer_index == 0 else self.layers[layer_index - 1].width

    @property
    def weight_count(self) -> int:
        """m = sum over nodes of (fan-in + 1). Computed, never user-supplied."""
        return sum(
            layer.width * (self.fan_in(i) + 1) for i, layer in enumerate(self.layers)
        )


def _apply_activation_batch(act: ActivationSpec, t, out=None):
    """Evaluate the activation elementwise on a float array; raises
    CapExceededError if any input is not finite, before anything is written:
    from finite points and weights, only an overflow gets there.

    The result goes to `out`, a float array shaped like `t`, which may be
    `t` itself; with out=None a new array is returned. The clamp mask is
    taken from `t` before `out` is written. Outside the restriction interval
    a clamped activation gives exactly 0; threshold breaks the tie at 0
    downward (threshold(0) = 0).
    """
    if not np.isfinite(t).all():
        raise CapExceededError("activation input must be finite: the forward pass overflowed")
    clamp = None
    if act.restriction is not None and act.clamp_outside:
        a, b = act.restriction
        clamp = (t < a) | (t > b)
    if out is None:
        out = np.empty_like(t)
    if act.kind == "threshold":
        np.greater(t, 0, out=out)
    elif act.kind == "logistic":
        # pos and ~pos are disjoint, so writing out[pos] leaves t[~pos] intact
        pos = t >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        out[~pos] = e / (1.0 + e)
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


def forward_batch(network: NetworkSpec, W, X):
    """Forward pass for a batch of weight vectors on a batch of points.

    W: (n_samples, m) weight matrix, each row a flat weight vector in layer
    order, within each node [w_1..w_fanin, bias]; X: (n_points, input_dim).
    Returns (n_samples, n_points) real outputs of the single output node.

    Activations are carried node-major and point-major, as a (width,
    n_points, n_samples) array per layer: numpy runs a ufunc's inner loop
    along the last axis, so every multiply, add and activation loops over
    the weight rows, the long axis at the block sizes the sampler uses,
    rather than once per weight row over the points. W is transposed once,
    so each node reads contiguous (n_samples,) weight rows; the inputs
    broadcast as (n_points, 1) columns. A node's pre-activation is summed in
    its own plane of the layer buffer, in the fixed order w_1 a_1 + w_2 a_2
    + ... + w_fanin a_fanin (each product after the first formed in one
    scratch plane per layer), then the bias is added; its activation then overwrites the
    plane in place (_apply_activation_batch with out=pre), so threshold,
    tanh, relu and identity nodes allocate no temporary plane. Each entry
    sees the same float operations in the same order in any layout, so the
    values do not depend on it; the result is one transposed, C-contiguous
    copy of the output plane.
    """
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    s, m = W.shape
    if m != network.weight_count:
        raise ValueError("weight matrix width != network weight count")
    if X.ndim != 2 or X.shape[1] != network.input_dim:
        raise ValueError(f"points must be (n, input_dim = {network.input_dim}), got {X.shape}")
    n = X.shape[0]
    Wt = np.ascontiguousarray(W.T)  # (m, n_samples)
    values = X.T[:, :, None]  # (input_dim, n_points, 1)
    pos = 0
    for i, layer in enumerate(network.layers):
        fan_in = network.fan_in(i)
        out = np.empty((layer.width, n, s))
        scratch = np.empty((n, s)) if fan_in > 1 else None
        for node, act in enumerate(layer.activations):
            pre = np.multiply(values[0], Wt[pos], out=out[node])
            for j in range(1, fan_in):
                pre += np.multiply(values[j], Wt[pos + j], out=scratch)
            pre += Wt[pos + fan_in]
            pos += fan_in + 1
            _apply_activation_batch(act, pre, out=pre)
        values = out
    return values[0].T.copy()


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
        if len(set(self.domain)) != len(self.domain):
            raise ConfigError("domain points must be distinct")


@dataclass(frozen=True)
class ExplicitFinite:
    """A finite class given by its full trace list over a declared domain."""

    domain: tuple[tuple[float, ...], ...]
    traces: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for t in self.traces:
            if len(t) != len(self.domain):
                raise ConfigError("trace length must match domain size")
            for b in t:
                if b not in (0, 1):
                    raise ConfigError(f"trace entries must be 0 or 1, got {b!r}")
        deduped = tuple(dict.fromkeys(self.traces))
        if deduped != self.traces:
            object.__setattr__(self, "traces", deduped)


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
            f"{field} must be a number within the float range, got an integer of "
            f"{len(str(abs(value)))} digits"
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
    return ActivationSpec(
        kind=obj["kind"],
        coefficients=tuple(_read_finite(c, "activation field 'coefficients' entry")
                           for c in coefficients),
        restriction=restriction,
        clamp_outside=clamp_outside,
    )


def parse_class_spec(doc: dict):
    """Parse an already-loaded JSON document into a NetworkSpec or baseline."""
    if doc.get("schema_version") != SCHEMA_VERSION:
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
            fan_in = read_number(entry.get("fan_in", prev), f"{where} 'fan_in'", whole=True)
            if fan_in != prev:
                raise ConfigError(
                    f"layer fan_in {fan_in} != previous layer width {prev}"
                )
            act = _parse_activation(read_field(entry, "activation", f"network layers[{i}]"))
            layers.append(LayerSpec(activations=(act,) * width))
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
    """The top-level object of a UTF-8 JSON file, else a ConfigError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def load_class_spec(path):
    """Load a network or baseline class from a versioned JSON file."""
    return parse_class_spec(read_json_object(path))
