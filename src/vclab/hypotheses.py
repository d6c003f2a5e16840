"""Binary hypothesis classes: small feed-forward networks with definable
activations, and exact baseline classes used as oracles.

A network with weight vector w defines the classifier x -> [forward(x, w) > 0].
Everything here is immutable and pure, so evaluation can be parallelized freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

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


def apply_activation(act: ActivationSpec, t: float) -> float:
    """Evaluate the activation at t (a 1-element batch).

    Outside the restriction interval a clamped activation returns exactly 0.
    The threshold kind breaks the tie at 0 downward: threshold(0) = 0.
    """
    return float(_apply_activation_batch(act, np.array([t], dtype=float))[0])


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


@dataclass(frozen=True)
class WeightVector:
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Hypothesis:
    network: NetworkSpec
    weights: WeightVector

    def __post_init__(self):
        if len(self.weights) != self.network.weight_count:
            raise ConfigError(
                f"weight vector length {len(self.weights)} != "
                f"network weight count {self.network.weight_count}"
            )


def forward(network: NetworkSpec, weights, x) -> float:
    """Real-valued forward pass at one point (a 1x1 batch); `weights` is a
    flat sequence in layer order, within each node [w_1..w_fanin, bias]."""
    return float(forward_batch(network, [weights], [x])[0, 0])


def evaluate(h: Hypothesis, x) -> int:
    """Binary output of the hypothesis at x: 1 iff the output node's value > 0."""
    if len(x) != h.network.input_dim:
        raise ValueError(
            f"point dimension {len(x)} != network input_dim {h.network.input_dim}"
        )
    return 1 if forward(h.network, h.weights.values, x) > 0 else 0


def _apply_activation_batch(act: ActivationSpec, t):
    """Evaluate the activation elementwise on a float array; raises
    ValueError if any input is not finite."""
    if not np.isfinite(t).all():
        raise ValueError("activation input must be finite")
    if act.kind == "threshold":
        out = (t > 0).astype(float)
    elif act.kind == "logistic":
        out = np.empty_like(t)
        pos = t >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
        e = np.exp(t[~pos])
        out[~pos] = e / (1.0 + e)
    elif act.kind == "tanh":
        out = np.tanh(t)
    elif act.kind == "relu":
        out = np.maximum(t, 0.0)
    elif act.kind == "polynomial":
        out = np.zeros_like(t)
        for c in reversed(act.coefficients):
            out = out * t + c
    elif act.kind == "identity":
        out = np.asarray(t, dtype=float).copy()
    else:
        raise AssertionError(act.kind)
    if act.restriction is not None and act.clamp_outside:
        a, b = act.restriction
        out = np.where((t < a) | (t > b), 0.0, out)
    return out


def forward_batch(network: NetworkSpec, W, X):
    """Forward pass for a batch of weight vectors on a batch of points.

    W: (n_samples, m) weight matrix, X: (n_points, input_dim).
    Returns (n_samples, n_points) real outputs of the single output node.
    """
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    s, m = W.shape
    if m != network.weight_count:
        raise ValueError("weight matrix width != network weight count")
    # values: (s, n_points, width)
    values = np.broadcast_to(X, (s,) + X.shape)
    pos = 0
    for i, layer in enumerate(network.layers):
        fan_in = network.fan_in(i)
        cols = []
        for act in layer.activations:
            w = W[:, pos : pos + fan_in]           # (s, fan_in)
            bias = W[:, pos + fan_in]              # (s,)
            pos += fan_in + 1
            pre = np.einsum("spj,sj->sp", values, w) + bias[:, None]
            cols.append(_apply_activation_batch(act, pre))
        values = np.stack(cols, axis=-1)
    return values[:, :, 0]


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
        deduped = tuple(dict.fromkeys(self.traces))
        if deduped != self.traces:
            object.__setattr__(self, "traces", deduped)
        for t in self.traces:
            if len(t) != len(self.domain):
                raise ConfigError("trace length must match domain size")


BaselineClass = LinearThreshold | UnionOfMPoints | ExplicitFinite


def baseline_membership(c: BaselineClass, parameter, x) -> int:
    """Indicator of x in the set selected by `parameter` within class c.

    LinearThreshold: parameter = (w, b); UnionOfMPoints: parameter = iterable
    of <= capacity domain points; ExplicitFinite: parameter = trace index.
    """
    xt = tuple(x)
    if isinstance(c, LinearThreshold):
        w, b = parameter
        if len(w) != c.dim or len(xt) != c.dim:
            raise ValueError("weight/point dimension mismatch")
        return 1 if sum(wi * xi for wi, xi in zip(w, xt)) + b > 0 else 0
    if isinstance(c, UnionOfMPoints):
        chosen = [tuple(p) for p in parameter]
        if len(chosen) > c.capacity:
            raise ValueError(f"parameter selects {len(chosen)} points > capacity {c.capacity}")
        for p in chosen:
            if p not in c.domain:
                raise ValueError(f"point {p} not in declared domain")
        return 1 if xt in chosen else 0
    if isinstance(c, ExplicitFinite):
        idx = int(parameter)
        if not 0 <= idx < len(c.traces):
            raise ValueError("trace index out of range")
        try:
            j = c.domain.index(xt)
        except ValueError:
            raise ValueError(f"point {xt} not in declared domain") from None
        return c.traces[idx][j]
    raise TypeError(f"not a baseline class: {c!r}")


# --------------------------------------------------------------------------
# Config files (versioned JSON)
# --------------------------------------------------------------------------


def _parse_activation(obj) -> ActivationSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("activation must be an object with a 'kind' field")
    restriction = obj.get("restriction")
    return ActivationSpec(
        kind=obj["kind"],
        coefficients=tuple(obj.get("coefficients", ())),
        restriction=tuple(restriction) if restriction is not None else None,
        clamp_outside=bool(obj.get("clamp_outside", False)),
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
        try:
            input_dim = int(net["input_dim"])
            raw_layers = net["layers"]
        except KeyError as e:
            raise ConfigError(f"network spec missing field {e.args[0]!r}") from None
        layers = []
        prev = input_dim
        for entry in raw_layers:
            width = int(entry.get("width", 1))
            fan_in = int(entry.get("fan_in", prev))
            if fan_in != prev:
                raise ConfigError(
                    f"layer fan_in {fan_in} != previous layer width {prev}"
                )
            act = _parse_activation(entry["activation"])
            layers.append(LayerSpec(activations=(act,) * width))
            prev = width
        return NetworkSpec(input_dim=input_dim, layers=tuple(layers))
    if kind == "baseline":
        base = doc.get("baseline")
        if not isinstance(base, dict):
            raise ConfigError("missing 'baseline' object")
        bkind = base.get("kind")
        if bkind == "linear_threshold":
            return LinearThreshold(dim=int(base["dim"]))
        if bkind == "union_of_points":
            return UnionOfMPoints(
                capacity=int(base["capacity"]),
                domain=tuple(tuple(float(v) for v in p) for p in base["domain"]),
            )
        if bkind == "explicit_finite":
            return ExplicitFinite(
                domain=tuple(tuple(float(v) for v in p) for p in base["domain"]),
                traces=tuple(tuple(int(b) for b in t) for t in base["traces"]),
            )
        raise ConfigError(f"unknown baseline kind {bkind!r}")
    raise ConfigError(f"unknown class spec kind {kind!r}")


def load_class_spec(path):
    """Load a network or baseline class from a versioned JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_class_spec(doc)
