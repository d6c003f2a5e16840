"""Traces, dichotomy counting, shattering, brute-force VC-dimension, and
VC-density estimation.

Exact counting is provided for the linear-threshold class (margin LP over all
labelings) and for the combinatorial baselines (closed forms). For nonlinear
networks counts come from weight sampling and are certified lower bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linsep
from .errors import CapExceededError, ConfigError
from .hypotheses import (
    ActivationSpec,
    BaselineClass,
    ExplicitFinite,
    Hypothesis,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    baseline_membership,
    evaluate,
    forward_batch,
)
from .pointsets import PointSet, random_general_position, simplex_vertices

# exact LTF enumeration solves 2^(n-1) margin LPs, so n and d are capped
EXACT_LTF_POINT_CAP = 20
EXACT_LTF_DIM_CAP = 4
SHATTER_CAP = 16
TRACE_CAP = 200000


@dataclass(frozen=True)
class Trace:
    """A hypothesis restricted to a finite point set, as a bit vector."""

    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)


def trace(h, B: PointSet) -> Trace:
    """Trace of a hypothesis on B: bit i = h(B[i]).

    `h` may be a Hypothesis, a (baseline_class, parameter) pair, or a
    callable point -> bit.
    """
    if isinstance(h, Hypothesis):
        bits = tuple(evaluate(h, p) for p in B.points)
    elif isinstance(h, tuple) and len(h) == 2 and isinstance(h[0], BaselineClass):
        cls, param = h
        bits = tuple(baseline_membership(cls, param, p) for p in B.points)
    elif callable(h):
        bits = tuple(int(h(p)) for p in B.points)
    else:
        raise TypeError(f"cannot trace {h!r}")
    return Trace(bits=bits)


def as_network(cls) -> NetworkSpec:
    """View a class as a network for weight sampling; LinearThreshold becomes
    a single threshold unit."""
    if isinstance(cls, NetworkSpec):
        return cls
    if isinstance(cls, LinearThreshold):
        act = ActivationSpec(kind="threshold")
        return NetworkSpec(input_dim=cls.dim, layers=(LayerSpec(activations=(act,)),))
    raise ConfigError(
        f"sampled counting needs a network or linear_threshold class, not {class_id(cls)}"
    )


# --------------------------------------------------------------------------
# Trace sets and counting
# --------------------------------------------------------------------------


def _packed(bits) -> np.ndarray:
    """Distinct rows of a 0/1 matrix as sorted np.packbits rows."""
    return np.unique(np.packbits(np.asarray(bits, dtype=bool), axis=1), axis=0)


def trace_set(
    cls, B: PointSet, budget: int = 20000, seed: int = 0
) -> tuple[np.ndarray, bool]:
    """Distinct traces of the class on B, as sorted np.packbits rows (unpack
    with count=len(B)), and whether the set is exact.

    Exact for the baselines: LTF traces by margin LP, union-of-points traces
    as the subsets of B's in-domain points, explicit-finite traces by
    projection. For networks the set comes from weight sampling and is a
    subset of the true trace set (exact=False).
    """
    k = len(B)
    if isinstance(cls, LinearThreshold):
        if k > EXACT_LTF_POINT_CAP:
            raise CapExceededError(f"|B| = {k} exceeds exact LTF cap {EXACT_LTF_POINT_CAP}")
        if k and B.dim != cls.dim:
            raise ValueError(f"point dim {B.dim} != class dim {cls.dim}")
        if cls.dim > EXACT_LTF_DIM_CAP:
            raise CapExceededError(f"dimension {cls.dim} exceeds exact LTF cap {EXACT_LTF_DIM_CAP}")
        traces = linsep.enumerate_ltf_traces(B.as_array())
        return _packed(np.reshape(traces, (len(traces), k))), True
    if isinstance(cls, UnionOfMPoints):
        in_dom = [i for i, p in enumerate(B.points) if p in cls.domain]
        sizes = range(min(cls.capacity, len(in_dom)) + 1)
        total = sum(math.comb(len(in_dom), r) for r in sizes)
        if total > TRACE_CAP:
            raise CapExceededError(f"{total} traces exceed trace cap {TRACE_CAP}")
        bits = np.zeros((total, k), dtype=bool)
        subsets = (c for r in sizes for c in itertools.combinations(in_dom, r))
        for row, subset in zip(bits, subsets):
            row[list(subset)] = True
        return _packed(bits), True
    if isinstance(cls, ExplicitFinite):
        for p in B.points:
            if p not in cls.domain:
                raise ConfigError(f"point {p} outside the declared domain")
        idx = [cls.domain.index(p) for p in B.points]
        traces = np.reshape(cls.traces, (len(cls.traces), len(cls.domain)))
        return _packed(traces[:, idx]), True
    if isinstance(cls, NetworkSpec):
        return sampled_trace_set(cls, B, budget, seed), False
    raise TypeError(f"no trace set for {cls!r}")


def count_dichotomies_exact_ltf(B: PointSet) -> int:
    """Exact number of affine-threshold dichotomies of B, by testing every
    labeling with the maximum-margin LP."""
    return len(trace_set(LinearThreshold(dim=B.dim or 1), B)[0])


def default_weight_box(B: PointSet) -> tuple[float, float]:
    """Symmetric sampling box wide enough that biases can offset any point."""
    if len(B) == 0:
        return (-1.0, 1.0)
    r = 1.0 + float(np.max(np.abs(B.as_array())))
    return (-r, r)


def sampled_trace_set(
    cls, B: PointSet, budget: int, seed: int, box: tuple[float, float] | None = None
) -> np.ndarray:
    """Distinct traces found by drawing `budget` weight vectors componentwise
    uniform on `box`, as sorted np.packbits rows. A subset of the true trace
    set: every returned trace is realized by an explicit weight vector."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    net = as_network(cls)
    if len(B) and B.dim != net.input_dim:
        raise ValueError(f"point dim {B.dim} != network input_dim {net.input_dim}")
    lo, hi = box if box is not None else default_weight_box(B)
    rng = np.random.default_rng(seed)
    X = B.as_array().reshape(len(B), net.input_dim)
    found = []
    chunk = 8192
    drawn = 0
    while drawn < budget:
        take = min(chunk, budget - drawn)
        W = rng.uniform(lo, hi, size=(take, net.weight_count))
        drawn += take
        found.append(_packed(forward_batch(net, W, X) > 0))
    return np.unique(np.concatenate(found), axis=0)


def count_dichotomies_sampled(
    cls, B: PointSet, budget: int, seed: int, box: tuple[float, float] | None = None
) -> int:
    """Certified lower bound on the dichotomy count of B (tag: lower_bound).

    Monotone nondecreasing in budget for a fixed seed: the first `budget`
    draws of a longer run coincide with a shorter run's draws.
    """
    return len(sampled_trace_set(cls, B, budget, seed, box=box))


def growth_function_oracle(c: BaselineClass, n: int):
    """Exact growth function value for a baseline class at set size n.

    Python integers are unbounded, so no overflow guard is needed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(c, UnionOfMPoints):
        return sum(math.comb(n, i) for i in range(min(c.capacity, n) + 1))
    if isinstance(c, LinearThreshold):
        if n <= c.dim + 1:
            return 2**n
        # Cover's count for n points in general position in R^d
        return 2 * sum(math.comb(n - 1, i) for i in range(c.dim + 1))
    if isinstance(c, ExplicitFinite):
        if n >= len(c.domain):
            return len(set(c.traces))
        best = 0
        subsets = itertools.combinations(range(len(c.domain)), n)
        for count, idx in enumerate(subsets):
            if count > 100000:
                raise CapExceededError("too many subsets for exhaustive growth count")
            best = max(best, len({tuple(t[i] for i in idx) for t in c.traces}))
        return best
    raise ConfigError(f"oracle growth needs a baseline class, not {class_id(c)}")


def sauer_shelah_cap(d: int, n: int):
    """Sum_{i=0}^{min(d,n)} C(n, i): the exact ceiling on the number of
    dichotomies of an n-set for a class of VC-dimension d."""
    if d < 0 or n < 0:
        raise ValueError("d and n must be >= 0")
    return sum(math.comb(n, i) for i in range(min(d, n) + 1))


# --------------------------------------------------------------------------
# Shattering and VC-dimension
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ShatterResult:
    """`exact=False` marks a sampled negative: the missing labeling was not
    found within budget, which does not prove it unrealizable."""

    shattered: bool
    exact: bool

    def __bool__(self) -> bool:
        return self.shattered


def is_shattered(cls, B: PointSet, budget: int = 20000, seed: int = 0) -> ShatterResult:
    """Whether the class realizes all 2^|B| labelings of B."""
    k = len(B)
    if k > SHATTER_CAP:
        raise CapExceededError(f"|B| = {k} exceeds shattering cap {SHATTER_CAP}")
    rows, exact = trace_set(cls, B, budget, seed)
    shattered = len(rows) == 2**k
    # every sampled trace carries a witness, so a positive is exact
    return ShatterResult(shattered=shattered, exact=exact or shattered)


@dataclass(frozen=True)
class VcDimResult:
    """`saturated=True` means a set of size max_d was shattered, so the
    result reads ">= max_d". A plain value is a lower bound certified by a
    shattered set plus failure to shatter anything larger among candidates."""

    value: int
    saturated: bool

    def __str__(self) -> str:
        return f">={self.value}" if self.saturated else str(self.value)


def _candidate_sets(cls, size: int, rng: np.random.Generator, tries: int):
    """Structured candidates first (simplex vertices, domain subsets), then
    random draws."""
    if isinstance(cls, (UnionOfMPoints, ExplicitFinite)):
        combos = itertools.islice(
            itertools.combinations(cls.domain, size), tries
        )
        for combo in combos:
            yield PointSet(points=combo)
        return
    dim = cls.dim if isinstance(cls, LinearThreshold) else cls.input_dim
    if size == dim + 1:
        yield simplex_vertices(dim)
    n_random = max(tries - (1 if size == dim + 1 else 0), 1)
    for _ in range(n_random):
        yield random_general_position(size, dim, rng)


def vc_dim_bruteforce(
    cls,
    max_d: int,
    seed: int = 0,
    tries: int = 12,
    budget: int = 20000,
) -> VcDimResult:
    """Largest set size <= max_d for which some candidate point set is
    shattered. Failure to find a shattered set is a lower-bound failure, not
    a proof, except where shattering checks are exact and the class geometry
    makes candidates exhaustive (the combinatorial baselines)."""
    if max_d > SHATTER_CAP:
        raise CapExceededError(f"max_d {max_d} exceeds shattering cap {SHATTER_CAP}")
    rng = np.random.default_rng(seed)
    best = 0
    for size in range(1, max_d + 1):
        # once the closed-form growth falls below 2^size no set of this size
        # is shattered, nor any larger one (growth at most doubles per point)
        closed_form = isinstance(cls, (LinearThreshold, UnionOfMPoints))
        if closed_form and growth_function_oracle(cls, size) < 2**size:
            break
        for B in _candidate_sets(cls, size, rng, tries):
            if is_shattered(cls, B, budget=budget, seed=seed):
                best = size
                break
    return VcDimResult(value=best, saturated=(best == max_d))


# --------------------------------------------------------------------------
# Growth sampling and VC-density fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthSample:
    n: int
    count: int
    exactness: str  # "exact" | "lower_bound"

    def __post_init__(self):
        if not (1 <= self.count <= 2**self.n):
            raise ValueError(f"count {self.count} outside [1, 2^{self.n}]")
        if self.exactness not in ("exact", "lower_bound"):
            raise ValueError(f"bad exactness tag {self.exactness!r}")


@dataclass(frozen=True)
class GrowthEstimate:
    samples: tuple[GrowthSample, ...]
    class_id: str
    policy: str
    seed: int


@dataclass(frozen=True)
class DensityEstimate:
    slope: float
    fit_range: tuple[int, int]
    residual: float


def class_id(cls) -> str:
    if isinstance(cls, LinearThreshold):
        return f"linear_threshold_d{cls.dim}"
    if isinstance(cls, UnionOfMPoints):
        return f"union_of_points_m{cls.capacity}"
    if isinstance(cls, ExplicitFinite):
        return f"explicit_finite_{len(cls.traces)}traces"
    if isinstance(cls, NetworkSpec):
        return f"network_m{cls.weight_count}"
    return type(cls).__name__


def growth_samples(
    cls,
    n_values,
    method: str = "auto",
    draws: int = 3,
    budget: int = 20000,
    seed: int = 0,
) -> GrowthEstimate:
    """Growth-function samples for a class over the given set sizes.

    Per set size the count is maximized over several random point-set draws,
    mirroring the max over configurations in the growth function's
    definition. Methods: 'oracle' (closed form, baselines), 'exact' (LP
    enumeration, LinearThreshold, small n), 'sampled' (weight sampling,
    lower bounds). 'auto' picks oracle for baselines, sampled for networks.
    """
    if method == "auto":
        method = "sampled" if isinstance(cls, NetworkSpec) else "oracle"
    samples = []
    rng = np.random.default_rng(seed)
    for n in sorted(set(int(n) for n in n_values)):
        if method == "oracle":
            samples.append(
                GrowthSample(n=n, count=growth_function_oracle(cls, n), exactness="exact")
            )
        elif method == "exact":
            if not isinstance(cls, LinearThreshold):
                raise ConfigError("exact growth counting is only available for linear_threshold")
            best = 0
            for _ in range(draws):
                B = random_general_position(n, cls.dim, rng)
                best = max(best, count_dichotomies_exact_ltf(B))
            samples.append(GrowthSample(n=n, count=best, exactness="exact"))
        elif method == "sampled":
            net = as_network(cls)
            best = 0
            for j in range(draws):
                B = random_general_position(n, net.input_dim, rng)
                best = max(best, count_dichotomies_sampled(cls, B, budget, seed=seed + j))
            samples.append(GrowthSample(n=n, count=best, exactness="lower_bound"))
        else:
            raise ConfigError(f"unknown growth method {method!r}")
    return GrowthEstimate(
        samples=tuple(samples), class_id=class_id(cls), policy=method, seed=seed
    )


@dataclass(frozen=True)
class FitPolicy:
    """log-log fit policy: use the `upper_fraction` largest n values, never
    fewer than `min_points` (lower-order terms pollute small n)."""

    upper_fraction: float = 0.5
    min_points: int = 3


def estimate_vc_density(g: GrowthEstimate, policy: FitPolicy = FitPolicy()) -> DensityEstimate:
    """Least-squares slope of log(count) against log(n) (natural logs; the
    slope is base-invariant)."""
    samples = sorted(g.samples, key=lambda s: s.n)
    if len(samples) < 3:
        raise ValueError("need at least 3 growth samples")
    ns = [s.n for s in samples]
    if max(ns) < 4 * min(ns):
        raise ValueError("set sizes must span at least a factor of 4")
    take = max(policy.min_points, math.ceil(len(samples) * policy.upper_fraction))
    fit = samples[-take:]
    x = np.log([s.n for s in fit])
    y = np.log([float(s.count) for s in fit])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DensityEstimate(
        slope=max(float(slope), 0.0),
        fit_range=(fit[0].n, fit[-1].n),
        residual=resid,
    )
