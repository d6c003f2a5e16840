"""Trace sets, dichotomy counting, shattering, brute-force VC-dimension,
and VC-density estimation.

`trace_set` is the one trace primitive: the distinct traces of a class on a
point set, as sorted np.packbits rows. Counting, shattering and `ucheck`
all read it. It is exact for the linear-threshold class (cells of the
hyperplane arrangement, with exact determinant signs) and for the
combinatorial baselines. For nonlinear networks traces come from weight
sampling, so counts are certified lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linsep
from .errors import CapExceededError, ConfigError
from .hypotheses import (
    WEIGHT_CAP,
    ActivationSpec,
    ExplicitFinite,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    forward_batch,
)
from .pointsets import (
    PointSet,
    random_general_position,
    random_points,
    simplex_vertices,
    subset_table,
)

# exact LTF enumeration visits the C(n, d) hyperplanes through d of the
# points at once: filtered float determinants give the n sides of each (an
# integer Bareiss determinant decides the signs the float error bound cannot),
# 2^d candidate rows per hyperplane and their complements are deduped, and
# up to 2 * sum_{i<=d} C(n-1, i) traces remain, so n and d are capped
EXACT_LTF_POINT_CAP = 20
EXACT_LTF_DIM_CAP = 4
SHATTER_CAP = 16
TRACE_CAP = 200000
# weight vectors drawn per sampled trace set unless a caller says otherwise
DEFAULT_BUDGET = 20000
# index subsets the explicit-finite growth oracle visits at most
ORACLE_SUBSET_CAP = 100001
FIT_MIN_POINTS = 3
# weight-row x point entries per sampled forward-pass block: one (rows, n)
# float plane is 512 KB, which stays in a per-core L2 cache at any n; the
# block's weights and layer buffers stay within WEIGHT_CAP = 4 such planes
_BLOCK_ENTRIES = 1 << 16


def as_network(cls) -> NetworkSpec:
    """View a class as a network for weight sampling; LinearThreshold becomes
    a single threshold unit."""
    if isinstance(cls, NetworkSpec):
        return cls
    if isinstance(cls, LinearThreshold):
        return NetworkSpec(input_dim=cls.dim, layers=(LayerSpec(1, ActivationSpec("threshold")),))
    raise ConfigError(
        f"sampled counting needs a network or linear_threshold class, not {class_id(cls)}"
    )


# --------------------------------------------------------------------------
# Trace sets and counting
# --------------------------------------------------------------------------


def _packed(bits) -> np.ndarray:
    """Distinct rows of a 0/1 matrix as sorted np.packbits rows."""
    return linsep.unique_rows(linsep.pack_rows(bits))


def trace_set(
    cls, B: PointSet, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> tuple[np.ndarray, bool]:
    """Distinct traces of the class on B, as sorted np.packbits rows (unpack
    with count=len(B)), and whether the set is exact.

    Exact for the baselines: LTF rows as linsep.enumerate_ltf_traces returns
    them (the cells of the hyperplane arrangement), union-of-points traces as
    the subsets of B's in-domain points, explicit-finite traces by
    projection. For networks the set comes from weight sampling and is a
    subset of the true trace set (exact=False).
    """
    k = len(B)
    if isinstance(cls, LinearThreshold):
        _check_exact_ltf(cls, k)
        if k and B.dim != cls.dim:
            raise ValueError(f"point dim {B.dim} != class dim {cls.dim}")
        return linsep.enumerate_ltf_traces(B.as_array()), True
    if isinstance(cls, UnionOfMPoints):
        in_dom = np.array([i for i, p in enumerate(B.points) if p in cls.domain], np.intp)
        sizes = range(min(cls.capacity, len(in_dom)) + 1)
        total = sum(math.comb(len(in_dom), r) for r in sizes)
        if total > TRACE_CAP:
            raise CapExceededError(f"{total} traces exceed trace cap {TRACE_CAP}")
        bits = np.zeros((total, k), dtype=bool)  # one row per subset of size <= capacity
        top = 0
        for r in sizes:
            table = subset_table(len(in_dom), r)
            bits[np.arange(top, top + len(table))[:, None], in_dom[table]] = True
            top += len(table)
        return _packed(bits), True
    if isinstance(cls, ExplicitFinite):
        if outside := [p for p in B.points if p not in cls.domain]:
            raise ConfigError(f"point {outside[0]} outside the declared domain")
        idx = [cls.domain.index(p) for p in B.points]
        traces = np.reshape(cls.traces, (len(cls.traces), len(cls.domain)))
        return _packed(traces[:, idx]), True
    if isinstance(cls, NetworkSpec):
        return sampled_trace_set(cls, B, budget, seed), False
    raise TypeError(f"no trace set for {cls!r}")


def _check_exact_ltf(cls: LinearThreshold, k: int) -> None:
    """The caps of exact LTF enumeration on k points, which growth_samples
    checks before it draws them."""
    if k > EXACT_LTF_POINT_CAP:
        raise CapExceededError(f"|B| = {k} exceeds exact LTF cap {EXACT_LTF_POINT_CAP}")
    if cls.dim > EXACT_LTF_DIM_CAP:
        raise CapExceededError(f"dimension {cls.dim} exceeds exact LTF cap {EXACT_LTF_DIM_CAP}")


def default_weight_box(B: PointSet) -> tuple[float, float]:
    """Symmetric sampling box [-r, r], r = 1 + max |coordinate|, wide enough
    that biases can offset any point; a box whose width 2r is past the float
    range is a CapExceededError."""
    r = 1.0 + float(np.abs(B.as_array()).max(initial=0.0))
    if not math.isfinite(2 * r):
        raise CapExceededError(f"the weight box [-{r:.6g}, {r:.6g}] is wider than the "
                               f"float range")
    return (-r, r)


def sampled_trace_set(cls, B: PointSet, budget: int, seed: int) -> np.ndarray:
    """Distinct traces found by drawing `budget` weight vectors componentwise
    uniform on default_weight_box(B), as sorted np.packbits rows. A subset of
    the true trace set: every returned trace is realized by an explicit
    weight vector. Monotone in budget for a fixed seed: the first `budget`
    draws of a longer run coincide with a shorter run's draws.

    Weights are drawn and evaluated in blocks of _block_rows weight rows, so
    memory is bounded by the block, not by `budget`, |B|, the layer widths
    or m. The generator fills each block row by row, one double at a time,
    so the weights, and hence the traces, are the same for any block size.
    Each weight is lo + (hi - lo) * u for the generator's next double u,
    which is how rng.uniform(lo, hi) computes it, bit for bit.

    Each block's traces come from forward_batch(net, W, X, traces=True),
    looked up as `dichotomy.forward_batch`: the bits v > 0 of the real
    outputs, with no float output copied. Past a threshold hidden layer
    of width w with 2^w < |B| that pass may run the later layers on
    the layer's 2^w cube corners alone and compose each point's bit by
    Shannon steps; it gives the same bits and raises only where the full
    pass on the points would (see forward_batch)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    net = as_network(cls)
    if len(B) and B.dim != net.input_dim:
        raise ValueError(f"point dim {B.dim} != network input_dim {net.input_dim}")
    rows = _block_rows(net, len(B))
    lo, hi = default_weight_box(B)
    rng = np.random.default_rng(seed)
    X = B.as_array().reshape(len(B), net.input_dim)
    found = []
    for drawn in range(0, budget, rows):
        W = rng.random((min(rows, budget - drawn), net.weight_count))
        W *= hi - lo
        W += lo
        found.append(_packed(forward_batch(net, W, X, traces=True)))
    return linsep.unique_rows(np.concatenate(found))


def _block_rows(net: NetworkSpec, n: int) -> int:
    """Weight rows per sampled block on n points: _BLOCK_ENTRIES // n (at
    least 1), fewer where the weights (rows x m) or a layer buffer (width x
    n x rows) would pass WEIGHT_CAP entries. NetworkSpec keeps m within it;
    a layer too wide for even one row on n points is a CapExceededError,
    which growth_samples checks at its largest n before it draws points."""
    widest = max(layer.width for layer in net.layers)
    if widest * n > WEIGHT_CAP:
        raise CapExceededError(f"a layer of width {widest} on {n} points exceeds the weight "
                               f"cap {WEIGHT_CAP} for one weight row")
    rows = min(_BLOCK_ENTRIES // max(n, 1), WEIGHT_CAP // max(net.weight_count, widest * n))
    return max(1, rows)


def growth_function_oracle(c, n: int):
    """Exact growth function value for a baseline class at set size n. An
    explicit-finite class with t traces on k points walks the r-subsets of
    its domain, r = min(n, k), one trace count each (at most
    ORACLE_SUBSET_CAP of them), and stops at the first with min(t, 2^r)
    traces, which no r-set exceeds.

    Python integers are unbounded, so no overflow guard is needed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(c, UnionOfMPoints):
        return sauer_shelah_cap(c.capacity, n)
    if isinstance(c, LinearThreshold):
        # Cover's count for n points in general position in R^d (2^n for n <= d+1)
        return 2 * sauer_shelah_cap(c.dim, n - 1) if n else 1
    if isinstance(c, ExplicitFinite):
        k, t = len(c.domain), len(c.traces)
        r = min(n, k)
        if (subsets := math.comb(k, r)) > ORACLE_SUBSET_CAP:
            raise CapExceededError(f"too many subsets for exhaustive growth count: "
                                   f"C({k}, {r}) = {subsets} exceeds cap {ORACLE_SUBSET_CAP}")
        traces = np.reshape(c.traces, (t, k)).astype(bool)
        ceiling, best = min(t, 2**r), 0
        for s in subset_table(k, r):
            best = max(best, len(_packed(traces[:, s])))
            if best == ceiling:
                break
        return best
    raise ConfigError(f"oracle growth needs a baseline class, not {class_id(c)}")


def sauer_shelah_cap(d: int, n: int):
    """Sum_{i=0}^{min(d,n)} C(n, i): the exact ceiling on the number of
    dichotomies of an n-set for a class of VC-dimension d."""
    if d < 0 or n < 0:
        raise ValueError("d and n must be >= 0")
    # C(n, i + 1) = C(n, i) (n - i) / (i + 1), exactly, one term from the last
    term = total = 1
    for i in range(min(d, n)):
        term = term * (n - i) // (i + 1)
        total += term
    return total


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


def is_shattered(cls, B: PointSet, budget: int = DEFAULT_BUDGET, seed: int = 0) -> ShatterResult:
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
    VC-dimension is at least max_d. A plain value is exact for a baseline;
    for a network it is a lower bound certified by a shattered set."""

    value: int
    saturated: bool


def _candidate_sets(net: NetworkSpec, size: int, rng: np.random.Generator, tries: int):
    """Simplex vertices first (at size input_dim + 1), then uniform draws:
    a shattered set certifies the lower bound whatever its position."""
    simplex = size == net.input_dim + 1
    if simplex:
        yield simplex_vertices(net.input_dim)
    for _ in range(max(tries - simplex, 1)):
        yield random_points(size, net.input_dim, rng)


def vc_dim_bruteforce(
    cls,
    max_d: int,
    seed: int = 0,
    tries: int = 12,
    budget: int = DEFAULT_BUDGET,
) -> VcDimResult:
    """VC-dimension up to max_d. A baseline's is exact: the largest n <= max_d
    (and <= |domain| for the finite-domain classes, <= log2 t for an
    explicit one, as t traces shatter no more points) with oracle(n) =
    2^n, stepping n up until growth_function_oracle falls below 2^n; growth
    at most doubles per point, so no larger n is shattered. A network's is
    the largest size at which one of `tries` candidate point sets is
    shattered by `budget` sampled weights; a miss there is not a proof."""
    if max_d > SHATTER_CAP:
        raise CapExceededError(f"max_d {max_d} exceeds shattering cap {SHATTER_CAP}")
    best = 0
    if not isinstance(cls, NetworkSpec):
        top = max_d if isinstance(cls, LinearThreshold) else min(max_d, len(cls.domain))
        if isinstance(cls, ExplicitFinite):
            top = min(top, len(cls.traces).bit_length() - 1)
        while best < top and growth_function_oracle(cls, best + 1) == 2 ** (best + 1):
            best += 1
        return VcDimResult(value=best, saturated=(best == max_d))
    rng = np.random.default_rng(seed)
    for size in range(1, max_d + 1):
        if any(is_shattered(cls, B, budget=budget, seed=seed)
               for B in _candidate_sets(cls, size, rng, tries)):
            best = size
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
        # (count - 1).bit_length() <= n is count <= 2^n without forming 2^n
        if not (1 <= self.count and (self.count - 1).bit_length() <= self.n):
            raise ValueError(f"count {self.count} outside [1, 2^{self.n}]")
        if self.exactness not in ("exact", "lower_bound"):
            raise ValueError(f"bad exactness tag {self.exactness!r}")


@dataclass(frozen=True)
class GrowthEstimate:
    samples: tuple[GrowthSample, ...]
    class_id: str
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
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> GrowthEstimate:
    """Growth-function samples for a class over the given set sizes.

    Methods: 'oracle' (closed form, baselines), 'exact' (hyperplane
    arrangement enumeration, LinearThreshold, small n), 'sampled' (weight
    sampling, lower bounds). 'auto' picks oracle for baselines, sampled for
    networks.

    'exact' and 'sampled' take the largest trace count over `draws` (>= 1)
    random point sets per size, mirroring the max over configurations in the
    growth function's definition, and tag it with trace_set's exactness.
    'sampled' draws plain uniform points (random_points): a sampled count is
    a certified lower bound on any point set. 'exact' is exact: each draw's
    count is exact, and Cover's count, the most any n points have, is
    reached by every set in general position; so its draws alone come from
    random_general_position, checked for d <= 3 and in general position
    almost surely for d = 4.

    No n points have more traces than a ceiling: Cover's count for a
    LinearThreshold (exact or sampled), 2^n otherwise. Once a draw's count
    reaches it, the remaining draws for that n are made but not counted, so
    the generator stream, and every later count, is that of counting them
    all.
    """
    if method == "auto":
        method = "sampled" if isinstance(cls, NetworkSpec) else "oracle"
    ns = sorted(set(int(n) for n in n_values))
    if method == "oracle":
        samples = [GrowthSample(n, growth_function_oracle(cls, n), "exact") for n in ns]
    elif method in ("exact", "sampled"):
        if method == "sampled":
            view = as_network(cls)
            _block_rows(view, max(ns, default=0))  # refuses a layer too wide before any draw
            dim, draw = view.input_dim, random_points
        elif isinstance(cls, LinearThreshold):
            _check_exact_ltf(cls, max(ns, default=0))
            view, dim, draw = cls, cls.dim, random_general_position
        else:
            raise ConfigError("exact growth counting is only available for linear_threshold")
        if draws < 1:
            raise ValueError("draws must be >= 1")
        rng = np.random.default_rng(seed)
        samples = []
        for n in ns:
            ceiling = growth_function_oracle(cls, n) if isinstance(cls, LinearThreshold) else 2**n
            best, exact = 0, True
            for j in range(draws):
                B = draw(n, dim, rng)
                if best < ceiling:
                    rows, exact = trace_set(view, B, budget, seed + j)
                    best = max(best, len(rows))
            tag = "exact" if exact else "lower_bound"
            samples.append(GrowthSample(n=n, count=best, exactness=tag))
    else:
        raise ConfigError(f"unknown growth method {method!r}")
    return GrowthEstimate(samples=tuple(samples), class_id=class_id(cls), seed=seed)


def estimate_vc_density(g: GrowthEstimate, upper_fraction: float = 0.5) -> DensityEstimate:
    """Least-squares slope of log(count) against log(n) (natural logs; the
    slope is base-invariant) over the `upper_fraction` largest n values,
    never fewer than FIT_MIN_POINTS (lower-order terms pollute small n).
    Samples the fit cannot use, and counts that decrease with n and fit a
    negative slope, raise ConfigError."""
    samples = sorted(g.samples, key=lambda s: s.n)
    if len(samples) < FIT_MIN_POINTS:
        raise ConfigError(f"need at least {FIT_MIN_POINTS} growth samples")
    ns = [s.n for s in samples]
    if ns[0] < 1:
        raise ConfigError(f"growth samples need n >= 1 (log n), got n = {ns[0]}")
    if len(set(ns)) < len(ns) or max(ns) < 4 * min(ns):
        raise ConfigError("set sizes must be distinct and span at least a factor of 4")
    take = max(FIT_MIN_POINTS, math.ceil(len(samples) * upper_fraction))
    fit = samples[-take:]
    x = np.log([float(s.n) for s in fit])
    y = np.log([float(s.count) for s in fit])
    slope, intercept = np.polyfit(x, y, 1)
    # nondecreasing counts fit slope >= 0 (Chebyshev's sum inequality): below 0 is rounding
    if slope < 0 and any(a.count > b.count for a, b in zip(fit, fit[1:])):
        raise ConfigError(f"fitted VC-density slope {slope:.6g} < 0: growth counts decrease with n")
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DensityEstimate(
        slope=max(float(slope), 0.0),
        fit_range=(fit[0].n, fit[-1].n),
        residual=resid,
    )
