"""Monte Carlo validation of uniform convergence on finite-support
distributions.

On a finite support the true loss is exact and both losses depend on a
hypothesis only through its trace on the support, so the supremum of
|L_D(h) - L_S(h)| over an infinite class reduces to a maximum over the
class's finite trace set.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

# sampled_trace_set is not called here; perfbench/tracer.py requires this
# lookup site (REQUIRED_SITES), so the import stays
from .dichotomy import DEFAULT_BUDGET, sampled_trace_set, trace_set  # noqa: F401
from .errors import CapExceededError, ConfigError
from .hypotheses import (SCHEMA_VERSION, named_point_set, read_field, read_json_object,
                         read_list, read_number, read_points)
from .pointsets import PointSet

PROB_TOL = 1e-12
# Generator.multinomial takes the sample size as a C long
MAX_K = 2**63 - 1
# trace-trial entries per Monte Carlo chunk: a chunk of c trials is one
# multinomial call and one _sup_deviations call, and c * max(traces,
# |support|) <= 2^16 keeps each of its arrays within 512 KB, unless one
# trial alone is larger. Each chunk costs one hand-off to the draw-ahead
# worker: 2^15 made the stock ucheck jobs 6-14% slower than 2^16
_CHUNK_ENTRIES = 1 << 16

EXACT = "exact_trace_enumeration"
SAMPLED = "sampled_hypotheses"


@dataclass(frozen=True)
class DiscreteDistribution:
    support: PointSet
    probabilities: tuple[float, ...]
    true_labels: tuple[int, ...]

    def __post_init__(self):
        s = len(self.support)
        if len(self.probabilities) != s or len(self.true_labels) != s:
            raise ConfigError("probabilities and labels must match support size")
        for p in self.probabilities:
            if not (math.isfinite(p) and p >= 0):
                raise ConfigError(f"probabilities must be finite and nonnegative, got {p}")
        if abs(sum(self.probabilities) - 1.0) > PROB_TOL:
            raise ConfigError("probabilities must sum to 1")
        for b in self.true_labels:
            if isinstance(b, bool) or b not in (0, 1):
                raise ConfigError(f"labels must be 0 or 1, got {b!r}")


@dataclass(frozen=True)
class UCExperimentResult:
    k: int
    trials: int
    failures: int
    empirical_rate: float
    seed: int
    sup_method: str
    mean_sup_deviation: float

    def __post_init__(self):
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")


def enumerate_support_traces(cls, support: PointSet, budget: int = DEFAULT_BUDGET, seed: int = 0):
    """Trace set of the class on the support, as a (R, |support|) 0/1 array,
    plus the method tag. Exact for baselines, sampled for networks."""
    rows, exact = trace_set(cls, support, budget, seed)
    return np.unpackbits(rows, axis=1, count=len(support)), EXACT if exact else SAMPLED


def _error_matrix(cls, D: DiscreteDistribution, budget: int, seed: int):
    """(R, |support|) float matrix, 1 where a trace misclassifies a support
    point, plus the method tag. |L_D - L_S| of every trace is then
    |errs @ (p - counts / k)| for per-point sample counts."""
    T, method = enumerate_support_traces(cls, D.support, budget=budget, seed=seed)
    return (T != np.array(D.true_labels, dtype=np.int8)).astype(float), method


def _sup_deviations(errs, p, counts, k: int) -> np.ndarray:
    """max over traces of |L_D - L_S| for each row of a (b, |support|)
    array of sample counts of size k. np.matmul on the stacked (b, n, 1)
    operand runs one gemv per row, the kernel of a single `errs @ v`, so each
    sup is bitwise the same as one row at a time; one gemm `dev @ errs.T`
    rounds differently and flips trials within 1e-12 of eps."""
    dev = p - counts / k
    dv = np.matmul(errs, dev[:, :, None])[:, :, 0]
    return np.abs(dv, out=dv).max(axis=1)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SupDeviation:
    value: float
    method: str  # EXACT or SAMPLED (then a lower bound on the true sup)


def sup_deviation_exact(
    cls, D: DiscreteDistribution, S, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> SupDeviation:
    """max over realizable traces t of |L_D(t) - L_S(t)|, the true loss
    (misclassified probability mass) against the empirical loss
    (misclassified fraction of S).

    S is a nonempty multiset of support indices, ints in
    range(len(D.support)), run through the same kernel as one trial of
    run_uc_experiment. For sampled (network) enumeration the value is a
    lower bound on the true supremum.
    """
    S = list(S)
    if not S:
        raise ValueError("sample must be nonempty")
    n = len(D.support)
    for i in S:
        if not (_is_int(i) and 0 <= i < n):
            raise ValueError(f"sample entries must be ints in range({n}), got {i!r}")
    errs, method = _error_matrix(cls, D, budget, seed)
    p = np.array(D.probabilities, dtype=float)
    counts = np.bincount(np.asarray(S, dtype=int), minlength=n)
    value = float(_sup_deviations(errs, p, counts[None, :], len(S))[0])
    return SupDeviation(value=value, method=method)


def _score_chunks(rng, k: int, p, trials: int, chunk: int, score) -> None:
    """Call score once per chunk of `trials` trials, on that chunk's
    multinomial count array of `chunk` rows (the last may be shorter), drawn
    from rng in stream order. A run of one chunk draws it inline. Past one
    chunk, a worker thread is rng's only user: it draws each next chunk while
    score runs on the current one, and multinomial releases the GIL, so on a
    second core the two overlap. At most one chunk is in flight, so two
    chunks are alive at a time. A draw that raises re-raises here, and the
    worker is joined on every exit."""
    if trials <= chunk:
        score(rng.multinomial(k, p, size=trials))
        return
    import queue  # about 1 ms, so only runs of several chunks pay it

    sizes, drawn = queue.SimpleQueue(), queue.SimpleQueue()

    def draw_each():
        while size := sizes.get():  # 0 stops the worker
            try:
                drawn.put(rng.multinomial(k, p, size=size))
            except Exception as exc:  # re-raised on the calling thread
                drawn.put(exc)

    def take():
        counts = drawn.get()
        if isinstance(counts, Exception):
            raise counts
        return counts

    worker = threading.Thread(target=draw_each, name="ucheck-draw-ahead", daemon=True)
    worker.start()
    try:
        sizes.put(chunk)
        for start in range(chunk, trials, chunk):
            counts = take()
            sizes.put(min(chunk, trials - start))
            score(counts)
        score(take())
    finally:
        sizes.put(0)
        worker.join()


def run_uc_experiment(
    cls,
    D: DiscreteDistribution,
    eps: float,
    k: int,
    trials: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> UCExperimentResult:
    """Draw `trials` samples S ~ D^k and count trials whose supremum
    deviation exceeds eps. Only per-point sample counts enter the losses, so
    each trial draws a multinomial count vector. Trials run in chunks of
    _CHUNK_ENTRIES // max(traces, |support|) trials (at least one): one
    multinomial call from the one generator stream draws a chunk and one
    _sup_deviations call scores it, so memory is bounded by the chunk, not
    by `trials`. Past one chunk, a worker thread draws the next chunk while
    this thread scores the current one; a run of one chunk starts no thread.
    This needs no flag, and every result field is bitwise the same as
    drawing one trial at a time, on any number of cores. Bit-reproducible
    for a fixed seed. k and trials must be ints >= 1 (ValueError); k above
    2^63 - 1, the sampler's range, raises CapExceededError."""
    for name, v in (("k", k), ("trials", trials)):
        if not _is_int(v):
            raise ValueError(f"{name} must be an int, got {v!r}")
    if trials < 1 or k < 1:
        raise ValueError("trials and k must be >= 1")
    if k > MAX_K:
        raise CapExceededError(f"sample size k = {k} exceeds the sampler's limit 2^63 - 1")
    errs, method = _error_matrix(cls, D, budget, seed)
    p = np.array(D.probabilities, dtype=float)
    rng = np.random.default_rng(seed)
    failures = 0
    sup_sum = 0.0

    def score(counts):
        nonlocal failures, sup_sum
        sups = _sup_deviations(errs, p, counts, k)
        failures += int(np.count_nonzero(sups > eps))
        # np.cumsum adds left to right like a scalar running sum; np.sum
        # adds pairwise and can round differently
        sups[0] += sup_sum
        sup_sum = float(np.cumsum(sups)[-1])

    chunk = max(1, _CHUNK_ENTRIES // max(len(errs), len(p)))
    _score_chunks(rng, k, p, trials, chunk, score)
    return UCExperimentResult(
        k=k,
        trials=trials,
        failures=failures,
        empirical_rate=failures / trials,
        seed=seed,
        sup_method=method,
        mean_sup_deviation=sup_sum / trials,
    )


def load_distribution(path) -> DiscreteDistribution:
    """Load a finite-support distribution from a versioned JSON file with
    fields support (list of points), probabilities, labels."""
    doc = read_json_object(path)
    if isinstance(version := doc.get("schema_version"), bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"distribution spec needs schema_version = {SCHEMA_VERSION}")
    support, probabilities, labels = (
        read_list(read_field(doc, key, "distribution spec"), f"distribution field {key!r}")
        for key in ("support", "probabilities", "labels")
    )
    return DiscreteDistribution(
        support=named_point_set(read_points(support, "distribution field 'support'"), "support"),
        probabilities=tuple(read_number(p, "distribution field 'probabilities' entry")
                            for p in probabilities),
        true_labels=tuple(labels),
    )
