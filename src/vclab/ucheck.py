"""Monte Carlo validation of uniform convergence on finite-support
distributions.

On a finite support the true loss is exact and both losses depend on a
hypothesis only through its trace on the support, so the supremum of
|L_D(h) - L_S(h)| over an infinite class reduces to a maximum over the
class's finite trace set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# sampled_trace_set is not called here; perfbench/tracer.py requires this
# lookup site (REQUIRED_SITES), so the import stays
from .dichotomy import Trace, sampled_trace_set, trace_set  # noqa: F401
from .errors import ConfigError
from .pointsets import PointSet

PROB_TOL = 1e-12

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
        if any(p < 0 for p in self.probabilities):
            raise ConfigError("probabilities must be nonnegative")
        if abs(sum(self.probabilities) - 1.0) > PROB_TOL:
            raise ConfigError("probabilities must sum to 1")
        if any(b not in (0, 1) for b in self.true_labels):
            raise ConfigError("labels must be bits")


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


def true_loss(t: Trace, D: DiscreteDistribution) -> float:
    """Probability mass of the support points the trace misclassifies."""
    if len(t) != len(D.support):
        raise ValueError("trace length != support size")
    return float(
        sum(p for p, b, y in zip(D.probabilities, t.bits, D.true_labels) if b != y)
    )


def empirical_loss(t: Trace, D: DiscreteDistribution, S) -> float:
    """Fraction of the sampled support indices the trace misclassifies."""
    S = list(S)
    if not S:
        raise ValueError("sample must be nonempty")
    if len(t) != len(D.support):
        raise ValueError("trace length != support size")
    wrong = sum(1 for i in S if t.bits[i] != D.true_labels[i])
    return wrong / len(S)


def enumerate_support_traces(cls, support: PointSet, budget: int = 20000, seed: int = 0):
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


@dataclass(frozen=True)
class SupDeviation:
    value: float
    method: str  # EXACT or SAMPLED (then a lower bound on the true sup)


def sup_deviation_exact(
    cls, D: DiscreteDistribution, S, budget: int = 20000, seed: int = 0
) -> SupDeviation:
    """max over realizable traces t of |true_loss(t) - empirical_loss(t, S)|.

    S is a nonempty multiset of support indices. For sampled (network)
    enumeration the value is a lower bound on the true supremum.
    """
    S = list(S)
    if not S:
        raise ValueError("sample must be nonempty")
    errs, method = _error_matrix(cls, D, budget, seed)
    p = np.array(D.probabilities, dtype=float)
    counts = np.bincount(np.asarray(S, dtype=int), minlength=len(D.support)).astype(float)
    value = float(np.abs(errs @ (p - counts / len(S))).max())
    return SupDeviation(value=value, method=method)


def run_uc_experiment(
    cls,
    D: DiscreteDistribution,
    eps: float,
    k: int,
    trials: int,
    seed: int,
    budget: int = 20000,
) -> UCExperimentResult:
    """Draw `trials` samples S ~ D^k and count trials whose supremum
    deviation exceeds eps. Only per-point sample counts enter the losses, so
    each trial draws a multinomial count vector. Bit-reproducible for a
    fixed seed."""
    if trials < 1 or k < 1:
        raise ValueError("trials and k must be >= 1")
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


def load_distribution(path) -> DiscreteDistribution:
    """Load a finite-support distribution from a versioned JSON file with
    fields support (list of points), probabilities, labels."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise ConfigError("distribution spec needs schema_version = 1")
    for key in ("support", "probabilities", "labels"):
        if key not in doc:
            raise ConfigError(f"distribution spec missing field {key!r}")
    support = PointSet(
        points=tuple(tuple(float(v) for v in p) for p in doc["support"])
    )
    return DiscreteDistribution(
        support=support,
        probabilities=tuple(float(p) for p in doc["probabilities"]),
        true_labels=tuple(int(b) for b in doc["labels"]),
    )
