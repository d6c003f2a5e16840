"""Finite point sets in R^n, uniform point draws, the general-position
check run on the draws of exact counts, and the table of index subsets that
this check and the exact counts walk."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# affine-dependence determinant tolerance; points drawn from O(1)-sized boxes
_GP_TOL = 1e-9
# draws random_general_position makes before giving up
_GP_MAX_TRIES = 200
# subset tables of at most _TABLE_ROWS rows (<= 1 MB each) are kept for
# reuse, for the _TABLES most recent (k, r)
_TABLE_ROWS = 1 << 15
_TABLES = 16


def subset_table(k: int, r: int) -> np.ndarray:
    """The r-subsets of range(k) from itertools.combinations, in its order, as
    one read-only (C(k, r), r) intp array: (1, 0) for r = 0, (0, r) for r > k.
    A table of at most _TABLE_ROWS rows is built once per (k, r) and shared,
    since the same (k, r) comes back with every draw of a set."""
    if math.comb(k, r) <= _TABLE_ROWS:
        return _cached_table(k, r)
    return _build_table(k, r)


@functools.lru_cache(maxsize=_TABLES)
def _cached_table(k: int, r: int) -> np.ndarray:
    return _build_table(k, r)


def _build_table(k: int, r: int) -> np.ndarray:
    rows = math.comb(k, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), r))
    table = np.fromiter(flat, dtype=np.intp, count=rows * r).reshape(rows, r)
    table.flags.writeable = False
    return table


def in_general_position(points: np.ndarray) -> bool:
    """True if the points are affinely independent: no d+1 of them have
    |det(p_1 - p_0, ..., p_d - p_0)| <= _GP_TOL, and k <= d points span a
    (k-1)-dimensional volume above tolerance (Gram determinant). Supported
    for dimension d <= 3.

    All (d+1)-subsets of subset_table go through one batched np.linalg.det
    call, which is bitwise equal to one call per subset, so the decision is
    that of a per-subset loop."""
    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    if d > 3:
        raise ConfigError("general-position check only implemented for d <= 3")
    if k <= d:
        M = pts[1:] - pts[:1]
        return bool(np.sqrt(max(np.linalg.det(M @ M.T), 0.0)) > _GP_TOL)
    sub = pts[subset_table(k, d + 1)]
    return not (np.abs(np.linalg.det(sub[:, 1:] - sub[:, :1])) <= _GP_TOL).any()


@dataclass(frozen=True)
class PointSet:
    """Distinct points in R^n, all of one dimension."""

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ConfigError("points must be pairwise distinct")
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise ConfigError("points must share a dimension")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


def random_points(k: int, d: int, rng: np.random.Generator) -> PointSet:
    """Draw k points uniformly from [-1, 1]^d, unchecked: the draw for
    sampled counts, whose every trace has a witness on any point set (and a
    uniform draw is in general position with probability 1)."""
    return PointSet(points=tuple(map(tuple, rng.uniform(-1.0, 1.0, size=(k, d)).tolist())))


def random_general_position(k: int, d: int, rng: np.random.Generator) -> PointSet:
    """random_points, redrawn until the general-position check passes (for
    d <= 3; higher d is accepted as-is, degenerate draws there have
    probability 0): the draw for exact counts, which equal Cover's count
    only in general position."""
    for _ in range(_GP_MAX_TRIES):
        B = random_points(k, d, rng)
        if d > 3 or in_general_position(B.as_array().reshape(k, d)):
            return B
    raise RuntimeError("failed to draw a general-position point set")


def simplex_vertices(d: int) -> PointSet:
    """The d+1 vertices of the standard simplex in R^d (origin + unit basis)."""
    return PointSet(points=tuple(map(tuple, np.vstack([np.zeros(d), np.eye(d)]).tolist())))
