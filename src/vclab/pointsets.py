"""Finite point sets in R^n, uniform point draws, and the general-position
check run on the draws of exact counts."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# affine-dependence determinant tolerance; points drawn from O(1)-sized boxes
_GP_TOL = 1e-9
# draws random_general_position makes before giving up
_GP_MAX_TRIES = 200
# subsets per batched determinant call (a few MB of (c, d, d) matrices)
_GP_CHUNK = 1 << 15
# (k, r) subset tables of at most one chunk (<= 1 MB each) kept for reuse
_GP_TABLES = 16


def subset_chunks(k: int, r: int):
    """Yield the r-subsets of range(k), in itertools.combinations order, as
    (rows, r) intp arrays of at most _GP_CHUNK rows each; nothing if r > k.

    Built level by level: the (q+1)-subsets are each q-subset followed by
    every larger index, in order, so a chunk of them is np.repeat of the
    q-subsets it extends next to one arange-based last column, and a level
    holds one chunk at a time. A table of at most _GP_CHUNK rows is built
    once per (k, r) (kept for the _GP_TABLES most recent pairs) and shared
    read-only, since the same (k, r) comes back with every draw of a set."""
    if 0 < math.comb(k, r) <= _GP_CHUNK:
        yield _subset_table(k, r)
    else:
        yield from _subset_levels(k, r)


@functools.lru_cache(maxsize=_GP_TABLES)
def _subset_table(k: int, r: int) -> np.ndarray:
    table = np.concatenate(list(_subset_levels(k, r)))
    table.flags.writeable = False
    return table


def _subset_levels(k: int, r: int):
    if r == 0:
        yield np.empty((1, 0), dtype=np.intp)
        return
    for parents in _subset_levels(k, r - 1):
        # parent i is followed by first[i], ..., k - 1: rows start[i]..end[i] - 1
        first = parents[:, -1] + 1 if r > 1 else np.zeros(1, dtype=np.intp)
        end = np.cumsum(k - first)
        start = end - (k - first)
        for a in range(0, int(end[-1]), _GP_CHUNK):
            b = min(a + _GP_CHUNK, int(end[-1]))
            lo, hi = np.searchsorted(end, (a, b - 1), side="right")
            sl = slice(lo, hi + 1)
            rows = np.minimum(end[sl], b) - np.maximum(start[sl], a)
            out = np.empty((b - a, r), dtype=np.intp)
            out[:, :-1] = np.repeat(parents[sl], rows, axis=0)
            out[:, -1] = np.arange(a, b) + np.repeat(first[sl] - start[sl], rows)
            yield out


def in_general_position(points: np.ndarray) -> bool:
    """True if the points are affinely independent: no d+1 of them have
    |det(p_1 - p_0, ..., p_d - p_0)| <= _GP_TOL, and k <= d points span a
    (k-1)-dimensional volume above tolerance (Gram determinant). Supported
    for dimension d <= 3.

    The (d+1)-subsets come from subset_chunks, and each chunk goes through
    one batched np.linalg.det call, which is bitwise equal to one call per
    subset, so the decision is that of a per-subset loop."""
    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    if d > 3:
        raise ConfigError("general-position check only implemented for d <= 3")
    if k <= d:
        M = pts[1:] - pts[:1]
        return bool(np.sqrt(max(np.linalg.det(M @ M.T), 0.0)) > _GP_TOL)
    for idx in subset_chunks(k, d + 1):
        sub = pts[idx]
        if (np.abs(np.linalg.det(sub[:, 1:] - sub[:, :1])) <= _GP_TOL).any():
            return False
    return True


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
