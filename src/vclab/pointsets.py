"""Finite point sets in R^n, general-position checks run on drawn points, and generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# affine-dependence determinant tolerance; points drawn from O(1)-sized boxes
_GP_TOL = 1e-9
# draws random_general_position makes before giving up
_GP_MAX_TRIES = 200
# subsets per batched determinant call (a few MB of (c, d, d) matrices)
_GP_CHUNK = 1 << 15


def in_general_position(points: np.ndarray) -> bool:
    """True if the points are affinely independent: no d+1 of them have
    |det(p_1 - p_0, ..., p_d - p_0)| <= _GP_TOL (one batched np.linalg.det
    call per _GP_CHUNK subsets, bitwise equal to one call per subset), and
    k <= d points span a (k-1)-dimensional volume above tolerance (Gram
    determinant). Supported for dimension d <= 3."""
    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    if d > 3:
        raise ConfigError("general-position check only implemented for d <= 3")
    if k <= d:
        M = pts[1:] - pts[:1]
        return bool(np.sqrt(max(np.linalg.det(M @ M.T), 0.0)) > _GP_TOL)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), d + 1))
    while (idx := np.fromiter(itertools.islice(flat, _GP_CHUNK * (d + 1)), np.intp)).size:
        sub = pts[idx.reshape(-1, d + 1)]
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


def random_general_position(k: int, d: int, rng: np.random.Generator) -> PointSet:
    """Draw k points uniformly from [-1, 1]^d, retrying until the
    general-position check passes (for d <= 3; higher d is accepted as-is,
    degenerate draws there have probability 0)."""
    for _ in range(_GP_MAX_TRIES):
        pts = rng.uniform(-1.0, 1.0, size=(k, d))
        if d > 3 or in_general_position(pts):
            return PointSet(points=tuple(map(tuple, pts.tolist())))
    raise RuntimeError("failed to draw a general-position point set")


def simplex_vertices(d: int) -> PointSet:
    """The d+1 vertices of the standard simplex in R^d (origin + unit basis)."""
    return PointSet(points=tuple(map(tuple, np.vstack([np.zeros(d), np.eye(d)]).tolist())))
