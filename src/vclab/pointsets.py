"""Finite point sets in R^n, with general-position checks and generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# affine-dependence determinant tolerance; points drawn from O(1)-sized boxes
_GP_TOL = 1e-9


def in_general_position(points: np.ndarray) -> bool:
    """True if no d+1 of the points are affinely dependent (checked by
    determinant tests; supported for dimension d <= 3)."""
    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    if d > 3:
        raise ConfigError("general-position check only implemented for d <= 3")
    if k <= d + 1:
        subsets = [tuple(range(k))] if k == d + 1 else []
    else:
        subsets = itertools.combinations(range(k), d + 1)
    for idx in subsets:
        sub = pts[list(idx)]
        mat = sub[1:] - sub[0]
        if abs(np.linalg.det(mat)) <= _GP_TOL:
            return False
    return True


@dataclass(frozen=True)
class PointSet:
    """Distinct points in R^n. If `general_position` is asserted, the
    determinant check above must pass (d <= 3)."""

    points: tuple[tuple[float, ...], ...]
    general_position: bool = False

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ConfigError("points must be pairwise distinct")
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise ConfigError("points must share a dimension")
        if self.general_position and len(self.points) > 0:
            if not in_general_position(self.as_array()):
                raise ConfigError("points are not in general position")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0]) if self.points else 0

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=float)


def from_array(arr, general_position: bool = False) -> PointSet:
    pts = tuple(tuple(float(v) for v in row) for row in np.asarray(arr, dtype=float))
    return PointSet(points=pts, general_position=general_position)


def random_general_position(k: int, d: int, rng: np.random.Generator,
                            max_tries: int = 200) -> PointSet:
    """Draw k points uniformly from [-1, 1]^d, retrying until the
    general-position check passes (for d <= 3; higher d is accepted as-is,
    degenerate draws there have probability 0)."""
    for _ in range(max_tries):
        pts = rng.uniform(-1.0, 1.0, size=(k, d))
        try:
            return from_array(pts, general_position=d <= 3)
        except ConfigError:
            continue
    raise RuntimeError("failed to draw a general-position point set")


def simplex_vertices(d: int) -> PointSet:
    """The d+1 vertices of the standard simplex in R^d (origin + unit basis)."""
    pts = np.vstack([np.zeros(d), np.eye(d)])
    return from_array(pts)
