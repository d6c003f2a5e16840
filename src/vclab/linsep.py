"""Linear separability: exact trace enumeration from the hyperplane
arrangement, and a maximum-margin LP as the reference check.

A labeling of a finite point set is realizable by an affine threshold
function iff some u gives u . (x, 1) > 0 exactly on the label-1 points.
In u-space each point is a hyperplane through the origin, and the
realizable labelings are the sign vectors of the cells of that arrangement
(Cover 1965; Edelsbrunner, Algorithms in Combinatorial Geometry, ch. 7).
`enumerate_ltf_traces` lists those cells with exact integer determinants,
so it has no tolerance and does not depend on how the points are scaled.

`max_margin`/`is_realizable` decide one labeling by LP: it is realizable
iff the optimal separation margin, maximized over weight vectors in the
unit box, is strictly positive. Margins in (0, tolerance] are reported as
indeterminate rather than guessed.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

from .errors import IndeterminateLabelingError

# realizable iff optimal margin > MARGIN_TOL (weights confined to the unit
# box); below NOISE_FLOOR the optimum is treated as exactly 0 (infeasible)
MARGIN_TOL = 1e-7
NOISE_FLOOR = 1e-10


def max_margin(points: np.ndarray, labeling) -> float:
    """Optimal margin gamma* for separating label-1 points (w.x + b >= gamma)
    from label-0 points (w.x + b <= -gamma), with |w_j| <= 1 and bounded bias.

    gamma* is always >= 0 (w = 0, b = 0 is feasible); it is > 0 iff the
    labeling is strictly linearly separable within the box.
    """
    from scipy.optimize import linprog

    pts = np.asarray(points, dtype=float)
    k, d = pts.shape
    signs = np.where(np.asarray(labeling, dtype=int) == 1, 1.0, -1.0)
    bias_cap = 1.0 + d * float(np.max(np.abs(pts))) if k else 1.0
    # variables: w (d), b, gamma; maximize gamma
    c = np.zeros(d + 2)
    c[-1] = -1.0
    A_ub = np.hstack(
        [-signs[:, None] * pts, -signs[:, None], np.ones((k, 1))]
    )
    b_ub = np.zeros(k)
    bounds = [(-1.0, 1.0)] * d + [(-bias_cap, bias_cap), (0.0, 2.0 * bias_cap)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"margin LP failed: {res.message}")
    return float(res.x[-1])


def is_realizable(points: np.ndarray, labeling) -> bool:
    """True iff the labeling is realizable by an affine threshold function.

    Raises IndeterminateLabelingError when the optimal margin falls in the
    gray zone (NOISE_FLOOR, MARGIN_TOL].
    """
    gamma = max_margin(points, labeling)
    if gamma > MARGIN_TOL:
        return True
    if gamma <= NOISE_FLOOR:
        return False
    raise IndeterminateLabelingError(labeling, gamma)


def enumerate_ltf_traces(points: np.ndarray) -> list[tuple[int, ...]]:
    """All labelings of `points` realizable by affine threshold functions,
    sorted. Exact: the points are lifted to integer vectors and every side
    test is the sign of an integer determinant."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        return [()]
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return sorted(_cells(_integer_lift(pts)))


def _integer_lift(pts: np.ndarray) -> list[tuple[int, ...]]:
    """Rows (x, 1) times the largest denominator of the coordinates. Floats
    are dyadic, so this is an exact positive rescaling to integers."""
    ratios = [[v.as_integer_ratio() for v in row] for row in pts.tolist()]
    scale = max(q for row in ratios for _, q in row)
    return [tuple(p * (scale // q) for p, q in row) + (scale,) for row in ratios]


def _cells(vs: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Sign vectors (1 for > 0, 0 for < 0) of u . v over all u that are
    nonzero on every v: the cells of the central arrangement of the v's.

    With r the rank of the v's, every cell of this rank-r arrangement has a
    ray u_S in its closure, where S is a set of r - 1 independent v's and
    u_S is normal to them inside the span. Near u_S the v's off the plane
    of S keep the sign of u_S . v (or all flip), and the v's on it (Z) take
    any sign vector of the arrangement of Z alone, of rank r - 1.
    """
    k = len(vs)
    cols = _bareiss(vs)[0]
    r = len(cols)
    if r == k:
        return set(itertools.product((0, 1), repeat=k))
    # projecting onto r independent coordinates is one-to-one on the span,
    # so the cells keep their sign vectors; the dropped coordinates are the
    # unit-vector completion C of det[S; v; C]
    vs = [tuple(v[c] for c in cols) for v in vs]
    found = set()
    planes = set()
    for S in itertools.combinations(vs, r - 1):
        # cofactors of the last row of det[S; v], so normal . v = det[S; v]
        normal = [
            (-1) ** j * _bareiss([s[:j] + s[j + 1:] for s in S])[1] for j in range(r)
        ]
        if not any(normal):
            continue  # S is dependent
        side = [sum(map(operator.mul, normal, v)) for v in vs]
        on = tuple(i for i, s in enumerate(side) if s == 0)
        if on in planes:
            continue
        planes.add(on)
        # the off-plane bits near u_S and near -u_S; the bits at `on` are
        # overwritten for every sub-cell
        rays = ([int(s > 0) for s in side], [int(s < 0) for s in side])
        for sub in _cells([vs[i] for i in on]):
            for bits in rays:
                for i, b in zip(on, sub):
                    bits[i] = b
                found.add(tuple(bits))
    return found


def _bareiss(rows) -> tuple[list[int], int]:
    """Fraction-free Gaussian elimination of an integer matrix (Bareiss):
    the pivot columns, which index a largest independent set of columns,
    and the determinant when the matrix is square (0 when singular)."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots, prev, sign, top = [], 1, 1, 0
    for col in range(n_cols):
        if top == n_rows:
            break
        p = next((i for i in range(top, n_rows) if m[i][col]), None)
        if p is None:
            continue
        if p != top:
            m[top], m[p] = m[p], m[top]
            sign = -sign
        piv, prow = m[top][col], m[top]
        for row in m[top + 1:]:
            f = row[col]
            for j in range(col + 1, n_cols):
                row[j] = (piv * row[j] - f * prow[j]) // prev
            row[col] = 0
        prev = piv
        pivots.append(col)
        top += 1
    square = n_rows == n_cols == len(pivots)
    return pivots, sign * prev if square else 0
