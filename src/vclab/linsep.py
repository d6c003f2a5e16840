"""Linear separability: exact trace enumeration from the hyperplane
arrangement, and a maximum-margin LP as the reference check.

A labeling of a finite point set is realizable by an affine threshold
function iff some u gives u . (x, 1) > 0 exactly on the label-1 points.
In u-space each point is a hyperplane through the origin, and the
realizable labelings are the sign vectors of the cells of that arrangement
(Cover 1965; Edelsbrunner, Algorithms in Combinatorial Geometry, ch. 7).
`enumerate_ltf_traces` lists those cells, as sorted distinct np.packbits
rows (the trace-set format of `dichotomy.trace_set`), from the signs of
determinants of the rows (x, 1), all hyperplanes at once. A batched float
evaluation gives each determinant with its permanent P, and its sign
counts where |det| > 2 r^2 2^-53 P for r x r determinants, twice its
forward error bound (a filtered predicate; Shewchuk 1997). The remaining
signs come from integer Bareiss determinants of the points scaled exactly
to integers. So the enumeration has no tolerance and does not depend on
how the points are scaled.

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
    labeling is strictly linearly separable within the box. scipy, imported
    here, comes with the `test` extra: no CLI path calls this LP reference.
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


def enumerate_ltf_traces(points: np.ndarray) -> np.ndarray:
    """All labelings of `points` realizable by affine threshold functions,
    as sorted distinct np.packbits rows (unpack with count=len(points)).
    Exact: every side test is the sign of a determinant of the rows (x, 1),
    decided by a float evaluation where its error bound allows and by
    integer arithmetic otherwise."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    rows = np.hstack([pts, np.ones((pts.shape[0], 1))])
    return _cells(_integer_lift(pts), rows)


def _integer_lift(pts: np.ndarray) -> list[tuple[int, ...]]:
    """Rows (x, 1) times the largest denominator of the coordinates. Floats
    are dyadic, so this is an exact positive rescaling to integers."""
    ratios = [[v.as_integer_ratio() for v in row] for row in pts.tolist()]
    scale = max(q for row in ratios for _, q in row)
    return [tuple(p * (scale // q) for p, q in row) + (scale,) for row in ratios]


def _cells(ints: list[tuple[int, ...]], floats: np.ndarray) -> np.ndarray:
    """Sign vectors (1 for > 0, 0 for < 0) of u . v over all u that are
    nonzero on every v: the cells of the central arrangement of the v's,
    as sorted distinct np.packbits rows. `ints` and `floats` hold the same
    v's up to one positive factor, as integers and as floats.

    With r the rank of the v's, every cell of this rank-r arrangement has a
    ray u_S in its closure, where S is a set of r - 1 independent v's and
    u_S is normal to them inside the span. Near u_S the v's off the plane
    of S keep the sign of u_S . v (or all flip), and the v's on it (Z) take
    any sign vector of the arrangement of Z alone, of rank r - 1. When Z is
    S itself those are all 2^(r-1) patterns; only larger Z recurse.
    """
    k = len(ints)
    cols = _bareiss(ints)[0]
    r = len(cols)
    if r == k:
        return np.packbits(_all_patterns(k), axis=1)
    # projecting onto r independent coordinates is one-to-one on the span,
    # so the cells keep their sign vectors; the dropped coordinates are the
    # unit-vector completion C of det[S; v; C]
    ints = [tuple(v[c] for c in cols) for v in ints]
    floats = floats[:, cols]
    subsets = np.array(list(itertools.combinations(range(k), r - 1)), np.intp)
    sign = _side_signs(ints, floats, subsets)
    on = sign == 0
    n_on = on.sum(axis=1)
    # simple planes (Z = S): the rays +-u_S with every pattern on S
    simple = n_on == r - 1
    S = np.concatenate([subsets[simple]] * 2)
    base = np.concatenate([sign[simple] > 0, sign[simple] < 0]).astype(np.uint8)
    patterns = _all_patterns(r - 1)
    simple_rows = np.repeat(base[None], len(patterns), axis=0)
    simple_rows[:, np.arange(len(S))[:, None], S] = patterns[:, None, :]
    found = [simple_rows.reshape(-1, k)]
    # degenerate planes (S < Z < all): recurse on Z, once per distinct Z;
    # rows with every sign 0 come from dependent S
    planes = set()
    for c in np.flatnonzero((n_on > r - 1) & (n_on < k)):
        z = np.flatnonzero(on[c])
        if (key := z.tobytes()) in planes:
            continue
        planes.add(key)
        sub = np.unpackbits(_cells([ints[i] for i in z], floats[z]), axis=1, count=len(z))
        rays = np.stack([sign[c] > 0, sign[c] < 0]).astype(np.uint8)
        rows = np.repeat(rays, len(sub), axis=0)
        rows[:, z] = np.tile(sub, (2, 1))
        found.append(rows)
    return _unique_rows(np.packbits(np.concatenate(found), axis=1))


def _all_patterns(m: int) -> np.ndarray:
    """All 2^m 0/1 rows of length m, in lexicographic order."""
    return ((np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)


def _side_signs(
    ints: list[tuple[int, ...]], floats: np.ndarray, subsets: np.ndarray
) -> np.ndarray:
    """The exact signs of det[S; v] for every row S of `subsets` (indices
    of r - 1 of the v's, which live in R^r) and every v, as an int8 matrix:
    the float sign wherever `_float_sides` certifies it, else the sign of the
    integer determinant (`_bareiss`). The sides of S's own v's are 0 by
    construction."""
    side, certain = _float_sides(floats, subsets)
    sign = np.sign(side).astype(np.int8)
    rows = np.arange(len(subsets))[:, None]
    sign[rows, subsets] = 0
    certain[rows, subsets] = True
    r = floats.shape[1]
    normals = {}
    for s, v in zip(*np.nonzero(~certain)):
        if s not in normals:
            S = [ints[i] for i in subsets[s]]
            # cofactors of the last row of det[S; v], so normal . v = det[S; v]
            normals[s] = [
                (-1) ** (j + r - 1) * _bareiss([row[:j] + row[j + 1:] for row in S])[1]
                for j in range(r)
            ]
        det = sum(map(operator.mul, normals[s], ints[v]))
        sign[s, v] = (det > 0) - (det < 0)
    return sign


def _float_sides(floats: np.ndarray, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det[S; v] in floats for every row S of `subsets` and every v, and
    where its sign is certain.

    Every minor of S comes from expansion along its last row, level by
    level, and the same sums over absolute values give the permanents;
    det[S; v] is the last level and P its permanent. One monomial of it
    passes at most r^2 roundings, so the float value is off by at most
    r^2 * 2^-53 * P / (1 - r^2 * 2^-53) (Shewchuk 1997). That bound needs
    every step to stay normal: while every nonzero |entry| lies in
    [2^(53 - 1000/r), 2^(1000/r) / r], no sum or product overflows, and no
    nonzero value falls below 2^-1000 even after a cancellation at every
    level. There a sign is certain where |det| > 2 r^2 2^-53 P; for a set
    outside that range, nowhere.
    """
    c, m = subsets.shape
    r = m + 1
    side = np.zeros((c, len(floats)))
    certain = np.zeros(side.shape, dtype=bool)
    mag = np.abs(floats)
    lo, hi = np.log2(mag[mag > 0].min()), np.log2(mag.max())
    if r * (lo - 53) >= -1000 and r * (hi + np.log2(r)) <= 1000:
        A = floats[subsets]
        # minors of the leading t rows of A, one per t-set T of columns
        # (combinations order); row t - 1 pairs column T[s] with minor T - T[s]
        det = per = np.ones((c, 1))
        index = {(): 0}
        for t in range(1, r):
            sets = list(itertools.combinations(range(r), t))
            sub = [[index[T[:s] + T[s + 1:]] for s in range(t)] for T in sets]
            a = A[:, t - 1, np.array(sets)]
            det = (a * det[:, sub] * (-1.0) ** (np.arange(t) + t - 1)).sum(axis=2)
            per = (np.abs(a) * per[:, sub]).sum(axis=2)
            index = {T: i for i, T in enumerate(sets)}
        # the minor without column j is the (r - 1 - j)-th, and v_j its
        # cofactor's multiplier
        perm = np.zeros(side.shape)
        for j in range(r):
            side += (-1) ** (j + r - 1) * det[:, r - 1 - j, None] * floats[:, j]
            perm += per[:, r - 1 - j, None] * mag[:, j]
        certain = np.abs(side) > 2 * r**2 * 2.0**-53 * perm
    return side, certain


def _unique_rows(packed: np.ndarray) -> np.ndarray:
    """np.unique(packed, axis=0) for a uint8 matrix of w-byte rows.

    Each row is zero-padded to whole 8-byte words and read as big-endian
    unsigned integers, whose order is the unsigned lexicographic (memcmp)
    order of the bytes. One word is sorted by np.sort, more words by
    np.lexsort with the first word as the primary key, and a row is kept
    where it differs from the one before it."""
    r, w = packed.shape
    if w == 0:
        return packed[:1]
    padded = np.zeros((r, -(-w // 8) * 8), dtype=np.uint8)
    padded[:, :w] = packed
    keys = padded.view(">u8").astype(np.uint64)
    keys = np.sort(keys, axis=0) if keys.shape[1] == 1 else keys[np.lexsort(keys.T[::-1])]
    keep = np.ones(r, dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys = keys[keep]
    rows = keys.astype(">u8").view(np.uint8)
    return np.ascontiguousarray(rows[:, :w])


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
