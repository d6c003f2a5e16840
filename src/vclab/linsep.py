"""Linear separability: exact trace enumeration from the hyperplane
arrangement, and a maximum-margin LP as the reference check.

A labeling of a finite point set is realizable by an affine threshold
function iff some u gives u . (x, 1) > 0 exactly on the label-1 points.
In u-space each point is a hyperplane through the origin, and the
realizable labelings are the sign vectors of the cells of that arrangement
(Cover 1965; Edelsbrunner, Algorithms in Combinatorial Geometry, ch. 7).
`enumerate_ltf_traces` lists those cells, as sorted distinct np.packbits
rows (the trace-set format of `dichotomy.trace_set`, which `pack_rows` and
`unique_rows` make of any 0/1 matrix), from the signs of determinants of
the rows (x, 1), all hyperplanes at once. A batched float
evaluation gives each determinant with its permanent P, and its sign
counts where |det| > 2 r^2 2^-53 P for r x r determinants, twice its
forward error bound (a filtered predicate; Shewchuk 1997). The remaining
signs come from integer Bareiss determinants of the points scaled exactly
to integers, which are built only when some sign is left open; the rank
is read off a certified nonzero determinant. So a set in general position
runs on floats alone, and the enumeration has no tolerance and does not
depend on how the points are scaled.

`max_margin`/`is_realizable` decide one labeling by LP: it is realizable
iff the optimal separation margin, maximized over weight vectors in the
unit box, is strictly positive. Margins in (0, tolerance] are reported as
indeterminate rather than guessed.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .errors import IndeterminateLabelingError
from .pointsets import subset_table

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
    return _cells(rows, functools.cache(lambda: _integer_lift(pts)))


def _integer_lift(pts: np.ndarray) -> list[tuple[int, ...]]:
    """Rows (x, 1) times the largest denominator of the coordinates. Floats
    are dyadic, so this is an exact positive rescaling to integers."""
    ratios = [[v.as_integer_ratio() for v in row] for row in pts.tolist()]
    scale = max(q for row in ratios for _, q in row)
    return [tuple(p * (scale // q) for p, q in row) + (scale,) for row in ratios]


def _cells(floats: np.ndarray, ints) -> np.ndarray:
    """Sign vectors (1 for > 0, 0 for < 0) of u . v over all u that are
    nonzero on every v: the cells of the central arrangement of the k rows
    v of `floats`, which live in R^c, as sorted distinct np.packbits rows.
    `ints()` returns the same v's up to one positive factor as integer
    tuples; it is called only when the floats leave a sign or the rank
    open.

    For k > c the sides det[S; v] over the (c - 1)-subsets S come first
    (`_float_sides`): one certified nonzero side shows the v's have full
    rank c, and the sides are then used as they are (`_rank_cells`), so a
    set whose every sign the floats settle never builds its integers. Only
    when none is certified, or for k <= c, does `_exact_cells` find the
    rank by integer elimination.
    """
    k, c = floats.shape
    if k > c:
        subsets = subset_table(k, c - 1)
        side, certain = _float_sides(floats, subsets)
        if certain.any():
            return _rank_cells(floats, ints, subsets, side, certain)
    return _exact_cells(floats, ints())


def _exact_cells(floats: np.ndarray, ints: list[tuple[int, ...]]) -> np.ndarray:
    """`_cells` of the v's with the rank r from the integer Bareiss
    elimination of `ints`: all 2^k patterns when r = k, else the cells of
    the v's projected onto r independent coordinates. The projection is
    one-to-one on the span, so the cells keep their sign vectors; the
    dropped coordinates are the unit-vector completion C of det[S; v; C]."""
    cols = _bareiss(ints)[0]
    if len(cols) == len(ints):
        return pack_rows(_all_patterns(len(ints)))
    ints = [tuple(v[j] for j in cols) for v in ints]
    floats = floats[:, cols]
    subsets = subset_table(len(ints), len(cols) - 1)
    return _rank_cells(floats, lambda: ints, subsets, *_float_sides(floats, subsets))


def _rank_cells(
    floats: np.ndarray, ints, subsets: np.ndarray, side: np.ndarray, certain: np.ndarray
) -> np.ndarray:
    """`_cells` of k v's of full rank r in R^r, from the float sides
    (`_float_sides`) of the rows S of subsets = pointsets.subset_table(k,
    r - 1).

    Every cell of this rank-r arrangement has a ray u_S in its closure,
    where S is a set of r - 1 independent v's and u_S is normal to them.
    Near u_S the v's off the plane of S keep the sign of u_S . v (or all
    flip), and the v's on it (Z) take any sign vector of the arrangement of
    Z alone, of rank r - 1. When Z is S itself those are all 2^(r-1)
    patterns; only larger Z recurse (`_exact_cells`). A larger Z needs a
    side certified zero, which only the integers give, so a set whose
    signs the floats settle never recurses.
    """
    k, r = floats.shape
    sign = _side_signs(ints, subsets, side, certain)
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
        sub = np.unpackbits(_exact_cells(floats[z], [ints()[i] for i in z]), axis=1,
                            count=len(z))
        rays = np.stack([sign[c] > 0, sign[c] < 0]).astype(np.uint8)
        rows = np.repeat(rays, len(sub), axis=0)
        rows[:, z] = np.tile(sub, (2, 1))
        found.append(rows)
    return unique_rows(pack_rows(np.concatenate(found)))


@functools.cache
def _all_patterns(m: int) -> np.ndarray:
    """All 2^m 0/1 rows of length m, in lexicographic order, as a read-only
    uint8 array built once per m."""
    return _frozen((np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1, np.uint8)


def _frozen(values, dtype) -> np.ndarray:
    """np.array(values, dtype), made read-only for sharing from a cache."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _side_signs(ints, subsets: np.ndarray, side: np.ndarray, certain: np.ndarray) -> np.ndarray:
    """The exact signs of det[S; v] for every row S of `subsets` (indices
    of r - 1 of the v's, which live in R^r) and every v, as an int8 matrix:
    the sign of `side` wherever `certain` (from `_float_sides`) holds, else
    the sign of the integer determinant (`_bareiss`) over the rows of
    `ints()`. The sides of S's own v's are 0 by construction."""
    sign = np.sign(side).astype(np.int8)
    rows = np.arange(len(subsets))[:, None]
    sign[rows, subsets] = 0
    certain[rows, subsets] = True
    r = subsets.shape[1] + 1
    normals = {}
    for s, v in zip(*np.nonzero(~certain)):
        if s not in normals:
            S = [ints()[i] for i in subsets[s]]
            # cofactors of the last row of det[S; v], so normal . v = det[S; v]
            normals[s] = [
                (-1) ** (j + r - 1) * _bareiss([row[:j] + row[j + 1:] for row in S])[1]
                for j in range(r)
            ]
        det = sum(map(operator.mul, normals[s], ints()[v]))
        sign[s, v] = (det > 0) - (det < 0)
    return sign


@functools.cache
def _levels(r: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The level tables of `_float_sides` for r x r determinants, built once
    per r as read-only arrays: for t = 1, ..., r, the t-sets T of column
    indices (combinations order), for each T and s the position of T without
    T[s] among the (t - 1)-sets, and the cofactor signs (-1)^(s + t - 1)."""
    levels, index = [], {(): 0}
    for t in range(1, r + 1):
        sets = list(itertools.combinations(range(r), t))
        sub = [[index[T[:s] + T[s + 1:]] for s in range(t)] for T in sets]
        sign = [(-1.0) ** (s + t - 1) for s in range(t)]
        levels.append((_frozen(sets, np.intp), _frozen(sub, np.intp), _frozen(sign, float)))
        index = {T: i for i, T in enumerate(sets)}
    return tuple(levels)


def _float_sides(floats: np.ndarray, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det[S; v] in floats for every row S of `subsets` and every v, and
    where its sign is certain.

    Every minor of S comes from expansion along its last row, level by
    level, and the same sums over absolute values give the permanents;
    det[S; v] is the last level, one matrix product, and P its permanent.
    One monomial of it passes at most r^2 roundings, so the float value is
    off by at most r^2 * 2^-53 * P / (1 - r^2 * 2^-53) (Shewchuk 1997),
    whatever the order of the sums. That bound needs every step to stay
    normal: while every nonzero |entry| lies in
    [2^(53 - 1000/r), 2^(1000/r) / r], no sum or product overflows, and no
    nonzero value falls below 2^-1000 even after a cancellation at every
    level. There a sign is certain where |det| > 2 r^2 2^-53 P; for a set
    outside that range, nowhere.
    """
    c, m = subsets.shape
    r = m + 1
    mag = np.abs(floats)
    lo, hi = np.log2(mag[mag > 0].min()), np.log2(mag.max())
    if r * (lo - 53) < -1000 or r * (hi + np.log2(r)) > 1000:
        return np.zeros((c, len(floats))), np.zeros((c, len(floats)), dtype=bool)
    A = floats[subsets]
    *levels, (_, last, sign) = _levels(r)
    # minors of the leading t rows of A, one per t-set T of columns; row
    # t - 1 pairs column T[s] with minor T - T[s]
    det = per = np.ones((c, 1))
    for t, (sets, sub, level_sign) in enumerate(levels, start=1):
        a = A[:, t - 1, sets]
        det = (a * det[:, sub] * level_sign).sum(axis=2)
        per = (np.abs(a) * per[:, sub]).sum(axis=2)
    # then v pairs column s with minor range(r) - s
    side = (det[:, last[0]] * sign) @ floats.T
    return side, np.abs(side) > 2 * r**2 * 2.0**-53 * (per[:, last[0]] @ mag.T)


def pack_rows(bits) -> np.ndarray:
    """The rows of a 0/1 matrix packed as np.packbits packs them along axis 1,
    by one flat np.packbits call: the rows are written into a zero-padded
    (rows, 8 ceil(n/8)) bool buffer, so no loop runs per row."""
    bits = np.asarray(bits, dtype=bool)
    r, n = bits.shape
    w = -(-n // 8)
    buf = np.zeros((r, 8 * w), dtype=bool)
    buf[:, :n] = bits
    return np.packbits(buf.reshape(-1)).reshape(r, w)


def unique_rows(packed: np.ndarray) -> np.ndarray:
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
