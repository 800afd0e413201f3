"""Plane and 2x2-matrix primitives behind the admissibility checks.

The overlap predicate decides interior intersection of triangles exactly:
a floating-point orientation test with a forward error bound handles the
generic case and an arbitrary-precision rational fallback settles the
near-degenerate one.  No tolerance knobs are involved.

:func:`orient_signs` and :func:`triangles_overlap_block` evaluate the
same float filter on whole arrays.  They settle every entry the filter
can settle and mark the rest undecided; only those reach the scalar
:func:`orient_sign` / :func:`triangles_overlap` and its rational
fallback, as in :func:`orient_signs_exact` and :func:`winding_numbers`.
"""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction

import numpy as np

_EPS_HALF = sys.float_info.epsilon / 2.0  # 2**-53
# Forward error bound for the 2x2 orientation determinant (A-bound).
_ORIENT_ERRBOUND = (3.0 + 16.0 * _EPS_HALF) * _EPS_HALF
_MIN_NORMAL = sys.float_info.min

# Radicands of the closed-form SO(2) distance may round slightly negative
# when the matrix is (numerically) a rotation.
_RADICAND_CLAMP = -1e-14


class DegenerateTriangleError(ValueError):
    """A triangle with collinear corners or non-realizable side lengths."""


class NegativeDeterminantWarning(UserWarning):
    """Closed-form SO(2) distance requested outside the det > 0 regime."""


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix for angle ``theta``.

    No run calls :func:`rotation`, :func:`frobenius` or
    :func:`polar_rotation`: :func:`observables.identity_suite` inlines
    them on Python floats, and they are the reference it is tested
    against.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def frobenius(M) -> float:
    m = np.asarray(M, dtype=float)
    return math.sqrt(float(np.sum(m * m)))


def polar_rotation(M) -> float:
    """Angle of the rotation nearest to ``M`` in Frobenius distance.

    Equivalently the maximizer of ``tr(R(theta)^T M)``.  Raises
    ``ValueError`` when both ``m11+m22`` and ``m21-m12`` vanish, where
    every rotation is equally close.
    """
    m = np.asarray(M, dtype=float)
    c = m[0, 0] + m[1, 1]
    s = m[1, 0] - m[0, 1]
    if c == 0.0 and s == 0.0:
        raise ValueError("polar rotation undefined: all rotations are equidistant")
    return math.atan2(s, c)


def _check_2x2(m: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless ``m`` is a 2x2 matrix or a stack of them."""
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"{name} needs 2x2 matrices, got shape {m.shape}")


def dist_so2(M) -> float:
    """Frobenius distance from the 2x2 matrix ``M`` to the rotation group.

    For ``det M >= 0`` this is the closed form
    ``sqrt(|M|^2 + 2 - 2*sqrt(|M|^2 + 2*det M))`` (the singular values
    appear as ``(s1-1)^2 + (s2-1)^2``).  A negative determinant falls
    back to a fine grid search and emits :class:`NegativeDeterminantWarning`.

    The closed form runs on Python floats.  ``|M|^2`` adds the four
    squares left to right, as numpy's ``np.sum`` of a 2x2 array does, so
    the result is bitwise that of the same formula on numpy scalars.
    """
    m = np.asarray(M, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"dist_so2 needs one 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    det = a * d - b * c
    if det < 0.0:
        warnings.warn(
            "dist_so2 called with det < 0; using grid search",
            NegativeDeterminantWarning,
            stacklevel=2,
        )
        return dist_so2_bruteforce(m, 36000)
    nsq = a * a + b * b + c * c + d * d
    inner = nsq + 2.0 * det
    if inner < 0.0:
        inner = 0.0
    rad = nsq + 2.0 - 2.0 * math.sqrt(inner)
    if rad < 0.0:
        if rad < _RADICAND_CLAMP:
            raise ArithmeticError(f"dist_so2 radicand {rad} below rounding clamp")
        rad = 0.0
    return math.sqrt(rad)


def dist_so2_batch(Ms: np.ndarray) -> np.ndarray:
    """Vectorized :func:`dist_so2` for a stack of det-positive matrices."""
    m = np.asarray(Ms, dtype=float)
    _check_2x2(m, "dist_so2_batch")
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(det < 0.0):
        raise ValueError("dist_so2_batch requires det >= 0 for every matrix")
    nsq = np.sum(m * m, axis=(-2, -1))
    inner = np.clip(nsq + 2.0 * det, 0.0, None)
    rad = np.clip(nsq + 2.0 - 2.0 * np.sqrt(inner), 0.0, None)
    return np.sqrt(rad)


def check_grid_size(n_grid, name: str = "n_grid") -> None:
    """Raise ``ValueError`` unless the angle grid size ``n_grid`` is an integer >= 8."""
    if isinstance(n_grid, bool) or not isinstance(n_grid, (int, np.integer)) or n_grid < 8:
        raise ValueError(f"{name} must be an integer >= 8, got {n_grid!r}")


# Matrices per grid-search chunk: two (chunk, n_grid) work arrays of
# 460 kB at the default grid stay in cache; 16 ran fastest of 4 ... 64.
_BRUTEFORCE_CHUNK = 16


def dist_so2_bruteforce(M, n_grid: int = 3600):
    """Grid minimum of ``|M - R(theta)|`` over ``n_grid`` equally spaced angles.

    Independent of the closed form; accuracy is ``O(1/n_grid)`` since the
    objective is sqrt(2)-Lipschitz in the angle.  ``M`` may be a stack of
    shape ``(..., 2, 2)``: the angle grid is built once and every matrix
    gets the same elementwise arithmetic, so each result equals the
    single-matrix call bitwise.  A single matrix returns a ``float``, a
    stack an array of its leading shape.

    The squared distance is
    ``(m00 - c)^2 + (m01 + s)^2 + (m10 - s)^2 + (m11 - c)^2``, summed left
    to right with each square taken as ``x*x``; it is evaluated in place
    on :data:`_BRUTEFORCE_CHUNK` matrices at a time, so the work arrays
    do not grow with the stack.
    """
    check_grid_size(n_grid)
    m = np.asarray(M, dtype=float)
    _check_2x2(m, "dist_so2_bruteforce")
    theta = np.arange(n_grid) * (2.0 * math.pi / n_grid)
    c = np.cos(theta)
    s = np.sin(theta)
    flat = m.reshape(-1, 4)
    d2min = np.empty(len(flat))
    rows = min(_BRUTEFORCE_CHUNK, len(flat))
    acc = np.empty((rows, n_grid))
    term = np.empty((rows, n_grid))
    for start in range(0, len(flat), _BRUTEFORCE_CHUNK):
        m00, m01, m10, m11 = flat[start : start + _BRUTEFORCE_CHUNK].T[:, :, None]
        k = len(m00)
        a, t = acc[:k], term[:k]
        np.subtract(m00, c, out=a)
        a *= a
        for op, x, y in ((np.add, m01, s), (np.subtract, m10, s), (np.subtract, m11, c)):
            op(x, y, out=t)
            t *= t
            a += t
        a.min(axis=1, out=d2min[start : start + k])
    dmin = np.sqrt(d2min).reshape(m.shape[:-2])
    return float(dmin) if m.ndim == 2 else dmin


def heron_area(a1: float, a2: float, a3: float) -> float:
    """Triangle area from its three side lengths.

    Requires positive sides satisfying the triangle inequality strictly;
    otherwise :class:`DegenerateTriangleError` is raised.
    """
    if a1 <= 0.0 or a2 <= 0.0 or a3 <= 0.0:
        raise ValueError(f"side lengths must be positive, got {(a1, a2, a3)}")
    rad = (a1 + a2 + a3) * (-a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)
    if rad <= 0.0:
        raise DegenerateTriangleError(
            f"triangle inequality violated for sides {(a1, a2, a3)}"
        )
    return 0.25 * math.sqrt(rad)


def signed_area(p1, p2, p3) -> float:
    """Half the planar cross product; positive for counterclockwise corners."""
    return 0.5 * (
        (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p2[1] - p1[1]) * (p3[0] - p1[0])
    )


def _sign(x: float) -> int:
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 0


def _orient_exact(pa, pb, pc) -> int:
    ax, ay = Fraction(pa[0]), Fraction(pa[1])
    bx, by = Fraction(pb[0]), Fraction(pb[1])
    cx, cy = Fraction(pc[0]), Fraction(pc[1])
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orient_sign(pa, pb, pc) -> int:
    """Exact sign of the doubled signed area of (pa, pb, pc).

    The fast path is the plain float determinant guarded by its forward
    error bound.  That bound assumes no product underflows, so a product
    of nonzero factors below the smallest normal float, like inconclusive
    cases, is settled in rational arithmetic.
    """
    ax = pa[0] - pc[0]
    ay = pa[1] - pc[1]
    bx = pb[0] - pc[0]
    by = pb[1] - pc[1]
    detleft = ax * by
    detright = ay * bx
    if (abs(detleft) < _MIN_NORMAL and ax and by) or (abs(detright) < _MIN_NORMAL and ay and bx):
        return _orient_exact(pa, pb, pc)
    det = detleft - detright
    if detleft > 0.0:
        if detright <= 0.0:
            return _sign(det)
        detsum = detleft + detright
    elif detleft < 0.0:
        if detright >= 0.0:
            return _sign(det)
        detsum = -detleft - detright
    else:
        return _sign(det)
    if abs(det) >= _ORIENT_ERRBOUND * detsum:
        return _sign(det)
    return _orient_exact(pa, pb, pc)


def orient_signs(a, b, c):
    """Fast path of :func:`orient_sign` on stacked points, elementwise.

    ``a``, ``b`` and ``c`` are arrays of shape ``(..., 2)`` that broadcast
    against each other.  Returns ``(sign, decided)``: every entry is
    evaluated with the scalar's float expressions, error bound and
    underflow rule, and ``decided`` is False exactly where the scalar
    would fall back to rational arithmetic.  Where ``decided`` holds,
    ``sign`` is the exact sign; elsewhere it is meaningless.
    """
    a, b, c = np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)
    ax = a[..., 0] - c[..., 0]
    ay = a[..., 1] - c[..., 1]
    bx = b[..., 0] - c[..., 0]
    by = b[..., 1] - c[..., 1]
    detleft = ax * by
    detright = ay * bx
    det = detleft - detright
    underflow = ((np.abs(detleft) < _MIN_NORMAL) & (ax != 0.0) & (by != 0.0)) | (
        (np.abs(detright) < _MIN_NORMAL) & (ay != 0.0) & (bx != 0.0)
    )
    # Where the products share a strict sign, |detleft + detright| is the
    # scalar's detsum.  Where they do not, the scalar skips the bound, and
    # the test below passes anyway: rounding is monotone, so then
    # |detleft + detright| <= |det| in floats.
    decided = ~underflow & (np.abs(det) >= _ORIENT_ERRBOUND * np.abs(detleft + detright))
    return np.sign(det).astype(np.int8), decided


def orient_signs_exact(a, b, c):
    """Exact :func:`orient_sign` on stacked points, as ``int8`` signs.

    The scalar runs only where the :func:`orient_signs` filter leaves the
    sign undecided.  A decided zero needs no second look: both products
    are then exactly zero, and so is the determinant.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(x, float) for x in (a, b, c)))
    sign, decided = orient_signs(a, b, c)
    for i in zip(*np.nonzero(~decided)):
        sign[i] = orient_sign(a[i], b[i], c[i])
    return sign


def winding_numbers(p, q):
    """Winding number of each closed polygon ``q`` ``(..., K, 2)`` around ``p`` ``(..., 2)``.

    Sunday's crossing rule: edge ``q_k q_k+1`` counts +1 where
    ``q_k.y <= p.y < q_k+1.y`` and ``p`` is strictly left of it, and -1
    where ``q_k+1.y <= p.y < q_k.y`` and ``p`` is strictly right of it.
    The comparisons are exact on floats and the sides come from
    :func:`orient_signs_exact`, so for ``p`` off the polygon the count is
    the true winding number of the float points, with no tolerance.
    """
    p = np.asarray(p, float)[..., None, :]
    a = np.asarray(q, float)
    b = np.roll(a, -1, axis=-2)
    side = orient_signs_exact(a, b, p)
    up = (a[..., 1] <= p[..., 1]) & (p[..., 1] < b[..., 1]) & (side > 0)
    down = (b[..., 1] <= p[..., 1]) & (p[..., 1] < a[..., 1]) & (side < 0)
    return np.count_nonzero(up, axis=-1) - np.count_nonzero(down, axis=-1)


def triangles_overlap_block(P, Q):
    """:func:`triangles_overlap` on ``M`` pairs at once, where floats settle it.

    ``P`` and ``Q`` have shape ``(M, 3, 2)``.  Returns ``(overlap,
    decided)``.  The steps are the scalar's: orient each triangle
    counterclockwise, exit on strictly separated bounding boxes, then
    look for a separating edge in either direction, all with
    :func:`orient_signs`.  A pair is undecided when a triangle's own
    orientation is undecided or zero (the scalar raises
    :class:`DegenerateTriangleError` there) or when the separating-edge
    outcome depends on an undecided orientation; ``overlap`` is False on
    undecided pairs, and those belong to the scalar predicate.
    """
    (P, ok_p), (Q, ok_q) = _ccw_stack(P), _ccw_stack(Q)
    (lo_p, hi_p), (lo_q, hi_q) = corner_box(P), corner_box(Q)
    apart = (hi_p <= lo_q) | (hi_q <= lo_p)
    apart = apart[:, 0] | apart[:, 1]

    # Three-valued separating-edge test: an edge separates for certain if
    # the other triangle's three corners are all decided on or right of
    # it, and certainly not if any is decided strictly left of it.
    separated = np.zeros_like(apart)
    joined = np.ones_like(apart)
    for S, V in ((P, Q), (Q, P)):
        sign, decided = orient_signs(S[:, :, None], S[:, [1, 2, 0], None], V[:, None, :])
        separated |= _any3(_all3(decided & (sign <= 0)))
        joined &= _all3(_any3(decided & (sign > 0)))
    decided = ok_p & ok_q & (apart | separated | joined)
    return decided & ~apart & ~separated, decided


def _ccw_stack(T):
    """Counterclockwise copies of a stack of triangles, and where the
    orientation that decides the swap is settled and nonzero."""
    T = np.array(T, float)
    sign, decided = orient_signs(T[:, 0], T[:, 1], T[:, 2])
    cw = sign < 0
    T[cw] = T[cw][:, [0, 2, 1]]
    return T, decided & (sign != 0)


def corner_box(T):
    """Bounding boxes ``(lo, hi)`` of a stack of triangles ``(..., 3, 2)``."""
    a, b, c = T[..., 0, :], T[..., 1, :], T[..., 2, :]
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


def _all3(x):
    return x[..., 0] & x[..., 1] & x[..., 2]


def _any3(x):
    return x[..., 0] | x[..., 1] | x[..., 2]


def _ccw_corners(tri):
    p = [tuple(map(float, q)) for q in tri]
    if len(p) != 3:
        raise ValueError("a triangle needs exactly three corners")
    s = orient_sign(p[0], p[1], p[2])
    if s == 0:
        raise DegenerateTriangleError(f"degenerate triangle {p}")
    if s < 0:
        p[1], p[2] = p[2], p[1]
    return p


def _edge_separates(p, q) -> bool:
    # p is counterclockwise; its interior lies strictly left of each edge.
    for i in range(3):
        a = p[i]
        b = p[(i + 1) % 3]
        if all(orient_sign(a, b, vert) <= 0 for vert in q):
            return True
    return False


def triangles_overlap(tri1, tri2) -> bool:
    """True iff the open interiors of two triangles intersect.

    Shared edges and shared corners do not count as overlap.  The test is
    the separating-edge criterion for convex interiors, decided with the
    exact orientation predicate, so the answer carries no tolerance.
    """
    p = _ccw_corners(tri1)
    q = _ccw_corners(tri2)
    # Touching bounding boxes cannot produce interior overlap.
    for axis in (0, 1):
        if max(v[axis] for v in p) <= min(v[axis] for v in q):
            return False
        if max(v[axis] for v in q) <= min(v[axis] for v in p):
            return False
    return not (_edge_separates(p, q) or _edge_separates(q, p))
