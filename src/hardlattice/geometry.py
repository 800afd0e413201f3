"""Plane and 2x2-matrix primitives behind the admissibility checks.

The overlap predicate decides interior intersection of triangles exactly:
a floating-point orientation test with a forward error bound handles the
generic case and an arbitrary-precision rational fallback settles the
near-degenerate one.  No tolerance knobs are involved.

:func:`orient_signs` and :func:`triangles_overlap_block` evaluate the
same float filter on whole arrays.  They settle every entry the filter
can settle and mark the rest undecided; only those reach the scalar
:func:`orient_sign` / :func:`triangles_overlap` and its rational
fallback, as in :func:`orient_signs_exact`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .lattice import check_int

_EPS_HALF = sys.float_info.epsilon / 2.0  # 2**-53
# Forward error bound for the 2x2 orientation determinant (A-bound).
_ORIENT_ERRBOUND = (3.0 + 16.0 * _EPS_HALF) * _EPS_HALF
_MIN_NORMAL = sys.float_info.min


class DegenerateTriangleError(ValueError):
    """A triangle with collinear corners or non-realizable side lengths."""


def rotation(theta: float) -> np.ndarray:
    """Counterclockwise rotation matrix for angle ``theta``.

    No run calls :func:`rotation`, :func:`frobenius` or
    :func:`polar_rotation`: the identity suite and the ``rotation`` of
    ``Configuration.reductions`` inline them on Python floats, and they
    are the reference those are tested against.
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


def dist_so2_batch(Ms: np.ndarray) -> np.ndarray:
    """Frobenius distance from each 2x2 matrix of a stack to the rotation group.

    Every matrix must have ``det >= 0`` (``ValueError`` otherwise).  Then
    the distance is the closed form
    ``sqrt(|M|^2 + 2 - 2*sqrt(|M|^2 + 2*det M))`` (the singular values
    appear as ``(s1-1)^2 + (s2-1)^2``), with both radicands clamped at
    zero against rounding.  ``|M|^2`` adds the four squares in row-major
    order, as numpy's ``np.sum`` of a 2x2 array does, so each entry is
    bitwise the formula on that matrix's numpy scalars (pinned by the
    tests).
    """
    m = np.asarray(Ms, dtype=float)
    _check_2x2(m, "dist_so2_batch")
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.any(det < 0.0):
        raise ValueError("dist_so2_batch requires det >= 0 for every matrix")
    sq = m * m
    nsq = ((sq[..., 0, 0] + sq[..., 0, 1]) + sq[..., 1, 0]) + sq[..., 1, 1]
    inner = np.clip(nsq + 2.0 * det, 0.0, None)
    rad = np.clip(nsq + 2.0 - 2.0 * np.sqrt(inner), 0.0, None)
    return np.sqrt(rad)


# The smallest angle grid of :func:`dist_so2_bruteforce`.
MIN_GRID_SIZE = 8


# Matrices per grid-search chunk: two (chunk, n_grid) work arrays of
# 230 kB at the default grid stay in cache; 8 ran as fast as 16.
_BRUTEFORCE_CHUNK = 8


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
    check_int(n_grid, "n_grid", MIN_GRID_SIZE)
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
    cases, is settled in rational arithmetic.  So is a determinant that
    is not finite: a corner difference or a product that overflows makes
    it infinite or NaN, and then it says nothing about the sign.  The
    corners must be finite (``ValueError`` otherwise).  The arithmetic is
    on Python floats, so an overflow raises no numpy warning.
    """
    pax, pay, pbx, pby, pcx, pcy = map(float, (pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]))
    ax = pax - pcx
    ay = pay - pcy
    bx = pbx - pcx
    by = pby - pcy
    detleft = ax * by
    detright = ay * bx
    det = detleft - detright
    # An overflowed difference or product leaves det infinite or NaN.
    if not math.isfinite(det):
        if not all(map(math.isfinite, (pax, pay, pbx, pby, pcx, pcy))):
            raise ValueError(f"orient_sign needs finite corners, got {(pa, pb, pc)}")
        return _orient_exact(pa, pb, pc)
    if (abs(detleft) < _MIN_NORMAL and ax and by) or (abs(detright) < _MIN_NORMAL and ay and bx):
        return _orient_exact(pa, pb, pc)
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
    # Four work arrays; each step overwrites one only when no later step reads it.
    work = np.empty((4, *np.broadcast_shapes(a.shape[:-1], b.shape[:-1], c.shape[:-1])))
    ax, ay, bx, by = (work[i, ...] for i in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for out, p, k in ((ax, a, 0), (ay, a, 1), (bx, b, 0), (by, b, 1)):
            np.subtract(p[..., k], c[..., k], out=out)
        underflow, underflow_right = (ax != 0.0) & (by != 0.0), (ay != 0.0) & (bx != 0.0)
        detleft, detright = np.multiply(ax, by, out=ax), np.multiply(ay, bx, out=ay)
        underflow &= np.abs(detleft, out=by) < _MIN_NORMAL
        underflow |= underflow_right & (np.abs(detright, out=bx) < _MIN_NORMAL)
        det = np.subtract(detleft, detright, out=bx)
        detsum = np.abs(np.add(detleft, detright, out=by), out=by)
        sign = np.sign(det, out=ay).astype(np.int8)
        # Where the products share a strict sign, |detleft + detright| is
        # the scalar's detsum.  Where they do not, the scalar skips the
        # bound, and the test below passes anyway: rounding is monotone,
        # so then |detleft + detright| <= |det| in floats.  A non-finite
        # det (an overflow, or a non-finite corner) is left undecided, as
        # the scalar leaves it to rational arithmetic.
        decided = np.abs(det, out=ax) >= np.multiply(detsum, _ORIENT_ERRBOUND, out=detsum)
        decided &= np.isfinite(det) & ~underflow
    return sign, decided


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
    del lo_p, hi_p, lo_q, hi_q  # the edge tests below set the peak

    # Three-valued separating-edge test, edge by edge: an edge separates
    # for certain if the other triangle's three corners are all decided on
    # or right of it, and certainly not if any is decided strictly left of it.
    separated = np.zeros_like(apart)
    joined = np.ones_like(apart)
    for S, V in ((P, Q), (Q, P)):
        for i in range(3):
            sign, decided = orient_signs(S[:, i, None], S[:, (i + 1) % 3, None], V)
            separated |= (decided & (sign <= 0)).all(axis=1)
            joined &= (decided & (sign > 0)).any(axis=1)
    decided = ok_p & ok_q & (apart | separated | joined)
    return decided & ~apart & ~separated, decided


def _ccw_stack(T):
    """A stack of triangles made counterclockwise (in a copy, if any is not),
    and where the orientation that decides the swap is settled and nonzero."""
    T = np.asarray(T, float)
    sign, decided = orient_signs(T[:, 0], T[:, 1], T[:, 2])
    cw = sign < 0
    if cw.any():  # copy only then: image triangles are counterclockwise
        T = T.copy()
        T[cw] = T[cw][:, [0, 2, 1]]
    return T, decided & (sign != 0)


def corner_box(T):
    """Bounding boxes ``(lo, hi)`` of a stack of triangles ``(..., 3, 2)``."""
    a, b, c = T[..., 0, :], T[..., 1, :], T[..., 2, :]
    return np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)


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
