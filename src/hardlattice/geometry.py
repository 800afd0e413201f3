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

    No run calls this, :func:`frobenius` or the nearest rotation's angle
    below; they are scalar references.  The identity suite's
    mean-gradient error inlines :func:`frobenius` on Python floats, and
    the tests build the Pythagoras split around the rotation nearest the
    mean gradient from the other two.
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
        raise ValueError("polar rotation undefined: every rotation is equally close")
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


# Matrices per chunk of the full grid search: two (chunk, n_grid) work
# arrays of 230 kB at the default grid stay in cache; 8 ran as fast as 16.
_BRUTEFORCE_CHUNK = 8

# Matrices per chunk of the windowed grid search, whose work arrays are
# (chunk, n_grid / S) and (chunk, 2 S + 1): 88 kB each at the default grid,
# below the 128 KiB from which glibc's malloc maps fresh pages.  With 256,
# the search raised malloc's thresholds, and a rigidity estimate run after
# it in the same process took 1,950 page faults a call instead of 145.
_WINDOW_CHUNK = 128

# Bound on |computed - exact| of one grid point's squared distance, in
# units of (|M| + 1.5)^2; proved in dist_so2_bruteforce.
_GRID_ERR = 2.0**-46


def dist_so2_bruteforce(M, n_grid: int = 3600):
    """Grid minimum of ``|M - R(theta)|`` over ``n_grid`` equally spaced angles.

    Independent of the closed form: the result is always a value of the
    grid expression below, and the closed form's radicands are never
    evaluated.  Accuracy is ``O(1/n_grid)`` since the objective is
    sqrt(2)-Lipschitz in the angle.  ``M`` may be a stack of shape
    ``(..., 2, 2)``; a single matrix returns a ``float``, a stack an
    array of its leading shape.  Each result is bitwise the minimum over
    all ``n_grid`` angles, so it equals the single-matrix call.

    The squared distance at angle ``theta_j = fl(j * fl(2 pi / n_grid))``
    is ``(m00 - c)^2 + (m01 + s)^2 + (m10 - s)^2 + (m11 - c)^2`` with
    ``c, s`` numpy's cosine and sine of ``theta_j``, summed left to right
    with each square taken as ``x*x``.

    Windowed search.  With ``S = isqrt(n_grid // 2)`` (42 at 3600), the
    expression is evaluated on every ``S``-th angle, and then on the
    ``2S + 1`` angles, cyclically, around each matrix's coarse argmin
    ``j_c``; the minimum of the window is returned.  This is exact, not
    approximate: every angle outside the window reads strictly more than
    ``j_c``.  Proof.  In exact arithmetic the objective is the shifted
    cosine ``F(theta) = |M|^2 + 2 - 2 rho cos(theta - phi)``, with
    ``(rho cos phi, rho sin phi) = (m00 + m11, m10 - m01)``.  Let
    ``h = 2 pi / n_grid``, ``psi_j`` the circle distance of the exact
    angle ``j h`` from ``phi``, ``F_j = F(j h)``, ``d_j`` the computed
    value, ``B = |M| + 1.5`` with ``|M|`` the Frobenius norm, and
    ``u = 2**-53``.

    * Rounding.  ``fl(pi)``, the division and the product put
      ``theta_j`` within ``2.37 u`` relatively, ``15 u`` absolutely, of
      ``j h``; with cosine and sine within 2 ulps (``4 u``), ``c`` and
      ``s`` are within ``eta = 32 u`` of ``cos(j h)`` and ``sin(j h)``.
      The 4-term expression, exact on those ``c, s``, is quadratic with
      Hessian ``4 Id`` in ``(c, s)`` and gradient at most
      ``4 sqrt(F_j) <= 4 B``, so it lies within ``4 eta B + 4 eta^2`` of
      ``F_j``.  Its 11 float operations, four subtractions, four squares
      and three additions of nonnegative terms, add at most ``6.03 u``
      of it, which is at most ``(|M| + |R|)^2 <= B^2``, and each
      underflowed square at most ``2**-1075``.  As ``B >= 1.5``,
      ``|d_j - F_j| <= E = 92 u B^2 < _GRID_ERR * B^2`` for every ``j``.
    * Window.  Write ``delta = E / rho`` and suppose
      ``delta < 2 sin(S h / 2) sin(h / 8)`` and ``n_grid >= 4S + 2``, so
      that ``(S + 1) h <= pi``.  The coarse angles leave cyclic gaps of
      at most ``S h``, so one, ``j_0``, has ``psi_{j_0} <= S h / 2``.
      From ``d_{j_c} <= d_{j_0}`` follows
      ``cos psi_{j_c} >= cos(S h / 2) - delta``; as
      ``cos(S h / 2) - cos(S h / 2 + h / 4) >= 2 sin(S h / 2) sin(h / 8)
      > delta``, that gives ``a = psi_{j_c} < S h / 2 + h / 4``.  An
      angle ``j`` at least ``S + 1`` steps from ``j_c`` either way has
      ``psi_j >= H - a`` with ``H = (S + 1) h``, so
      ``cos a - cos psi_j >= 2 sin(H / 2) sin(H / 2 - a) > 2 sin(S h / 2)
      sin(h / 4) > delta``; then ``F_j - F_{j_c} > 2 E`` and
      ``d_j > d_{j_c}``.

    The code tests the condition on ``delta`` as
    ``rho * 2 sin(S h / 2) sin(h / 8) > 2 * _GRID_ERR * B^2`` in floats,
    the factor 2 covering the rounding of the test itself.  It fails
    when ``rho`` is small against ``B^2``, near the anticonformal
    matrices, where the objective is nearly flat, and for every matrix
    with ``|M| >= 2**46`` or a non-finite entry; those matrices, and all
    of them when ``n_grid < 4S + 2``, take the full grid, on
    :data:`_BRUTEFORCE_CHUNK` matrices at a time.  ``rho`` only selects
    the path: the closed form's ``sqrt(|M|^2 + 2 det)`` equals it in
    exact arithmetic but is computed nowhere here.
    """
    check_int(n_grid, "n_grid", MIN_GRID_SIZE)
    m = np.asarray(M, dtype=float)
    _check_2x2(m, "dist_so2_bruteforce")
    step = 2.0 * math.pi / n_grid
    theta = np.arange(n_grid) * step
    c = np.cos(theta)
    s = np.sin(theta)
    flat = m.reshape(-1, 4)
    d2min = np.empty(len(flat))
    stride = math.isqrt(n_grid // 2)
    windowed = np.zeros(len(flat), bool)
    if n_grid >= 4 * stride + 2:
        m00, m01, m10, m11 = flat.T
        gap = 2.0 * math.sin(stride * step / 2.0) * math.sin(step / 8.0)
        with np.errstate(all="ignore"):  # a non-finite or huge entry fails the test
            rho = np.hypot(m00 + m11, m10 - m01)
            b = np.sqrt(((m00 * m00 + m01 * m01) + m10 * m10) + m11 * m11) + 1.5
            windowed = rho * gap > (2.0 * _GRID_ERR) * (b * b)

    rows = np.flatnonzero(windowed)
    coarse = np.arange(0, n_grid, stride)
    reach = np.arange(-stride, stride + 1)
    for start in range(0, len(rows), _WINDOW_CHUNK):
        r = rows[start : start + _WINDOW_CHUNK]
        near = coarse[_grid_d2(flat[r], c[coarse], s[coarse]).argmin(axis=1)]
        window = (near[:, None] + reach) % n_grid
        d2min[r] = _grid_d2(flat[r], c[window], s[window]).min(axis=1)

    rows = np.flatnonzero(~windowed)
    k = min(_BRUTEFORCE_CHUNK, len(rows))
    acc, term = np.empty((2, k, n_grid))
    for start in range(0, len(rows), _BRUTEFORCE_CHUNK):
        r = rows[start : start + _BRUTEFORCE_CHUNK]
        d2min[r] = _grid_d2(flat[r], c, s, acc[: len(r)], term[: len(r)]).min(axis=1)
    dmin = np.sqrt(d2min).reshape(m.shape[:-2])
    return float(dmin) if m.ndim == 2 else dmin


def _grid_d2(rows, c, s, acc=None, term=None):
    """The grid expression of :func:`dist_so2_bruteforce` for matrices
    ``rows`` of shape ``(k, 4)`` at angles ``(c, s)``, which broadcast
    against ``(k, 1)``; evaluated in ``acc`` and ``term`` when given."""
    m00, m01, m10, m11 = rows.T[:, :, None]
    acc = np.subtract(m00, c, out=acc)
    acc *= acc
    term = np.empty_like(acc) if term is None else term
    for op, x, y in ((np.add, m01, s), (np.subtract, m10, s), (np.subtract, m11, c)):
        op(x, y, out=term)
        term *= term
        acc += term
    return acc


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
    # A pair apart or separated by one of P's edges is settled: the outcome
    # is no overlap, decided iff both orientations are.  So Q's edges test
    # only the other pairs.
    separated = np.zeros_like(apart)
    joined = np.ones_like(apart)
    _separating_edges(P, Q, separated, joined)
    rest = np.flatnonzero(~(apart | separated))
    sep, join = separated[rest], joined[rest]
    _separating_edges(Q[rest], P[rest], sep, join)
    separated[rest], joined[rest] = sep, join
    decided = ok_p & ok_q & (apart | separated | joined)
    return decided & ~apart & ~separated, decided


def _separating_edges(S, V, separated, joined) -> None:
    """Fold each edge of triangles ``S`` against the corners of ``V`` into
    the masks ``separated`` and ``joined`` of :func:`triangles_overlap_block`."""
    for i in range(3):
        sign, decided = orient_signs(S[:, i, None], S[:, (i + 1) % 3, None], V)
        separated |= _fold_columns(np.logical_and, decided & (sign <= 0))
        joined &= _fold_columns(np.logical_or, decided & (sign > 0))


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


def _fold_columns(op, a):
    """``op.reduce(a, axis=-1)`` for a short last axis, as ``n - 1`` elementwise ``op`` calls.

    numpy reduces an inner axis of length 2 or 3 20-30x slower than the
    same fold written over its columns: ``d.max(axis=1)`` of a (4096, 3)
    array took 167 us against 5 us (numpy 2.4.6 on a 2-vCPU Xeon VM).
    ``op`` is ``np.maximum``, ``np.minimum``, ``np.logical_and`` or
    ``np.logical_or``, which are exact and keep a NaN whatever the order,
    so the fold is bitwise the reduction (pinned by the tests).  The one
    exception is the sign of a zero where ``-0.0`` and ``0.0`` tie under
    ``maximum`` or ``minimum``, and no caller folds a ``-0.0``.
    """
    out = op(a[..., 0], a[..., 1])
    for k in range(2, a.shape[-1]):
        op(out, a[..., k], out=out)
    return out


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
