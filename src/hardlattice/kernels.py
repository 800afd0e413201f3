"""Hot inner loops of the sampler.

The single-site Metropolis update is a strictly sequential scalar loop,
so it is written once in plain Python and compiled with numba's
``@njit`` when available.  The backend is chosen at import time from the
``HARDLATTICE_BACKEND`` environment variable:

* ``auto`` (default): numba if importable, plain numpy otherwise,
* ``numba``: require numba,
* ``numpy``: force the uncompiled fallback.

Both paths execute the same function bodies and consume the same
pre-drawn uniforms, so trajectories agree across backends.

Lean check.  When ``epsilon < sqrt(3) - 1`` (``hi2 = (1+epsilon)**2 < 3``)
a proposal of site ``s`` is decided from ``s`` alone: it is accepted iff
its six squared bond lengths lie in ``(1, hi2)`` and its six incident
triangles have positive cross product.  From an admissible state this
decision equals :func:`local_ok`:

* In reals: a triangle whose sides all lie in ``(1, 1+epsilon)`` has every
  angle below ``arccos(1 - (1+epsilon)**2 / 2)``, which is below
  ``2*pi/3`` exactly when ``hi2 < 3``.  Each vertex star (the moved site's
  and its neighbours') is six such positively oriented triangles, so its
  angle sum is a positive multiple of ``2*pi`` below ``4*pi``: exactly
  ``2*pi``.  omega1 and omega3 at ``s`` therefore imply every angle-sum
  certificate that ``local_ok`` evaluates.
* In floats: such a triangle has area at least ``sqrt(3)/4 ~ 0.43``, so
  its orientation sign is the same from each of its corners, and the
  atan2 sums stay far inside ``angle_tol``.

The lean check evaluates its bond lengths and cross products with the
same expressions as :func:`star_ok`, so trajectories are bitwise those of
the full check.  For ``hi2 >= 3`` (still allowed, up to ``epsilon = 1``)
:func:`sweep` takes the full path through :func:`local_ok`, which also
stays as the scalar reference.

On the uncompiled backend the lean loop runs on Python lists and floats,
which index several times faster than numpy scalars.
"""

from __future__ import annotations

import math
import os

TWO_PI = 2.0 * math.pi

# Below this hi2 = (1 + epsilon)**2, i.e. for epsilon < sqrt(3) - 1, the lean
# check decides every proposal (see the module docstring).
LEAN_HI2 = 3.0


def _resolve_backend() -> tuple:
    choice = os.environ.get("HARDLATTICE_BACKEND", "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(
            f"HARDLATTICE_BACKEND must be auto, numba or numpy, got {choice!r}"
        )
    if choice == "numpy":
        return (lambda f: f), "numpy"
    try:
        from numba import njit
    except ImportError:
        if choice == "numba":
            raise
        return (lambda f: f), "numpy"
    return njit(cache=True), "numba"


_jit, BACKEND = _resolve_backend()


@_jit
def star_ok(pos, nbr_idx, nbr_shift, s, hi2, angle_tol, check_bonds):
    """Local admissibility walk around site ``s``.

    Checks, in one pass over the six neighbors in counterclockwise order:
    squared bond lengths strictly inside ``(1, hi2)`` (only when
    ``check_bonds``), positive orientation of the six incident triangles,
    and the image angle sum at ``s`` equal to ``2*pi`` within
    ``angle_tol``.
    """
    px = pos[s, 0]
    py = pos[s, 1]
    j = nbr_idx[s, 0]
    e0x = pos[j, 0] + nbr_shift[s, 0, 0] - px
    e0y = pos[j, 1] + nbr_shift[s, 0, 1] - py
    if check_bonds:
        d2 = e0x * e0x + e0y * e0y
        if d2 <= 1.0 or d2 >= hi2:
            return False
    prevx = e0x
    prevy = e0y
    total = 0.0
    for k in range(1, 6):
        j = nbr_idx[s, k]
        ex = pos[j, 0] + nbr_shift[s, k, 0] - px
        ey = pos[j, 1] + nbr_shift[s, k, 1] - py
        if check_bonds:
            d2 = ex * ex + ey * ey
            if d2 <= 1.0 or d2 >= hi2:
                return False
        cr = prevx * ey - prevy * ex
        if cr <= 0.0:
            return False
        total += math.atan2(cr, prevx * ex + prevy * ey)
        prevx = ex
        prevy = ey
    cr = prevx * e0y - prevy * e0x
    if cr <= 0.0:
        return False
    total += math.atan2(cr, prevx * e0x + prevy * e0y)
    return abs(total - TWO_PI) <= angle_tol


@_jit
def local_ok(pos, nbr_idx, nbr_shift, s, hi2, angle_tol):
    """Full local decision for the current position of site ``s``.

    Bond window and orientation at ``s`` plus angle sums at ``s`` and at
    each of its six neighbors; these are exactly the constraints a move
    of ``s`` can affect.
    """
    if not star_ok(pos, nbr_idx, nbr_shift, s, hi2, angle_tol, True):
        return False
    for k in range(6):
        v = nbr_idx[s, k]
        if not star_ok(pos, nbr_idx, nbr_shift, v, hi2, angle_tol, False):
            return False
    return True


@_jit
def _full_sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2, angle_tol):
    accepted = 0
    n = site_order.shape[0]
    for t in range(n):
        s = site_order[t]
        rho = radius * math.sqrt(uniforms[t, 0])
        phi = TWO_PI * uniforms[t, 1]
        oldx = pos[s, 0]
        oldy = pos[s, 1]
        pos[s, 0] = oldx + rho * math.cos(phi)
        pos[s, 1] = oldy + rho * math.sin(phi)
        if local_ok(pos, nbr_idx, nbr_shift, s, hi2, angle_tol):
            accepted += 1
        else:
            pos[s, 0] = oldx
            pos[s, 1] = oldy
    return accepted


@_jit
def _lean_ok(pos, nbrs, shifts, px, py, hi2):
    """Bond windows and orientations of a site proposed at ``(px, py)``.

    ``nbrs`` and ``shifts`` are the site's rows of the neighbour tables.
    The arithmetic is that of :func:`star_ok`.  Rows are indexed as
    ``a[i][k]`` so that one body runs on lists and on numba arrays.
    """
    q = pos[nbrs[0]]
    sh = shifts[0]
    e0x = q[0] + sh[0] - px
    e0y = q[1] + sh[1] - py
    d2 = e0x * e0x + e0y * e0y
    if d2 <= 1.0 or d2 >= hi2:
        return False
    prevx = e0x
    prevy = e0y
    for k in range(1, 6):
        q = pos[nbrs[k]]
        sh = shifts[k]
        ex = q[0] + sh[0] - px
        ey = q[1] + sh[1] - py
        d2 = ex * ex + ey * ey
        if d2 <= 1.0 or d2 >= hi2:
            return False
        if prevx * ey - prevy * ex <= 0.0:
            return False
        prevx = ex
        prevy = ey
    return prevx * e0y - prevy * e0x > 0.0


@_jit
def _lean_sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2):
    accepted = 0
    for t in range(len(site_order)):
        s = site_order[t]
        u = uniforms[t]
        rho = radius * math.sqrt(u[0])
        phi = TWO_PI * u[1]
        p = pos[s]
        px = p[0] + rho * math.cos(phi)
        py = p[1] + rho * math.sin(phi)
        if _lean_ok(pos, nbr_idx[s], nbr_shift[s], px, py, hi2):
            p[0] = px
            p[1] = py
            accepted += 1
    return accepted


def sweep_tables(nbr_idx, nbr_shift, hi2):
    """The neighbour tables in the form :func:`sweep` runs fastest on.

    Lists for the uncompiled lean loop, the arrays otherwise.  A chain
    converts its tables once and passes the result to every sweep.
    """
    if BACKEND == "numpy" and hi2 < LEAN_HI2:
        return nbr_idx.tolist(), nbr_shift.tolist()
    return nbr_idx, nbr_shift


def sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2, angle_tol):
    """One attempted disk move per entry of ``site_order``; in-place.

    ``uniforms`` supplies two variates per attempt (radius and angle of
    the proposal).  A proposal is accepted iff the local constraints
    pass; rejection leaves the previous position exactly.  Returns the
    number of accepted moves.  ``pos`` must be admissible on entry.

    For ``hi2 < LEAN_HI2`` each proposal is decided by the lean check;
    otherwise by :func:`local_ok`.  The neighbour tables are the arrays
    or, faster, what :func:`sweep_tables` made of them.
    """
    if hi2 >= LEAN_HI2:
        return _full_sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2, angle_tol)
    if BACKEND == "numba":
        return _lean_sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2)
    rows = pos.tolist()
    accepted = _lean_sweep(
        rows, nbr_idx, nbr_shift, site_order.tolist(), uniforms.tolist(), radius, hi2
    )
    pos[:] = rows
    return accepted
