"""Hot inner loop of the sampler.

The single-site Metropolis update is a strictly sequential scalar loop.
:func:`sweep` runs it on Python lists and floats, which index several
times faster than numpy scalars.

Lean check.  A proposal of site ``s`` is accepted iff its six squared
bond lengths lie in ``(1, hi2)``, ``hi2 = (1+epsilon)**2``.  From an
admissible state this decision equals :func:`local_ok` whenever
``hi2 < LEAN_HI2`` (``epsilon < sqrt(3) - 1``) and the proposal radius
``r`` is at most ``epsilon / 2``; :class:`~hardlattice.sampler.Chain`
enforces both.

* Angle sums.  A triangle whose sides all lie in ``(1, 1+epsilon)`` has
  every angle below ``arccos(1 - (1+epsilon)**2 / 2)``, which is below
  ``2*pi/3`` exactly when ``hi2 < 3``.  Each vertex star (the moved
  site's and its neighbours') is six such positively oriented
  triangles, so its angle sum is a positive multiple of ``2*pi`` below
  ``4*pi``: exactly ``2*pi``.  Bond windows and orientations at ``s``
  therefore imply every angle-sum certificate that ``local_ok``
  evaluates.
* Orientations.  Before the move ``s`` sits at ``p0`` and each star
  triangle ``(p0, q_k, q_k+1)`` has sides in ``(1, 1+epsilon)``.  Its
  largest angle lies in ``[pi/3, 2*pi/3)``, so its area is at least
  ``sqrt(3)/4``.  Its base ``q_k q_k+1`` is shorter than
  ``1+epsilon < sqrt(3)``, so ``p0`` sits more than
  ``sqrt(3) / (2*(1+epsilon)) > 1/2`` above the base line.  A proposal
  within ``r <= epsilon/2 < 0.367`` of ``p0`` stays on the same side,
  more than 0.13 from that line; with a base longer than 1, each doubled
  area stays above 0.13.  The edge vectors carry a rounding error of a
  few ulps of the site coordinates (about ``l*N``), so even at
  ``N = 10**4`` the cross product is off by less than ``1e-10``: no
  orientation sign can flip in floats either.  The base bonds do not
  move, so the new star again has all sides in the window and the state
  stays admissible.

The bond lengths are evaluated with the same expressions as
:func:`star_ok`, so trajectories are bitwise those of a loop deciding
with :func:`local_ok`, which stays as the scalar reference.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# The lean check decides every proposal for hi2 = (1 + epsilon)**2 below
# this, i.e. for epsilon < sqrt(3) - 1 (see the module docstring).
LEAN_HI2 = 3.0

# The one kernel there is; recorded in run metadata.
BACKEND = "numpy"


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


def sweep(pos, nbr_idx, nbr_shift, site_order, uniforms, radius, hi2):
    """One attempted disk move per entry of ``site_order``; in-place.

    ``uniforms`` supplies two variates per attempt (radius and angle of
    the proposal).  A proposal is accepted iff the lean check passes;
    rejection leaves the previous position exactly.  Returns the number
    of accepted moves.

    ``pos`` must be admissible on entry, with ``hi2 < LEAN_HI2`` and
    ``radius <= epsilon / 2`` (see the module docstring).  The neighbour
    tables are nested lists, as ``.tolist()`` makes them.
    """
    rows = pos.tolist()
    accepted = 0
    for s, (u_rho, u_phi) in zip(site_order.tolist(), uniforms.tolist()):
        rho = radius * math.sqrt(u_rho)
        phi = TWO_PI * u_phi
        p = rows[s]
        px = p[0] + rho * math.cos(phi)
        py = p[1] + rho * math.sin(phi)
        for j, (sx, sy) in zip(nbr_idx[s], nbr_shift[s]):
            qx, qy = rows[j]
            ex = qx + sx - px
            ey = qy + sy - py
            d2 = ex * ex + ey * ey
            if d2 <= 1.0 or d2 >= hi2:
                break
        else:
            rows[s] = [px, py]
            accepted += 1
    pos[:] = rows
    return accepted
