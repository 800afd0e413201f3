"""Hot inner loop of the sampler.

The single-site Metropolis update is strictly sequential.  :func:`sweep`
runs it either as a scalar loop on Python lists and floats, which index
several times faster than numpy scalars, or, for a visit order in which
no site repeats, with whole-array numpy through a :class:`SweepPlan`.
Both paths give bitwise the same positions and accept counts.

Lean check.  A proposal of site ``s`` is accepted iff its six squared
bond lengths lie in ``(1, hi2)``, ``hi2 = (1+epsilon)**2``.  From an
admissible state this decision equals :func:`local_ok` whenever
``hi2 < LEAN_HI2`` (``epsilon < sqrt(3) - 1``) and the proposal radius
``r`` is at most ``epsilon / 2``; :class:`~hardlattice.sampler.Chain`
enforces both.

* Winding.  A triangle whose sides all lie in ``(1, 1+epsilon)`` has
  every angle below ``arccos(1 - (1+epsilon)**2 / 2)``, which is below
  ``2*pi/3`` exactly when ``hi2 < 3``.  Each vertex star (the moved
  site's and its neighbours') is six such positively oriented
  triangles; their angles at the vertex sum to ``2*pi`` times the
  star's winding number, and the sum lies in ``(0, 4*pi)``, so the
  winding number is 1.  Bond windows and orientations at ``s``
  therefore imply every winding certificate that ``local_ok`` evaluates.
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

Plan sweeps.  In a repeat-free order, attempt ``t`` at site ``s`` reads
each neighbour ``j`` in one of two states: its start-of-sweep position
if ``j`` is not visited before ``t``; if ``j`` is visited at ``t' < t``,
its proposal when ``t'`` was accepted and its start position otherwise.
Proposals do not depend on any outcome, because each site is proposed
once, from its start position.  So each of the six bond tests has at
most two verdicts, and both are computed up front; accept(t) is the AND
of the six selected verdicts.  A row whose slots pass under both
outcomes is accepted, one with a slot failing under both is rejected,
and the remaining rows are resolved by iterating ``acc <- F(acc)`` on
them until nothing changes.  Every dependency points to an earlier
attempt, so the recurrence runs over a DAG: ``F`` has exactly one fixed
point, reached after at most the longest dependency chain plus one
rounds, and it is the scalar loop's sequence of decisions.  Proposals
and bond tests use the scalar loop's expressions in the same order;
numpy's ``sqrt``, ``cos`` and ``sin`` must equal ``math``'s bitwise,
which the tests pin on the running CPU.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# The lean check decides every proposal for hi2 = (1 + epsilon)**2 below
# this, i.e. for epsilon < sqrt(3) - 1 (see the module docstring).
LEAN_HI2 = 3.0

# The one kernel there is; recorded in run metadata.
BACKEND = "numpy"

# Chains with at least this many sites run raster sweeps through a
# SweepPlan.  The measured crossover lies between N = 8 (a tie) and N = 9
# (the plan 8-15 % faster); see README, "Kernel".
PLAN_MIN_SITES = 81


def star_ok(pos, nbr_idx, nbr_shift, s, hi2, check_bonds):
    """Local admissibility walk around site ``s``.

    Checks, over the six neighbors in counterclockwise order: squared
    bond lengths strictly inside ``(1, hi2)`` (only when
    ``check_bonds``), positive orientation of the six incident triangles
    (a NaN cross product fails), and winding number 1 of the neighbour
    hexagon around ``s``.  With ``s`` left of every hexagon edge ``a b``,
    that number is the count of edges with ``a_y <= 0 < b_y`` (Sunday's
    crossing rule); a rounded difference has the exact one's sign.
    """
    px = pos[s, 0]
    py = pos[s, 1]
    e = []
    for k in range(6):
        j = nbr_idx[s, k]
        ex = pos[j, 0] + nbr_shift[s, k, 0] - px
        ey = pos[j, 1] + nbr_shift[s, k, 1] - py
        if check_bonds:
            d2 = ex * ex + ey * ey
            if d2 <= 1.0 or d2 >= hi2:
                return False
        e.append((ex, ey))
    crossings = 0
    for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]):
        if not ax * by - ay * bx > 0.0:
            return False
        crossings += ay <= 0.0 < by
    return crossings == 1


def local_ok(pos, nbr_idx, nbr_shift, s, hi2):
    """Full local decision for the current position of site ``s``.

    Bond window and orientation at ``s`` plus windings at ``s`` and at
    each of its six neighbors; these are exactly the constraints a move
    of ``s`` can affect.
    """
    if not star_ok(pos, nbr_idx, nbr_shift, s, hi2, True):
        return False
    for k in range(6):
        v = nbr_idx[s, k]
        if not star_ok(pos, nbr_idx, nbr_shift, v, hi2, False):
            return False
    return True


class SweepPlan(NamedTuple):
    """Precomputed gathers of a repeat-free visit order; see :func:`plan`.

    Row ``t`` belongs to the attempt at ``order[t]``; column ``k`` to its
    ``k``-th neighbour.  ``gather[g]`` indexes ``concat(start positions,
    proposals)``: ``g = 0`` is the neighbour's start position, ``g = 1``
    its proposal when it was visited earlier (else its start position
    again).  ``pred`` is that earlier attempt's row, 0 where there is
    none (both outcomes then read the same position).
    """

    order: np.ndarray  # (M,) sites in visit order
    gather: np.ndarray  # (2, M, 6)
    shift_x: np.ndarray  # (M, 6)
    shift_y: np.ndarray  # (M, 6)
    pred: np.ndarray  # (M, 6)


def plan(nbr_idx, nbr_shift, order) -> SweepPlan:
    """Build the :class:`SweepPlan` of ``order`` over the neighbour tables.

    ``nbr_idx`` is the ``(n, 6)`` neighbour index array,
    ``nbr_shift`` the ``(n, 6, 2)`` image shifts and ``order`` an
    integer array of sites.  Sites not in
    ``order`` never move.  Raises ``ValueError`` if a site repeats: the
    two-outcome argument of the module docstring needs each site
    proposed once, from its start position.
    """
    n, m = len(nbr_idx), order.size
    if np.bincount(order, minlength=n).max() > 1:
        raise ValueError("a sweep plan needs a visit order in which no site repeats")
    rank = np.full(n, m, dtype=np.int64)
    rank[order] = np.arange(m)
    nbr = nbr_idx[order]
    nbr_rank = rank[nbr]
    earlier = nbr_rank < np.arange(m)[:, None]
    gather = np.stack([nbr, np.where(earlier, n + nbr_rank, nbr)])
    shift = nbr_shift[order]
    return SweepPlan(
        order=order,
        gather=gather,
        shift_x=np.ascontiguousarray(shift[..., 0]),
        shift_y=np.ascontiguousarray(shift[..., 1]),
        pred=np.where(earlier, nbr_rank, 0),
    )


def neighbour_triples(nbr_idx, nbr_shift) -> list:
    """Per site, its six neighbours as ``(j, sx, sy)`` Python tuples."""
    return [
        [(j, sx, sy) for j, (sx, sy) in zip(row, shifts)]
        for row, shifts in zip(nbr_idx.tolist(), nbr_shift.tolist())
    ]


def sweep(pos, nbrs, visits, uniforms, radius, hi2):
    """One attempted disk move per visit; in-place.

    ``visits`` is either an integer array of sites, run by the scalar
    loop over ``nbrs`` (the :func:`neighbour_triples` of the tables), or
    a :class:`SweepPlan`, run with whole-array numpy (``nbrs`` is then
    not read).  Both give bitwise the same positions and count.
    ``uniforms`` supplies two variates per attempt (radius and angle of
    the proposal).  A proposal is accepted iff the lean check passes;
    rejection leaves the previous position exactly.  Returns the number
    of accepted moves.

    ``pos`` must be admissible on entry, with ``hi2 < LEAN_HI2`` and
    ``radius <= epsilon / 2`` (see the module docstring).
    """
    if isinstance(visits, SweepPlan):
        return _plan_sweep(pos, visits, uniforms, radius, hi2)
    return _scalar_sweep(pos, nbrs, visits, uniforms, radius, hi2)


def _scalar_sweep(pos, nbrs, order, uniforms, radius, hi2):
    xs = pos[:, 0].tolist()
    ys = pos[:, 1].tolist()
    accepted = 0
    for s, (u_rho, u_phi) in zip(order.tolist(), uniforms.tolist()):
        rho = radius * math.sqrt(u_rho)
        phi = TWO_PI * u_phi
        px = xs[s] + rho * math.cos(phi)
        py = ys[s] + rho * math.sin(phi)
        for j, sx, sy in nbrs[s]:
            ex = xs[j] + sx - px
            ey = ys[j] + sy - py
            d2 = ex * ex + ey * ey
            if d2 <= 1.0 or d2 >= hi2:
                break
        else:
            xs[s] = px
            ys[s] = py
            accepted += 1
    pos[:, 0] = xs
    pos[:, 1] = ys
    return accepted


def _plan_sweep(pos, plan, uniforms, radius, hi2):
    rho = radius * np.sqrt(uniforms[:, 0])
    phi = TWO_PI * uniforms[:, 1]
    start = pos[plan.order]
    px = start[:, 0] + rho * np.cos(phi)
    py = start[:, 1] + rho * np.sin(phi)
    xs = np.concatenate((pos[:, 0], px))
    ys = np.concatenate((pos[:, 1], py))
    ex = xs[plan.gather] + plan.shift_x - px[:, None]
    ey = ys[plan.gather] + plan.shift_y - py[:, None]
    d2 = ex * ex + ey * ey
    ok_old, ok_new = (d2 > 1.0) & (d2 < hi2)
    acc = (ok_old & ok_new).all(axis=1)
    amb = ~acc & (ok_old | ok_new).all(axis=1)
    if amb.any():
        _fixed_point(acc, amb, ok_old, ok_new, plan.pred)
    moved = plan.order[acc]
    pos[moved, 0] = px[acc]
    pos[moved, 1] = py[acc]
    return int(np.count_nonzero(acc))


def _fixed_point(acc, amb, ok_old, ok_new, pred):
    """Resolve the ambiguous rows of ``acc`` in place; returns the rounds.

    Each round re-decides every ambiguous row from the current flags of
    its predecessors.  It stops when a round changes nothing, so ``acc``
    is a fixed point, the unique one.  Over a DAG that takes at most one
    round more than there are ambiguous rows; any more means ``pred``
    holds a cycle, and raises ``RuntimeError`` instead of looping.
    """
    ok_old, ok_new, pred = ok_old[amb], ok_new[amb], pred[amb]
    for rounds in range(1, len(pred) + 2):
        new = np.where(acc[pred], ok_new, ok_old).all(axis=1)
        if np.array_equal(new, acc[amb]):
            return rounds
        acc[amb] = new
    raise RuntimeError("sweep plan fixed point did not settle: its predecessors hold a cycle")
