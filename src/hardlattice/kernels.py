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

* Injectivity.  By the lemma in :mod:`~hardlattice.configuration`,
  omega3 decides omega2, so a move of ``s`` can change only its six bond
  lengths and the orientations of its six incident triangles, which is
  what :func:`local_ok` checks.
* Orientations.  A triangle whose sides all lie in ``(1, 1+epsilon)``
  has every angle below ``arccos(1 - (1+epsilon)**2 / 2)``, which is
  below ``2*pi/3`` exactly when ``hi2 < 3``.  Before the move ``s`` sits
  at ``p0`` and each star triangle ``(p0, q_k, q_k+1)`` has sides in
  ``(1, 1+epsilon)``.  Its largest angle lies in ``[pi/3, 2*pi/3)``, so
  its area is at least ``sqrt(3)/4``.  Its base ``q_k q_k+1`` is shorter
  than ``1+epsilon < sqrt(3)``, so ``p0`` sits more than
  ``sqrt(3) / (2*(1+epsilon)) > 1/2`` above the base line.  A proposal
  within ``r <= epsilon/2 < 0.367`` of ``p0`` stays on the same side,
  more than 0.13 from that line; with a base longer than 1, each doubled
  area stays above 0.13.  The edge vectors carry a rounding error of a
  few ulps of the site coordinates (about ``l*N``), so even at
  ``N = 10**4`` the cross product is off by less than ``1e-10``: no
  orientation sign can flip in floats either.  The base bonds do not
  move, so the new star again has all sides in the window and the state
  stays admissible.

The bond lengths are evaluated with :func:`local_ok`'s expressions, so
trajectories are bitwise those of a loop deciding with it; it stays as
the scalar reference.

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

Plan layout.  A plan sweep reads and writes ``pos`` through a complex128
view ``x + iy`` of the same memory, so ``pos`` must be a C-contiguous
``(n, 2)`` float64 array; anything else raises ``ValueError``, because
moves written to a copy would be lost.  Complex addition and subtraction
act on each component alone, so with the shifts stored as complex the
edge vectors are the scalar loop's bitwise, from one gather per outcome
out of ``concat`` (the start positions, then the proposals), and the
accepted proposals go back in one masked write.  The edges are laid out
slot-major, ``(2, 6, M)``, so the shift and the proposal broadcast along
whole contiguous rows.  The bond verdicts go into ``(2, M, 8)`` rows
whose two pad columns are always True: each attempt's eight verdict
bytes, read as one ``uint64``, equal :data:`ALL_PASS` exactly when its
six bonds pass, in the sweep and in every fixed-point round.  The plan
holds ``concat`` and the verdicts, and every sweep overwrites them, so
one plan serves one chain at a time.
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
# SweepPlan.  The measured crossover lies between N = 6 (a tie) and N = 7
# (the plan 12-22 % faster); see README, "Kernel".
PLAN_MIN_SITES = 49


def local_ok(pos, nbr_idx, nbr_shift, s, hi2):
    """Local admissibility of site ``s`` at its current position.

    Its six squared bond lengths lie strictly inside ``(1, hi2)`` and its
    six incident triangles, over the neighbours in counterclockwise
    order, are positively oriented (a NaN cross product fails).  When
    every constraint not involving ``s`` holds, these decide whether the
    state is admissible: by the lemma in
    :mod:`~hardlattice.configuration`, omega3 implies omega2.
    """
    px = pos[s, 0]
    py = pos[s, 1]
    e = []
    for k in range(6):
        j = nbr_idx[s, k]
        ex = pos[j, 0] + nbr_shift[s, k, 0] - px
        ey = pos[j, 1] + nbr_shift[s, k, 1] - py
        d2 = ex * ex + ey * ey
        if d2 <= 1.0 or d2 >= hi2:
            return False
        e.append((ex, ey))
    return all(ax * by - ay * bx > 0.0 for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]))


class SweepPlan(NamedTuple):
    """Precomputed gathers and work buffers of a repeat-free visit order; see :func:`plan`.

    Attempt ``t`` is the visit of ``order[t]``; slot ``k`` is its
    ``k``-th neighbour.  ``gather[g, k, t]`` indexes ``concat``: ``g = 0``
    is the neighbour's start position, ``g = 1`` its proposal when it
    was visited earlier (else its start position again).  ``pred[t, k]``
    is that earlier attempt, 0 where there is none (both outcomes then
    read the same position) and in the two pad columns.
    """

    order: np.ndarray  # (M,) sites in visit order
    gather: np.ndarray  # (2, 6, M) indices into concat
    shift: np.ndarray  # (6, M) complex128 image shifts
    pred: np.ndarray  # (M, 8) predecessor attempts
    concat: np.ndarray  # (n + M,) complex128: start positions, then proposals
    verdicts: np.ndarray  # (2, M, 8) bool, True in the pad columns
    rows: np.ndarray  # (2, M) the verdicts as one uint64 per attempt


# An attempt's verdict row read as one uint64 when all eight bytes are True.
ALL_PASS = np.ones(8, dtype=bool).view(np.uint64)[0]


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
    nbr = nbr_idx[order].T
    nbr_rank = rank[nbr]
    earlier = nbr_rank < np.arange(m)
    shift = np.ascontiguousarray(nbr_shift[order], dtype=np.float64).view(np.complex128)
    pred = np.zeros((m, 8), dtype=np.int64)
    pred[:, :6] = np.where(earlier, nbr_rank, 0).T
    verdicts = np.ones((2, m, 8), dtype=bool)
    return SweepPlan(
        order=order,
        gather=np.stack([nbr, np.where(earlier, n + nbr_rank, nbr)]),
        shift=np.ascontiguousarray(shift[..., 0].T),
        pred=pred,
        concat=np.empty(n + m, dtype=np.complex128),
        verdicts=verdicts,
        rows=verdicts.view(np.uint64)[..., 0],
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
    z = _complex_view(pos)
    n = z.size
    concat = plan.concat
    prop = concat[n:]
    rho = radius * np.sqrt(uniforms[:, 0])
    phi = TWO_PI * uniforms[:, 1]
    step = np.empty((2, rho.size))
    np.cos(phi, out=step[0])
    np.sin(phi, out=step[1])
    step *= rho
    concat[:n] = z
    np.take(z, plan.order, out=prop, mode="clip")
    xy = prop[:, None].view(np.float64)
    xy += step.T
    e = np.take(concat, plan.gather, mode="clip")
    e += plan.shift
    e -= prop
    sq = e[..., None].view(np.float64)
    np.multiply(sq, sq, out=sq)
    d2 = sq[..., 0] + sq[..., 1]
    ok = plan.verdicts[..., :6].transpose(0, 2, 1)
    np.greater(d2, 1.0, out=ok)
    ok &= d2 < hi2
    old, new = plan.rows
    acc = (old & new) == ALL_PASS
    amb = np.flatnonzero(((old | new) == ALL_PASS) != acc)
    if amb.size:
        _fixed_point(acc, amb, old, new, plan.pred)
    moved = plan.order[acc]
    z[moved] = prop[acc]
    return moved.size


def _complex_view(pos):
    """``pos`` as ``(n,)`` complex128 ``x + iy`` sharing its memory; ``ValueError`` unless it can."""
    if pos.dtype != np.float64 or pos.ndim != 2 or pos.shape[1] != 2 or not pos.flags.c_contiguous:
        raise ValueError(
            "a plan sweep needs positions as a C-contiguous (n, 2) float64 array, got "
            f"{pos.dtype} of shape {pos.shape}"
        )
    return pos.view(np.complex128)[:, 0]


def _fixed_point(acc, amb, old, new, pred):
    """Resolve the ambiguous rows ``amb`` of ``acc`` in place; returns the rounds.

    Each round re-decides every ambiguous row from the current flags of
    its predecessors.  It stops when a round changes nothing, so ``acc``
    is a fixed point, the unique one.  Over a DAG that takes at most one
    round more than there are ambiguous rows; any more means ``pred``
    holds a cycle, and raises ``RuntimeError`` instead of looping.

    ``old`` and ``new`` are the packed verdict rows.  A slot whose two
    verdicts differ (a byte of ``flip``) reads the new one exactly when
    its predecessor's flag is set; the pad slots never differ.  Rounds
    compare the rows' flags as bytes; the ambiguous rows start rejected.
    """
    old = old[amb]
    flip = old ^ new[amb]
    pred = pred[amb]
    now = bytes(amb.size)
    for rounds in range(1, amb.size + 2):
        nxt = (old ^ (flip & acc[pred].view(np.uint64)[:, 0])) == ALL_PASS
        key = nxt.tobytes()
        if key == now:
            return rounds
        acc[amb] = nxt
        now = key
    raise RuntimeError("sweep plan fixed point did not settle: its predecessors hold a cycle")
