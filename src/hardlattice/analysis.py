"""Certified inequalities, a proved constant, and the experiment grid.

Two kinds of result live here.  The oracle side certifies the
first-order area bound on the bond window (the exact sign of one cubic
in epsilon), probes the squared variant on random side-length triples,
and proves the triangle rigidity constant, with a Monte Carlo estimate
on the same domain as its independent check.  The experiment side runs
one chain per ``(N, l)`` grid point, evaluates the exact identity suite
on every emitted sample, and aggregates order-parameter and bond
statistics with batch-means error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import geometry, observables
from .configuration import _BINV, LAMBDA0, Configuration, check_epsilon, check_side_length
from .fileio import atomic_write_text
from .lattice import SQRT3, UP, check_int, check_lattice_size
from .observables import identity_suite
from .sampler import Chain, SamplerParams, check_lean_regime

FOUR_SQRT3 = 4.0 * SQRT3


class CertificationError(RuntimeError):
    """The requested window is not certified."""


class IdentityFailureError(RuntimeError):
    """An exact identity failed on an emitted sample."""


# ---------------------------------------------------------------------------
# Area bound certification
#
# The inequality under test: for side lengths a_i in [1, 1+eps],
#     (a1-1 + a2-1 + a3-1) / (4*sqrt(3))  <=  area(a) - area(1,1,1).
# It holds on the whole box exactly when one cubic in eps is positive;
# the proof is in certify_epsilon's docstring.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsilonCertificate:
    epsilon: float
    margin: float  # lower bound on q when certified, q at the witness corner otherwise
    certified: bool


def certify_epsilon(epsilon: float, certification_grid=None) -> EpsilonCertificate:
    """Exact certificate for the area bound on the ``epsilon`` window.

    ``certified`` means the first-order bound holds on the whole
    side-length box ``[1, 1 + epsilon]^3``.  It is the sign of the cubic

        k(eps) = 2 - 7 eps/3 - 4 eps^2 - eps^3 = (eps + 3)(2 - 3 eps - 3 eps^2) / 3,

    evaluated in rational arithmetic on the exact value of ``epsilon``.
    ``margin`` bounds the normalized slack q = f/S, where S = sum (a_i - 1)
    and f = area(a) - area(1,1,1) - S/(4 sqrt 3).  When certified it is
    a lower bound on q over the box minus the unit corner.  Otherwise it
    is q at the witness corner (1 + eps, 1, 1): nonpositive, and direct
    evidence that the bound fails there.

    Proof.  Write a_i = 1 + d_i with d_i in [0, eps], S = sum d_i, and
    Q, C, F = sum d_i^2, sum d_i^3, sum d_i^4.  Let
    B = sqrt(3)/4 + S/(4 sqrt 3) > 0, so that the bound reads area >= B.

    * By Heron, 16 area^2 = P(a) = (a1+a2+a3)(-a1+a2+a3)(a1-a2+a3)(a1+a2-a3),
      and 16 B^2 = 3 + 2S + S^2/3.  So the bound holds iff
      G = P(1 + d) - 3 - 2S - S^2/3 >= 0.
    * Expanding,

          G = sum_i d_i k(d_i) + (11/3)(S^2 - Q) + 4(SQ - C) + (Q^2 - F).

      The brackets are 2 sum_{i<j} d_i d_j, sum_{i!=j} d_i d_j^2 and
      2 sum_{i<j} d_i^2 d_j^2: sums of products of nonnegative d_i.
    * k decreases on [0, inf), so G >= sum_i d_i k(eps) = S k(eps).  At
      the corner (1 + eps, 1, 1), G = eps k(eps).  So the bound holds on
      the whole box iff k(eps) >= 0.
    * The positive root of k is eps* = (sqrt(33) - 3)/6 = 0.4574271077563381...,
      the corner crossing of the bound.  It is irrational, so k(eps) is
      never 0 at a rational epsilon, every float included, and
      ``certified`` is k(eps) > 0.  The float 0.4574271077563381
      certifies; the next float up, 0.45742710775633816, does not.

    Margin.  f = area - B = G / (16 (area + B)), so q = G / (16 S (area + B)).

    * Certified: q >= k(eps) / (16 (area + B)).  Every side is at most
      1 + eps, so area <= (sqrt(3)/4)(1 + eps)^2, and S <= 3 eps gives
      B <= (sqrt(3)/4)(1 + eps).  Hence
      q >= k(eps) / (4 sqrt(3) ((1 + eps)^2 + 1 + eps)), the reported margin.
    * Not certified: at the witness corner S = eps, so
      q = k(eps) / (16 (area + B)), whose sign is that of k(eps).

    ``certification_grid`` is accepted and ignored: the benchmark's set-up
    probe still passes the config key of that name.
    """
    check_epsilon(epsilon)
    e = Fraction(epsilon)
    k = 2 - Fraction(7, 3) * e - 4 * e**2 - e**3
    eps = float(epsilon)
    if k > 0:
        margin = float(k) / (FOUR_SQRT3 * ((1.0 + eps) ** 2 + 1.0 + eps))
    else:
        a = 1.0 + eps  # the corner (a, 1, 1) is isosceles: area (a/4) sqrt(4 - a^2)
        corner_area = 0.25 * a * math.sqrt(4.0 - a * a)
        margin = float(k) / (16.0 * (corner_area + LAMBDA0 + eps / FOUR_SQRT3))
    return EpsilonCertificate(epsilon, margin, k > 0)


# Side-length triples (or scalar-step draws) per block of the squared-bound
# check, drawn into one buffer; any size keeps the stream, 8k the work ~1 MB.
_SQUARED_DRAW = 8192


@dataclass
class SquaredBoundReport:
    epsilon: float
    n_samples: int
    n_violations: int
    min_margin: float
    scalar_ok: bool

    @property
    def ok(self) -> bool:
        return self.n_violations == 0 and self.scalar_ok


def verify_squared_bound(
    epsilon: float,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> SquaredBoundReport:
    """Check the squared side-deviation bound on random triples.

    Tests ``sum (a_i-1)^2 <= 4*sqrt(3)*eps*(area(a) - area0)`` on uniform
    side-length triples in the window, together with the scalar step
    ``(a-1)^2 <= eps*(a-1)`` it rests on.  Requires a certified window.
    Triples, then the 100k scalar draws, are drawn in blocks of
    :data:`_SQUARED_DRAW` into one buffer; that consumes the same stream
    as one draw each, and no result depends on the blocks.
    """
    check_int(n_samples, "n_samples", 1)
    if not certify_epsilon(epsilon).certified:
        raise CertificationError(
            f"epsilon = {epsilon} is not certified; the squared bound presupposes it"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(3 * _SQUARED_DRAW)
    violations = 0
    min_margin = math.inf
    for start in range(0, n_samples, _SQUARED_DRAW):
        u = rng.random(out=buf[: 3 * min(_SQUARED_DRAW, n_samples - start)]).reshape(-1, 3)
        margin = _squared_bound_margins(u, epsilon)
        violations += int(np.count_nonzero(~(margin >= 0.0)))  # a NaN margin violates
        min_margin = _fold_min(min_margin, float(margin.min()))
    scalar_ok = True
    for start in range(0, 100_000, _SQUARED_DRAW):
        d = 1.0 + epsilon * rng.random(out=buf[: min(_SQUARED_DRAW, 100_000 - start)]) - 1.0
        scalar_ok &= bool(np.all(d * d <= epsilon * d))
    return SquaredBoundReport(epsilon, n_samples, violations, min_margin, scalar_ok)


def _squared_bound_margins(u: np.ndarray, epsilon: float) -> np.ndarray:
    """``rhs - lhs`` of the squared bound for the sides ``1 + epsilon*u``, ``u`` of shape ``(n, 3)``.

    Sums and Heron's product ``s0*s1*s2*s3`` run left to right, as the
    formula reads and as ``np.sum(axis=1)`` adds three columns, so every
    margin is bitwise that of the formula on numpy's row sums.
    """
    a0, a1, a2 = a = 1.0 + epsilon * u.T
    dev = a - 1.0
    lhs = dev[0] * dev[0] + dev[1] * dev[1] + dev[2] * dev[2]
    prod = (a0 + a1 + a2) * (-a0 + a1 + a2) * (a0 - a1 + a2) * (a0 + a1 - a2)
    lam = 0.25 * np.sqrt(np.clip(prod, 0.0, None))
    return FOUR_SQRT3 * epsilon * (lam - 0.25 * math.sqrt(3.0)) - lhs


# ---------------------------------------------------------------------------
# Rigidity constant of the per-triangle bound
# ---------------------------------------------------------------------------

RIGIDITY_CONSTANT = 2
"""Proved constant of the per-triangle rigidity bound on the bond window.

Let a triangle have sides ``a_k = 1 + d_k`` with ``0 <= d_k <= m <= 1``,
and let ``A`` be its gradient over the unit reference triangle
(``det A > 0``).  Then

    dist(A, SO(2))^2 <= 2 m^2,    m = max_k d_k,

with equality on the dilations ``d = (t, t, t)``, where ``A = (1 + t) R``
and ``dist^2 = 2 t^2``.  Every side of a state of Omega lies in
``(1, 1 + eps)`` with ``eps <= 1``, which covers the certified window
``eps < eps* ~ 0.4574``.  The deviations are one-sided: with sides below
one the supremum is larger (about 4.1 at sides ``(0.9, 0.9, 1.1)``).

Proof.  Let ``v_k`` be the reference edge directions, at 0, 60 and 120
degrees, ``s_k = |A v_k|^2 = a_k^2``, which lie in ``[1, M]`` with
``M = (1 + m)^2``, and ``sigma_1 >= sigma_2 > 0`` the singular values of
``A``.

1. ``dist^2 = f(sigma_1^2) + f(sigma_2^2)`` with ``f(z) = (sqrt(z) - 1)^2``,
   which is convex on ``[0, inf)``, decreasing on ``[0, 1]`` and
   increasing on ``[1, inf)``.
2. ``A^T A`` has eigenvalues ``sigma^2 = a +- R``, and ``|A v|^2`` at angle
   ``theta`` is ``a + R cos(2 theta - psi)``.  The three angles
   ``2 theta_k`` are 0, 120 and 240 degrees, so
   ``s_k = a + R cos(phi + 2 pi k/3)``, ``a`` is the mean of the ``s_k``
   and ``R^2 = (2/3) sum_k (s_k - a)^2``.  Write
   ``D(a, R) = f(a + R) + f(a - R)``, which is convex where ``a >= R``.
3. Fix ``phi``.  The three cosines ``c_k`` sum to zero, so
   ``c_min < 0 < c_max``, and ``s`` lies in ``[1, M]^3`` exactly when
   ``R >= 0``, ``a + R c_max <= M`` and ``a + R c_min >= 1`` (the middle
   ``s_k`` lies between the other two).  These ``(a, R)`` form a triangle
   with vertices ``(1, 0)``, ``(M, 0)`` and an apex where
   ``s = (M, 1, sigma)`` in some order, ``sigma`` in ``[1, M]``.  The
   affine ``a - R`` is ``1`` and ``M`` at the first two and, by step 5,
   nonnegative at the apex, so ``D`` is convex on the triangle and peaks at
   a vertex: ``D(1, 0) = 0``, ``D(M, 0) = 2 f(M) = 2 m^2``, or the apex.
4. Along the apexes ``s = (M, 1, sigma)``, ``a`` is affine in ``sigma``
   and ``R``, the norm of an affine map, is convex.  Since
   ``a + R >= max s = M >= 1`` and ``a - R <= min s = 1``, and ``f`` is
   convex and monotone on each side of 1, ``D`` is convex in ``sigma``
   and peaks at ``s = (M, 1, 1)`` or ``s = (M, M, 1)``.
5. At ``(M, 1, 1)``: ``a + R = M`` and ``a - R = (4 - M)/3 >= 0``, so
   ``D = m^2 + (1 - sqrt((4 - M)/3))^2``, and ``D <= 2 m^2`` iff
   ``3 (1 - m)^2 <= 4 - M`` iff ``4 m (1 - m) >= 0``.
   At ``(M, M, 1)``: ``a + R = (4M - 1)/3`` and ``a - R = 1``, so
   ``D = (sqrt((4M - 1)/3) - 1)^2``, and ``D <= 2 m^2`` iff
   ``(4M - 1)/3 <= (1 + sqrt(2) m)^2`` iff ``(6 sqrt(2) - 8) m + 2 m^2 >= 0``.
   Both hold for ``0 <= m <= 1``.  ``a - R`` is concave in ``sigma``, so
   along the apexes it is at least ``min((4 - M)/3, 1) >= 0``.

:func:`estimate_rigidity_constant` samples the same domain as an
independent check.
"""

# Absolute allowance of the per-triangle check for the rounding of its two
# sides; the derivation is in check_estimate_chain's docstring.
_RIGIDITY_ALLOWANCE = 2.0**-46

# Triangles per block of the rigidity estimate, drawn into one buffer: the
# same stream as one draw per triangle; 4k ran as fast as 8k at half the
# 1.4 MB peak.
_RIGIDITY_BLOCK = 4096

# Candidate matrices drawn per block by the SO(2) agreement check; about
# half survive the det > 0 rejection.
_AGREEMENT_DRAW = 256

# Triangles drawn per block by the Heron check, into one buffer: the same
# stream as one draw per triangle, and 2k keeps a block's pass near 0.5 MB.
_HERON_DRAW = 2048


def _fold_max(worst: float, x: float) -> float:
    """``max(worst, x)``, except that a NaN ``x`` is kept.

    Python's ``max(0.0, nan)`` is ``0.0``, so a plain fold drops a NaN
    and a check built on it passes; ``max(nan, x)`` is already ``nan``.
    """
    return x if x != x else max(worst, x)


def _fold_min(worst: float, x: float) -> float:
    """``min(worst, x)``, except that a NaN ``x`` is kept; see :func:`_fold_max`."""
    return x if x != x else min(worst, x)


@dataclass
class RigidityConstantEstimate:
    c_hat: float
    epsilon: float
    n_samples: int
    seed: int

    @property
    def ok(self) -> bool:
        """``c_hat`` is within the rounding allowance of :data:`RIGIDITY_CONSTANT`.

        A NaN fails.  A ratio carries a rounding error of about
        ``1e-14 / t^2``, ``t`` its largest deviation, so it can pass
        ``2 + 2**-46`` only for a draw that nearly lies on the diagonal
        ``(t, t, t)``, where the bound is an equality: a uniform draw in
        ``(0, epsilon]^3`` lands there with probability about
        ``3e-21 / epsilon^3``.
        """
        return self.c_hat <= RIGIDITY_CONSTANT + _RIGIDITY_ALLOWANCE


def _one_sided_gradients(d: np.ndarray) -> np.ndarray:
    """Gradients of the triangles with sides ``1 + d``, ``d`` of shape ``(n, 3)``.

    Side ``k`` is the image of the reference edge ``v_k``: ``c0 = 0``,
    ``c1 = (a1, 0)``, and ``c2 = (x, y)`` from the law of cosines, with
    the height ``y`` from Heron's product, whose factors are nonnegative
    for sides in ``[1, 2]``.  The gradient is ``[c1 c2] @ B_UP^-1``, the
    matrix :func:`configuration.triangle_gradients` uses for an UP
    triangle, taken as one GEMM over the edge rows of all triangles: a
    stacked matmul makes one BLAS call per triangle, and the GEMM's
    entries are its entries bitwise (pinned by the tests).
    """
    a1, a2, a3 = (1.0 + d).T
    x = (a1 * a1 + a2 * a2 - a3 * a3) / (2.0 * a1)
    y = np.sqrt((a1 + a2 + a3) * (-a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)) / (2.0 * a1)
    edges = np.zeros((len(d), 2, 2))
    edges[:, 0, 0] = a1
    edges[:, 0, 1] = x
    edges[:, 1, 1] = y
    return (edges.reshape(-1, 2) @ _BINV[UP]).reshape(-1, 2, 2)


def estimate_rigidity_constant(
    n_samples: int = 1_000_000,
    epsilon: float = 0.1,
    seed: int = 0,
) -> RigidityConstantEstimate:
    """Empirical supremum of ``dist(A, SO(2))^2 / max_k d_k^2`` on the bond window.

    Draws the side deviations ``d`` uniform in ``(0, epsilon]^3``, the
    domain of :data:`RIGIDITY_CONSTANT`, builds each triangle's gradient
    with :func:`_one_sided_gradients` and takes its distance from
    :func:`geometry.dist_so2_batch`.  Every draw is kept, so
    ``n_samples`` is exact.  The draws come in blocks of
    :data:`_RIGIDITY_BLOCK` into one buffer, which consumes the same
    stream as one draw per triangle.  A NaN ratio is kept.
    """
    check_int(n_samples, "n_samples", 1)
    check_epsilon(epsilon)
    rng = np.random.Generator(np.random.PCG64(seed))
    buf = np.empty(3 * min(_RIGIDITY_BLOCK, n_samples))
    c_hat = 0.0
    for start in range(0, n_samples, _RIGIDITY_BLOCK):
        u = rng.random(out=buf[: 3 * min(_RIGIDITY_BLOCK, n_samples - start)]).reshape(-1, 3)
        d = epsilon * (1.0 - u)  # 1 - u in (0, 1], so d holds no -0.0
        dmax = geometry._fold_columns(np.maximum, d)
        ratios = geometry.dist_so2_batch(_one_sided_gradients(d)) ** 2 / dmax**2
        c_hat = _fold_max(c_hat, float(ratios.max()))
    return RigidityConstantEstimate(c_hat, epsilon, n_samples, seed)


def dist_so2_agreement(n_matrices: int = 10_000, n_grid: int = 3600, seed: int = 0) -> float:
    """Max |closed form - grid search| of the SO(2) distance over random
    det-positive matrices (standard normal entries, rejected to det > 0).

    Candidates are drawn in blocks, which consumes the same stream as one
    draw per matrix.  The grid search and the closed form under test,
    :func:`geometry.dist_so2_batch`, then run once on all survivors: the
    grid is built once, and the grid search bounds its own memory by
    chunks.  A NaN difference is kept."""
    check_int(n_matrices, "n_matrices", 1)
    check_int(n_grid, "n_grid", geometry.MIN_GRID_SIZE)
    rng = np.random.Generator(np.random.PCG64(seed))
    M = np.empty((n_matrices, 2, 2))
    done = 0
    while done < n_matrices:
        draw = rng.standard_normal((_AGREEMENT_DRAW, 2, 2))
        draw = draw[draw[:, 0, 0] * draw[:, 1, 1] - draw[:, 0, 1] * draw[:, 1, 0] > 0.0]
        M[done : done + len(draw)] = draw[: n_matrices - done]
        done += len(draw)
    diff = np.abs(geometry.dist_so2_batch(M) - geometry.dist_so2_bruteforce(M, n_grid))
    return float(diff.max())


def heron_cross_agreement(n_triangles: int = 10_000, seed: int = 0, jitter: float = 0.05) -> float:
    """Max relative difference between the side-length area formula and the
    cross-product area on random perturbations of the unit triangle.

    The corners are drawn in blocks into one buffer, and each block is
    checked in one array pass: the sides by ``math.hypot``, then the
    expressions of :func:`geometry.heron_area` and
    :func:`geometry.signed_area` in their order, so every ratio is
    bitwise theirs.  A NaN ratio is kept.  The first triangle, in draw
    order, on which those scalars raise makes this raise the same error."""
    check_int(n_triangles, "n_triangles", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    buf = np.empty((min(_HERON_DRAW, n_triangles), 3, 2))
    worst = 0.0
    for start in range(0, n_triangles, _HERON_DRAW):
        u = rng.random(out=buf[: min(_HERON_DRAW, n_triangles - start)])
        p0x, p0y, p1x, p1y, p2x, p2y = (base + jitter * (2.0 * u - 1.0)).reshape(-1, 6).T
        with np.errstate(all="ignore"):  # as on Python floats, which warn of nothing
            a1, a2, a3 = (
                np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))
                for x, y in ((p1x - p0x, p1y - p0y), (p2x - p1x, p2y - p1y), (p0x - p2x, p0y - p2y))
            )
            rad = (a1 + a2 + a3) * (-a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)
            c = np.abs(0.5 * ((p1x - p0x) * (p2y - p0y) - (p1y - p0y) * (p2x - p0x)))
            bad = (a1 <= 0.0) | (a2 <= 0.0) | (a3 <= 0.0) | (rad <= 0.0) | (c == 0.0)
            if bad.any():  # rerun the first bad triangle through the scalars, which raise
                i = int(np.argmax(bad))
                geometry.heron_area(float(a1[i]), float(a2[i]), float(a3[i]))
                raise ZeroDivisionError("float division by zero")
            worst = _fold_max(worst, float((np.abs(0.25 * np.sqrt(rad) - c) / c).max()))
    return worst


# ---------------------------------------------------------------------------
# Per-configuration chain of estimates
# ---------------------------------------------------------------------------


@dataclass
class EstimateChainReport:
    """Margins (rhs - lhs, or tolerance - error) of the four per-sample checks."""

    triangle_bound_margin: float
    l2_vs_side_sum_margin: float
    side_sum_vs_area_margin: float
    frame_margin: float
    worst_triangle: int

    @property
    def ok(self) -> bool:
        return (
            self.triangle_bound_margin >= -_RIGIDITY_ALLOWANCE
            and self.l2_vs_side_sum_margin >= 0.0
            and self.side_sum_vs_area_margin >= 0.0
            and self.frame_margin >= 0.0
        )


def check_estimate_chain(
    cfg: Configuration, identities: observables.IdentityReport
) -> EstimateChainReport:
    """Verify the estimate chain on one admissible configuration.

    (i) The per-triangle rigidity bound ``dist^2 <= 2 max_k d_k^2`` of
    :data:`RIGIDITY_CONSTANT`, within ``_RIGIDITY_ALLOWANCE``.  (ii) Its
    L2 aggregate against the side-deviation sum with the constant
    ``2 * 2``: each bond lies in exactly two triangles, so
    ``sum_T max_k d_k^2 <= 2 sum_bonds d^2``.  (iii) The side sum against
    the area-difference sum.  (iv) The frame identity
    ``sum_T |G_T|^2 = (4/3) sum_b a_b^2``, read from ``identities``, the
    :func:`identity_suite` report of ``cfg``.

    The allowance ``2**-46 = 128 u`` (``u = 2**-53``) bounds the rounding
    of check (i)'s computed margin ``2 fl(max d^2) - fl(dist^2)`` for a
    triangle whose float corners span exact sides ``a_k`` in ``[1, 3/2]``
    (so ``m <= 1/2``):

    * Sides.  Each edge ``fl(c_i - c_j)`` is within ``u`` of the exact
      edge, relatively, and ``hypot`` within an ulp, so the computed side
      is within ``3.01 u a_k <= 4.6 u`` of ``a_k``; subtracting 1 is
      exact (Sterbenz), and ``2 fl(m^2) >= 2 m^2 - 10 u``.
    * Gradient.  Each entry of ``fl(E @ _BINV)`` carries the edge
      rounding, that of ``1/sqrt(3)`` in ``_BINV`` (``2.01 u``) and at most
      two of the product, so ``|G' - G|_F <= 5.1 u |E|_F |B|_F
      <= 5.1 u * 2.13 * 1.64 < 18 u``.  ``dist`` is 1-Lipschitz in the
      Frobenius norm and ``dist(G) <= sqrt(2) m <= 0.71``, so
      ``dist(G')^2 <= dist(G)^2 + 26 u``.
    * Closed form.  In :func:`geometry.dist_so2_batch` on ``G'``,
      ``|G'|^2 <= 4.6`` carries ``19 u``, ``2 det`` ``9.3 u`` and their sum
      ``inner = (sigma_1 + sigma_2)^2`` in ``[1, 9.2]`` ``37.5 u``; the
      square root halves that and adds ``3.1 u``; with ``|G'|^2 + 2`` and
      the last subtraction the radicand is within ``70 u`` of
      ``dist(G')^2``, and squaring its rounded square root adds ``1.5 u``.

    So a triangle that satisfies the bound reads a margin of at least
    ``-(10 + 26 + 72) u > -128 u``; the final subtraction rounds
    monotonically.  The float corners of a state whose bond window is
    decided on rounded squares can put a side a few ulps below 1, outside
    the bound's domain; this allowance does not cover that band.
    """
    dist2 = geometry.dist_so2_batch(cfg.gradients) ** 2

    # The largest squared side deviation, folded over the three sides as
    # geometry._fold_columns folds; squares hold no -0.0.
    corners = cfg.corners
    dev2 = [
        (np.hypot(*(corners[:, b] - corners[:, a]).T) - 1.0) ** 2
        for a, b in ((0, 1), (1, 2), (2, 0))
    ]
    maxdev2 = np.maximum(np.maximum(dev2[0], dev2[1]), dev2[2])
    per_tri = RIGIDITY_CONSTANT * maxdev2 - dist2
    worst = int(np.argmin(per_tri))

    sds = observables.side_deviation_sum(cfg)
    l2_margin = 2 * RIGIDITY_CONSTANT * LAMBDA0 * sds - LAMBDA0 * float(np.sum(dist2))
    area_margin = FOUR_SQRT3 * cfg.epsilon * cfg.reductions.area_difference - sds
    return EstimateChainReport(
        triangle_bound_margin=float(per_tri[worst]),
        l2_vs_side_sum_margin=float(l2_margin),
        side_sum_vs_area_margin=float(area_margin),
        frame_margin=observables.FRAME_RTOL - identities.frame_relative_error,
        worst_triangle=worst,
    )


# ---------------------------------------------------------------------------
# Experiment grid
# ---------------------------------------------------------------------------


def batch_means(x, n_batches: int = 20) -> tuple[float, float]:
    """Mean and batch-means standard error of a (possibly correlated) series."""
    x = np.asarray(x, dtype=float)
    if x.size < n_batches:
        raise ValueError(f"need at least {n_batches} samples, got {x.size}")
    nb = x.size // n_batches
    trimmed = x[: nb * n_batches].reshape(n_batches, nb)
    bm = trimmed.mean(axis=1)
    return float(trimmed.mean()), float(bm.std(ddof=1) / math.sqrt(n_batches))


def integrated_autocorrelation_time(x) -> float:
    """Integrated autocorrelation time, 1 + 2 * sum of rho(lag), truncated
    before the first lag whose single-lag autocorrelation rho is <= 0.

    This is not Geyer's initial positive sequence, which truncates on
    sums of adjacent pairs of lags.  Reported as a diagnostic only; no
    mixing guarantee is implied.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float("nan")
    y = x - x.mean()
    var = float(np.dot(y, y)) / n
    if var == 0.0:
        return 1.0
    tau = 1.0
    for lag in range(1, n // 2):
        rho = float(np.dot(y[:-lag], y[lag:])) / (n * var)
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return tau


CSV_COLUMNS = (
    "N",
    "l",
    "epsilon",
    "sweeps",
    "n_samples",
    "acceptance_rate",
    "mean_op_id",
    "se_op_id",
    "mean_op_lid",
    "se_op_lid",
    "mean_bond_dx",
    "se_bond_dx",
    "mean_bond_dy",
    "se_bond_dy",
    "identities_ok",
)


@dataclass
class ScanRecord:
    """Aggregated estimates for one (N, l) grid point.

    ``mean_op_id`` and ``mean_op_lid`` average the per-triangle squared
    gradient deviations over triangles and samples; the bond columns
    track the displacement from site ``(0, 0)`` to its ``(1, 0)``
    neighbor.  Standard errors come from 20 batch means.
    """

    N: int
    l: float
    epsilon: float
    sweeps: int
    n_samples: int
    acceptance_rate: float
    mean_op_id: float
    se_op_id: float
    mean_op_lid: float
    se_op_lid: float
    mean_bond_dx: float
    se_bond_dx: float
    mean_bond_dy: float
    se_bond_dy: float
    identities_ok: bool
    autocorrelation_time: float = float("nan")  # diagnostic; not a CSV column

    def csv_row(self) -> str:
        cells = [
            repr(int(self.N)),
            repr(float(self.l)),
            repr(float(self.epsilon)),
            repr(int(self.sweeps)),
            repr(int(self.n_samples)),
            repr(float(self.acceptance_rate)),
            repr(float(self.mean_op_id)),
            repr(float(self.se_op_id)),
            repr(float(self.mean_op_lid)),
            repr(float(self.se_op_lid)),
            repr(float(self.mean_bond_dx)),
            repr(float(self.se_bond_dx)),
            repr(float(self.mean_bond_dy)),
            repr(float(self.se_bond_dy)),
            "true" if self.identities_ok else "false",
        ]
        return ",".join(cells)


def _check_sample_count(params: SamplerParams) -> None:
    """A chain emits ``sweeps // thin`` samples; the batch means need 100."""
    if params.sweeps // params.thin < 100:
        raise ValueError("scan requires at least 100 emitted samples per grid point")


def run_grid_point(
    N: int, l: float, epsilon: float, params: SamplerParams, seed
) -> ScanRecord:
    """One chain at one grid point, with the identity suite on every sample.

    The observer takes the chain's snapshot blocks.  Each snapshot goes
    through :func:`identity_suite` on its own, reading the reductions
    record the block pre-filled.  The order parameters come from the same
    record: ``op_id`` and ``op_lid`` are its deviation sums from ``Id``
    and from ``l * Id`` over the triangle count, bitwise the per-snapshot
    means of :func:`observables.per_triangle_order_parameters`.  A run
    of fewer than 100 samples is rejected before the chain is built.
    """
    _check_sample_count(params)
    chain = Chain.from_standard(N, l, epsilon, replace(params, seed=seed))
    op_id, op_lid, bdx, bdy = [], [], [], []
    T = 2 * N * N  # triangles per snapshot

    def observer(block):
        for snap in block.snapshots:
            ident = identity_suite(snap)
            if not ident.ok:
                raise IdentityFailureError(
                    f"identity suite failed at N={N}, l={l}: "
                    f"mean_gradient={ident.mean_gradient_error:.3e}, "
                    f"area={ident.area_relative_error:.3e}, "
                    f"frame={ident.frame_relative_error:.3e}"
                )
            r = snap.reductions
            op_id.append(r.id_deviation / T)
            op_lid.append(r.lid_deviation / T)
        # Site-averaging would telescope to l exactly; a fixed site keeps
        # this a genuine statistic of the sampled law: the bond from site
        # (0, 0) to its (1, 0) neighbour, canonical index N.
        bv = block.positions[:, N] - block.positions[:, 0]
        bdx.extend(bv[:, 0].tolist())
        bdy.extend(bv[:, 1].tolist())

    result = chain.run(observer)
    m_id, se_id = batch_means(op_id)
    m_lid, se_lid = batch_means(op_lid)
    m_dx, se_dx = batch_means(bdx)
    m_dy, se_dy = batch_means(bdy)
    return ScanRecord(
        N=N,
        l=l,
        epsilon=epsilon,
        sweeps=params.sweeps,
        n_samples=len(op_id),
        acceptance_rate=result.acceptance_rate,
        mean_op_id=m_id,
        se_op_id=se_id,
        mean_op_lid=m_lid,
        se_op_lid=se_lid,
        mean_bond_dx=m_dx,
        se_bond_dx=se_dx,
        mean_bond_dy=m_dy,
        se_bond_dy=se_dy,
        identities_ok=True,
        autocorrelation_time=integrated_autocorrelation_time(np.array(op_lid)),
    )


def _scan_worker(args):
    N, l, epsilon, params, master_seed, grid_index = args
    seed = np.random.SeedSequence([master_seed, grid_index])
    return run_grid_point(N, l, epsilon, params, seed)


def scan(
    N_list,
    l_list,
    epsilon: float,
    params: SamplerParams,
    master_seed: int = 0,
    threads: int = 1,
) -> list[ScanRecord]:
    """Run one chain per (N, l) grid point and aggregate the estimates.

    The window is certified first; every ``l`` must lie strictly inside
    it, the proposal radius must pass :func:`check_lean_regime`,
    ``master_seed`` must be an integer >= 0 and ``threads`` one >= 1,
    and the whole grid is checked before any chain runs.  Chains get
    independent streams derived from ``(master_seed, grid_index)``, so
    the output does not depend on the thread count.  At most one worker
    process runs per grid point; a single one runs in this process.
    """
    cert = certify_epsilon(epsilon)
    if not cert.certified:
        raise CertificationError(
            f"epsilon = {epsilon} failed certification (margin {cert.margin:.3e})"
        )
    if not isinstance(N_list, (list, tuple)) or not N_list:
        raise ValueError(f"scan needs a nonempty list of lattice sizes N, got {N_list!r}")
    if not isinstance(l_list, (list, tuple)) or not l_list:
        raise ValueError(f"scan needs a nonempty list of side lengths l, got {l_list!r}")
    for N in N_list:
        check_lattice_size(N)
    for l in l_list:
        check_side_length(l, epsilon)
    check_lean_regime(epsilon, params.proposal_radius)
    _check_sample_count(params)
    master_seed = check_int(master_seed, "master_seed", 0)
    threads = check_int(threads, "threads", 1)
    tasks = []
    for i, (N, l) in enumerate((N, l) for N in N_list for l in l_list):
        tasks.append((int(N), float(l), float(epsilon), params, master_seed, i))
    workers = min(threads, len(tasks))  # a pool forks all of them at once
    if workers > 1:
        # Imported only here, so that a single-threaded run does not pay
        # for loading concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_worker, tasks))  # in task order
    return [_scan_worker(task) for task in tasks]


def scan_csv_text(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def write_scan_csv(records, path) -> None:
    atomic_write_text(path, scan_csv_text(records))
