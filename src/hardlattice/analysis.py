"""Certified inequalities, empirical constants, and the experiment grid.

Two kinds of result live here.  The oracle side certifies the
first-order area bound on the bond window (grid scan plus a rigorous
Lipschitz argument), probes the squared variant on random side-length
triples, and estimates the triangle rigidity constant by rejection
sampling.  The experiment side runs one chain per ``(N, l)`` grid point,
evaluates the exact identity suite on every emitted sample, and
aggregates order-parameter and bond statistics with batch-means error
bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Real

import numpy as np

from . import geometry, observables
from .configuration import LAMBDA0, Configuration, check_side_length
from .fileio import atomic_write_text
from .lattice import SQRT3, check_lattice_size
from .observables import identity_suite
from .sampler import Chain, SamplerParams, check_lean_regime

FOUR_SQRT3 = 4.0 * SQRT3


class CertificationError(RuntimeError):
    """The grid scan cannot support the requested certificate."""


class IdentityFailureError(RuntimeError):
    """An exact identity failed on an emitted sample."""


# ---------------------------------------------------------------------------
# Area bound certification
#
# The inequality under test: for side lengths a_i in (1, 1+eps),
#     (a1-1 + a2-1 + a3-1) / (4*sqrt(3))  <=  area(a) - area(1,1,1).
# The normalized margin q(a) = [area(a) - area0 - dev/(4*sqrt(3))] / dev
# tends to 1/(4*sqrt(3)) at the unit corner, so a positive grid minimum
# of q plus a Lipschitz bound on q certifies the inequality on the whole
# open box.  The Lipschitz constant comes from an interval-arithmetic
# bound M2 on the Hessian of the area function: the Taylor remainder
# gives |dq/da_i| <= 1.5 * M2 everywhere on the punctured box.
# ---------------------------------------------------------------------------


def _iv_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _iv_sub(x, y):
    return (x[0] - y[1], x[1] - y[0])


def _iv_mul(x, y):
    p = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return (min(p), max(p))


def _iv_div(x, y):
    if y[0] <= 0.0 <= y[1]:
        raise ZeroDivisionError("interval division by an interval containing zero")
    p = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    return (min(p), max(p))


def _iv_sqrt(x):
    if x[0] < 0.0:
        raise ValueError("interval sqrt of a partially negative interval")
    return (math.sqrt(x[0]), math.sqrt(x[1]))


def _iv_absmax(x) -> float:
    return max(abs(x[0]), abs(x[1]))


# Signs of the derivatives of the four Heron factors with respect to the
# three side lengths: factors are (a1+a2+a3, -a1+a2+a3, a1-a2+a3, a1+a2-a3).
_FACTOR_SIGNS = (
    (1, 1, 1),
    (-1, 1, 1),
    (1, -1, 1),
    (1, 1, -1),
)


def _hessian_bound(epsilon: float) -> float:
    """Interval bound on the Frobenius norm of the Hessian of the area
    function on the closed box [1, 1+epsilon]^3.

    Requires epsilon < 1 so the Heron radicand stays away from zero.
    """
    if not 0.0 < epsilon < 1.0:
        raise CertificationError(
            f"Hessian bound unavailable for epsilon = {epsilon}: the side-length "
            "box touches degenerate triangles"
        )
    s = [
        (3.0, 3.0 + 3.0 * epsilon),
        (1.0 - epsilon, 1.0 + 2.0 * epsilon),
        (1.0 - epsilon, 1.0 + 2.0 * epsilon),
        (1.0 - epsilon, 1.0 + 2.0 * epsilon),
    ]
    p = _iv_mul(_iv_mul(s[0], s[1]), _iv_mul(s[2], s[3]))

    def triple(skip):
        out = (1.0, 1.0)
        for n in range(4):
            if n != skip:
                out = _iv_mul(out, s[n])
        return out

    def pair(skip_a, skip_b):
        out = (1.0, 1.0)
        for n in range(4):
            if n not in (skip_a, skip_b):
                out = _iv_mul(out, s[n])
        return out

    def scale(x, c):
        return (c * x[0], c * x[1]) if c >= 0 else (c * x[1], c * x[0])

    p_i = []
    for i in range(3):
        total = (0.0, 0.0)
        for k in range(4):
            total = _iv_add(total, scale(triple(k), _FACTOR_SIGNS[k][i]))
        p_i.append(total)

    sqrt_p = _iv_sqrt(p)
    p32 = _iv_mul(p, sqrt_p)

    fro_sq = 0.0
    for i in range(3):
        for j in range(3):
            p_ij = (0.0, 0.0)
            for k in range(4):
                for m in range(4):
                    if k == m:
                        continue
                    sgn = _FACTOR_SIGNS[k][i] * _FACTOR_SIGNS[m][j]
                    p_ij = _iv_add(p_ij, scale(pair(k, m), sgn))
            term1 = _iv_div(p_ij, scale(sqrt_p, 8.0))
            term2 = _iv_div(_iv_mul(p_i[i], p_i[j]), scale(p32, 16.0))
            fro_sq += _iv_absmax(_iv_sub(term1, term2)) ** 2
    return math.sqrt(fro_sq)


def _normalized_margin_scan(epsilon: float, g: int):
    """Minimum of the normalized margin q over the grid, excluding the
    unit corner where q is a removable 0/0."""
    axis = np.linspace(1.0, 1.0 + epsilon, g)
    a2, a3 = np.meshgrid(axis, axis, indexing="ij")
    best = math.inf
    best_point = None
    lam0 = 0.25 * math.sqrt(3.0)
    for a1 in axis:
        s0 = a1 + a2 + a3
        s1 = -a1 + a2 + a3
        s2 = a1 - a2 + a3
        s3 = a1 + a2 - a3
        lam = 0.25 * np.sqrt(np.clip(s0 * s1 * s2 * s3, 0.0, None))
        dev = (a1 - 1.0) + (a2 - 1.0) + (a3 - 1.0)
        f = lam - lam0 - dev / FOUR_SQRT3
        mask = dev > 0.0
        if not np.any(mask):
            continue
        q = np.where(mask, f / np.where(mask, dev, 1.0), math.inf)
        k = int(np.argmin(q))
        if q.flat[k] < best:
            best = float(q.flat[k])
            best_point = (float(a1), float(a2.flat[k]), float(a3.flat[k]))
    return best, best_point


@dataclass(frozen=True)
class EpsilonCertificate:
    epsilon: float
    grid_points_per_axis: int
    grid_margin: float          # minimum of q over the grid
    grid_argmin: tuple
    hessian_bound: float | None
    lipschitz_slack: float | None
    margin: float               # certified lower bound on q (grid_margin when uncertified)
    certified: bool


def certify_epsilon(epsilon: float, grid_points_per_axis: int = 64) -> EpsilonCertificate:
    """Grid scan plus Lipschitz certificate for the area bound at ``epsilon``.

    ``certified`` means the first-order bound holds on the whole open
    side-length box, with ``margin`` a rigorous lower bound on the
    normalized slack.  A nonpositive ``grid_margin`` is direct evidence
    that the bound fails at this window size.
    """
    if isinstance(epsilon, bool) or not isinstance(epsilon, Real) or not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be a real number in (0, 1], got {epsilon!r}")
    g = grid_points_per_axis
    if not isinstance(g, (int, np.integer)) or g < 64:
        raise ValueError(f"need an integer of at least 64 grid points per axis, got {g!r}")
    return _certify_epsilon(epsilon, g)


@lru_cache(maxsize=None)
def _certify_epsilon(epsilon: float, grid_points_per_axis: int) -> EpsilonCertificate:
    grid_margin, argmin = _normalized_margin_scan(epsilon, grid_points_per_axis)
    if grid_margin <= 0.0:
        return EpsilonCertificate(
            epsilon, grid_points_per_axis, grid_margin, argmin, None, None, grid_margin, False
        )
    try:
        m2 = _hessian_bound(epsilon)
    except CertificationError:
        return EpsilonCertificate(
            epsilon, grid_points_per_axis, grid_margin, argmin, None, None, grid_margin, False
        )
    h = epsilon / (grid_points_per_axis - 1)
    # Every point of the punctured box has a non-corner grid point within
    # h*(1 + sqrt(3)/2); |grad q| <= 1.5*M2 per component.
    lipschitz = 1.5 * SQRT3 * m2
    slack = lipschitz * h * (1.0 + SQRT3 / 2.0)
    margin = grid_margin - slack
    return EpsilonCertificate(
        epsilon, grid_points_per_axis, grid_margin, argmin, m2, slack, margin, margin > 0.0
    )


def epsilon_margin(epsilon: float, grid_points_per_axis: int = 64) -> float:
    """Certified normalized margin of the area bound on the ``epsilon`` box.

    Positive return value: the bound holds on the whole open box with at
    least this relative slack.  Nonpositive return value: the grid scan
    itself found a violation.  Raises :class:`CertificationError` when
    the grid margin is positive but too small for the Lipschitz slack of
    the requested grid (refine the grid).
    """
    cert = certify_epsilon(epsilon, grid_points_per_axis)
    if cert.grid_margin <= 0.0:
        return cert.grid_margin
    if not cert.certified:
        raise CertificationError(
            f"grid too coarse: margin {cert.grid_margin:.3e} does not clear the "
            f"Lipschitz slack {cert.lipschitz_slack} at {grid_points_per_axis} points per axis"
        )
    return cert.margin


# Side-length triples drawn per block by the squared-bound check; any
# block size consumes the same stream, and 25k keeps the work in cache.
_SQUARED_DRAW = 25_000


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
    grid_points_per_axis: int = 64,
) -> SquaredBoundReport:
    """Check the squared side-deviation bound on random triples.

    Tests ``sum (a_i-1)^2 <= 4*sqrt(3)*eps*(area(a) - area0)`` on uniform
    side-length triples in the window, together with the scalar step
    ``(a-1)^2 <= eps*(a-1)`` it rests on.  Requires a certified window.
    Triples are drawn in blocks of :data:`_SQUARED_DRAW`, which consumes
    the same stream as one draw.
    """
    check_sample_count(n_samples)
    cert = certify_epsilon(epsilon, grid_points_per_axis)
    if not cert.certified:
        raise CertificationError(
            f"epsilon = {epsilon} is not certified; the squared bound presupposes it"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    violations = 0
    min_margin = math.inf
    done = 0
    while done < n_samples:
        n = min(_SQUARED_DRAW, n_samples - done)
        margin = _squared_bound_margins(rng.random((n, 3)), epsilon)
        violations += int(np.count_nonzero(~(margin >= 0.0)))  # a NaN margin violates
        min_margin = _fold_min(min_margin, float(margin.min()))
        done += n
    x = 1.0 + epsilon * rng.random(100_000)
    d = x - 1.0
    scalar_ok = bool(np.all(d * d <= epsilon * d))
    return SquaredBoundReport(epsilon, n_samples, violations, min_margin, scalar_ok)


def _squared_bound_margins(u: np.ndarray, epsilon: float) -> np.ndarray:
    """``rhs - lhs`` of the squared bound for the sides ``1 + epsilon*u``, ``u`` of shape ``(n, 3)``.

    The sides are laid out as three contiguous rows.  Sums run left to
    right, as ``np.sum(axis=1)`` adds three columns, and Heron's product
    ``s0*s1*s2*s3`` and the margin in the order the formula reads, so
    every margin is bitwise that of the formula on numpy's row sums.
    """
    a = np.ascontiguousarray(u.T)
    a *= epsilon
    a += 1.0
    a0, a1, a2 = a
    dev = a - 1.0
    dev *= dev
    lhs = dev[0] + dev[1]
    lhs += dev[2]
    # s0 = (a0 + a1) + a2, s1 = (-a0 + a1) + a2 = a2 - w,
    # s2 = (a0 - a1) + a2 = w + a2, s3 = (a0 + a1) - a2, w = a0 - a1
    pair = a0 + a1
    w = a0 - a1
    prod = pair + a2
    prod *= a2 - w
    prod *= w + a2
    pair -= a2
    prod *= pair
    np.clip(prod, 0.0, None, out=prod)
    margin = np.sqrt(prod, out=prod)
    margin *= 0.25  # the area lam
    margin -= 0.25 * math.sqrt(3.0)  # lam0
    margin *= FOUR_SQRT3 * epsilon  # rhs
    margin -= lhs
    return margin


# ---------------------------------------------------------------------------
# Empirical rigidity constant of the per-triangle bound
# ---------------------------------------------------------------------------

# Edge directions of the unit reference triangle.
_V_DIRECTIONS = np.array([[1.0, 0.0], [0.5, SQRT3 / 2.0], [0.5, -SQRT3 / 2.0]])

# Candidates per batch; the batch size fixes the random stream, so
# changing it changes c_hat.  Each batch's E is drawn and tested in
# sub-blocks, which consumes the same stream as one draw per batch and
# keeps the work arrays small.
_RIGIDITY_DRAW = 200_000
_RIGIDITY_BLOCK = 25_000

# Relative slack of the estimator's squared-length prefilter, and the
# largest cap for which its lower bound is proved; the derivation is in
# estimate_rigidity_constant's docstring.
_RIGIDITY_SLACK = 1e-9
_RIGIDITY_LOWER_CAP = 0.5

# Candidate matrices drawn per block by the SO(2) agreement check; about
# half survive the det > 0 rejection.
_AGREEMENT_DRAW = 256

# Triangles drawn per block by the Heron check.  Blocked draws consume
# the same stream as one draw per triangle.
_HERON_DRAW = 4096


def _fold_max(worst: float, x: float) -> float:
    """``max(worst, x)``, except that a NaN ``x`` is kept.

    Python's ``max(0.0, nan)`` is ``0.0``, so a plain fold drops a NaN
    and a check built on it passes; ``max(nan, x)`` is already ``nan``.
    """
    return x if x != x else max(worst, x)


def _fold_min(worst: float, x: float) -> float:
    """``min(worst, x)``, except that a NaN ``x`` is kept; see :func:`_fold_max`."""
    return x if x != x else min(worst, x)


def check_sample_count(n, name: str = "n_samples") -> None:
    """Raise ``ValueError`` unless the Monte Carlo size ``n`` is an integer >= 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


def check_deviation_cap(cap, name: str = "deviation_cap") -> None:
    """Raise ``ValueError`` unless the rigidity deviation cap is a real number in (0, 1]."""
    if isinstance(cap, bool) or not isinstance(cap, Real) or not 0.0 < cap <= 1.0:
        raise ValueError(f"{name} must be a real number in (0, 1], got {cap!r}")


@dataclass
class RigidityConstantEstimate:
    c_hat: float
    deviation_cap: float
    n_samples: int
    seed: int


def _rigidity_q_bounds(cap: float) -> tuple[float, float]:
    """The prefilter's bounds ``(q_lo, q_hi)`` on a squared image length;
    see :func:`estimate_rigidity_constant`."""
    q_hi = (1.0 + cap) * (1.0 + _RIGIDITY_SLACK)
    if cap > _RIGIDITY_LOWER_CAP:
        return 0.0, q_hi * q_hi
    q_lo = (1.0 - cap) * (1.0 - _RIGIDITY_SLACK)
    return q_lo * q_lo, q_hi * q_hi


def estimate_rigidity_constant(
    n_samples: int = 1_000_000,
    deviation_cap: float = 0.1,
    seed: int = 0,
) -> RigidityConstantEstimate:
    """Empirical supremum of dist(A, SO(2))^2 / max_i (|A v_i| - 1)^2.

    Candidates are drawn as ``A = Id + E`` with ``E`` uniform in
    ``[-2*cap, 2*cap]`` entrywise, then rejected to ``det A > 0`` and
    ``0 < max_i ||A v_i| - 1| <= cap``.  The supremum over accepted
    samples is the package's working constant for the per-triangle
    rigidity bound.

    Rotating the ensemble would not change that supremum: for every
    rotation ``R``, ``|R A v| = |A v|`` and ``dist(R A, SO(2)) =
    dist(A, SO(2))``, so ``R A`` passes the same rejection with the same
    ratio.  A uniform angle per candidate is still skipped after each
    batch of ``E`` (``bit_generator.advance``, the state drawing it would
    leave); it only keeps the random stream, so every batch's ``E`` is
    the one drawn when the candidates were rotated.

    Most candidates fail the cap, and a ``hypot`` costs several times a
    square, so each sub-block first drops the rows whose squared image
    lengths ``q = x*x + y*y`` cannot pass; ``x``, ``y`` are bitwise the
    image components the acceptance test takes ``hypot`` of.  Only the
    surviving rows run the test, in the order written above.  A row is
    dropped when one of its three ``q`` exceeds ``((1 + cap)(1 + d))^2``
    or, for ``cap <= _RIGIDITY_LOWER_CAP = 1/2``, falls below
    ``((1 - cap)(1 - d))^2``, with ``d = _RIGIDITY_SLACK = 1e-9``.  Such
    a row would fail the test:

    Let ``r`` be the exact length of ``(x, y)`` and ``H = hypot(x, y)``
    as computed.  Entries of ``A`` are at most 3 in size, so nothing
    overflows; ``q`` carries three roundings, each threshold four, and
    ``hypot`` is within an ulp.  That is a relative error below ``2e-15``
    in all, far below ``d/4`` (an underflow in ``q`` moves it by less
    than ``1e-300``, far below either threshold's resolution).

    * Above: ``r > (1 + cap)(1 + d/2)``, so ``H > (1 + cap)(1 + d/4)``
      and ``H - 1 > cap + d/4``.  Rounding is monotone and ``cap + d/4``
      exceeds the next float after ``cap <= 1``, so ``fl(H - 1) > cap``
      and ``maxdev <= cap`` fails.
    * Below: ``r < (1 - cap)(1 - d/2)``, so ``H < (1 - cap)(1 - d/4)``
      and ``1 - H > cap + (1 - cap) d/4 >= cap + d/8``.  By the same
      argument ``|fl(H - 1)| = fl(1 - H) > cap``, and ``maxdev <= cap``
      fails.  The margin ``(1 - cap) d/4``
      vanishes as ``cap -> 1``, which is why the lower bound stops at
      ``cap = 1/2``; above it only the upper bound drops rows.

    So the accepted samples, their order and every ratio are those of
    the test run on every row: ``c_hat`` and ``n_samples`` are bitwise
    unchanged by the prefilter.
    """
    check_sample_count(n_samples)
    check_deviation_cap(deviation_cap)
    cap = deviation_cap
    rng = np.random.Generator(np.random.PCG64(seed))
    h = _V_DIRECTIONS[1, 1]
    q_lo, q_hi = _rigidity_q_bounds(cap)
    # work arrays, reused by every sub-block: the entries of A as rows
    # (a00, a01, a10, a11), four image components, q and its partner
    a = np.empty((4, _RIGIDITY_BLOCK))
    x_half, y_half, x_h, y_h, q, w = np.empty((6, _RIGIDITY_BLOCK))
    keep, test = np.empty((2, _RIGIDITY_BLOCK), dtype=bool)
    c_hat = 0.0
    kept = 0
    while kept < n_samples:
        for _ in range(_RIGIDITY_DRAW // _RIGIDITY_BLOCK):
            a[...] = rng.uniform(-2.0 * cap, 2.0 * cap, size=(_RIGIDITY_BLOCK, 4)).T
            # Id + E: off the diagonal 0.0 + e is e, as the draw
            # low + (high - low) * u never yields -0.0
            a[0] += 1.0
            a[3] += 1.0
            a00, a01, a10, a11 = a
            # v1 = (1, 0), v2/v3 = (1/2, +-h): images (x, y) per direction
            np.multiply(0.5, a00, out=x_half)
            np.multiply(0.5, a10, out=y_half)
            np.multiply(h, a01, out=x_h)
            np.multiply(h, a11, out=y_h)
            np.multiply(a00, a00, out=q)
            np.multiply(a10, a10, out=w)
            q += w
            np.less_equal(q, q_hi, out=keep)
            np.greater_equal(q, q_lo, out=test)
            keep &= test
            for op in (np.add, np.subtract):
                op(x_half, x_h, out=q)
                q *= q
                op(y_half, y_h, out=w)
                w *= w
                q += w
                np.less_equal(q, q_hi, out=test)
                keep &= test
                np.greater_equal(q, q_lo, out=test)
                keep &= test
            b = a[:, np.flatnonzero(keep)]
            b00, b01, b10, b11 = b
            det = b00 * b11 - b01 * b10
            bx_half, by_half = 0.5 * b00, 0.5 * b10
            bx_h, by_h = h * b01, h * b11
            maxdev = np.maximum(
                np.abs(np.hypot(b00, b10) - 1.0),
                np.maximum(
                    np.abs(np.hypot(bx_half + bx_h, by_half + by_h) - 1.0),
                    np.abs(np.hypot(bx_half - bx_h, by_half - by_h) - 1.0),
                ),
            )
            idx = np.flatnonzero((det > 0.0) & (maxdev <= cap) & (maxdev > 0.0))
            idx = idx[: n_samples - kept]
            if idx.size:
                A = b[:, idx].T.reshape(-1, 2, 2)
                ratios = geometry.dist_so2_batch(A) ** 2 / maxdev[idx] ** 2
                c_hat = _fold_max(c_hat, float(ratios.max()))
                kept += idx.size
            if kept == n_samples:
                break
        rng.bit_generator.advance(_RIGIDITY_DRAW)  # the unused angles
    return RigidityConstantEstimate(c_hat, deviation_cap, kept, seed)


def dist_so2_agreement(n_matrices: int = 10_000, n_grid: int = 3600, seed: int = 0) -> float:
    """Max |closed form - grid search| of the SO(2) distance over random
    det-positive matrices (standard normal entries, rejected to det > 0).

    Candidates are drawn in blocks, which consumes the same stream as one
    draw per matrix; the grid search and the closed form under test,
    :func:`geometry.dist_so2_batch`, run on each block's stack.  A NaN
    difference is kept."""
    check_sample_count(n_matrices, "n_matrices")
    geometry.check_grid_size(n_grid)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    done = 0
    while done < n_matrices:
        M = rng.standard_normal((_AGREEMENT_DRAW, 2, 2))
        M = M[M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] > 0.0][: n_matrices - done]
        if len(M):
            diff = np.abs(geometry.dist_so2_batch(M) - geometry.dist_so2_bruteforce(M, n_grid))
            worst = _fold_max(worst, float(diff.max()))
        done += len(M)
    return worst


def heron_cross_agreement(n_triangles: int = 10_000, seed: int = 0, jitter: float = 0.05) -> float:
    """Max relative difference between the side-length area formula and the
    cross-product area on random perturbations of the unit triangle.

    The corners are drawn in blocks and each triangle is checked in
    Python floats."""
    check_sample_count(n_triangles, "n_triangles")
    rng = np.random.Generator(np.random.PCG64(seed))
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    worst = 0.0
    for start in range(0, n_triangles, _HERON_DRAW):
        k = min(_HERON_DRAW, n_triangles - start)
        pts = base + jitter * (2.0 * rng.random((k, 3, 2)) - 1.0)
        for p0, p1, p2 in pts.tolist():
            a1 = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
            a2 = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
            a3 = math.hypot(p0[0] - p2[0], p0[1] - p2[1])
            h = geometry.heron_area(a1, a2, a3)
            c = abs(geometry.signed_area(p0, p1, p2))
            worst = _fold_max(worst, abs(h - c) / c)
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
    pythagoras_margin: float
    worst_triangle: int

    @property
    def ok(self) -> bool:
        return (
            self.triangle_bound_margin >= 0.0
            and self.l2_vs_side_sum_margin >= 0.0
            and self.side_sum_vs_area_margin >= 0.0
            and self.pythagoras_margin >= 0.0
        )


def check_estimate_chain(
    cfg: Configuration, c_hat: float, identities: observables.IdentityReport
) -> EstimateChainReport:
    """Verify the estimate chain on one admissible configuration.

    (i) per-triangle rigidity bound with the working constant, (ii) its
    L2 aggregate against the side-deviation sum, (iii) the side sum
    against the area-difference sum, (iv) the exact Pythagoras split,
    read from ``identities``, the :func:`identity_suite` report of
    ``cfg``.
    """
    dist2 = geometry.dist_so2_batch(cfg.gradients) ** 2

    corners = cfg.corners
    lengths = np.stack(
        [
            np.hypot(*(corners[:, 1] - corners[:, 0]).T),
            np.hypot(*(corners[:, 2] - corners[:, 1]).T),
            np.hypot(*(corners[:, 0] - corners[:, 2]).T),
        ],
        axis=1,
    )
    maxdev2 = ((lengths - 1.0) ** 2).max(axis=1)
    per_tri = c_hat * maxdev2 - dist2
    worst = int(np.argmin(per_tri))

    sds = observables.side_deviation_sum(cfg)
    l2_margin = c_hat * LAMBDA0 * sds - LAMBDA0 * float(np.sum(dist2))
    area_margin = FOUR_SQRT3 * cfg.epsilon * cfg.reductions.area_difference - sds
    pyth = identities.pythagoras_relative_error
    return EstimateChainReport(
        triangle_bound_margin=float(per_tri[worst]),
        l2_vs_side_sum_margin=float(l2_margin),
        side_sum_vs_area_margin=float(area_margin),
        pythagoras_margin=observables.PYTHAGORAS_RTOL - pyth,
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
    """Initial-positive-sequence estimate of the autocorrelation time.

    Reported as a diagnostic only; no mixing guarantee is implied.
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


def run_grid_point(
    N: int, l: float, epsilon: float, params: SamplerParams, seed
) -> ScanRecord:
    """One chain at one grid point, with the identity suite on every sample.

    The observer takes the chain's snapshot blocks.  Each snapshot goes
    through :func:`identity_suite` on its own, reading the reductions
    record the block pre-filled.  The order parameters come from the same
    record: ``op_id`` and ``op_lid`` are its deviation sums from ``Id``
    and from ``l * Id`` over the triangle count, bitwise the per-snapshot
    means of :func:`observables.per_triangle_order_parameters`.
    """
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
                    f"pythagoras={ident.pythagoras_relative_error:.3e}"
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
    n_samples = len(op_id)
    if n_samples < 100:
        raise ValueError(
            f"grid point N={N}, l={l} produced only {n_samples} samples; need >= 100"
        )
    m_id, se_id = batch_means(op_id)
    m_lid, se_lid = batch_means(op_lid)
    m_dx, se_dx = batch_means(bdx)
    m_dy, se_dy = batch_means(bdy)
    return ScanRecord(
        N=N,
        l=l,
        epsilon=epsilon,
        sweeps=params.sweeps,
        n_samples=n_samples,
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


def _grid_seed(master_seed: int, grid_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master_seed), int(grid_index)])


def _scan_worker(args):
    N, l, epsilon, params, master_seed, grid_index = args
    return grid_index, run_grid_point(N, l, epsilon, params, _grid_seed(master_seed, grid_index))


def scan(
    N_list,
    l_list,
    epsilon: float,
    params: SamplerParams,
    master_seed: int = 0,
    threads: int = 1,
    certification_grid: int = 64,
) -> list[ScanRecord]:
    """Run one chain per (N, l) grid point and aggregate the estimates.

    The window is certified first; every ``l`` must lie strictly inside
    it, the proposal radius must pass :func:`check_lean_regime`, and the
    whole grid is checked before any chain runs.  Chains get
    independent streams derived from ``(master_seed, grid_index)``, so
    the output does not depend on the thread count.  At most one worker
    process runs per grid point; a single one runs in this process.
    """
    margin = epsilon_margin(epsilon, certification_grid)
    if margin <= 0.0:
        raise CertificationError(
            f"epsilon = {epsilon} failed certification (margin {margin:.3e})"
        )
    if not isinstance(N_list, (list, tuple)) or not N_list:
        raise ValueError(f"scan needs a nonempty list of lattice sizes N, got {N_list!r}")
    if not isinstance(l_list, (list, tuple)):
        raise ValueError(f"scan needs a list of side lengths l, got {l_list!r}")
    for N in N_list:
        check_lattice_size(N)
    for l in l_list:
        check_side_length(l, epsilon)
    check_lean_regime(epsilon, params.proposal_radius)
    if params.sweeps // params.thin < 100:
        raise ValueError("scan requires at least 100 emitted samples per grid point")
    tasks = []
    for i, (N, l) in enumerate((N, l) for N in N_list for l in l_list):
        tasks.append((int(N), float(l), float(epsilon), params, int(master_seed), i))
    records: dict[int, ScanRecord] = {}
    workers = min(threads, len(tasks))  # a pool forks all of them at once
    if workers > 1:
        # Imported only here, so that a single-threaded run does not pay
        # for loading concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, rec in pool.map(_scan_worker, tasks):
                records[idx] = rec
    else:
        for task in tasks:
            idx, rec = _scan_worker(task)
            records[idx] = rec
    return [records[i] for i in range(len(tasks))]


def scan_csv_text(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(rec.csv_row() for rec in records)
    return "\n".join(lines) + "\n"


def write_scan_csv(records, path) -> None:
    atomic_write_text(path, scan_csv_text(records))
