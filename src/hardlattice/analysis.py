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
from .configuration import LAMBDA0, Configuration, check_lattice_size, check_side_length
from .fileio import atomic_write_text
from .lattice import SQRT3
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
    """
    check_sample_count(n_samples)
    cert = certify_epsilon(epsilon, grid_points_per_axis)
    if not cert.certified:
        raise CertificationError(
            f"epsilon = {epsilon} is not certified; the squared bound presupposes it"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    lam0 = 0.25 * math.sqrt(3.0)
    violations = 0
    min_margin = math.inf
    done = 0
    while done < n_samples:
        n = min(200_000, n_samples - done)
        a = 1.0 + epsilon * rng.random((n, 3))
        dev = a - 1.0
        lhs = np.sum(dev * dev, axis=1)
        s0 = a.sum(axis=1)
        s1 = -a[:, 0] + a[:, 1] + a[:, 2]
        s2 = a[:, 0] - a[:, 1] + a[:, 2]
        s3 = a[:, 0] + a[:, 1] - a[:, 2]
        lam = 0.25 * np.sqrt(np.clip(s0 * s1 * s2 * s3, 0.0, None))
        rhs = FOUR_SQRT3 * epsilon * (lam - lam0)
        margin = rhs - lhs
        violations += int(np.count_nonzero(margin < 0.0))
        min_margin = min(min_margin, float(margin.min()))
        done += n
    x = 1.0 + epsilon * rng.random(100_000)
    d = x - 1.0
    scalar_ok = bool(np.all(d * d <= epsilon * d))
    return SquaredBoundReport(epsilon, n_samples, violations, min_margin, scalar_ok)


# ---------------------------------------------------------------------------
# Empirical rigidity constant of the per-triangle bound
# ---------------------------------------------------------------------------

# Edge directions of the unit reference triangle.
_V_DIRECTIONS = np.array([[1.0, 0.0], [0.5, SQRT3 / 2.0], [0.5, -SQRT3 / 2.0]])

# Candidates drawn per batch; the batch size fixes the random stream, so
# changing it changes c_hat.  Each batch is processed in sub-blocks to
# keep the temporaries small.
_RIGIDITY_DRAW = 200_000
_RIGIDITY_BLOCK = 25_000

# Candidate matrices drawn per block by the SO(2) agreement check; about
# half survive the det > 0 rejection.
_AGREEMENT_DRAW = 256

# Triangles drawn per block by the Heron check.  Blocked draws consume
# the same stream as one draw per triangle.
_HERON_DRAW = 4096


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


def estimate_rigidity_constant(
    n_samples: int = 1_000_000,
    deviation_cap: float = 0.1,
    seed: int = 0,
) -> RigidityConstantEstimate:
    """Empirical supremum of dist(A, SO(2))^2 / max_i (|A v_i| - 1)^2.

    Candidates are drawn as ``R(theta) @ (Id + E)`` with ``E`` uniform in
    ``[-2*cap, 2*cap]`` entrywise and ``theta`` uniform, then rejected to
    ``det A > 0`` and ``0 < max_i ||A v_i| - 1| <= cap``.  The supremum
    over accepted samples is the package's working constant for the
    per-triangle rigidity bound.

    The rotation cancels in exact arithmetic (``|R A v| = |A v|`` and
    ``dist(R A, SO(2)) = dist(A, SO(2))``), yet ``R`` and the stacked
    matmul stay: numpy's matmul may contract ``c*m00 - s*m10`` into a
    fused multiply-add, so a hand-written product moves ``c_hat`` in its
    last bits.  Keeping them keeps ``c_hat`` bit-for-bit.  The edge
    images ``A v_i`` are two-term products on the columns of ``A``, which
    equal ``einsum("nij,kj->nki", A, _V_DIRECTIONS)`` bitwise.
    """
    check_sample_count(n_samples)
    check_deviation_cap(deviation_cap)
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.eye(2)
    h = _V_DIRECTIONS[1, 1]
    c_hat = 0.0
    kept = 0
    while kept < n_samples:
        E = rng.uniform(-2.0 * deviation_cap, 2.0 * deviation_cap, size=(_RIGIDITY_DRAW, 2, 2))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=_RIGIDITY_DRAW)
        for start in range(0, _RIGIDITY_DRAW, _RIGIDITY_BLOCK):
            block = slice(start, start + _RIGIDITY_BLOCK)
            c, s = np.cos(theta[block]), np.sin(theta[block])
            R = np.empty((c.size, 2, 2))
            R[:, 0, 0] = c
            R[:, 0, 1] = -s
            R[:, 1, 0] = s
            R[:, 1, 1] = c
            A = R @ (eye + E[block])
            a00, a01, a10, a11 = np.ascontiguousarray(A.reshape(-1, 4).T)
            det = a00 * a11 - a01 * a10
            # v1 = (1, 0), v2/v3 = (1/2, +-h): images (x, y) per direction
            x_half, y_half = 0.5 * a00, 0.5 * a10
            x_h, y_h = h * a01, h * a11
            maxdev = np.maximum(
                np.abs(np.hypot(a00, a10) - 1.0),
                np.maximum(
                    np.abs(np.hypot(x_half + x_h, y_half + y_h) - 1.0),
                    np.abs(np.hypot(x_half - x_h, y_half - y_h) - 1.0),
                ),
            )
            idx = np.flatnonzero((det > 0.0) & (maxdev <= deviation_cap) & (maxdev > 0.0))
            idx = idx[: n_samples - kept]
            if idx.size:
                ratios = geometry.dist_so2_batch(A[idx]) ** 2 / maxdev[idx] ** 2
                c_hat = max(c_hat, float(ratios.max()))
                kept += idx.size
            if kept == n_samples:
                break
    return RigidityConstantEstimate(c_hat, deviation_cap, kept, seed)


def dist_so2_agreement(n_matrices: int = 10_000, n_grid: int = 3600, seed: int = 0) -> float:
    """Max |closed form - grid search| of the SO(2) distance over random
    det-positive matrices (standard normal entries, rejected to det > 0).

    Candidates are drawn in blocks, which consumes the same stream as one
    draw per matrix; the grid search runs on each block's stack, the
    closed form under test on each matrix."""
    check_sample_count(n_matrices, "n_matrices")
    geometry.check_grid_size(n_grid)
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    done = 0
    while done < n_matrices:
        M = rng.standard_normal((_AGREEMENT_DRAW, 2, 2))
        M = M[M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] > 0.0][: n_matrices - done]
        brute = geometry.dist_so2_bruteforce(M, n_grid)
        for m, b in zip(M, brute.tolist()):
            worst = max(worst, abs(geometry.dist_so2(m) - b))
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
            worst = max(worst, abs(h - c) / c)
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
    area_margin = FOUR_SQRT3 * cfg.epsilon * observables.area_difference_sum(cfg) - sds
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
    through :func:`identity_suite` on its own, reading the geometry the
    block pre-filled; the order parameters are evaluated on the stacked
    arrays, bitwise the per-snapshot means of
    :func:`observables.per_triangle_order_parameters`.
    """
    chain = Chain.from_standard(N, l, epsilon, replace(params, seed=seed))
    op_id, op_lid, bdx, bdy = [], [], [], []

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
        eye = np.eye(2)
        op_id.extend(observables.block_order_parameters(block, eye).tolist())
        op_lid.extend(observables.block_order_parameters(block, chain.l * eye).tolist())
        # Site-averaging would telescope to l exactly; a fixed site keeps
        # this a genuine statistic of the sampled law: the bond from site
        # (0, 0) to its (1, 0) neighbour, canonical index N.
        bv = block.positions[:, N] - block.positions[:, 0]
        bdx.extend(bv[:, 0].tolist())
        bdy.extend(bv[:, 1].tolist())
        return None

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
    the output does not depend on the thread count.
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
    if threads > 1:
        # Imported only here, so that a single-threaded run does not pay
        # for loading concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
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
