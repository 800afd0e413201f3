"""Periodic point configurations, admissibility checks, and symmetry maps.

A configuration stores the positions of the ``N^2`` canonical sites; all
other sites follow from the periodic extension rule
``position(x + N*y) = position(x) + l*N*embed(y)``.  Site ``(0, 0)`` is
pinned at the origin (the reference measure fixes that component).

Admissibility is the conjunction of three predicates:

* omega1 -- every bond length lies strictly inside ``(1, 1 + epsilon)``,
* omega2 -- the piecewise-affine extension of the configuration is
  injective,
* omega3 -- every triangle's affine piece preserves orientation.

Lemma: omega3 decides omega2.  If every image triangle is positively
oriented, the six angles at vertex ``v`` sum to ``2*pi*w_v``, with
``w_v >= 1`` the winding number of its star.  Each triangle's three
angles lie in three different stars, so ``sum_v 2*pi*w_v = 2*N^2*pi``
and every ``w_v = 1``: the torus map is a local homeomorphism of degree
one, hence injective.  A negative or degenerate triangle forces a double
cover, so omega2 fails exactly where omega3 fails.

The proof is about the periodic extension in real arithmetic, and
:func:`check_omega3` takes exact signs of the float corners of
:func:`image_triangle_corners`.  A corner at its centre copy is the
stored position; a wrapped corner, on the seam, is the rounded copy
``fl(p + fl(l*N*embed(w)))``, a few ulps of ``l*N`` off its periodic
image.  So only a seam triangle whose doubled area lies within that
rounding of zero can get another verdict than the exact periodic one.

``check_omega2_oracle`` is the independent cross-check, based on
pairwise interior overlap of image triangles against the 3x3 periodic
tiling.  A cell list hands it only the pairs whose bounding boxes
overlap, in ``O(N^2)`` time, one fixed-size chunk of centre triangles at
a time.  The list holds the centre copies and only those translates near
the seams whose boxes can reach them, a proved rounding margin included.
Its agreement with :func:`is_admissible`'s omega2 is a tested invariant
of this package.

Each snapshot computes its geometry once: ``cfg.corners``,
``cfg.gradients``, ``cfg.crosses`` and ``cfg.bond_squares`` are cached
on first use, and so is ``cfg.reductions``, the :class:`Reductions`
record of the scalars the checks, the identity suite and ``scan``'s
order parameters read:

* ``bond_square_min`` and ``bond_square_max``, the extremes of
  ``bond_squares``;
* ``cross_min``, the min of ``crosses``;
* ``gradient_mean``, the mean gradient (the gradient sum over the
  triangles divided by their number), as a row-major 4-tuple;
* ``area_difference``, the sum of image minus reference areas;
* ``gradient_square_sum``, ``lid_deviation`` and ``id_deviation``, the
  sums over the triangles of the squared Frobenius deviations of the
  gradients from ``0``, from ``l * Id`` and from ``Id``;
* ``bond_square_sum``, the sum of ``bond_squares``; with
  ``gradient_square_sum`` it ties the gradients to the bonds in the
  identity suite's frame identity.

A NaN coordinate makes every reduction it reaches NaN, and a NaN passes
no comparison.  Caching is safe because a configuration never changes:
the dataclass is frozen, ``positions`` is read-only, and so is every
cached array; the record holds Python floats and tuples.  The builders
take positions with leading batch axes, and :func:`snapshot_block` runs
them once on a stack of snapshots, pre-filling each snapshot's cache
with views of the stacked arrays and with its record from one
:func:`_reductions` pass over the stack.  A lone snapshot builds its
record on first use with the same function, on a stack of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import NamedTuple

import numpy as np

from . import geometry, lattice
from .lattice import EMBED_BASIS, SQRT3, check_lattice_size

CONFIG_SCHEMA = "hardlattice.configuration.v1"

# Inverse reference-edge matrices for the two orientations: the gradient of
# the affine piece is [d1 d2] @ _BINV[orientation].
_INV_SQRT3 = 1.0 / SQRT3
_BINV = np.array(
    [
        [[1.0, -_INV_SQRT3], [0.0, 2.0 * _INV_SQRT3]],
        [[1.0, _INV_SQRT3], [-1.0, _INV_SQRT3]],
    ]
)
_BINV.setflags(write=False)

LAMBDA0 = SQRT3 / 4.0  # area of the unit reference triangle

# A state passes check_omega3 without exact signs when its smallest corner
# cross product exceeds _OMEGA3_SLACK times its largest squared bond
# length, which is at most _BOND_SQUARE_CAP; see check_omega3.
_OMEGA3_SLACK = 2.0 * geometry._ORIENT_ERRBOUND
_BOND_SQUARE_CAP = 2.0**1000

# The 3x3 tiling shifts of the exact oracle; index _CENTRE is the centre copy.
_SHIFTS = [(yu, yv) for yu in (-1, 0, 1) for yv in (-1, 0, 1)]
_SHIFT_OFFSETS = np.array(_SHIFTS) @ EMBED_BASIS
_CENTRE = _SHIFTS.index((0, 0))
# The shifts after (0, 0): a triangle meets its own translates under these.
_HALF_SHIFTS = np.array([y > (0, 0) for y in _SHIFTS])

# The oracle's seam filter widens each predicted ghost box by _SEAM_MARGIN
# times fl(l*N) + M, M the largest centre corner coordinate; its proof in
# _oracle_pairs covers the states with fl(l*N) + M < _SEAM_CAP.
_SEAM_MARGIN = 2.0**-49
_SEAM_CAP = 2.0**1000

# Centre triangles per chunk of the exact oracle; each chunk's candidate
# pairs are gathered, tested and dropped before the next chunk is built.
_ORACLE_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class Configuration:
    """Immutable snapshot of the system state.

    ``positions[u*N + v]`` is the plane position of canonical site
    ``(u, v)``; ``positions[0]`` is exactly the origin.  Two
    configurations are equal when ``N``, ``l`` and ``epsilon`` are and
    the positions are elementwise; like the arrays, they are unhashable.
    """

    N: int
    l: float
    epsilon: float
    positions: np.ndarray

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.N, self.l, self.epsilon) == (other.N, other.l, other.epsilon) and (
            np.array_equal(self.positions, other.positions)
        )

    __hash__ = None

    def __post_init__(self):
        _check_parameters(self.N, self.l, self.epsilon)
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (self.N * self.N, 2):
            raise ValueError(
                f"positions must have shape ({self.N * self.N}, 2), got {pos.shape}"
            )
        _check_gauge(pos[None])
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @cached_property
    def corners(self) -> np.ndarray:
        """Read-only :func:`image_triangle_corners` of this snapshot."""
        return _read_only(image_triangle_corners(self.N, self.l, self.positions))

    @cached_property
    def gradients(self) -> np.ndarray:
        """Read-only :func:`triangle_gradients` of this snapshot."""
        return _read_only(triangle_gradients(self.N, self.corners))

    @cached_property
    def crosses(self) -> np.ndarray:
        """Read-only :func:`corner_crosses` of this snapshot."""
        return _read_only(corner_crosses(self.corners))

    @cached_property
    def bond_squares(self) -> np.ndarray:
        """Read-only :func:`bond_length_squares` of this snapshot."""
        return _read_only(bond_length_squares(self.N, self.l, self.positions))

    @cached_property
    def reductions(self) -> Reductions:
        """The :class:`Reductions` of this snapshot, from :func:`_reductions` on a stack of one."""
        stacked = self.bond_squares[None], self.crosses[None], self.gradients[None]
        return _reductions(self.l, *stacked)[0]


class Reductions(NamedTuple):
    """Scalar reductions of one snapshot's cached geometry; see the module docstring."""

    bond_square_min: float
    bond_square_max: float
    cross_min: float
    gradient_mean: tuple[float, float, float, float]
    area_difference: float
    gradient_square_sum: float
    lid_deviation: float
    id_deviation: float
    bond_square_sum: float


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _reductions(l: float, bond_squares, crosses, gradients) -> list[Reductions]:
    """The :class:`Reductions` of each snapshot of a stack, in one pass.

    ``bond_squares``, ``crosses`` and ``gradients`` have a leading
    snapshot axis.  A lone snapshot calls this on a stack of one, so its
    record is the one :func:`snapshot_block` fills in.  A minimum or
    maximum is exact in any order and keeps a NaN.  The mean gradient is
    one reduction over the triangle axis, bitwise ``ndarray.mean(axis=0)``
    of each snapshot (pinned by the tests).  The three deviations of the
    whole stack come from one :func:`_deviation_planes` pass against the
    targets ``0``, ``l * Id`` and ``Id``, the same for every snapshot.
    Every sum over the triangles or the bonds is one
    :func:`_triangle_sums` call.
    """
    B, T = crosses.shape
    lo = np.minimum.reduce(bond_squares, axis=1).tolist()
    hi = np.maximum.reduce(bond_squares, axis=1).tolist()
    cross_min = np.minimum.reduce(crosses, axis=1).tolist()
    means = (np.add.reduce(gradients, axis=1) / T).reshape(B, 4).tolist()
    areas = _triangle_sums(0.5 * crosses - LAMBDA0).tolist()
    targets = np.array([[[0.0, 0.0], [0.0, 0.0]], [[l, 0.0], [0.0, l]], [[1.0, 0.0], [0.0, 1.0]]])
    deviations = _triangle_sums(_deviation_planes(gradients, targets)).T.tolist()
    bonds = _triangle_sums(bond_squares).tolist()
    return [
        Reductions(a, b, c, tuple(m), area, *devs, bond)
        for a, b, c, m, area, devs, bond in zip(lo, hi, cross_min, means, areas, deviations, bonds)
    ]


def _triangle_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``a``, each bitwise the 1-D ``np.add.reduce`` of its row.

    numpy picks its summation order from the memory layout, and a
    reduction over the last axis adds each row as a 1-D sum only when
    the rows are C-contiguous.  They need not be: :func:`corner_crosses`
    of a stacked block is column-major (strides ``(8, 512)`` at N = 4),
    and summing its rows in place changed the last bit of some area
    sums.  So the rows are copied to C order first (pinned by the tests).
    """
    return np.add.reduce(np.ascontiguousarray(a), axis=-1)


def _squared_deviations(gradients: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance of each 2x2 matrix of a stack from ``target``.

    ``target`` broadcasts against ``gradients``.  The four squares are
    added in row-major order, bitwise ``np.sum`` of the 2x2 (pinned by
    the tests) at about half its cost.
    """
    diff = gradients - target
    sq = diff * diff
    return ((sq[..., 0, 0] + sq[..., 0, 1]) + sq[..., 1, 0]) + sq[..., 1, 1]


def _deviation_planes(gradients: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """:func:`_squared_deviations` of a ``(B, T, 2, 2)`` stack from each of ``K`` targets.

    ``targets`` has shape ``(K, 2, 2)``, the same for every snapshot; the
    result has shape ``(K, B, T)`` with C-contiguous rows, bitwise
    ``_squared_deviations(gradients[b], targets[k])`` in row ``(k, b)``
    (pinned by the tests).  The gradients are copied once into four
    contiguous ``(B, T)`` component planes, so every step runs over whole
    planes rather than over trailing axes of length two.
    """
    B, T = gradients.shape[:2]
    planes = np.ascontiguousarray(gradients.reshape(B, T, 4).transpose(2, 0, 1))
    diff = planes - targets.reshape(-1, 4, 1, 1)
    np.multiply(diff, diff, out=diff)
    return ((diff[:, 0] + diff[:, 1]) + diff[:, 2]) + diff[:, 3]


def _check_parameters(N: int, l, epsilon) -> None:
    check_lattice_size(N)
    check_epsilon(epsilon)
    check_side_length(l, epsilon)


def _check_gauge(positions: np.ndarray) -> None:
    """Raise unless site (0, 0) of every row of a ``(B, N^2, 2)`` stack is exactly the origin."""
    if (positions[:, 0] != 0.0).any():
        raise ValueError("gauge violated: site (0, 0) must sit exactly at the origin")


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """Snapshots of one chain with their positions stacked on a leading axis.

    Row ``b`` of ``positions`` belongs to ``snapshots[b]``, a normal
    :class:`Configuration` whose cached ``corners``, ``gradients``,
    ``crosses`` and ``bond_squares`` are read-only views of rows of the
    stacked geometry, and whose ``reductions`` record is pre-filled.
    Every array is read-only.  Blocks compare as configurations do: equal
    snapshots and elementwise equal positions.
    """

    snapshots: tuple
    positions: np.ndarray  # (B, N^2, 2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.snapshots == other.snapshots and np.array_equal(self.positions, other.positions)

    __hash__ = None


# What snapshot_block sets on each snapshot besides N, l and epsilon: the
# positions field and the cached properties, in the order of its rows.
_SNAPSHOT_FIELDS = ("positions", "corners", "gradients", "crosses", "bond_squares", "reductions")


def snapshot_block(N: int, l: float, epsilon: float, positions: np.ndarray) -> SnapshotBlock:
    """Build the geometry of ``B`` snapshots, ``positions`` of shape ``(B, N^2, 2)``, at once.

    The arrays and the reductions come from the same functions a single
    snapshot's cached properties call, so every snapshot's cache equals a
    fresh ``Configuration(N, l, epsilon, positions[b])``'s bitwise.
    ``positions`` is made read-only and owned by the block.

    The block is validated once, as ``Configuration`` validates one
    snapshot: ``N``, ``l`` and ``epsilon``, the row shape, and the gauge
    of every row.  Each snapshot is then built without its constructor,
    with ``positions`` a read-only view of its row of the block.
    """
    _check_parameters(N, l, epsilon)
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[1:] != (N * N, 2):
        raise ValueError(f"positions must have shape (B, {N * N}, 2), got {positions.shape}")
    _check_gauge(positions)
    positions = _read_only(positions)
    corners = _read_only(image_triangle_corners(N, l, positions))
    gradients = _read_only(triangle_gradients(N, corners))
    crosses = _read_only(corner_crosses(corners))
    bond_squares = _read_only(bond_length_squares(N, l, positions))
    reductions = _reductions(l, bond_squares, crosses, gradients)
    snapshots = []
    for rows in zip(positions, corners, gradients, crosses, bond_squares, reductions):
        snap = object.__new__(Configuration)
        vars(snap).update(zip(_SNAPSHOT_FIELDS, rows), N=N, l=l, epsilon=epsilon)
        snapshots.append(snap)
    return SnapshotBlock(tuple(snapshots), positions)


def check_epsilon(epsilon) -> None:
    """Raise ``ValueError`` unless ``epsilon`` is a real number, not a bool, in ``(0, 1]``."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, Real) or not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be a real number in (0, 1], got {epsilon!r}")


def window_hi2(epsilon: float) -> float:
    """``(1 + epsilon)**2``, the open upper bound of omega1 on squared bond
    lengths, as every bond check reads it."""
    return (1.0 + epsilon) * (1.0 + epsilon)


def check_side_length(l, epsilon: float) -> None:
    """Raise ``ValueError`` unless ``l`` is a real number, not a bool, in ``(1, 1 + epsilon)``."""
    if isinstance(l, bool) or not isinstance(l, Real) or not 1.0 < l < 1.0 + epsilon:
        raise ValueError(
            f"l must be a real number in the open window (1, {1.0 + epsilon}), got {l!r}"
        )


@dataclass
class CheckResult:
    """Outcome of a single admissibility predicate."""

    ok: bool
    violations: list = field(default_factory=list)


@dataclass
class AdmissibilityReport:
    omega1_ok: bool
    omega2_ok: bool
    omega3_ok: bool
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.omega1_ok and self.omega2_ok and self.omega3_ok


def standard_config(N: int, l: float, epsilon: float) -> Configuration:
    """The uniformly scaled lattice: site ``x`` at ``l * embed(x)``.

    This is an interior point of the admissible set for every valid
    ``(N, l, epsilon)``.
    """
    check_lattice_size(N)
    uv = np.stack(lattice._grid(N), axis=-1).astype(float)
    return Configuration(N, float(l), float(epsilon), float(l) * (uv @ EMBED_BASIS))


def position(cfg: Configuration, idx) -> np.ndarray:
    """Position of an arbitrary lattice index via the periodic extension rule."""
    u, v = idx
    N = cfg.N
    cu, cv = u % N, v % N
    wu, wv = (u - cu) // N, (v - cv) // N
    base = cfg.positions[cu * N + cv]
    if wu == 0 and wv == 0:
        return base.copy()
    return base + cfg.l * N * lattice.embed((wu, wv))


def image_triangle_corners(N: int, l: float, positions: np.ndarray) -> np.ndarray:
    """Plane positions of the three corners of every triangle class.

    ``positions`` has shape ``(..., N^2, 2)``; the result has shape
    ``(..., 2N^2, 3, 2)``.  Leading axes stack snapshots.
    """
    sites, offset, _ = lattice.triangle_tables(N)
    return positions[..., sites, :] + l * N * offset


def triangle_gradients(N: int, corners: np.ndarray) -> np.ndarray:
    """Constant Jacobian of the affine piece on every triangle class.

    ``corners`` is :func:`image_triangle_corners`' output, shape
    ``(..., 2N^2, 3, 2)``; the result has shape ``(..., 2N^2, 2, 2)``.

    The gradient is ``d @ _BINV[orient]``, ``d`` the edge matrix
    ``[c1 - c0, c2 - c0]``.  A stacked matmul makes one BLAS call per
    triangle, so the edge rows of the triangles ``2s + o`` of each
    orientation ``o`` go through one GEMM with ``_BINV[o]`` instead.  The
    result is laid out triangle-major, as the stacked matmul's is, so the
    sums over the triangle axis in :func:`_reductions` run over
    contiguous planes.  numpy's bundled OpenBLAS computes each entry with
    one fused multiply-add, ``fl(a*b + fl(c*d))``, which numpy has no
    ufunc for; the explicit two-term sums ``a*b + c*d`` differ from it in
    the last bit in about a third of the entries (checked at N = 4, 12,
    32 and 96), so writing the products out would change ``scan.csv``.
    The GEMM's entries are the stacked matmul's bitwise, which the tests
    pin on the CPU that runs them.
    """
    lead = corners.shape[:-3]
    # (o, s, b, corner, xy): triangle 2s + o of snapshot b
    by_orient = corners.reshape(-1, N * N, 2, 3, 2).transpose(2, 1, 0, 3, 4)
    d = np.empty((*by_orient.shape[:3], 2, 2))
    np.subtract(by_orient[..., 1, :], by_orient[..., 0, :], out=d[..., 0])
    np.subtract(by_orient[..., 2, :], by_orient[..., 0, :], out=d[..., 1])
    g = np.empty((N * N, 2, *d.shape[2:]))  # (s, o, b, row, column)
    for o in (0, 1):
        g[:, o] = (d[o].reshape(-1, 2) @ _BINV[o]).reshape(d.shape[1:])
    return g.reshape(2 * N * N, -1, 2, 2).swapaxes(0, 1).reshape(*lead, 2 * N * N, 2, 2)


def corner_crosses(corners: np.ndarray) -> np.ndarray:
    """Corner cross product of every triangle (twice its signed area), shape ``(..., 2N^2)``."""
    d1 = corners[..., 1, :] - corners[..., 0, :]
    d2 = corners[..., 2, :] - corners[..., 0, :]
    return d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]


def triangle_gradient(cfg: Configuration, tri: lattice.TriangleRef) -> np.ndarray:
    """Jacobian of the affine piece on one triangle class.

    The unique matrix sending the reference edge vectors to the image
    edge vectors; it reproduces the corner differences exactly.
    """
    p = [position(cfg, c) for c in lattice.triangle_corners(tri)]
    d = np.column_stack((p[1] - p[0], p[2] - p[0]))
    return d @ _BINV[tri.orientation]


def _bond_vectors(N: int, l: float, positions: np.ndarray):
    """Components ``(dx, dy)`` of all 3N^2 bond classes, shape ``(..., 3N^2)`` each."""
    sites, offset = lattice.bond_tables(N)
    pa = positions[..., sites[:, 0], :]
    pb = positions[..., sites[:, 1], :] + l * N * offset
    return pb[..., 0] - pa[..., 0], pb[..., 1] - pa[..., 1]


def bond_length_squares(N: int, l: float, positions: np.ndarray) -> np.ndarray:
    """Squared lengths of all 3N^2 bond classes, shape ``(..., 3N^2)``."""
    dx, dy = _bond_vectors(N, l, positions)
    return dx**2 + dy**2


def check_omega1(cfg: Configuration) -> CheckResult:
    """Every bond length strictly inside ``(1, 1 + epsilon)``.

    By periodicity, checking the 3N^2 bond classes covers the full
    infinite bond set.  Comparisons are plain strict float comparisons,
    so a NaN length is outside the window.  A passing state is settled by
    the extremes ``bond_square_min`` and ``bond_square_max`` of
    ``cfg.reductions`` alone (a NaN extreme fails the comparison); only a
    failing one pays for the violation list.
    """
    r = cfg.reductions
    hi2 = window_hi2(cfg.epsilon)
    if 1.0 < r.bond_square_min and r.bond_square_max < hi2:
        return CheckResult(True)
    d2 = cfg.bond_squares
    bad = np.flatnonzero(~((d2 > 1.0) & (d2 < hi2)))
    all_bonds = lattice.bonds(cfg.N)
    return CheckResult(
        False,
        [("omega1", all_bonds[i], math.sqrt(float(d2[i]))) for i in bad],
    )


def check_omega3(cfg: Configuration) -> CheckResult:
    """Exact omega3: every triangle's float corners turn counterclockwise.

    The determinant's sign is the exact sign of
    ``D = (c1 - c0) x (c2 - c0)`` over the corners of
    :func:`image_triangle_corners`; a triangle with a non-finite corner
    fails.  Violations report ``cfg.crosses`` scaled to a determinant.
    With ``M`` the largest squared bond length (``bond_square_max`` of
    ``cfg.reductions``), a state with ``M < _BOND_SQUARE_CAP`` and a
    ``cross_min > 2 * _ORIENT_ERRBOUND * M`` passes in floats; any
    other (a non-finite coordinate makes ``M`` NaN or infinite) pays for
    :func:`geometry.orient_signs_exact` over its finite triangles.

    Proof that the test gives ``D > 0``, with ``u = 2**-53``.  (1) The
    seven roundings of ``cross = fl(fl(a_x b_y) - fl(a_y b_x))``, where
    ``a = fl(c1 - c0)`` and ``b = fl(c2 - c0)``, and an underflow of at
    most ``2**-1075`` per product give, by Cauchy-Schwarz,
    ``|cross - D| <= 4.001 u |c1 - c0| |c2 - c0| + 2**-1073``.  (2) ``c0``
    is a stored position, and ``c1 - c0``, and ``c2 - c0`` of an UP
    triangle, round to bitwise bond vectors: they are at most
    ``r = sqrt(M + 2**-1074) / (1 - u)**2`` long.  (3) Edge ``c2 - c0`` of
    a DOWN triangle is a reversed bond whose ends, on the seam, are other
    rounded copies, off by ``u`` times the size of the seam points.
    Stored positions lie within ``2(N - 1) r`` of the origin (bonds inside
    the grid) and ``fl(l*N) <= N r`` (row 0's ``N`` bonds add up to that
    shift exactly), so seam points lie within ``3 N r`` of it and the edge
    is at most ``r (1 + 6 N u)`` long.  (4) For ``N <= 2**40`` (``N**2``
    sites must fit in memory), ``|cross - D| <= 4.01 u M + 2**-1072``,
    which is below ``2 * _ORIENT_ERRBOUND * M = (6 + 32 u) u M`` because
    ``M > 0.9`` (``r >= fl(l*N) / N > 1 - u``).  The cap keeps every step
    finite.
    """
    r = cfg.reductions
    m = r.bond_square_max
    if m < _BOND_SQUARE_CAP and r.cross_min > _OMEGA3_SLACK * m:
        return CheckResult(True)
    # Exact signs of the finite triangles; the float filter of
    # orient_signs_exact(c1, c2, c0) evaluates corner_crosses' expression.
    fails = ~_finite_triangles(cfg.corners)
    idx = np.flatnonzero(~fails)
    c = cfg.corners[idx]
    fails[idx[geometry.orient_signs_exact(c[:, 1], c[:, 2], c[:, 0]) <= 0]] = True
    bad = np.flatnonzero(fails)
    if bad.size == 0:
        return CheckResult(True)
    tris = lattice.triangles(cfg.N)
    det_scale = 2.0 / SQRT3  # det(gradient) = cross / det(reference edges)
    return CheckResult(
        False,
        [("omega3", tris[i], float(cfg.crosses[i]) * det_scale) for i in bad],
    )


def _finite_triangles(corners: np.ndarray) -> np.ndarray:
    """Mask of the triangles whose three corners are finite, shape ``(2N^2,)``."""
    finite = np.isfinite(corners)
    return geometry._fold_columns(np.logical_and, finite.reshape(*finite.shape[:-2], 6))


def check_omega2_oracle(cfg: Configuration) -> CheckResult:
    """Exact injectivity oracle: no two image triangles overlap.

    Tests the open interiors of all image triangle representatives
    against each other and against the eight surrounding periodic
    translates (the 3x3 tiling).  A triangle with a non-finite corner is
    reported as ``omega3_nonfinite``, as :func:`check_omega3` fails it,
    and degenerate image triangles as ``omega3_degenerate``; no pair is
    tested then.  Meant for validation, not for the sampling hot path.

    :func:`_oracle_pairs` hands over the pairs whose bounding boxes
    overlap strictly, in ``(i, j, shift)`` order, one chunk of centre
    triangles at a time.  Per chunk, one
    :func:`geometry.triangles_overlap_block` call settles every pair the
    float filter can settle.  The rest go to the scalar
    :func:`geometry.triangles_overlap`, in that order: pairs whose answer
    hinges on an orientation the filter leaves open (a corner triple
    within rounding of collinear, as in some folded states), and pairs
    with a tiled copy that rounds to degenerate, for which the scalar
    raises :class:`geometry.DegenerateTriangleError`.  The chunks follow
    the centre triangle, so the scalar calls and the violations come in
    the order of the pairs.  The degenerate pre-pass takes its exact
    signs from :func:`geometry.orient_signs_exact`.  The answer is the
    exact predicate's on every pair either way.

    The pre-pass checks the centre copies only, and a tiled copy can
    round to collinear where its centre copy does not: two reflected-apex
    states of ``folded_counterexamples(4, 1.05, 0.1)`` have such copies.
    The oracle does not raise on them only because no such copy has
    passed the box filter into a candidate pair, which is pinned by a
    test, not proved; a copy that did pass would make the scalar
    predicate raise :class:`geometry.DegenerateTriangleError`.
    """
    corners = cfg.corners
    finite = _finite_triangles(corners)
    if not finite.all():
        tris = lattice.triangles(cfg.N)
        return CheckResult(False, [("omega3_nonfinite", tris[t]) for t in np.flatnonzero(~finite)])
    sign = geometry.orient_signs_exact(corners[:, 0], corners[:, 1], corners[:, 2])
    degenerate = np.flatnonzero(sign == 0).tolist()
    if degenerate:
        tris = lattice.triangles(cfg.N)
        return CheckResult(False, [("omega3_degenerate", tris[t]) for t in degenerate])

    hits = []
    for ii, jj, kk, P, Q in _oracle_pairs(cfg):
        overlap, decided = geometry.triangles_overlap_block(P, Q)
        for n in np.flatnonzero(~decided).tolist():
            overlap[n] = geometry.triangles_overlap(P[n], Q[n])
        hits += zip(ii[overlap].tolist(), jj[overlap].tolist(), kk[overlap].tolist())
        del ii, jj, kk, P, Q  # not held while the next chunk is built
    if not hits:
        return CheckResult(True)
    tris = lattice.triangles(cfg.N)
    return CheckResult(False, [("omega2_overlap", tris[i], tris[j], _SHIFTS[k]) for i, j, k in hits])


def _tiled_corners(cfg: Configuration, j, k) -> np.ndarray:
    """Corners of triangles ``j`` under tiling shifts ``_SHIFTS[k]``, shape ``(..., 3, 2)``.

    ``j`` and ``k`` broadcast against each other.  The shift's offset is
    added to the seam offset before the one float multiply by ``l*N``:
    corner instances that coincide in exact arithmetic then coincide
    bitwise, so shared seam edges stay exactly shared and the exact
    predicate sees no sliver overlaps.  Both offsets are exact, with x
    entries multiples of 1/2 and y entries ``m*fl(sqrt(3)/2)``, and the
    sum has x in ``[-3, 3]`` and ``|m| <= 2``, so it is exact too: bitwise
    the embedding of the folded integer wrap, and a corner's bits do not
    depend on which triangles are gathered with it.
    """
    sites, offset, _ = lattice.triangle_tables(cfg.N)
    return cfg.positions[sites[j]] + cfg.l * cfg.N * (offset[j] + _SHIFT_OFFSETS[k][..., None, :])


def _oracle_pairs(cfg: Configuration):
    """Yield the exact oracle's pairs, chunk by chunk: ``(ii, jj, kk, P, Q)``.

    Centre triangle ``ii[n]``, with corners ``P[n]``, is to be tested
    against triangle ``jj[n]`` under tiling shift ``_SHIFTS[kk[n]]``, with
    corners ``Q[n]`` (:func:`_tiled_corners`).  The pairs are those whose
    bounding boxes overlap strictly, with ``i < j``, or ``i == j`` under
    the four shifts after ``(0, 0)`` (opposite translates of one
    representative give the same test), sorted by ``(i, j, k)``.  Each
    chunk holds the pairs of the next ``_ORACLE_CHUNK`` centre
    triangles, so the chunks come in that order too.  A chunk is built
    only when the previous one has been taken, and besides it only the
    cell list, ``O(N^2)`` integers and boxes, is kept.

    A cell list finds the pairs in ``O(N^2)`` time.  It holds the images
    of :func:`_oracle_images`: the ``T`` centre images and the ghost
    images, translates under the eight other shifts, that the seam filter
    keeps.  Each is binned by the lower corner ``lo_j`` of its bounding
    box into square cells of edge ``h = r / 2``, where
    ``r = fl(1.0625 D)`` and ``D`` is the largest float box extent
    ``fl(hi - lo)`` of the images held.  Centre triangle ``i`` with box
    ``[lo_i, hi_i]`` scans, per axis, the cells from
    ``floor(fl(fl(lo_i - r) / h))`` to ``floor(fl(hi_i / h))``, one
    contiguous key range per row of cells.  The ``i < j`` rule and then
    the strict box test run on those candidates only.

    The scan finds every held box that overlaps strictly.  Rounding to
    nearest is monotone, so ``x <= y`` gives ``fl(x) <= fl(y)``, and
    ``fl(y) = y`` for a float ``y``.  Take any held image ``j`` with
    ``lo_j < hi_i`` and ``lo_i < hi_j`` on an axis, all floats compared
    exactly.  Then ``fl(lo_j / h) <= fl(hi_i / h)`` bounds its cell from
    above.  Its real extent is ``hi_j - lo_j <= D / (1 - u)``, with
    ``u = 2**-53``, and ``r >= 1.0625 D (1 - u) > D / (1 - u)``; so
    ``lo_j > lo_i - D / (1 - u) > lo_i - r`` in real arithmetic, hence
    ``fl(lo_i - r) <= lo_j`` and ``fl(fl(lo_i - r) / h) <= fl(lo_j / h)``
    bounds it from below.  The cell indices stay small: the oriented
    areas of a state sum to ``2N^2`` reference areas, so ``D`` is at
    least about one, and every corner lies within ``O(N D)`` of the
    origin.  As the seam filter drops only ghosts that overlap no centre
    box strictly, the pairs are those of a cell list over all ``9T``
    images, whatever the cells.

    The cost per triangle is bounded while the image triangles tile the
    plane, as on admissible states; a state that piles many triangles
    into one cell pays more, up to the all-pairs count.
    """
    corners = cfg.corners
    T = corners.shape[0]
    every = np.arange(T)
    # Boxes as one contiguous row per axis: numpy gathers, compares and
    # shifts (n, 2) rows of coordinates several times slower than rows.
    lo, hi = (b.T.copy() for b in geometry.corner_box(corners))
    ids, lo_s, hi_s = _oracle_images(cfg, lo, hi)

    reach = 1.0625 * float((hi_s - lo_s).max())
    h = reach / 2
    cell = np.empty(lo_s.shape, np.int64)
    for axis in range(2):  # one float row at a time
        np.floor(lo_s[axis] / h, out=cell[axis], casting="unsafe")
    first = np.floor((lo - reach) / h).astype(np.int64)
    last = np.floor(hi / h).astype(np.int64)
    base = np.minimum(cell.min(axis=1), first.min(axis=1))[:, None]
    cell -= base
    first -= base
    last -= base
    stride = int(max(cell[1].max(), last[1].max())) + 1  # rows of keys never overlap
    sorted_key = cell[0] * stride
    sorted_key += cell[1]
    del cell  # the generator's frame would hold it while it is paused
    order = np.argsort(sorted_key)
    sorted_key.sort()  # in place: the values of sorted_key[order]
    ids, lo_s, hi_s = ids[order], lo_s[:, order], hi_s[:, order]  # held in key order
    del order
    n_key = len(_SHIFTS) * T  # i*n_key + j*9 + k sorts the pairs by (i, j, k)

    def pairs(tri):
        # A function, so that its candidate arrays are freed before the
        # chunk is tested.  One key range per centre triangle and row of cells.
        rows = last[0, tri] - first[0, tri] + 1
        row_tri = np.repeat(tri, rows)
        row_x = first[0, row_tri] + np.arange(row_tri.size) - np.repeat(np.cumsum(rows) - rows, rows)
        start = np.searchsorted(sorted_key, row_x * stride + first[1, row_tri], side="left")
        count = np.searchsorted(sorted_key, row_x * stride + last[1, row_tri], side="right") - start
        ii = np.repeat(row_tri, count)
        held = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(ii.size)
        img = ids[held]
        keep = (ii < img % T) | ((ii == img % T) & _HALF_SHIFTS[img // T])
        ii, held = ii[keep], held[keep]
        keep = np.ones(ii.size, bool)
        for axis in range(2):  # the strict box test
            keep &= lo[axis, ii] < hi_s[axis, held]
            keep &= lo_s[axis, held] < hi[axis, ii]
        ii = ii[keep]
        kk, jj = np.divmod(ids[held[keep]], T)
        # the keys are distinct and below _ORACLE_CHUNK * n_key < 2**63
        sort = np.argsort((ii - tri[0]) * n_key + jj * len(_SHIFTS) + kk)
        return ii[sort], jj[sort], kk[sort]

    for c0 in range(0, T, _ORACLE_CHUNK):
        ii, jj, kk = pairs(every[c0 : c0 + _ORACLE_CHUNK])
        yield ii, jj, kk, corners[ii], _tiled_corners(cfg, jj, kk)
        del ii, jj, kk  # not held while the next chunk is built


def _oracle_images(cfg: Configuration, lo: np.ndarray, hi: np.ndarray):
    """The images of the oracle's cell list: ``(ids, lo_s, hi_s)``.

    ``lo`` and ``hi``, shape ``(2, T)``, are the boxes of the ``T`` centre
    triangles, one row per axis.  Image ``ids[n] = k*T + j`` is triangle
    ``j`` under shift ``_SHIFTS[k]``, with box ``[lo_s[:, n], hi_s[:, n]]``,
    bitwise :func:`geometry.corner_box` of its :func:`_tiled_corners`.
    The centre images come first, then the ghost images of
    :func:`_seam_ghosts`, in id order; only those are tiled.
    """
    T = lo.shape[1]
    ghosts = _seam_ghosts(cfg.l * cfg.N, lo, hi)
    lo_g, hi_g = geometry.corner_box(_tiled_corners(cfg, ghosts % T, ghosts // T))
    ids = np.concatenate((_CENTRE * T + np.arange(T), ghosts))
    return ids, np.concatenate((lo, lo_g.T), axis=1), np.concatenate((hi, hi_g.T), axis=1)


def _seam_ghosts(L: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Ids ``k*T + j`` of the ghost images that can overlap a centre box, ascending.

    ``lo`` and ``hi``, shape ``(2, T)``, are the boxes of the ``T`` centre
    triangles, one row per axis, and ``L = fl(l*N)``.  Of the ``8T``
    ghosts, translates of a centre triangle under the shifts
    ``k != _CENTRE``, only those near the seams can meet the centre
    copies: 1,291 of 16,384 on a sampled N = 32 state.  A ghost is kept when its predicted box, its centre box plus
    ``t = fl(L s)`` with ``s = _SHIFT_OFFSETS[k]``, widened by
    ``mu = fl(_SEAM_MARGIN * fl(L + M))``, meets ``[CLO, CHI]``, the
    bounding box of all centre boxes, ``M`` the largest ``|CLO|`` or
    ``|CHI|`` entry.  Per axis the test is ``fl(lo_j + t) <= fl(CHI + mu)``
    and ``fl(hi_j + t) >= fl(CLO - mu)``.  A state with
    ``fl(L + M) >= _SEAM_CAP`` keeps every ghost.

    Proof that a dropped ghost overlaps no centre box strictly, with
    ``u = 2**-53`` and ``|fl(x) - x| <= u |fl(x)|``.  Take one corner
    coordinate, stored position ``p``, seam offset ``o`` and shift
    offset ``s``: the centre corner is ``c = fl(p + fl(L o))`` and the
    ghost's, from :func:`_tiled_corners`, ``g = fl(p + fl(L (o + s)))``,
    where ``o + s`` is exact.  The offsets have ``|o| <= 1.5``,
    ``|s| <= 1.5`` and ``|o + s| <= 3``, and ``|c| <= M``; ``L > 2`` and
    the offsets' nonzero entries are at least 1/2, so no product underflows.
    (1) ``g - c - L s`` is the product roundings, at most ``3 u L`` and
    ``1.5 u L``, plus the sum roundings, at most ``u |g|`` and ``u M``.
    With ``|g| <= M + 1.5 L + |g - c - L s|`` that gives
    ``|g - c - L s| <= E = u (6 L + 2 M) / (1 - u)``.  (2) The three
    corners share ``L s``, so the ghost's exact box lies within ``E`` of
    the centre box plus ``L s``.  (3) A ghost that strictly overlaps
    centre box ``i`` has, per axis, ``lo_g < hi_i <= CHI``, so
    ``lo_j + L s < CHI + E``.  With ``|t - L s| <= 1.5 u L`` and the
    rounding of the sum, ``fl(lo_j + t) < CHI + u (9.02 L + 3.01 M)``.
    (4) ``mu >= 16 u (L + M) (1 - u)`` (the power of two scales
    exactly), so ``fl(CHI + mu) >= CHI + mu - u (M + mu) >
    CHI + u (15.9 L + 14.9 M)``, above the bound of (3); likewise for
    ``hi``.  The cap keeps every step finite.
    """
    T = lo.shape[1]
    ghosts = [k for k in range(len(_SHIFTS)) if k != _CENTRE]
    clo, chi = lo.min(axis=1), hi.max(axis=1)
    bound = L + float(np.abs(np.concatenate((clo, chi))).max())  # keeps a NaN
    if not bound < _SEAM_CAP:  # outside the proof, or not finite
        return np.concatenate([k * T + np.arange(T) for k in ghosts])
    mu = _SEAM_MARGIN * bound
    t = L * _SHIFT_OFFSETS[ghosts]
    near = np.ones((len(ghosts), T), bool)
    for a in range(2):  # whole (8, T) planes, not a trailing axis of length 2
        near &= lo[a] + t[:, a, None] <= chi[a] + mu
        near &= hi[a] + t[:, a, None] >= clo[a] - mu
    k, j = np.nonzero(near)
    return np.array(ghosts)[k] * T + j


def is_admissible(cfg: Configuration) -> AdmissibilityReport:
    """Conjunction of omega1 and omega3, with omega2 read off omega3.

    By the lemma of the module docstring, omega2 holds exactly where
    omega3 does, for every ``epsilon``.  A failing omega2 is reported
    with the violation ``("omega2_skipped", "omega3 failed")``.
    """
    r1 = check_omega1(cfg)
    r3 = check_omega3(cfg)
    r2 = [] if r3.ok else [("omega2_skipped", "omega3 failed")]
    return AdmissibilityReport(
        omega1_ok=r1.ok,
        omega2_ok=r3.ok,
        omega3_ok=r3.ok,
        violations=r1.violations + r3.violations + r2,
    )


def _positions_at(cfg: Configuration, sign: int, b=(0, 0)) -> np.ndarray:
    """Positions of the sites ``sign * x + b`` for the canonical sites ``x``, in their order."""
    u, v = lattice._grid(cfg.N)
    flat, offset = lattice._wrapped(sign * u + b[0], sign * v + b[1], cfg.N)
    return cfg.positions[flat] + cfg.l * cfg.N * offset


def translate(cfg: Configuration, b) -> Configuration:
    """Pull the configuration back by lattice vector ``b`` and re-gauge.

    ``omega'(x) = omega(x + b) - omega(b)``; the admissible set is
    invariant under this map and the origin gauge is restored exactly.
    No run uses it: it is the scalar reference of the symmetry tests,
    which require :func:`is_admissible` to be invariant under it.
    """
    gathered = _positions_at(cfg, 1, b)
    return Configuration(cfg.N, cfg.l, cfg.epsilon, gathered - gathered[0])


def reflect(cfg: Configuration) -> Configuration:
    """Point reflection ``omega'(x) = -omega(-x)``; an involution on states.

    No run uses it: it is the scalar reference of the symmetry tests,
    which require :func:`is_admissible` to be invariant under it.
    """
    new_pos = -_positions_at(cfg, -1)
    new_pos[0] = 0.0
    return Configuration(cfg.N, cfg.l, cfg.epsilon, new_pos)


def to_json(cfg: Configuration) -> str:
    """Serialize to the documented flat JSON record.

    Positions are listed as ``2*N^2`` floats ``x0, y0, x1, y1, ...`` in
    canonical site order.  Floats are written in shortest round-trip
    decimal form, so ``from_json(to_json(cfg))`` is bit-exact.
    """
    record = {
        "schema": CONFIG_SCHEMA,
        "N": int(cfg.N),
        "l": float(cfg.l),
        "epsilon": float(cfg.epsilon),
        "positions": [float(x) for x in cfg.positions.ravel()],
    }
    return json.dumps(record)


def from_json(text: str) -> Configuration:
    record = json.loads(text)
    if record.get("schema") != CONFIG_SCHEMA:
        raise ValueError(f"unexpected configuration schema {record.get('schema')!r}")
    N, l, epsilon = record["N"], record["l"], record["epsilon"]
    _check_parameters(N, l, epsilon)
    pos = np.array(record["positions"], dtype=float).reshape(N * N, 2)
    return Configuration(N, float(l), float(epsilon), pos)
