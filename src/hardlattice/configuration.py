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

``check_omega2_fast`` certifies omega2 in ``O(N^2)`` via positive
determinants plus an exact integer winding number 1 of every vertex star
(a locally injective torus map of degree one is a homeomorphism);
``check_omega2_oracle`` is the exact cross-check based on pairwise
interior overlap of image triangles; a cell list over the 3x3 periodic
tiling hands it only the pairs whose bounding boxes overlap, in
``O(N^2)`` time and memory.  Agreement of the two is a tested invariant
of this package.  For ``epsilon < sqrt(3) - 1``, omega1 and omega3
already imply the fast certificate, and :func:`is_admissible` skips it.

Each snapshot computes its geometry once: ``cfg.corners``,
``cfg.gradients``, ``cfg.crosses`` and ``cfg.bond_squares`` are cached
on first use, and the checks and observables all read them.  Caching is
safe because a configuration never changes: the dataclass is frozen,
``positions`` is read-only, and so is every cached array.  The builders
take positions with leading batch axes, and :func:`snapshot_block` runs
them once on a stack of snapshots, pre-filling each snapshot's cache
with views of the stacked arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real

import numpy as np

from . import geometry, kernels, lattice
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

# The 3x3 tiling shifts of the exact oracle; index 4 is the centre copy.
_SHIFTS = [(yu, yv) for yu in (-1, 0, 1) for yv in (-1, 0, 1)]


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_parameters(N: int, l, epsilon) -> None:
    check_lattice_size(N)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    check_side_length(l, epsilon)


def _check_gauge(positions: np.ndarray) -> None:
    """Raise unless site (0, 0) of every row of a ``(B, N^2, 2)`` stack is exactly the origin."""
    if (positions[:, 0] != 0.0).any():
        raise ValueError("gauge violated: site (0, 0) must sit exactly at the origin")


@dataclass(frozen=True, eq=False)
class SnapshotBlock:
    """Snapshots of one chain with their geometry stacked on a leading axis.

    Row ``b`` of each array belongs to ``snapshots[b]``, a normal
    :class:`Configuration` whose cached ``corners``, ``gradients``,
    ``crosses`` and ``bond_squares`` are read-only views of rows of the
    stacked geometry.  Every array is read-only.  Blocks compare as
    configurations do: equal snapshots and elementwise equal arrays.
    """

    snapshots: tuple
    positions: np.ndarray  # (B, N^2, 2)
    gradients: np.ndarray  # (B, 2N^2, 2, 2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.snapshots == other.snapshots
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.gradients, other.gradients)
        )

    __hash__ = None


# What snapshot_block sets on each snapshot besides N, l and epsilon: the
# positions field and the cached properties, in the order of its arrays.
_SNAPSHOT_FIELDS = ("positions", "corners", "gradients", "crosses", "bond_squares")


def snapshot_block(N: int, l: float, epsilon: float, positions: np.ndarray) -> SnapshotBlock:
    """Build the geometry of ``B`` snapshots, ``positions`` of shape ``(B, N^2, 2)``, at once.

    The arrays come from the same functions a single snapshot's cached
    properties call, so every snapshot's cache equals a fresh
    ``Configuration(N, l, epsilon, positions[b])``'s bitwise.
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
    snapshots = []
    for rows in zip(positions, corners, gradients, crosses, bond_squares):
        snap = object.__new__(Configuration)
        vars(snap).update(zip(_SNAPSHOT_FIELDS, rows), N=N, l=l, epsilon=epsilon)
        snapshots.append(snap)
    return SnapshotBlock(tuple(snapshots), positions, gradients)


def check_side_length(l, epsilon: float) -> None:
    """Raise ``ValueError`` unless ``l`` is a real number in ``(1, 1 + epsilon)``."""
    if not isinstance(l, Real) or not 1.0 < l < 1.0 + epsilon:
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
    uv = np.array([lattice.site_of_index(i, N) for i in range(N * N)], dtype=float)
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
    sites, wrap, _ = lattice.triangle_tables(N)
    return positions[..., sites, :] + l * N * (wrap @ EMBED_BASIS)


def triangle_gradients(N: int, corners: np.ndarray) -> np.ndarray:
    """Constant Jacobian of the affine piece on every triangle class.

    ``corners`` is :func:`image_triangle_corners`' output, shape
    ``(..., 2N^2, 3, 2)``; the result has shape ``(..., 2N^2, 2, 2)``.
    """
    _, _, orient = lattice.triangle_tables(N)
    c0 = corners[..., 0, :]
    d = np.stack((corners[..., 1, :] - c0, corners[..., 2, :] - c0), axis=-1)
    return d @ _BINV[orient]


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
    sites, wrap = lattice.bond_tables(N)
    pa = positions[..., sites[:, 0], :]
    pb = positions[..., sites[:, 1], :] + l * N * (wrap @ EMBED_BASIS)
    return pb[..., 0] - pa[..., 0], pb[..., 1] - pa[..., 1]


def bond_lengths(cfg: Configuration) -> np.ndarray:
    """Lengths of all 3N^2 bond classes in enumeration order."""
    return np.hypot(*_bond_vectors(cfg.N, cfg.l, cfg.positions))


def bond_length_squares(N: int, l: float, positions: np.ndarray) -> np.ndarray:
    """Squared lengths of all 3N^2 bond classes, shape ``(..., 3N^2)``."""
    dx, dy = _bond_vectors(N, l, positions)
    return dx**2 + dy**2


def check_omega1(cfg: Configuration) -> CheckResult:
    """Every bond length strictly inside ``(1, 1 + epsilon)``.

    By periodicity, checking the 3N^2 bond classes covers the full
    infinite bond set.  Comparisons are plain strict float comparisons,
    so a NaN length is outside the window.  A passing state is settled by
    the extremes alone (a NaN extreme fails the comparison); only a
    failing one pays for the violation list.
    """
    d2 = cfg.bond_squares
    hi2 = (1.0 + cfg.epsilon) * (1.0 + cfg.epsilon)
    if 1.0 < np.minimum.reduce(d2) and np.maximum.reduce(d2) < hi2:
        return CheckResult(True)
    bad = np.flatnonzero(~((d2 > 1.0) & (d2 < hi2)))
    all_bonds = lattice.bonds(cfg.N)
    return CheckResult(
        False,
        [("omega1", all_bonds[i], math.sqrt(float(d2[i]))) for i in bad],
    )


def check_omega3(cfg: Configuration) -> CheckResult:
    """Positive Jacobian determinant on every triangle class.

    The reference edges are positively oriented, so the determinant sign
    equals the sign of the image corner cross product.  A NaN cross
    product is not positive and fails.  As in :func:`check_omega1`, the
    minimum settles a passing state.
    """
    cross = cfg.crosses
    if np.minimum.reduce(cross) > 0.0:
        return CheckResult(True)
    bad = np.flatnonzero(~(cross > 0.0))
    tris = lattice.triangles(cfg.N)
    det_scale = 2.0 / SQRT3  # det(gradient) = cross / det(reference edges)
    return CheckResult(
        False,
        [("omega3", tris[i], float(cross[i]) * det_scale) for i in bad],
    )


def check_omega2_fast(cfg: Configuration) -> CheckResult:
    """O(N^2) injectivity certificate.

    All determinants positive, and the six neighbour images of every
    site wind exactly once around its image
    (:func:`geometry.winding_numbers`, an exact integer count).
    Positive determinants make the torus map a local homeomorphism away
    from vertices and it has degree one, so ruling out winding defects
    at vertices certifies a global bijection.

    :func:`is_admissible` calls this only where omega1 fails or
    ``epsilon >= sqrt(3) - 1``; elsewhere omega1 and omega3 imply its
    verdict.  It stays callable on every state, because its agreement
    with :func:`check_omega2_oracle` is a tested invariant.
    """
    omega3 = check_omega3(cfg)
    if not omega3.ok:
        return CheckResult(False, [("omega2_precondition",) + v[1:] for v in omega3.violations])
    nbr_idx, nbr_wrap = lattice.neighbor_tables(cfg.N)
    star = cfg.positions[nbr_idx] + cfg.l * cfg.N * (nbr_wrap @ EMBED_BASIS)
    winding = geometry.winding_numbers(cfg.positions, star)
    bad = np.flatnonzero(winding != 1)
    if bad.size == 0:
        return CheckResult(True)
    return CheckResult(
        False,
        [("omega2_winding", lattice.site_of_index(int(i), cfg.N), int(winding[i])) for i in bad],
    )


def check_omega2_oracle(cfg: Configuration) -> CheckResult:
    """Exact injectivity oracle: no two image triangles overlap.

    Tests the open interiors of all image triangle representatives
    against each other and against the eight surrounding periodic
    translates (the 3x3 tiling).  Degenerate image triangles are
    reported as orientation failures.  Meant for validation, not for the
    sampling hot path.

    :func:`_oracle_candidates` hands over the pairs whose bounding boxes
    overlap strictly, in ``(i, j, shift)`` order, from a cell list in
    ``O(N^2)`` time and memory.  One :func:`geometry.triangles_overlap_block`
    call settles every pair the float filter can settle.  The rest go to
    the scalar :func:`geometry.triangles_overlap`, in that order: pairs
    whose answer hinges on an orientation the filter leaves open (a
    corner triple within rounding of collinear, as in some folded
    states), and pairs with a tiled copy that rounds to degenerate, for
    which the scalar raises :class:`geometry.DegenerateTriangleError`.  The
    degenerate pre-pass takes its exact signs from
    :func:`geometry.orient_signs_exact`.  The answer is the exact
    predicate's on every pair either way.

    The pre-pass checks the centre copies only, and a tiled copy can
    round to collinear where its centre copy does not: two reflected-apex
    states of ``folded_counterexamples(4, 1.05, 0.1)`` have such copies.
    The oracle does not raise on them only because no such copy has
    passed the box filter into a candidate pair, which is pinned by a
    test, not proved; a copy that did pass would make the scalar
    predicate raise :class:`geometry.DegenerateTriangleError`.
    """
    corners = cfg.corners
    sign = geometry.orient_signs_exact(corners[:, 0], corners[:, 1], corners[:, 2])
    degenerate = np.flatnonzero(sign == 0).tolist()
    if degenerate:
        tris = lattice.triangles(cfg.N)
        return CheckResult(False, [("omega3_degenerate", tris[t]) for t in degenerate])

    ii, jj, kk, tiled = _oracle_candidates(cfg)
    overlap, decided = geometry.triangles_overlap_block(corners[ii], tiled[kk, jj])
    for n in np.flatnonzero(~decided).tolist():
        overlap[n] = geometry.triangles_overlap(corners[ii[n]], tiled[kk[n], jj[n]])
    hits = np.flatnonzero(overlap).tolist()
    if not hits:
        return CheckResult(True)
    tris = lattice.triangles(cfg.N)
    return CheckResult(
        False,
        [("omega2_overlap", tris[ii[n]], tris[jj[n]], _SHIFTS[kk[n]]) for n in hits],
    )


def _oracle_candidates(cfg: Configuration):
    """Pairs for the exact oracle: ``(ii, jj, kk, tiled)``.

    ``tiled[k, j]`` holds the corners of triangle ``j`` under tiling shift
    ``_SHIFTS[k]``, shape ``(9, T, 3, 2)``.  Centre triangle ``ii[n]`` is
    to be tested against ``tiled[kk[n], jj[n]]``; the pairs are those
    whose bounding boxes overlap strictly, with ``i < j``, or ``i == j``
    under the four shifts after ``(0, 0)`` (opposite translates of one
    representative give the same test), sorted by ``(i, j, k)``.

    A cell list finds them in ``O(N^2)`` time and memory.  Each of the
    ``9T`` tiled image triangles is binned by the lower corner of its
    bounding box into square cells of edge ``h``, a sixteenth larger than
    the largest box extent ``E``.  Two boxes that overlap strictly have
    lower corners less than ``E`` apart on each axis, so their cells
    differ by at most one per axis: the 3x3 cell neighbourhood of a
    centre triangle holds every image whose box can overlap its own.
    The sixteenth is far above the rounding of the corner-to-cell
    division.  The strict box test then runs on those candidates only.
    The cost per triangle is bounded while the image triangles tile the
    plane, as on admissible states; a state that piles many triangles
    into one cell pays more, up to the all-pairs count.
    """
    corners = cfg.corners
    T = corners.shape[0]
    half = np.array([y > (0, 0) for y in _SHIFTS])

    # Fold the tiling shift into the integer wrap before the one float
    # multiply: corner instances that coincide in exact arithmetic then
    # coincide bitwise, so shared seam edges stay exactly shared and the
    # exact predicate sees no sliver overlaps.
    sites, wrap, _ = lattice.triangle_tables(cfg.N)
    tiled = np.empty((len(_SHIFTS), T, 3, 2))
    for k, y in enumerate(_SHIFTS):
        total_wrap = wrap + np.array(y)
        tiled[k] = cfg.positions[sites] + cfg.l * cfg.N * (total_wrap @ EMBED_BASIS)

    lo, hi = geometry.corner_box(corners)
    lo_s, hi_s = (a.reshape(-1, 2) for a in geometry.corner_box(tiled))  # image k*T + j

    h = 1.0625 * float((hi_s - lo_s).max())
    cell = np.floor(lo_s / h).astype(np.int64)
    cell -= cell.min(axis=0) - 1  # neighbour cells stay nonnegative
    stride = int(cell[:, 1].max()) + 2  # one key per cell, neighbours included
    key = cell[:, 0] * stride + cell[:, 1]
    order = np.argsort(key)
    sorted_key = key[order]

    # Keys of the 3x3 cell neighbourhood of every centre triangle i, whose
    # own image is center*T + i; then every image binned in those cells.
    center = _SHIFTS.index((0, 0))
    step = np.arange(-1, 2)
    nbr = key[center * T : (center + 1) * T, None] + (stride * step[:, None] + step).ravel()
    start = np.searchsorted(sorted_key, nbr.ravel(), side="left")
    count = np.searchsorted(sorted_key, nbr.ravel(), side="right") - start
    ii = np.repeat(np.arange(T).repeat(nbr.shape[1]), count)
    first = np.repeat(start - (np.cumsum(count) - count), count)
    img = order[first + np.arange(ii.size)]
    kk, jj = np.divmod(img, T)

    # Strict bounding-box prefilter: (i) vs (j, shift k).
    box = (lo[ii] < hi_s[img]) & (lo_s[img] < hi[ii])
    box = box[:, 0] & box[:, 1]
    keep = box & ((ii < jj) | ((ii == jj) & half[kk]))
    ii, jj, kk = ii[keep], jj[keep], kk[keep]
    sort = np.lexsort((kk, jj, ii))
    return ii[sort], jj[sort], kk[sort], tiled


def is_admissible(cfg: Configuration) -> AdmissibilityReport:
    """Conjunction of omega1, omega3 and the fast omega2 certificate.

    Evaluated in the order omega1, omega3, omega2.  When omega3 fails,
    omega2 is reported as failing without a check, since the winding
    certificate presupposes positive determinants.  When omega1 and
    omega3 both hold and ``(1 + epsilon)**2 < kernels.LEAN_HI2``, omega2
    is reported as passing without the winding count: every triangle
    angle is then below ``2*pi/3``, so every vertex star winds exactly
    once (the first lemma of the :mod:`kernels` docstring), and
    :func:`check_omega2_fast` would pass.  Otherwise
    :func:`check_omega2_fast` decides.  The report is the same as when
    :func:`check_omega2_fast` runs on every state with omega3.
    """
    r1 = check_omega1(cfg)
    r3 = check_omega3(cfg)
    if not r3.ok:
        r2 = CheckResult(False, [("omega2_skipped", "omega3 failed")])
    elif r1.ok and (1.0 + cfg.epsilon) * (1.0 + cfg.epsilon) < kernels.LEAN_HI2:
        r2 = CheckResult(True)
    else:
        r2 = check_omega2_fast(cfg)
    return AdmissibilityReport(
        omega1_ok=r1.ok,
        omega2_ok=r2.ok,
        omega3_ok=r3.ok,
        violations=r1.violations + r3.violations + r2.violations,
    )


def _positions_at(cfg: Configuration, sign: int, b=(0, 0)) -> np.ndarray:
    """Positions of the sites ``sign * x + b`` for the canonical sites ``x``, in their order."""
    N = cfg.N
    flat = np.arange(N * N)
    u, v = sign * (flat // N) + b[0], sign * (flat % N) + b[1]
    cu, cv = u % N, v % N
    wrap = np.stack(((u - cu) // N, (v - cv) // N), axis=-1)
    return cfg.positions[cu * N + cv] + cfg.l * N * (wrap @ EMBED_BASIS)


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
    N = int(record["N"])
    pos = np.array(record["positions"], dtype=float).reshape(N * N, 2)
    return Configuration(N, float(record["l"]), float(record["epsilon"]), pos)
