"""Per-configuration functionals: order parameters, bond statistics, and
the exact identities they satisfy.

The piecewise-affine extension has a constant gradient on each triangle,
so every L2 quantity over the fundamental domain is an exact
area-weighted sum (cell area sqrt(3)/4); no quadrature error enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import LAMBDA0, Configuration, _squared_deviations, position
from .lattice import NEIGHBOR_OFFSETS


def per_triangle_order_parameters(cfg: Configuration, target) -> np.ndarray:
    """Squared Frobenius deviation of every triangle gradient from ``target``.

    No run calls it: ``cfg.reductions`` holds the sums over the triangles
    of this for ``target`` the nearest rotation, ``l * Id`` and ``Id``,
    from the same row-major 2x2 helper, and this is their reference.
    """
    return _squared_deviations(cfg.gradients, np.asarray(target, dtype=float))


def bond_vector(cfg: Configuration, x, z) -> np.ndarray:
    """Displacement ``omega(x + z) - omega(x)`` for a nearest-neighbor offset ``z``."""
    z = (int(z[0]), int(z[1]))
    if z not in NEIGHBOR_OFFSETS:
        raise ValueError(f"{z} is not a nearest-neighbor offset")
    u, v = x
    return position(cfg, (u + z[0], v + z[1])) - position(cfg, x)


def side_deviation_sum(cfg: Configuration) -> float:
    """Sum of squared bond-length deviations from one over the 3N^2 bond classes.

    Reads the snapshot's cached ``bond_squares``, so each length is the
    square root of its rounded square rather than a ``hypot``.
    """
    d = np.sqrt(cfg.bond_squares) - 1.0
    return float(np.sum(d * d))


def l2_gradient_deviation(cfg: Configuration, target) -> float:
    """Squared L2 distance of the gradient field from the constant ``target``.

    Exact as the area-weighted sum of per-triangle deviations.  No run
    calls it: :func:`identity_suite` reads both of its deviations from
    ``rotation_deviation`` and ``lid_deviation`` of ``cfg.reductions``,
    one stacked pass per block, and this is the reference that pass is
    tested against.
    """
    return LAMBDA0 * float(np.sum(per_triangle_order_parameters(cfg, target)))


def area_difference_sum(cfg: Configuration) -> float:
    """Sum over triangle classes of image area minus reference area.

    For any configuration satisfying the periodic boundary rule this
    equals ``2 N^2 (sqrt(3)/4) (l^2 - 1)`` independent of the positions.
    """
    areas = 0.5 * cfg.crosses
    return float(np.sum(areas - LAMBDA0))


def area_difference_closed_form(N: int, l: float) -> float:
    """The constant value taken by :func:`area_difference_sum` at ``(N, l)``."""
    return 2.0 * N * N * LAMBDA0 * (l * l - 1.0)


def mean_gradient(cfg: Configuration) -> np.ndarray:
    """Area-weighted average of the triangle gradients.

    The cells all have the same reference area, so this is the plain
    mean; by periodicity of the displacement field it equals ``l * Id``
    for every configuration satisfying the boundary rule.  No run calls
    it: it is the reference of :func:`identity_suite`'s mean.
    """
    return cfg.gradients.mean(axis=0)


# Tolerances of the exact-identity suite.  The identities hold in exact
# arithmetic for every admissible state; the tolerances only absorb
# float rounding of O(N^2)-term sums.
MEAN_GRADIENT_TOL = 1e-10
AREA_IDENTITY_RTOL = 1e-9
PYTHAGORAS_RTOL = 1e-9


@dataclass
class IdentityReport:
    mean_gradient_error: float
    area_relative_error: float
    pythagoras_relative_error: float

    @property
    def ok(self) -> bool:
        return (
            self.mean_gradient_error <= MEAN_GRADIENT_TOL
            and self.area_relative_error <= AREA_IDENTITY_RTOL
            and self.pythagoras_relative_error <= PYTHAGORAS_RTOL
        )


def identity_suite(cfg: Configuration) -> IdentityReport:
    """Check the three deterministic identities on one snapshot.

    (a) mean gradient equals ``l * Id``; (b) the area-difference sum
    equals its closed form; (c) the Pythagoras split of the L2 deviation
    around the best rotation is exact.

    The report is bitwise the one of the plain composition of
    :func:`mean_gradient`, :func:`geometry.frobenius`,
    :func:`area_difference_sum`, :func:`geometry.polar_rotation`,
    :func:`geometry.rotation` and two :func:`l2_gradient_deviation`
    calls.  It reads the snapshot's ``cfg.reductions`` record
    (``gradient_mean``, ``area_difference``, ``rotation``,
    ``rotation_deviation`` and ``lid_deviation``, which
    :func:`configuration.snapshot_block` fills in for a whole block at
    once) and does the rest on Python floats:

    * the 2x2 sums of squares (the mean's error and the rotation shift
      ``|l Id - R|^2``) add their four terms in row-major order, as
      numpy sums fewer than eight contiguous terms;
    * the two L2 deviations are the record's sums times the cell area.

    The tests pin the numpy equalities the reductions rely on, on the
    CPU that runs them.
    """
    N, l = cfg.N, cfg.l
    r = cfg.reductions
    m00, m01, m10, m11 = r.gradient_mean
    d00, d11 = m00 - l, m11 - l
    mg_err = math.sqrt(d00 * d00 + m01 * m01 + m10 * m10 + d11 * d11)

    closed = area_difference_closed_form(N, l)
    area_err = abs(r.area_difference - closed) / abs(closed)

    if r.rotation is None:
        raise ValueError("polar rotation undefined: all rotations are equidistant")
    cos, sin = r.rotation
    lhs = LAMBDA0 * r.rotation_deviation
    a = LAMBDA0 * r.lid_deviation
    dc, s2 = l - cos, sin * sin
    b = 2.0 * N * N * LAMBDA0 * (dc * dc + s2 + s2 + dc * dc)
    pyth_err = abs(lhs - a - b) / max(lhs, 1e-300)

    return IdentityReport(mg_err, area_err, pyth_err)
