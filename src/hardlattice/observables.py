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
    of this for ``target`` ``0``, ``l * Id`` and ``Id``, from the same
    row-major 2x2 helper, and this is their reference.
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
    calls it: it is a scalar reference, from which the tests build the
    Pythagoras split around the rotation nearest the mean gradient.
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
# The frame identity's rounding on an admissible state, with u = 2**-53,
# every side in (1, 2] and every canonical site within 2N(1 + epsilon)
# <= 4N of the origin (constants rounded up):
# * a corner fl(p + fl(fl(l*N) * offset)) is within 13.1 N u of its exact
#   periodic image, so an edge or bond vector is within d = 28.2 N u of
#   its exact value, per component;
# * a bond square a^2 >= 1 is then within 2 sqrt(2) d + 2 u <= 82 N u of
#   its exact value, relatively;
# * a gradient fl(D @ _BINV) is within 2 sqrt(2) d + 19 u of the exact
#   one in Frobenius norm (|_BINV|_2 = sqrt(2), the rounded 1/sqrt(3),
#   the products and their sum), so |G|^2 >= 2 is within
#   sqrt(2) (2 sqrt(2) d + 19 u) + 4 u <= 144 N u, relatively;
# * a sum of n nonnegative terms, in any order, adds (n - 1) u: 2 N^2 u
#   over the triangles and 3 N^2 u over the bonds.
# So frame_relative_error stays below (226 N + 5 N^2) u, 5.8e-10 at
# N = 1,000 and below FRAME_RTOL for every N <= 1,300.  Sampled states
# from N = 2 to 96 read at most 6.4e-16.
FRAME_RTOL = 1e-9


@dataclass
class IdentityReport:
    mean_gradient_error: float
    area_relative_error: float
    frame_relative_error: float

    @property
    def ok(self) -> bool:
        return (
            self.mean_gradient_error <= MEAN_GRADIENT_TOL
            and self.area_relative_error <= AREA_IDENTITY_RTOL
            and self.frame_relative_error <= FRAME_RTOL
        )


def identity_suite(cfg: Configuration) -> IdentityReport:
    """Check the three deterministic identities on one snapshot.

    (a) The mean gradient equals ``l * Id``.  (b) The area-difference
    sum equals its closed form.  (c) The frame identity
    ``sum_T |G_T|^2 = (4/3) sum_b a_b^2``: the reference edges ``v_k``
    lie at 0, 60 and 120 degrees, so ``sum_k v_k v_k^T = (3/2) Id`` and
    ``|G_T|^2 = (2/3) sum_k a_k^2`` over the three sides of ``T``, and
    each bond lies in two triangles.  It ties the gradients, built from
    the corners through ``_BINV``, to the bond squares, built from the
    bond vectors.

    The report is bitwise the one of the plain composition of
    :func:`mean_gradient`, :func:`geometry.frobenius`,
    :func:`area_difference_sum`, the sum of
    :func:`per_triangle_order_parameters` against ``0`` and the sum of
    :func:`configuration.bond_length_squares`.  It reads the snapshot's
    ``cfg.reductions`` record (``gradient_mean``, ``area_difference``,
    ``gradient_square_sum`` and ``bond_square_sum``, which
    :func:`configuration.snapshot_block` fills in for a whole block at
    once) and does the rest on Python floats; the mean's error adds its
    four squares in row-major order, as numpy sums fewer than eight
    contiguous terms.  The tests pin the numpy equalities the reductions
    rely on, on the CPU that runs them.
    """
    N, l = cfg.N, cfg.l
    r = cfg.reductions
    m00, m01, m10, m11 = r.gradient_mean
    d00, d11 = m00 - l, m11 - l
    mg_err = math.sqrt(d00 * d00 + m01 * m01 + m10 * m10 + d11 * d11)

    closed = area_difference_closed_form(N, l)
    area_err = abs(r.area_difference - closed) / abs(closed)

    # Each of the 3N rows of N bonds spans a period of length l*N, so by
    # Cauchy-Schwarz its squares sum to at least l^2 N, and
    # sum_b a_b^2 >= 3 l^2 N^2 > 0 on every state: the quotient needs no
    # guard, and only a non-finite coordinate, which fails the check,
    # makes it non-finite.
    frame = 4.0 * r.bond_square_sum / 3.0
    frame_err = abs(r.gradient_square_sum - frame) / frame

    return IdentityReport(mg_err, area_err, frame_err)
