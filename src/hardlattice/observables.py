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

from .configuration import LAMBDA0, Configuration, SnapshotBlock, bond_lengths, position
from .lattice import NEIGHBOR_OFFSETS


def per_triangle_order_parameters(cfg: Configuration, target) -> np.ndarray:
    """Squared Frobenius deviation of every triangle gradient from ``target``."""
    return _squared_deviations(cfg.gradients, np.asarray(target, dtype=float))


def _squared_deviations(gradients: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared Frobenius distance of each 2x2 matrix of a stack from ``target``."""
    diff = gradients - target
    return np.sum(diff * diff, axis=(-2, -1))


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each row of ``a``, each row reduced on its own.

    A one-snapshot sum is a 1-D reduction; a reduction over an axis of a
    stack may add in another order (numpy picks it from the memory
    layout).  Summing row by row keeps every sum bitwise the one-snapshot
    sum, and ``_row_sums(a) / n`` bitwise ``np.mean`` of each row.
    """
    return np.array([np.add.reduce(row) for row in a])


def block_order_parameters(block: SnapshotBlock, target) -> np.ndarray:
    """Triangle mean of :func:`per_triangle_order_parameters` for each snapshot of ``block``.

    Bitwise ``np.mean(per_triangle_order_parameters(snap, target))``.
    """
    op = _squared_deviations(block.gradients, np.asarray(target, dtype=float))
    return _row_sums(op) / op.shape[-1]


def bond_vector(cfg: Configuration, x, z) -> np.ndarray:
    """Displacement ``omega(x + z) - omega(x)`` for a nearest-neighbor offset ``z``."""
    z = (int(z[0]), int(z[1]))
    if z not in NEIGHBOR_OFFSETS:
        raise ValueError(f"{z} is not a nearest-neighbor offset")
    u, v = x
    return position(cfg, (u + z[0], v + z[1])) - position(cfg, x)


def side_deviation_sum(cfg: Configuration) -> float:
    """Sum of squared bond-length deviations from one over the 3N^2 bond classes."""
    d = bond_lengths(cfg) - 1.0
    return float(np.sum(d * d))


def l2_gradient_deviation(cfg: Configuration, target) -> float:
    """Squared L2 distance of the gradient field from the constant ``target``.

    Exact as the area-weighted sum of per-triangle deviations.  No run
    calls it: :func:`identity_suite` evaluates both of its deviations in
    one stacked pass, and this is the reference that pass is tested
    against.
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
    calls, at a fraction of its numpy calls:

    * the mean is ``np.add.reduce(G, axis=0) / T``, which is what
      ``ndarray.mean`` computes;
    * the 2x2 sums of squares (the mean's error and the rotation shift
      ``|l Id - R|^2``) add their four terms in row-major order, as
      numpy sums fewer than eight contiguous terms;
    * the polar angle, ``cos`` and ``sin`` are the ``math`` calls of
      :func:`geometry.polar_rotation` and :func:`geometry.rotation`, on
      Python floats;
    * both L2 deviations come from one ``(2, T, 2, 2)`` pass against the
      stacked targets ``R`` and ``l Id``; each per-triangle row is then
      summed on its own, as one 1-D reduction.

    The tests pin these numpy equalities on the CPU that runs them.
    """
    G = cfg.gradients
    N, l = cfg.N, cfg.l
    (m00, m01), (m10, m11) = (np.add.reduce(G, axis=0) / G.shape[0]).tolist()
    d00, d11 = m00 - l, m11 - l
    mg_err = math.sqrt(d00 * d00 + m01 * m01 + m10 * m10 + d11 * d11)

    area = float(np.add.reduce(0.5 * cfg.crosses - LAMBDA0))
    closed = area_difference_closed_form(N, l)
    area_err = abs(area - closed) / abs(closed)

    c, s = m00 + m11, m10 - m01
    if c == 0.0 and s == 0.0:
        raise ValueError("polar rotation undefined: all rotations are equidistant")
    theta = math.atan2(s, c)
    cos, sin = math.cos(theta), math.sin(theta)
    # The targets R and l * Id, shape (2, 1, 2, 2) to broadcast over triangles.
    targets = np.array((cos, -sin, sin, cos, l, 0.0, 0.0, l)).reshape(2, 1, 2, 2)
    diff = G - targets
    per_triangle = np.add.reduce(diff * diff, axis=(-2, -1))
    lhs = LAMBDA0 * float(np.add.reduce(per_triangle[0]))
    a = LAMBDA0 * float(np.add.reduce(per_triangle[1]))
    dc, s2 = l - cos, sin * sin
    b = 2.0 * N * N * LAMBDA0 * (dc * dc + s2 + s2 + dc * dc)
    pyth_err = abs(lhs - a - b) / max(lhs, 1e-300)

    return IdentityReport(mg_err, area_err, pyth_err)
