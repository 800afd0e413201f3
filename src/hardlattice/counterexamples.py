"""Deterministic inadmissible configurations for validating the
injectivity checks.

Each constructor starts from the scaled standard configuration and
breaks injectivity in a controlled way, so both exact omega3 (from which
:func:`~hardlattice.configuration.is_admissible` reads omega2) and the
exact overlap oracle must reject the result.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice
from .configuration import Configuration, position, standard_config
from .lattice import NEIGHBOR_OFFSETS


def wrapped_vertex_config(
    N: int, l: float, epsilon: float, vertex=(2, 2), phase: float = 0.1
) -> Configuration:
    """Double cover at one vertex: the six neighbors wind twice around it.

    Consecutive image angles are all 2*pi/3, so the star determinants
    stay positive while the star winds twice around the vertex; by the
    lemma in :mod:`~hardlattice.configuration`, triangles away from the
    vertex then fail omega3.  Neighbors three apart land on identical
    positions, so two star triangles coincide and the overlap oracle
    must fire.  The vertex must not have site (0, 0) among its neighbors.
    """
    cfg = standard_config(N, l, epsilon)
    pos = np.array(cfg.positions)
    center = pos[lattice.site_index(vertex, N)]
    moved = set()
    for k, off in enumerate(NEIGHBOR_OFFSETS):
        nb = lattice.site_index((vertex[0] + off[0], vertex[1] + off[1]), N)
        if nb == 0:
            raise ValueError(f"vertex {vertex} has the pinned site among its neighbors")
        if nb in moved:
            raise ValueError(f"vertex {vertex} has repeated canonical neighbors at N={N}")
        moved.add(nb)
        # k % 3 makes the second turn reuse bitwise-identical angles.
        ang = phase + (k % 3) * (2.0 * math.pi / 3.0)
        pos[nb] = center + l * np.array([math.cos(ang), math.sin(ang)])
    return Configuration(N, l, epsilon, pos)


def reflected_apex_config(N: int, l: float, epsilon: float, base=(1, 1)) -> Configuration:
    """Fold one triangle: reflect a corner across its opposite image edge.

    The folded triangle has negative orientation and lands on the
    neighboring triangle across that edge, so the orientation check and
    the overlap oracle both fire.
    """
    cfg = standard_config(N, l, epsilon)
    idx = lattice.site_index(base, N)
    if idx == 0:
        raise ValueError("cannot fold at the pinned site")
    pos = np.array(cfg.positions)
    p = pos[idx].copy()
    p1 = position(cfg, (base[0] + 1, base[1]))
    p2 = position(cfg, (base[0], base[1] + 1))
    d = p2 - p1
    t = float(np.dot(p - p1, d) / np.dot(d, d))
    foot = p1 + t * d
    pos[idx] = 2.0 * foot - p
    return Configuration(N, l, epsilon, pos)


def coincident_sites_config(N: int, l: float, epsilon: float, a=(1, 1), b=(3, 3)) -> Configuration:
    """Move site ``a`` onto the position of the distant site ``b``.

    The two vertex stars then cover the same plane neighborhood, so
    image triangles overlap.
    """
    cfg = standard_config(N, l, epsilon)
    ia = lattice.site_index(a, N)
    ib = lattice.site_index(b, N)
    if ia == 0 or ia == ib:
        raise ValueError("sites must be distinct and not the pinned site")
    pos = np.array(cfg.positions)
    pos[ia] = pos[ib]
    return Configuration(N, l, epsilon, pos)


def folded_counterexamples(N: int = 4, l: float = 1.05, epsilon: float = 0.1) -> list[Configuration]:
    """A deterministic batch of non-injective configurations (N >= 4)."""
    if N < 4:
        raise ValueError("counterexample constructions assume N >= 4")
    out = []
    for i, vertex in enumerate(((1, 1), (2, 2), (1, 2), (2, 1), (3, 3))):
        out.append(wrapped_vertex_config(N, l, epsilon, vertex, phase=0.1 + 0.3 * i))
    for base in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2)):
        out.append(reflected_apex_config(N, l, epsilon, base))
    out.append(coincident_sites_config(N, l, epsilon, (1, 1), (3, 3)))
    out.append(coincident_sites_config(N, l, epsilon, (2, 1), (3, 3)))
    return out
