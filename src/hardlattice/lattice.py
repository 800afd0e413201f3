"""Integer arithmetic on the periodic triangular lattice.

Sites are integer pairs ``(u, v)`` standing for ``u + v*tau`` with
``tau = exp(i*pi/3)``, so every nearest-neighbor pair sits at unit
Euclidean distance.  The period-``N`` quotient is represented by the
canonical grid ``{0..N-1}^2`` and a flat site index ``u*N + v``.

Everything here is exact integer arithmetic; floating point enters only
through :func:`embed`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

SQRT3 = math.sqrt(3.0)

# Row k of EMBED_BASIS is the plane image of the k-th lattice generator,
# so embed((u, v)) == (u, v) @ EMBED_BASIS.
EMBED_BASIS = np.array([[1.0, 0.0], [0.5, SQRT3 / 2.0]])
EMBED_BASIS.setflags(write=False)

# Nearest-neighbor offsets in counterclockwise order starting from (1, 0).
NEIGHBOR_OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))

# One representative offset per undirected bond direction.
BOND_OFFSETS = ((1, 0), (0, 1), (1, -1))

UP = 0
DOWN = 1

# Corner offsets (0, z, tau*z) for z = 1 (UP) and z = tau (DOWN);
# in lattice coordinates tau^2 = tau - 1.
TRIANGLE_CORNER_OFFSETS = (
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (0, 1), (-1, 1)),
)


class Bond(NamedTuple):
    """Undirected bond class, anchored at the canonical site ``a``.

    ``b`` is the canonical representative of ``a + offset`` and
    ``offset`` is one of :data:`BOND_OFFSETS`.  For small ``N`` the same
    unordered pair ``{a, b}`` can appear with two different offsets;
    those are distinct classes (they wind differently around the torus).
    """

    a: tuple[int, int]
    b: tuple[int, int]
    offset: tuple[int, int]


class TriangleRef(NamedTuple):
    """Canonical triangle class: base site plus orientation (UP or DOWN)."""

    base: tuple[int, int]
    orientation: int


def check_lattice_size(N) -> None:
    """Raise ``ValueError`` unless the period ``N`` is an integer >= 2."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")


def embed(idx) -> np.ndarray:
    """Plane coordinates of lattice index ``(u, v)``: ``(u + v/2, v*sqrt(3)/2)``."""
    u, v = idx
    return np.array([u + 0.5 * v, v * (SQRT3 / 2.0)])


def canonical(idx, N: int) -> tuple[int, int]:
    """Representative of ``idx`` with both coordinates reduced into ``{0..N-1}``."""
    check_lattice_size(N)
    u, v = idx
    return (u % N, v % N)


def site_index(idx, N: int) -> int:
    """Flat index ``u*N + v`` of the canonical representative of ``idx``."""
    u, v = canonical(idx, N)
    return u * N + v


def site_of_index(i: int, N: int) -> tuple[int, int]:
    """Inverse of :func:`site_index` on the canonical grid."""
    return (i // N, i % N)


def bonds(N: int) -> list[Bond]:
    """All ``3*N**2`` undirected bond classes, site-major then offset-major."""
    check_lattice_size(N)
    out = []
    for u in range(N):
        for v in range(N):
            for off in BOND_OFFSETS:
                out.append(Bond((u, v), canonical((u + off[0], v + off[1]), N), off))
    return out


def triangles(N: int) -> list[TriangleRef]:
    """All ``2*N**2`` triangle classes, base row-major with UP before DOWN."""
    check_lattice_size(N)
    out = []
    for u in range(N):
        for v in range(N):
            out.append(TriangleRef((u, v), UP))
            out.append(TriangleRef((u, v), DOWN))
    return out


def triangle_index(tri: TriangleRef, N: int) -> int:
    """Position of a triangle class in the :func:`triangles` enumeration.

    No run uses it: it is the scalar reference for the row order of
    :func:`triangle_tables` and of every per-triangle array built from
    them, which the tests read one triangle at a time through it.
    """
    u, v = canonical(tri.base, N)
    return 2 * (u * N + v) + tri.orientation


def triangle_corners(tri: TriangleRef) -> tuple[tuple[int, int], ...]:
    """The three corner indices (base, base+z, base+tau*z), not canonicalized."""
    bu, bv = tri.base
    return tuple((bu + du, bv + dv) for du, dv in TRIANGLE_CORNER_OFFSETS[tri.orientation])


def vertex_star(x, N: int) -> list[tuple[TriangleRef, int]]:
    """The six triangle classes incident to site ``x``, with the corner slot equal to ``x``.

    Entries are ordered counterclockwise so that consecutive pairs of
    neighbors of ``x`` span consecutive star triangles.
    """
    check_lattice_size(N)
    u, v = canonical(x, N)
    star = (
        (TriangleRef((u, v), UP), 0),
        (TriangleRef((u, v), DOWN), 0),
        (TriangleRef((u - 1, v), UP), 1),
        (TriangleRef((u, v - 1), DOWN), 1),
        (TriangleRef((u, v - 1), UP), 2),
        (TriangleRef((u + 1, v - 1), DOWN), 2),
    )
    return [(TriangleRef(canonical(t.base, N), t.orientation), slot) for t, slot in star]


def _split_wrap(u: int, v: int, N: int) -> tuple[int, int, int, int]:
    cu, cv = u % N, v % N
    return cu, cv, (u - cu) // N, (v - cv) // N


@lru_cache(maxsize=None)
def neighbor_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-site neighbor lookup: canonical flat indices and integer wrap vectors.

    Returns ``(idx, wrap)`` with ``idx`` of shape ``(N*N, 6)`` and ``wrap``
    of shape ``(N*N, 6, 2)``; the true neighbor position is
    ``positions[idx] + l*N*(wrap @ EMBED_BASIS)``.
    """
    check_lattice_size(N)
    idx = np.empty((N * N, 6), dtype=np.int64)
    wrap = np.empty((N * N, 6, 2), dtype=np.int64)
    for u in range(N):
        for v in range(N):
            s = u * N + v
            for k, (du, dv) in enumerate(NEIGHBOR_OFFSETS):
                cu, cv, wu, wv = _split_wrap(u + du, v + dv, N)
                idx[s, k] = cu * N + cv
                wrap[s, k] = (wu, wv)
    idx.setflags(write=False)
    wrap.setflags(write=False)
    return idx, wrap


@lru_cache(maxsize=None)
def triangle_tables(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner lookup for all triangle classes in enumeration order.

    Returns ``(sites, wrap, orient)`` with shapes ``(2N^2, 3)``,
    ``(2N^2, 3, 2)`` and ``(2N^2,)``.
    """
    check_lattice_size(N)
    T = 2 * N * N
    sites = np.empty((T, 3), dtype=np.int64)
    wrap = np.empty((T, 3, 2), dtype=np.int64)
    orient = np.empty(T, dtype=np.int64)
    for t, tri in enumerate(triangles(N)):
        orient[t] = tri.orientation
        for c, (cu, cv) in enumerate(triangle_corners(tri)):
            ku, kv, wu, wv = _split_wrap(cu, cv, N)
            sites[t, c] = ku * N + kv
            wrap[t, c] = (wu, wv)
    for arr in (sites, wrap, orient):
        arr.setflags(write=False)
    return sites, wrap, orient


@lru_cache(maxsize=None)
def bond_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint lookup for all bond classes in enumeration order.

    Returns ``(sites, wrap)`` with shapes ``(3N^2, 2)`` and ``(3N^2, 2)``;
    the second endpoint position is ``positions[sites[:, 1]] + l*N*(wrap @ EMBED_BASIS)``.
    """
    check_lattice_size(N)
    B = 3 * N * N
    sites = np.empty((B, 2), dtype=np.int64)
    wrap = np.empty((B, 2), dtype=np.int64)
    for i, bond in enumerate(bonds(N)):
        au, av = bond.a
        sites[i, 0] = au * N + av
        cu, cv, wu, wv = _split_wrap(au + bond.offset[0], av + bond.offset[1], N)
        sites[i, 1] = cu * N + cv
        wrap[i] = (wu, wv)
    sites.setflags(write=False)
    wrap.setflags(write=False)
    return sites, wrap
