"""Integer arithmetic on the periodic triangular lattice.

Sites are integer pairs ``(u, v)`` standing for ``u + v*tau`` with
``tau = exp(i*pi/3)``, so every nearest-neighbor pair sits at unit
Euclidean distance.  The period-``N`` quotient is represented by the
canonical grid ``{0..N-1}^2`` and a flat site index ``u*N + v``.

Everything here is exact integer arithmetic; floating point enters only
through :func:`embed` and the tables' seam offsets ``wrap @ EMBED_BASIS``,
which are exact (x entries multiples of 1/2, y entries small integer
multiples of ``fl(sqrt(3)/2)``).  Only this module turns an integer wrap
into an offset; a wrapped copy elsewhere is ``positions[site] + l*N*offset``.
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


def _wrapped(u: np.ndarray, v: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat canonical indices and seam offsets of integer arrays ``u``, ``v``.

    Returns ``(flat, offset)``: ``flat`` has the shape of ``u``, and
    ``offset`` one more trailing axis of two, with
    ``(u, v) == canonical((u, v), N) + N * wrap`` entrywise and
    ``offset == wrap @ EMBED_BASIS``, so that site ``(u, v)`` sits at
    ``positions[flat] + l*N*offset``.
    """
    wu, cu = np.divmod(u, N)
    wv, cv = np.divmod(v, N)
    return cu * N + cv, np.stack((wu, wv), axis=-1) @ EMBED_BASIS


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _grid(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``(u, v)`` of the canonical sites in flat-index order, int64."""
    return np.divmod(np.arange(N * N, dtype=np.int64), N)


@lru_cache(maxsize=None)
def neighbor_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-site neighbor lookup: canonical flat indices and seam offsets.

    Returns ``(idx, offset)`` with ``idx`` of shape ``(N*N, 6)`` and
    ``offset`` of shape ``(N*N, 6, 2)``; the true neighbor position is
    ``positions[idx] + l*N*offset``.
    """
    check_lattice_size(N)
    u, v = _grid(N)
    off = np.array(NEIGHBOR_OFFSETS, dtype=np.int64)
    return _read_only(*_wrapped(u[:, None] + off[:, 0], v[:, None] + off[:, 1], N))


@lru_cache(maxsize=None)
def triangle_tables(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corner lookup for all triangle classes in enumeration order.

    Returns ``(sites, offset, orient)`` with shapes ``(2N^2, 3)``,
    ``(2N^2, 3, 2)`` and ``(2N^2,)``: triangle ``2*s + o`` has base site
    ``s`` and orientation ``o``, and its corners are those of
    :func:`triangle_corners`, at ``positions[sites] + l*N*offset``.
    """
    check_lattice_size(N)
    u, v = _grid(N)
    off = np.array(TRIANGLE_CORNER_OFFSETS, dtype=np.int64)  # (orientation, corner, 2)
    sites, offset = _wrapped(u[:, None, None] + off[..., 0], v[:, None, None] + off[..., 1], N)
    orient = np.tile(np.array([UP, DOWN], dtype=np.int64), N * N)
    return _read_only(sites.reshape(-1, 3), offset.reshape(-1, 3, 2), orient)


@lru_cache(maxsize=None)
def bond_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint lookup for all bond classes in enumeration order.

    Returns ``(sites, offset)`` with shapes ``(3N^2, 2)`` and ``(3N^2, 2)``;
    the second endpoint position is ``positions[sites[:, 1]] + l*N*offset``.
    """
    check_lattice_size(N)
    u, v = _grid(N)
    off = np.array(BOND_OFFSETS, dtype=np.int64)
    far, offset = _wrapped(u[:, None] + off[:, 0], v[:, None] + off[:, 1], N)
    near = np.repeat(u * N + v, len(BOND_OFFSETS))
    return _read_only(np.stack((near, far.ravel()), axis=1), offset.reshape(-1, 2))
