import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hardlattice import lattice
from hardlattice.lattice import (
    DOWN,
    NEIGHBOR_OFFSETS,
    UP,
    bonds,
    canonical,
    embed,
    site_index,
    triangle_corners,
    triangles,
    vertex_star,
)

SQRT3 = math.sqrt(3.0)


class TestEmbed:
    def test_unit_vector(self):
        assert tuple(embed((1, 0))) == (1.0, 0.0)

    def test_second_generator(self):
        x, y = embed((0, 1))
        assert x == 0.5
        assert y == SQRT3 / 2.0

    def test_third_neighbor_has_unit_norm(self):
        p = embed((-1, 1))
        assert p[0] == -0.5 and p[1] == SQRT3 / 2.0
        assert abs(np.hypot(*p) - 1.0) < 1e-15

    def test_all_neighbor_offsets_have_unit_norm(self):
        for off in NEIGHBOR_OFFSETS:
            assert abs(np.hypot(*embed(off)) - 1.0) < 1e-15


class TestCanonical:
    def test_componentwise_mod(self):
        assert canonical((5, -1), 4) == (1, 3)

    def test_identity(self):
        assert canonical((0, 0), 7) == (0, 0)

    def test_multiples_of_period(self):
        assert canonical((-4, 8), 4) == (0, 0)

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50),
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(2, 9),
    )
    def test_idempotent_and_class_constant(self, u, v, zu, zv, N):
        c = canonical((u, v), N)
        assert canonical(c, N) == c
        # shifting by any element of N*I does not change the class
        assert canonical((u + N * zu, v + N * zv), N) == c

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(2, 9))
    def test_wrap_is_a_lattice_multiple(self, u, v, N):
        cu, cv = canonical((u, v), N)
        wu, wv = (u - cu) // N, (v - cv) // N
        diff = embed((u, v)) - embed((cu, cv))
        assert np.allclose(diff, N * embed((wu, wv)), atol=1e-12)


def _bond_classes_by_union_find(N):
    """Independent count of undirected bond classes.

    Enumerates all directed bonds with base in the canonical cell (each
    class has exactly one such directed representative per direction)
    and glues the two directions of each undirected class via shifting
    the reversed pair back into the cell.
    """
    directed = []
    for u in range(N):
        for v in range(N):
            for du, dv in NEIGHBOR_OFFSETS:
                directed.append(((u, v), (du, dv)))
    index = {b: i for i, b in enumerate(directed)}
    parent = list(range(len(directed)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for (base, off) in directed:
        head = (base[0] + off[0], base[1] + off[1])
        reverse = (canonical(head, N), (-off[0], -off[1]))
        union(index[(base, off)], index[reverse])
    return len({find(i) for i in range(len(directed))})


class TestBonds:
    def test_count_n2_matches_union_find_oracle(self):
        assert _bond_classes_by_union_find(2) == 12
        assert len(bonds(2)) == 12

    def test_count_n4(self):
        assert len(bonds(4)) == 48
        assert _bond_classes_by_union_find(4) == 48

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_count_formula(self, N):
        assert len(bonds(N)) == 3 * N * N

    def test_every_site_has_degree_six(self):
        N = 4
        degree = {}
        for b in bonds(N):
            degree[b.a] = degree.get(b.a, 0) + 1
            degree[b.b] = degree.get(b.b, 0) + 1
        assert set(degree.values()) == {6}
        assert len(degree) == N * N

    def test_rejects_small_period(self):
        with pytest.raises(ValueError):
            bonds(1)

    @pytest.mark.parametrize("bad", [True, 1.5, "3", np.int64(1)], ids=["bool", "float", "str", "np-below"])
    def test_rejects_a_period_that_is_not_an_integer_of_at_least_two(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer >= 2, got {bad!r}")):
            bonds(bad)

    def test_accepts_a_numpy_period_at_the_minimum(self):
        assert lattice.check_int(np.int64(2), "N", 2) == 2
        assert type(lattice.check_int(np.int64(2), "N", 2)) is int
        assert bonds(np.int64(2)) == bonds(2)

    def test_unit_length_in_unperturbed_lattice(self):
        for b in bonds(3):
            assert abs(np.hypot(*embed(b.offset)) - 1.0) < 1e-15


class TestTriangles:
    def test_count_n2(self):
        ts = triangles(2)
        assert len(ts) == 8

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_count_and_orientation_split(self, N):
        ts = triangles(N)
        assert len(ts) == 2 * N * N
        assert sum(1 for t in ts if t.orientation == UP) == N * N
        assert sum(1 for t in ts if t.orientation == DOWN) == N * N

    def test_rejects_small_period(self):
        with pytest.raises(ValueError):
            triangles(1)

    @pytest.mark.parametrize("N", [2, 4])
    def test_total_representative_area(self, N):
        total = 0.0
        for t in triangles(N):
            p = [embed(c) for c in triangle_corners(t)]
            cross = (p[1] - p[0])[0] * (p[2] - p[0])[1] - (p[1] - p[0])[1] * (p[2] - p[0])[0]
            total += 0.5 * cross
        assert abs(total - SQRT3 * N * N / 2.0) < 1e-12

    def test_corners_are_distinct(self):
        for t in triangles(3):
            assert len(set(triangle_corners(t))) == 3

    def test_enumeration_order_matches_index(self):
        for i, t in enumerate(triangles(3)):
            assert lattice.triangle_index(t, 3) == i


class TestVertexStar:
    def test_six_entries(self):
        star = vertex_star((0, 0), 4)
        assert len(star) == 6
        assert len({(t.base, t.orientation) for t, _ in star}) == 6

    def test_slot_points_back_to_vertex(self):
        N = 4
        for x in [(0, 0), (2, 3), (3, 3)]:
            for tri, slot in vertex_star(x, N):
                corner = triangle_corners(tri)[slot]
                assert canonical(corner, N) == canonical(x, N)

    def test_unperturbed_angle_sum_is_two_pi(self):
        total = 0.0
        for k in range(6):
            a = embed(NEIGHBOR_OFFSETS[k])
            b = embed(NEIGHBOR_OFFSETS[(k + 1) % 6])
            total += math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
        assert abs(total - 2.0 * math.pi) < 1e-14

    @pytest.mark.parametrize("N", [2, 4])
    def test_every_triangle_in_exactly_three_stars(self, N):
        counts = {}
        for u in range(N):
            for v in range(N):
                for tri, _ in vertex_star((u, v), N):
                    counts[tri] = counts.get(tri, 0) + 1
        assert len(counts) == 2 * N * N
        assert set(counts.values()) == {3}


class TestTables:
    @pytest.mark.parametrize("N", [2, 4, 5])
    def test_neighbor_tables_match_direct_arithmetic(self, N):
        idx, offset = lattice.neighbor_tables(N)
        for u in range(N):
            for v in range(N):
                s = u * N + v
                for k, (du, dv) in enumerate(NEIGHBOR_OFFSETS):
                    cu, cv = canonical((u + du, v + dv), N)
                    assert idx[s, k] == cu * N + cv
                    # the seam offset is the exact embedding of the wrap
                    wrap = ((u + du - cu) // N, (v + dv - cv) // N)
                    assert np.array_equal(offset[s, k], embed(wrap))
                    lhs = embed((u + du, v + dv))
                    rhs = embed((cu, cv)) + N * offset[s, k]
                    assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 12, 32, 33])
    def test_tables_equal_the_scalar_enumerations(self, N):
        # the whole-array tables against loops over bonds(), triangles()
        # and triangle_corners(): same dtype, shape and values; the seam
        # offsets are bitwise the embeddings of the scalar wraps
        def split(x):
            c = canonical(x, N)
            return site_index(c, N), ((x[0] - c[0]) // N, (x[1] - c[1]) // N)

        def table(rows):
            return np.array(rows, dtype=np.int64)

        def offsets(want_wrap):
            return want_wrap @ lattice.EMBED_BASIS

        nbr = [split((u + du, v + dv)) for u in range(N) for v in range(N)
               for du, dv in NEIGHBOR_OFFSETS]
        want_nbr = (table([i for i, _ in nbr]).reshape(N * N, 6),
                    offsets(table([w for _, w in nbr]).reshape(N * N, 6, 2)))
        corners = [split(c) for t in triangles(N) for c in triangle_corners(t)]
        want_tri = (table([i for i, _ in corners]).reshape(-1, 3),
                    offsets(table([w for _, w in corners]).reshape(-1, 3, 2)),
                    table([t.orientation for t in triangles(N)]))
        ends = [(b, split((b.a[0] + b.offset[0], b.a[1] + b.offset[1]))) for b in bonds(N)]
        assert all(site_index(b.b, N) == far for b, (far, _) in ends)
        want_bond = (table([(site_index(b.a, N), far) for b, (far, _) in ends]),
                     offsets(table([w for _, (_, w) in ends])))
        for got, want in ((lattice.neighbor_tables(N), want_nbr),
                          (lattice.triangle_tables(N), want_tri),
                          (lattice.bond_tables(N), want_bond)):
            assert len(got) == len(want)
            assert got[1].dtype == np.float64
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)
                assert not g.flags.writeable

    def test_triangle_tables_orientation_layout(self):
        _, _, orient = lattice.triangle_tables(3)
        assert list(orient[:4]) == [UP, DOWN, UP, DOWN]


class TestBondTriangleIncidence:
    def test_bond_lengths_of_triangle_edges_are_one(self):
        # each edge of each unperturbed representative has unit length
        for t in triangles(3):
            p = [embed(c) for c in triangle_corners(t)]
            for e in range(3):
                d = p[(e + 1) % 3] - p[e]
                assert abs(np.hypot(*d) - 1.0) < 1e-15
