import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from hardlattice import geometry, lattice
from hardlattice.geometry import (
    DegenerateTriangleError,
    dist_so2_batch,
    dist_so2_bruteforce,
    heron_area,
    orient_sign,
    polar_rotation,
    rotation,
    signed_area,
    triangles_overlap,
)

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# rational-arithmetic reference predicates (independent of the implementation)
# ---------------------------------------------------------------------------


def _frac_orient(a, b, c):
    det = (Fraction(a[0]) - Fraction(c[0])) * (Fraction(b[1]) - Fraction(c[1])) - (
        Fraction(a[1]) - Fraction(c[1])
    ) * (Fraction(b[0]) - Fraction(c[0]))
    return (det > 0) - (det < 0)


def _overlap_oracle_fraction(t1, t2):
    """Open interiors intersect iff the exact closed intersection polygon
    has positive area (Sutherland-Hodgman clipping in Fractions)."""

    def to_frac_ccw(tri):
        pts = [(Fraction(p[0]), Fraction(p[1])) for p in tri]
        s = _frac_orient(*pts)
        assert s != 0
        return pts if s > 0 else [pts[0], pts[2], pts[1]]

    subject = to_frac_ccw(t1)
    clipper = to_frac_ccw(t2)
    poly = subject
    for i in range(3):
        a, b = clipper[i], clipper[(i + 1) % 3]
        if not poly:
            return False
        out = []
        for j, p in enumerate(poly):
            q = poly[(j + 1) % len(poly)]
            side_p = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
            side_q = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
            if side_p >= 0:
                out.append(p)
            if (side_p > 0 > side_q) or (side_p < 0 < side_q):
                t = side_p / (side_p - side_q)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
    if len(poly) < 3:
        return False
    area = Fraction(0)
    for j, p in enumerate(poly):
        q = poly[(j + 1) % len(poly)]
        area += p[0] * q[1] - q[0] * p[1]
    return area != 0


class TestPolarRotation:
    def test_identity(self):
        assert polar_rotation(np.eye(2)) == 0.0

    def test_rotations_are_fixed_points(self):
        assert abs(polar_rotation(rotation(0.3)) - 0.3) < 1e-15

    def test_positive_scaling_preserves_angle(self):
        assert polar_rotation(1.05 * np.eye(2)) == 0.0

    def test_extracts_polar_factor_of_spd_product(self, rng):
        for _ in range(50):
            theta = rng.uniform(-3.0, 3.0)
            B = rng.standard_normal((2, 2))
            P = B @ B.T + 0.5 * np.eye(2)  # symmetric positive definite
            got = polar_rotation(rotation(theta) @ P)
            assert abs(math.remainder(got - theta, 2.0 * math.pi)) < 1e-10

    def test_degenerate_input_raises(self):
        with pytest.raises(ValueError):
            polar_rotation(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _det_positive(rng, n):
    """``n`` standard normal 2x2 matrices with positive determinant."""
    Ms = rng.standard_normal((4 * n + 16, 2, 2))
    return Ms[np.linalg.det(Ms) > 0.0][:n]


class TestDistSo2:
    def test_member_of_group(self):
        d = dist_so2_batch(np.array([np.eye(2), rotation(1.2)]))
        assert d[0] == 0.0
        assert d[1] < 1e-7

    def test_conformal_scaling(self):
        # grid oracle confirms sqrt(2)*(l-1) for l*Id
        l = 1.05
        closed = float(dist_so2_batch(l * np.eye(2)))
        assert abs(closed - math.sqrt(2.0) * 0.05) < 1e-14
        assert abs(closed - dist_so2_bruteforce(l * np.eye(2), 3600)) < 2e-3

    def test_diagonal_against_grid_oracle(self):
        M = np.diag([1.1, 0.9])
        assert abs(float(dist_so2_batch(M)) - dist_so2_bruteforce(M, 200_000)) < 1e-6

    def test_random_matrices_against_grid_oracle(self, rng):
        Ms = _det_positive(rng, 150)
        assert len(Ms) == 150
        diff = np.abs(dist_so2_batch(Ms) - dist_so2_bruteforce(Ms, 3600))
        assert diff.max() < 2e-3

    def test_definitional_lower_bound(self, rng):
        Ms = _det_positive(rng, 25)
        for M, d in zip(Ms, dist_so2_batch(Ms).tolist()):
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=32):
                assert d <= geometry.frobenius(M - rotation(theta)) + 1e-12

    def test_bi_invariance(self, rng):
        Ms = _det_positive(rng, 25)
        R = np.array([rotation(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=len(Ms))])
        d = dist_so2_batch(Ms)
        assert np.abs(dist_so2_batch(R @ Ms) - d).max() < 1e-12
        assert np.abs(dist_so2_batch(Ms @ R) - d).max() < 1e-12

    def test_negative_determinant_raises(self):
        Ms = np.array([np.eye(2), [[1.0, 0.0], [0.0, -1.0]]])
        with pytest.raises(ValueError, match="det >= 0"):
            dist_so2_batch(Ms)

    def test_bruteforce_near_zero_on_rotations(self):
        assert dist_so2_bruteforce(np.eye(2), 3600) <= 1e-3
        assert dist_so2_bruteforce(rotation(1.0), 3600) <= 1e-3

    def test_bruteforce_accepts_a_numpy_grid_at_the_minimum(self):
        M = np.array([[1.1, 0.2], [-0.1, 0.9]])
        assert dist_so2_bruteforce(M, np.int64(8)) == dist_so2_bruteforce(M, 8)

    def test_bruteforce_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            dist_so2_bruteforce(np.eye(2), 4)

    @pytest.mark.parametrize("n_grid", [7, 8.0, 3600.5, "3600", True, 1.5, "3", np.int64(7)])
    def test_bruteforce_rejects_non_integer_grid(self, n_grid):
        with pytest.raises(ValueError):
            dist_so2_bruteforce(np.eye(2), n_grid)

    def test_stacked_bruteforce_matches_single_calls_bitwise(self, rng):
        Ms = rng.standard_normal((3000, 2, 2))
        stacked = dist_so2_bruteforce(Ms, 3600)
        assert stacked.shape == (3000,)
        for M, d in zip(Ms, stacked.tolist()):
            single = dist_so2_bruteforce(M, 3600)
            assert type(single) is float
            assert single == d
        nested = dist_so2_bruteforce(Ms[:12].reshape(3, 4, 2, 2), 3600)
        assert np.array_equal(nested, stacked[:12].reshape(3, 4))


def _reference_dist_so2(M):
    """The closed form on numpy scalars, with ``np.sum`` for ``|M|^2``."""
    m = np.asarray(M, dtype=float)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    nsq = float(np.sum(m * m))
    inner = max(nsq + 2.0 * det, 0.0)
    return math.sqrt(max(nsq + 2.0 - 2.0 * math.sqrt(inner), 0.0))


class TestDistSo2MatchesReference:
    def test_numpy_sum_of_four_adds_left_to_right(self, rng):
        # the closed form's |M|^2 relies on it; a + ((b + c) + d), which
        # a reduction seeded with the first element would give, differs
        # on about a quarter of these
        for _ in range(20_000):
            sq = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3, (2, 2))
            sq = sq * sq
            a, b, c, d = sq.ravel().tolist()
            assert float(np.sum(sq)) == ((a + b) + c) + d

    def test_closed_form_bitwise(self, rng):
        Ms = rng.standard_normal((40_000, 2, 2))
        Ms = list(Ms[np.linalg.det(Ms) > 0.0])
        Ms += [np.eye(2), 1.05 * np.eye(2), rotation(0.3), np.diag([1e-9, 3.0]), np.zeros((2, 2))]
        got = dist_so2_batch(np.array(Ms)).tolist()
        want = [_reference_dist_so2(M) for M in Ms]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g.hex() != w.hex()]
        assert not bad, f"{len(bad)} of {len(Ms)} differ, first at {bad[0]}"

    @pytest.mark.parametrize(
        "shape",
        [
            (2, 2),
            (1, 2, 2),
            (geometry._BRUTEFORCE_CHUNK - 1, 2, 2),
            (geometry._BRUTEFORCE_CHUNK, 2, 2),
            (geometry._BRUTEFORCE_CHUNK + 1, 2, 2),
            (3, 5, 2, 2),
            (0, 2, 2),
        ],
    )
    @pytest.mark.parametrize("n_grid", [8, 97, 3600])
    def test_chunked_grid_search_bitwise(self, rng, shape, n_grid, exhaustive_bruteforce):
        M = rng.standard_normal(shape)
        got = dist_so2_bruteforce(M, n_grid)
        want = exhaustive_bruteforce(M, n_grid)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


def _scaled_rotations(a, theta):
    """The matrices ``a[n] * R(theta[n])``, shape ``(n, 2, 2)``."""
    a, theta = np.broadcast_arrays(np.asarray(a, float), np.asarray(theta, float))
    c, s = a * np.cos(theta), a * np.sin(theta)
    return np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)


class TestWindowedGridSearch:
    """The windowed grid search returns the exhaustive grid minimum
    bitwise, on the CPU that runs the tests; the window is proved in
    ``dist_so2_bruteforce``'s docstring."""

    GRIDS = [8, 37, 720, 3599, 3600]

    @staticmethod
    def _full_grid_rows(monkeypatch, M, n_grid):
        """``dist_so2_bruteforce(M, n_grid)`` and how many matrices it ran on the full grid."""
        full = []
        real = geometry._grid_d2

        def spy(rows, c, s, *work):
            if np.shape(c) == (n_grid,):
                full.append(len(rows))
            return real(rows, c, s, *work)

        monkeypatch.setattr(geometry, "_grid_d2", spy)
        got = dist_so2_bruteforce(M, n_grid)
        monkeypatch.undo()
        return got, sum(full)

    def _assert_exhaustive(self, monkeypatch, exhaustive, M, n_grid, full_rows=0):
        got, full = self._full_grid_rows(monkeypatch, M, n_grid)
        want = exhaustive(M, n_grid)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, f"{bad.size} of {got.size} differ, first at {M[bad[0]]!r}"
        assert full == full_rows

    def test_standard_normal_matrices(self, monkeypatch, rng, exhaustive_bruteforce):
        Ms = _det_positive(rng, 100_000)
        assert len(Ms) == 100_000
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, 3600)

    @pytest.mark.parametrize("noise", [1e-8, 1e-3])
    def test_near_rotations(self, monkeypatch, rng, exhaustive_bruteforce, noise):
        Ms = _scaled_rotations(1.0, rng.uniform(0.0, 2.0 * math.pi, 20_000))
        Ms += noise * rng.standard_normal(Ms.shape)
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, 3600)

    @pytest.mark.parametrize("exponent", range(-6, 7))
    def test_scales(self, monkeypatch, rng, exhaustive_bruteforce, exponent):
        Ms = 10.0**exponent * _det_positive(rng, 2_000)
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, 3600)

    @pytest.mark.parametrize("n_grid", GRIDS[1:])
    def test_argmin_next_to_theta_zero_wraps_around(
        self, monkeypatch, rng, exhaustive_bruteforce, n_grid
    ):
        # diag(a, a) has its argmin at theta = 0, the first coarse angle;
        # the window reaches back to the last angles of the grid
        a = np.concatenate((10.0 ** rng.uniform(-3.0, 3.0, 2_000), [1.0, 1e-6, 1e6]))
        h = 2.0 * math.pi / n_grid
        theta = np.concatenate([np.zeros_like(a), np.full_like(a, -1e-9), np.full_like(a, -h / 2)])
        Ms = _scaled_rotations(np.tile(a, 3), theta)
        assert np.array_equal(Ms[: len(a)], a[:, None, None] * np.eye(2))
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, n_grid)

    @pytest.mark.parametrize("n_grid", GRIDS[1:])
    def test_angle_on_a_coarse_midpoint(self, monkeypatch, exhaustive_bruteforce, n_grid):
        stride = math.isqrt(n_grid // 2)
        mid = (np.arange(n_grid // stride) + 0.5) * stride * (2.0 * math.pi / n_grid)
        Ms = np.concatenate([_scaled_rotations(a, mid) for a in (0.5, 1.0, 3.0)])
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, n_grid)

    @pytest.mark.parametrize("n_grid", GRIDS)
    def test_grid_sizes(self, monkeypatch, rng, exhaustive_bruteforce, n_grid):
        # below 4 S + 2 angles, S = isqrt(n_grid // 2), the full grid runs
        Ms = rng.standard_normal((3_000, 2, 2))
        full = len(Ms) if n_grid < 4 * math.isqrt(n_grid // 2) + 2 else 0
        assert (n_grid == 8) == (full > 0)
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, Ms, n_grid, full)

    @pytest.mark.parametrize("n_grid", GRIDS[1:])
    def test_matrices_below_the_rho_floor_take_the_full_grid(
        self, monkeypatch, rng, exhaustive_bruteforce, n_grid
    ):
        # anticonformal matrices [[a, b], [b, -a]] have rho = 0, and t * Id
        # adds rho = 2 t, far below the floor; entries of 2**46 and more,
        # and non-finite ones, fail the floor too
        a, b = rng.standard_normal((2, 300))
        anti = np.stack((np.stack((a, b), -1), np.stack((b, -a), -1)), -2)
        low = [anti + t * np.eye(2) for t in (0.0, 1e-13, 1e-12)]
        low.append(2.0**47 * rng.standard_normal((50, 2, 2)))
        low.append(np.array([[[math.inf, 0.0], [0.0, -math.inf]], [[math.nan, 1.0], [0.0, 1.0]]]))
        low = np.concatenate(low)
        high = rng.standard_normal((len(low), 2, 2))
        mixed = np.stack((low, high), axis=1).reshape(-1, 2, 2)  # interleaved rows
        self._assert_exhaustive(monkeypatch, exhaustive_bruteforce, mixed, n_grid, len(low))

    @pytest.mark.parametrize("n_grid", GRIDS + [200_000])
    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_numpy_trig_on_the_grid_is_within_one_ulp_of_math(self, n_grid, name):
        # the proof allows 2 ulps of error, libm's claims 1
        theta = np.arange(n_grid) * (2.0 * math.pi / n_grid)
        want = np.array([getattr(math, name)(x) for x in theta.tolist()])
        err = np.abs(getattr(np, name)(theta) - want)
        assert np.all(err <= np.spacing(np.abs(want)))


class TestSo2HelpersRequire2x2:
    # (3, 3): np.eye(3) once gave 0.7265 from the closed form and 0.0 from the grid search
    @pytest.mark.parametrize(
        "shape", [(3, 3), (2,), (2, 3), (3, 2), (4, 2, 3), (4, 3, 2), (5, 3, 3), ()]
    )
    def test_stack_helpers_reject(self, shape):
        M = np.ones(shape)
        with pytest.raises(ValueError, match="2x2"):
            dist_so2_bruteforce(M, 3600)
        with pytest.raises(ValueError, match="2x2"):
            geometry.dist_so2_batch(M)


class TestHeron:
    def test_unit_equilateral(self):
        assert abs(heron_area(1.0, 1.0, 1.0) - SQRT3 / 4.0) < 1e-16

    def test_scaled_equilateral(self):
        l = 1.05
        assert abs(heron_area(l, l, l) - l * l * SQRT3 / 4.0) < 1e-15

    def test_right_triangle(self):
        assert heron_area(3.0, 4.0, 5.0) == 6.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangleError):
            heron_area(1.0, 1.0, 2.0)
        with pytest.raises(DegenerateTriangleError):
            heron_area(1.0, 1.0, 2.5)

    def test_nonpositive_side_raises(self):
        with pytest.raises(ValueError):
            heron_area(-1.0, 1.0, 1.0)

    def test_matches_cross_product_area(self, rng):
        n = 0
        while n < 10_000:
            pts = rng.uniform(-1.0, 1.0, size=(3, 2))
            a1 = np.hypot(*(pts[1] - pts[0]))
            a2 = np.hypot(*(pts[2] - pts[1]))
            a3 = np.hypot(*(pts[0] - pts[2]))
            # keep the triangle well conditioned so both formulas are stable
            if min(-a1 + a2 + a3, a1 - a2 + a3, a1 + a2 - a3) < 0.1 * max(a1, a2, a3):
                continue
            h = heron_area(a1, a2, a3)
            c = abs(signed_area(pts[0], pts[1], pts[2]))
            assert abs(h - c) / c < 1e-12
            n += 1


class TestSignedArea:
    def test_counterclockwise_positive(self):
        assert signed_area((0, 0), (1, 0), (0, 1)) == 0.5

    def test_orientation_flip(self):
        assert signed_area((0, 0), (0, 1), (1, 0)) == -0.5

    def test_unperturbed_lattice_triangle(self):
        p1 = (0.0, 0.0)
        p2 = (1.0, 0.0)
        p3 = (0.5, SQRT3 / 2.0)
        assert abs(signed_area(p1, p2, p3) - heron_area(1.0, 1.0, 1.0)) < 1e-16


class TestOrientSign:
    def test_exact_on_collinear_floats(self):
        assert orient_sign((0.25, 0.25), (0.5, 0.5), (0.75, 0.75)) == 0

    def test_underflowing_products_are_settled_exactly(self):
        # a * a underflows to 0.0, but the triangle is positively oriented
        a = 1.8425344645050547e-273
        assert orient_sign((0.0, 0.0), (a, 0.0), (0.0, a)) == 1
        assert orient_sign((0.0, 0.0), (0.0, a), (a, 0.0)) == -1
        assert triangles_overlap(((0.0, 0.0), (a, 0.0), (0.0, a)), EQUILATERAL) is True

    def test_one_ulp_perturbation_resolves(self):
        # raising the middle point above the diagonal makes the path a
        # right turn; orient_sign must see through the float cancellation
        up = np.nextafter(0.5, 1.0)
        assert orient_sign((0.25, 0.25), (0.5, up), (0.75, 0.75)) == -1
        assert _frac_orient((0.25, 0.25), (0.5, up), (0.75, 0.75)) == -1
        down = np.nextafter(0.5, 0.0)
        assert orient_sign((0.25, 0.25), (0.5, down), (0.75, 0.75)) == 1
        assert _frac_orient((0.25, 0.25), (0.5, down), (0.75, 0.75)) == 1

    def test_overflowing_determinant_is_settled_exactly(self):
        cases = _overflow_cases()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [orient_sign(*t) for t in cases]
            got_np = [orient_sign(*np.array(t)) for t in cases]  # numpy float corners
        want = [_frac_orient(*t) for t in cases]
        assert got == got_np == want
        assert orient_sign(*OVERFLOW_TRIPLES[0]) == -1
        assert set(want) == {-1, 1}

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_corner_raises(self, bad):
        with pytest.raises(ValueError, match="finite corners"):
            orient_sign((bad, 0.0), (1.0, 0.0), (0.0, 1.0))

    @given(
        st.lists(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
                lambda x: round(x, 3)
            ),
            min_size=6,
            max_size=6,
        )
    )
    def test_matches_rational_reference(self, coords):
        a, b, c = (coords[0], coords[1]), (coords[2], coords[3]), (coords[4], coords[5])
        assert orient_sign(a, b, c) == _frac_orient(a, b, c)


# Finite corners whose float determinant overflows, so that it says
# nothing about the exact sign.
OVERFLOW_TRIPLES = [
    # a corner difference overflows to inf and meets a zero: det is NaN
    ((1e308, 1e-300), (1e308, 0.0), (-1e308, 0.0)),
    # a difference overflows, its product with a tiny one stays inf: det
    # is +inf, the exact sign negative
    ((1e308, 1e-299), (0.0, 1e-300), (-1e308, 0.0)),
    # both products overflow to inf: det is NaN
    ((1e200, 1e200), (1e200, 2e200), (0.0, 0.0)),
]


def _overflow_cases():
    """The triples above in all six corner orders, the listed order first."""
    orders = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))
    return [tuple(t[k] for k in order) for t in OVERFLOW_TRIPLES for order in orders]


EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))

# Twelve coordinates make a pair of triangles.
INT_COORDS = st.lists(st.integers(-8, 8), min_size=12, max_size=12)
FLOAT_COORDS = st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=12, max_size=12)


def _triangle_pair(coords):
    t1 = ((coords[0], coords[1]), (coords[2], coords[3]), (coords[4], coords[5]))
    t2 = ((coords[6], coords[7]), (coords[8], coords[9]), (coords[10], coords[11]))
    return t1, t2


class TestTrianglesOverlap:
    def test_identical_triangles(self):
        assert triangles_overlap(EQUILATERAL, EQUILATERAL) is True

    def test_distant_translates(self):
        far = tuple((x + 5.0, y) for x, y in EQUILATERAL)
        assert triangles_overlap(EQUILATERAL, far) is False

    def test_shared_full_edge(self):
        # the reflected neighbor shares an edge but no interior
        down = ((1.0, 0.0), (0.5, SQRT3 / 2.0), (1.5, SQRT3 / 2.0))
        assert triangles_overlap(EQUILATERAL, down) is False
        assert _overlap_oracle_fraction(EQUILATERAL, down) is False

    def test_shared_corner_only(self):
        kissing = tuple((x + 1.0, y) for x, y in ((0.0, 0.0), (1.0, 0.5), (1.0, -0.5)))
        assert triangles_overlap(EQUILATERAL, kissing) is False

    def test_containment(self):
        small = ((0.4, 0.1), (0.6, 0.1), (0.5, 0.3))
        assert triangles_overlap(EQUILATERAL, small) is True
        assert triangles_overlap(small, EQUILATERAL) is True

    def test_proper_crossing(self):
        other = ((0.5, -0.2), (1.5, 0.4), (-0.5, 0.4))
        assert triangles_overlap(EQUILATERAL, other) is True

    def test_inscribed_medial_triangle(self):
        medial = ((0.5, 0.0), (0.75, SQRT3 / 4.0), (0.25, SQRT3 / 4.0))
        assert triangles_overlap(EQUILATERAL, medial) is True

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangleError):
            triangles_overlap(((0, 0), (1, 1), (2, 2)), EQUILATERAL)

    @given(INT_COORDS)
    def test_matches_fraction_clipping_oracle(self, coords):
        t1, t2 = _triangle_pair(coords)
        assume(_frac_orient(*t1) != 0)
        assume(_frac_orient(*t2) != 0)
        t1f = tuple((float(x), float(y)) for x, y in t1)
        t2f = tuple((float(x), float(y)) for x, y in t2)
        assert triangles_overlap(t1f, t2f) == _overlap_oracle_fraction(t1, t2)

    @given(FLOAT_COORDS)
    def test_matches_oracle_on_float_triangles(self, coords):
        t1, t2 = _triangle_pair(coords)
        assume(_frac_orient(*t1) != 0)
        assume(_frac_orient(*t2) != 0)
        assert triangles_overlap(t1, t2) == _overlap_oracle_fraction(t1, t2)


def _agrees_with_orient_sign(a, b, c):
    """``orient_signs`` on stacked points equals ``orient_sign`` wherever it
    decides; returns the ``decided`` mask."""
    sign, decided = geometry.orient_signs(a, b, c)
    assert sign.shape == decided.shape == a.shape[:-1]
    rows = zip(a.tolist(), b.tolist(), c.tolist(), sign.tolist(), decided.tolist())
    for pa, pb, pc, s, d in rows:
        if d:
            assert s == orient_sign(pa, pb, pc), (pa, pb, pc)
    return decided


class TestOrientSigns:
    def test_random_points(self, rng):
        a, b, c = rng.uniform(-4.0, 4.0, size=(3, 100_000, 2))
        decided = _agrees_with_orient_sign(a, b, c)
        assert decided.mean() > 0.999

    def test_lattice_collinear_triples(self):
        # three sites on one lattice line, scaled as the standard state
        # scales them: exactly collinear before rounding, so the float
        # determinant is rounding noise and the filter must hand it on
        l = 1.05
        triples = []
        for direction in ((1, 0), (0, 1), (1, -1)):
            d = np.array(direction)
            for u in range(-3, 4):
                for v in range(-3, 4):
                    for k1, k2 in ((1, 2), (1, 3), (2, 5), (-1, 1)):
                        sites = np.array([(u, v), (u, v) + k1 * d, (u, v) + k2 * d], dtype=float)
                        triples.append(l * (sites @ lattice.EMBED_BASIS))
        t = np.array(triples)
        for perm in ((0, 1, 2), (1, 2, 0), (2, 1, 0)):
            decided = _agrees_with_orient_sign(t[:, perm[0]], t[:, perm[1]], t[:, perm[2]])
            assert not decided.all()

    def test_one_ulp_off_collinear(self, rng):
        a = rng.uniform(-2.0, 2.0, size=(20_000, 2))
        c = rng.uniform(-2.0, 2.0, size=(20_000, 2))
        mid = 0.5 * (a + c)
        for steps in (-2, -1, 0, 1, 2):
            b = mid.copy()
            b[:, 1] += steps * np.spacing(mid[:, 1])
            decided = _agrees_with_orient_sign(a, b, c)
            assert not decided.all()

    def test_shared_corners(self, rng):
        a, b = rng.uniform(-4.0, 4.0, size=(2, 10_000, 2))
        # a vertex on an edge's endpoint, as where image triangles meet:
        # both products vanish, so the float determinant is exactly 0
        for args in ((a, b, a), (a, b, b)):
            sign, decided = geometry.orient_signs(*args)
            assert decided.all() and not sign.any()
            _agrees_with_orient_sign(*args)
        # a == b with the pivot elsewhere: equal products, no margin
        assert not _agrees_with_orient_sign(a, a, b).any()

    def test_underflowing_products_are_left_to_the_exact_path(self):
        tiny = 1.8425344645050547e-273
        pts = np.array([(0.0, 0.0), (tiny, 0.0), (0.0, tiny)])
        perms = np.array([(0, 1, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)])
        a, b, c = pts[perms[:, 0]], pts[perms[:, 1]], pts[perms[:, 2]]
        decided = _agrees_with_orient_sign(a, b, c)
        assert not decided.any()

    def test_broadcasts_over_stacked_shapes(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(30, 2))
        sign, decided = geometry.orient_signs(pts[:, None, None], pts[None, :, None], pts[None, None, :5])
        assert sign.shape == decided.shape == (30, 30, 5)

    def test_in_place_form_equals_the_allocating_form(self, rng, allocating_orient_signs):
        # reused work arrays keep every sign and verdict bitwise, on
        # generic, collinear, underflowing, overflowing and non-finite
        # triples and on broadcast shapes
        pts = rng.uniform(-1.0, 1.0, size=(30, 2))
        tiny = 1.8425344645050547e-273
        bad = np.array([(math.inf, 0.0), (-math.inf, 1.0), (math.nan, 0.0), (0.0, 0.0)])
        cases = [
            rng.uniform(-4.0, 4.0, size=(3, 20_000, 2)),
            0.1 * rng.integers(-3, 4, size=(3, 5000, 2)),
            np.array([[(0.0, 0.0), (tiny, 0.0)], [(tiny, 0.0), (0.0, tiny)], [(0.0, tiny), (0.0, 0.0)]]),
            np.array(list(zip(*_overflow_cases()))),
            np.array([bad, np.roll(bad, 1, axis=0), np.roll(bad, 2, axis=0)]),
            (pts[:, None, None], pts[None, :, None], pts[None, None, :5]),
            (pts[:, None], pts[:, None], pts[None, :3]),
        ]
        for a, b, c in cases:
            got = geometry.orient_signs(a, b, c)
            want = allocating_orient_signs(a, b, c)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()


FIXED_PAIRS = [
    (EQUILATERAL, EQUILATERAL),
    (EQUILATERAL, tuple((x + 5.0, y) for x, y in EQUILATERAL)),
    (EQUILATERAL, ((1.0, 0.0), (0.5, SQRT3 / 2.0), (1.5, SQRT3 / 2.0))),
    (EQUILATERAL, ((1.0, 0.0), (2.0, 0.5), (2.0, -0.5))),
    (EQUILATERAL, ((0.4, 0.1), (0.6, 0.1), (0.5, 0.3))),
    (EQUILATERAL, ((0.5, -0.2), (1.5, 0.4), (-0.5, 0.4))),
    (EQUILATERAL, ((0.5, 0.0), (0.75, SQRT3 / 4.0), (0.25, SQRT3 / 4.0))),
    # edge-adjacent unit triangles on a scaled lattice
    (((0.0, 0.0), (1.25, 0.0), (0.625, 1.0)), ((1.25, 0.0), (1.875, 1.0), (0.625, 1.0))),
    (((0.0, 0.0), (1.25, 0.0), (0.625, 1.0)), ((0.0, 0.0), (0.625, 1.0), (-0.625, 1.0))),
]


def _block_agrees_with_scalar(P, Q):
    """Where ``triangles_overlap_block`` decides, it equals the scalar; where
    the scalar raises for a degenerate triangle, the pair is undecided."""
    overlap, decided = geometry.triangles_overlap_block(P, Q)
    assert overlap.shape == decided.shape == (len(P),)
    for p, q, got, d in zip(P.tolist(), Q.tolist(), overlap.tolist(), decided.tolist()):
        try:
            want = triangles_overlap(p, q)
        except DegenerateTriangleError:
            assert not d, (p, q)
            continue
        if d:
            assert got == want, (p, q)
        else:
            assert not got
    return decided


class TestTrianglesOverlapBlock:
    @given(INT_COORDS)
    def test_integer_triangles(self, coords):
        t1, t2 = _triangle_pair(coords)
        _block_agrees_with_scalar(np.array([t1], float), np.array([t2], float))

    @given(FLOAT_COORDS)
    def test_float_triangles(self, coords):
        t1, t2 = _triangle_pair(coords)
        _block_agrees_with_scalar(np.array([t1], float), np.array([t2], float))

    def test_fixed_cases_in_both_orders_and_orientations(self):
        P = np.array([p for p, _ in FIXED_PAIRS], float)
        Q = np.array([q for _, q in FIXED_PAIRS], float)
        flip = [0, 2, 1]
        for A, B in ((P, Q), (Q, P), (P[:, flip], Q), (P, Q[:, flip]), (P[:, flip], Q[:, flip])):
            assert _block_agrees_with_scalar(A, B).all()

    def test_random_stacks(self, rng):
        # small integer grids give collinear, degenerate and touching
        # triangles; uniform floats give generic ones
        grid = rng.integers(-3, 4, size=(2, 5000, 3, 2)).astype(float)
        decided = _block_agrees_with_scalar(*grid)
        assert decided.any() and not decided.all()
        uniform = rng.uniform(-1.0, 1.0, size=(2, 5000, 3, 2))
        assert _block_agrees_with_scalar(*uniform).all()

    def test_empty_stack(self):
        overlap, decided = geometry.triangles_overlap_block(np.empty((0, 3, 2)), np.empty((0, 3, 2)))
        assert overlap.shape == decided.shape == (0,)

    def test_one_edge_at_a_time_equals_the_broadcast_form(self, rng, broadcast_overlap_block):
        P = np.array([p for p, _ in FIXED_PAIRS], float)
        Q = np.array([q for _, q in FIXED_PAIRS], float)
        flip = [0, 2, 1]
        cases = [(P, Q), (Q, P), (P[:, flip], Q), (P, Q[:, flip])]
        cases += [tuple(rng.integers(-3, 4, size=(2, 5000, 3, 2)).astype(float))]
        cases += [tuple(rng.uniform(-1.0, 1.0, size=(2, 5000, 3, 2))), (P[:0], Q[:0])]
        for A, B in cases:
            got, want = geometry.triangles_overlap_block(A, B), broadcast_overlap_block(A, B)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestOrientSignsExact:
    def test_overflowing_determinant_is_left_to_the_exact_path(self):
        a, b, c = (np.array(x) for x in zip(*_overflow_cases()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, decided = geometry.orient_signs(a, b, c)
            got = geometry.orient_signs_exact(a, b, c)
        want = [_frac_orient(*t) for t in _overflow_cases()]
        # in their listed order every triple overflows; another pivot may not
        assert not decided[::6].any()
        assert (sign[decided] == np.array(want)[decided]).all()
        assert got.tolist() == want

    def test_equals_scalar_on_degenerate_and_generic_stacks(self, rng):
        # a small grid scaled by 0.1: collinear and coincident triples
        # whose float determinant is rounding noise, and generic ones
        grid = 0.1 * rng.integers(-3, 4, size=(3, 3000, 2))
        tiny = 1.8425344645050547e-273
        under = np.array([[(0.0, 0.0)] * 2, [(tiny, 0.0), (0.0, tiny)], [(0.0, tiny), (tiny, 0.0)]])
        for a, b, c in (grid, under, rng.uniform(-1.0, 1.0, size=(3, 1000, 2))):
            want = [orient_sign(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
            assert geometry.orient_signs_exact(a, b, c).tolist() == want
        _, decided = geometry.orient_signs(*grid)
        assert not decided.all()

    def test_broadcasts(self, rng):
        pts = rng.uniform(-1.0, 1.0, size=(7, 2))
        sign = geometry.orient_signs_exact(pts[:, None, None], pts[None, :, None], pts[None, None, :3])
        assert sign.shape == (7, 7, 3)
        assert sign[2, 2].tolist() == [0, 0, 0]


# Entries of the folded rows: every ordering of NaN, both infinities and
# finite values.  No -0.0: a tie of -0.0 and 0.0 may keep either sign.
_FOLD_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, 0.5, -2.0, 1e308, -1e-300]


class TestFoldColumns:
    """``_fold_columns`` is bitwise the ``axis=-1`` reduction it replaces,
    on every row of NaN, infinities and finite values, and on stacks."""

    @staticmethod
    def _rows(rng, width, dtype):
        if dtype is bool:
            combos = np.array(list(np.ndindex(*(2,) * width)), bool)
            draws = rng.random((4, 500, width)) < 0.8
        else:
            entries = np.array(_FOLD_ENTRIES)
            combos = entries[np.array(list(np.ndindex(*(len(entries),) * min(width, 3))))]
            combos = np.concatenate([combos, combos[:, :1].repeat(width - combos.shape[1], axis=1)], axis=1)
            draws = entries[rng.integers(0, len(entries), (4, 500, width))]
            draws[0] = rng.standard_normal((500, width))
        return combos, draws

    @pytest.mark.parametrize("width", [2, 3, 6])
    @pytest.mark.parametrize("op", [np.maximum, np.minimum])
    def test_max_and_min_equal_the_reduction_bitwise(self, rng, op, width):
        for a in self._rows(rng, width, float):
            want = a.max(axis=-1) if op is np.maximum else a.min(axis=-1)
            assert geometry._fold_columns(op, a).tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [2, 3, 6])
    def test_all_and_any_equal_the_reduction(self, rng, width):
        for a in self._rows(rng, width, bool):
            assert np.array_equal(geometry._fold_columns(np.logical_and, a), a.all(axis=-1))
            assert np.array_equal(geometry._fold_columns(np.logical_or, a), a.any(axis=-1))
