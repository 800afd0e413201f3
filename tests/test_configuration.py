import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hardlattice
from hardlattice import configuration as C
from hardlattice import counterexamples, geometry, lattice, observables
from hardlattice.configuration import (
    Configuration,
    check_omega1,
    check_omega2_oracle,
    check_omega3,
    from_json,
    is_admissible,
    position,
    reflect,
    standard_config,
    to_json,
    translate,
    triangle_gradient,
    triangle_gradients,
)
from hardlattice.lattice import TriangleRef, embed
from hardlattice.sampler import SamplerParams, run_chain

SQRT3 = math.sqrt(3.0)


def _with_moved_site(cfg, site, new_xy):
    pos = np.array(cfg.positions)
    pos[lattice.site_index(site, cfg.N)] = new_xy
    return Configuration(cfg.N, cfg.l, cfg.epsilon, pos)


def test_every_exported_name_resolves():
    for name in hardlattice.__all__:
        assert hasattr(hardlattice, name), name


class TestStandardConfig:
    def test_positions_are_scaled_lattice(self):
        cfg = standard_config(2, 1.05, 0.1)
        assert tuple(cfg.positions[lattice.site_index((1, 0), 2)]) == (1.05, 0.0)

    def test_is_admissible(self):
        report = is_admissible(standard_config(4, 1.01, 0.1))
        assert report.ok and report.omega1_ok and report.omega2_ok and report.omega3_ok

    def test_rejects_unit_side_length(self):
        with pytest.raises(ValueError):
            standard_config(2, 1.0, 0.1)

    def test_rejects_side_length_at_window_edge(self):
        with pytest.raises(ValueError):
            standard_config(2, 1.1, 0.1)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            standard_config(2, 1.05, 1.5)
        with pytest.raises(ValueError):
            standard_config(1, 1.05, 0.1)

    def test_gauge_is_exact(self):
        cfg = standard_config(5, 1.02, 0.1)
        assert cfg.positions[0, 0] == 0.0 and cfg.positions[0, 1] == 0.0

    def test_positions_are_read_only(self):
        cfg = standard_config(2, 1.05, 0.1)
        with pytest.raises(ValueError):
            cfg.positions[1, 0] = 3.0


class TestCachedGeometry:
    def test_equals_the_functions_bitwise(self, sample_snapshots):
        for snap in sample_snapshots[::20]:
            fresh = Configuration(snap.N, snap.l, snap.epsilon, snap.positions)
            corners = C.image_triangle_corners(fresh.N, fresh.l, fresh.positions)
            d1 = corners[:, 1] - corners[:, 0]
            d2 = corners[:, 2] - corners[:, 0]
            crosses = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
            assert snap.corners.tobytes() == corners.tobytes()
            assert snap.gradients.tobytes() == triangle_gradients(fresh.N, corners).tobytes()
            assert snap.crosses.tobytes() == crosses.tobytes()
            assert snap.gradients is snap.gradients

    def test_reductions_equal_their_references_on_lone_snapshots(self):
        folded = counterexamples.folded_counterexamples(4, 1.05, 0.1)
        nan_site = _with_moved_site(standard_config(4, 1.05, 0.1), (1, 2), (math.nan, 0.5))
        for cfg in (standard_config(4, 1.05, 0.1), *folded, nan_site):
            _assert_reductions_equal_references(cfg)
        assert math.isnan(nan_site.reductions.lid_deviation)

    def test_cached_arrays_are_read_only(self):
        cfg = standard_config(4, 1.05, 0.1)
        for name in ("corners", "gradients", "crosses", "bond_squares"):
            with pytest.raises(ValueError):
                getattr(cfg, name).flat[0] = 1.0


def _assert_reductions_equal_references(cfg):
    """Every field of ``cfg.reductions`` against plain numpy on its arrays.

    Compared by ``repr``, which tells -0.0 from 0.0, round-trips floats
    and shows NaN, so NaN states are compared too.
    """
    r = cfg.reductions
    assert type(r) is C.Reductions
    d2, cross, G = cfg.bond_squares, cfg.crosses, cfg.gradients
    mean = G.mean(axis=0)
    R = geometry.rotation(geometry.polar_rotation(mean))
    deviations = [float(np.sum(observables.per_triangle_order_parameters(cfg, target)))
                  for target in (R, cfg.l * np.eye(2), np.eye(2))]
    want = C.Reductions(
        bond_square_min=float(d2.min()),
        bond_square_max=float(d2.max()),
        cross_min=float(cross.min()),
        gradient_mean=tuple(mean.ravel().tolist()),
        area_difference=float(np.sum(0.5 * cross - C.LAMBDA0)),
        rotation=(float(R[0, 0]), float(R[1, 0])),
        rotation_deviation=deviations[0],
        lid_deviation=deviations[1],
        id_deviation=deviations[2],
    )
    for name, got, expected in zip(r._fields, r, want):
        assert repr(got) == repr(expected), name
    values = [*r[:3], *r.gradient_mean, r.area_difference, *r.rotation, *r[6:]]
    assert len(values) == 13 and all(type(v) is float for v in values)


class TestSnapshotBlock:
    @staticmethod
    def _rows(N=3, B=4, seed=5):
        base = standard_config(N, 1.05, 0.1).positions
        rng = np.random.default_rng(seed)
        pos = base + rng.uniform(-0.01, 0.01, size=(B,) + base.shape)
        pos[:, 0] = 0.0
        return pos

    def test_snapshots_equal_fresh_configurations(self):
        pos = self._rows()
        block = C.snapshot_block(3, 1.05, 0.1, pos.copy())
        for snap, row in zip(block.snapshots, pos):
            fresh = Configuration(3, 1.05, 0.1, row)
            assert (snap.N, snap.l, snap.epsilon) == (3, 1.05, 0.1)
            assert snap.positions.tobytes() == fresh.positions.tobytes()
            for name in ("corners", "gradients", "crosses", "bond_squares"):
                assert getattr(snap, name).tobytes() == getattr(fresh, name).tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4, 12, 32])
    def test_prefilled_reductions_equal_lazy_ones_and_their_references(self, N):
        # a block pre-fills the record; a fresh snapshot builds it on first
        # use.  The chain's own blocks, and one with a NaN row in the middle.
        params = SamplerParams(sweeps=3 if N == 32 else 20, burn_in=5, thin=1, seed=N,
                               scan_order="random")
        snaps = run_chain(N, 1.05, 0.1, params).records
        pos = np.stack([snap.positions for snap in snaps])
        pos[len(pos) // 2, N * N - 1, 1] = math.nan
        nan_block = C.snapshot_block(N, 1.05, 0.1, pos)
        for snap in (*snaps, *nan_block.snapshots):
            assert "reductions" in vars(snap)
            fresh = Configuration(N, snap.l, snap.epsilon, snap.positions)
            assert repr(snap.reductions) == repr(fresh.reductions)
            _assert_reductions_equal_references(fresh)
        assert math.isnan(nan_block.snapshots[len(pos) // 2].reductions.area_difference)

    def test_snapshot_positions_are_read_only_views_of_the_block(self):
        block = C.snapshot_block(3, 1.05, 0.1, self._rows())
        assert not block.positions.flags.writeable
        for b, snap in enumerate(block.snapshots):
            assert np.shares_memory(snap.positions, block.positions)
            assert snap.positions.base is block.positions
            assert snap.positions.tobytes() == block.positions[b].tobytes()
            with pytest.raises(ValueError):
                snap.positions[1, 0] = 3.0

    @pytest.mark.parametrize("row", [0, 2, 3])
    @pytest.mark.parametrize("value", [1e-300, -5e-324, math.nan])
    def test_off_gauge_row_raises(self, row, value):
        pos = self._rows()
        pos[row, 0, 1] = value
        with pytest.raises(ValueError, match="gauge violated"):
            C.snapshot_block(3, 1.05, 0.1, pos)

    def test_negative_zero_origin_is_in_gauge(self):
        pos = self._rows()
        pos[1, 0] = -0.0
        assert len(C.snapshot_block(3, 1.05, 0.1, pos).snapshots) == 4

    @pytest.mark.parametrize(
        "N, l, epsilon",
        [(1, 1.05, 0.1), (2.0, 1.05, 0.1), (3, 1.0, 0.1), (3, 1.1, 0.1), (3, "1.05", 0.1),
         (3, 1.05, 0.0), (3, 1.05, 1.5), (3, 1.05, True), (3, 1.05, "0.1"), (3, 1.05, None),
         (3, True, 1.0)],
    )
    def test_parameter_errors_raise_as_the_constructor_does(self, N, l, epsilon):
        pos = self._rows()
        with pytest.raises(ValueError):
            Configuration(N, l, epsilon, pos[0])
        with pytest.raises(ValueError):
            C.snapshot_block(N, l, epsilon, pos)

    def test_wrong_row_shape_raises(self):
        with pytest.raises(ValueError, match="shape"):
            C.snapshot_block(3, 1.05, 0.1, self._rows(N=2))
        with pytest.raises(ValueError, match="shape"):
            C.snapshot_block(3, 1.05, 0.1, self._rows()[0])


class TestEquality:
    def test_equal_configurations_compare_equal(self):
        a, b = standard_config(2, 1.05, 0.1), standard_config(2, 1.05, 0.1)
        assert a is not b
        assert a == b and not a != b
        assert a in [standard_config(3, 1.05, 0.1), b]

    def test_any_field_difference_compares_unequal(self):
        a = standard_config(2, 1.05, 0.1)
        assert a != standard_config(3, 1.05, 0.1)
        assert a != standard_config(2, 1.04, 0.1)
        assert a != standard_config(2, 1.05, 0.2)
        assert a != _with_moved_site(a, (1, 1), a.positions[3] + [1e-12, 0.0])
        assert a != "standard" and a != None  # noqa: E711

    def test_configurations_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(standard_config(2, 1.05, 0.1))

    def test_snapshot_blocks_compare_by_value(self):
        pos = TestSnapshotBlock._rows()
        block = C.snapshot_block(3, 1.05, 0.1, pos.copy())
        assert block == C.snapshot_block(3, 1.05, 0.1, pos.copy())
        moved = pos.copy()
        moved[2, 4, 0] += 1e-9
        assert block != C.snapshot_block(3, 1.05, 0.1, moved)
        assert block != C.snapshot_block(3, 1.05, 0.1, pos[:3].copy())
        with pytest.raises(TypeError):
            hash(block)


class TestPosition:
    def test_periodic_extension_at_axis(self):
        N, l = 4, 1.05
        cfg = standard_config(N, l, 0.1)
        assert np.allclose(position(cfg, (N, 0)), (l * N, 0.0), atol=1e-12)

    def test_extension_rule_on_random_pairs(self, rng, sample_snapshots):
        cfg = sample_snapshots[0]
        N = cfg.N
        for _ in range(1000):
            u, v = rng.integers(-8, 8, size=2)
            yu, yv = rng.integers(-3, 3, size=2)
            lhs = position(cfg, (u + N * yu, v + N * yv)) - position(cfg, (u, v))
            rhs = cfg.l * N * embed((yu, yv))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_canonical_index_returns_stored_value(self):
        cfg = standard_config(3, 1.04, 0.1)
        assert np.array_equal(position(cfg, (2, 1)), cfg.positions[lattice.site_index((2, 1), 3)])


class TestTriangleGradient:
    def test_standard_config_gives_scaled_identity(self):
        cfg = standard_config(4, 1.05, 0.1)
        for tri in lattice.triangles(4):
            assert np.abs(triangle_gradient(cfg, tri) - 1.05 * np.eye(2)).max() < 1e-14

    def test_vectorized_matches_single(self, sample_snapshots):
        cfg = sample_snapshots[-1]
        grads = triangle_gradients(cfg.N, cfg.corners)
        for i, tri in enumerate(lattice.triangles(cfg.N)):
            assert np.allclose(grads[i], triangle_gradient(cfg, tri), atol=1e-14)

    def test_defining_property_reproduces_corner_differences(self, sample_snapshots):
        cfg = sample_snapshots[-1]
        for tri in lattice.triangles(cfg.N)[:8]:
            A = triangle_gradient(cfg, tri)
            corners = lattice.triangle_corners(tri)
            p = [position(cfg, c) for c in corners]
            e = [embed(c) for c in corners]
            for k in (1, 2):
                assert np.allclose(A @ (e[k] - e[0]), p[k] - p[0], atol=1e-12)

    def test_translation_leaves_gradients_invariant(self, sample_snapshots):
        cfg = sample_snapshots[0]
        b = (1, 2)
        moved = translate(cfg, b)
        for tri in lattice.triangles(cfg.N)[:6]:
            shifted = TriangleRef(
                lattice.canonical((tri.base[0] + b[0], tri.base[1] + b[1]), cfg.N),
                tri.orientation,
            )
            assert np.allclose(
                triangle_gradient(moved, tri), triangle_gradient(cfg, shifted), atol=1e-12
            )


def _stacked_gradients(N, corners):
    """``triangle_gradients`` as it was before its GEMM per orientation:
    one stacked matmul with the gathered ``_BINV[orient]``."""
    _, _, orient = lattice.triangle_tables(N)
    c0 = corners[..., 0, :]
    d = np.stack((corners[..., 1, :] - c0, corners[..., 2, :] - c0), axis=-1)
    return d @ C._BINV[orient]


class TestTriangleGradientsGemm:
    """One GEMM per orientation gives the stacked matmul's entries
    bitwise, on the CPU that runs the tests, and its triangle-major layout."""

    @pytest.mark.parametrize(
        "N, lead",
        [(2, ()), (2, (64,)), (3, (5,)), (4, (1,)), (4, (64,)), (4, (2, 3)), (12, (7,)), (32, ()),
         (96, ())],
    )
    def test_equals_the_stacked_matmul_bitwise(self, rng, N, lead):
        pos = standard_config(N, 1.05, 0.1).positions
        pos = pos + 0.02 * rng.standard_normal((*lead, N * N, 2))
        corners = C.image_triangle_corners(N, 1.05, pos)
        got, want = triangle_gradients(N, corners), _stacked_gradients(N, corners)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if len(lead) == 1 and lead[0] > 1:
            assert got.strides == want.strides


class TestOmega1:
    def test_standard_passes(self):
        assert check_omega1(standard_config(4, 1.05, 0.1)).ok

    def test_displaced_site_violates_with_bond_listed(self):
        cfg = standard_config(4, 1.05, 0.1)
        target = position(cfg, (1, 0)) + np.array([2 * cfg.epsilon, 0.0])
        bad = _with_moved_site(cfg, (1, 0), target)
        res = check_omega1(bad)
        assert not res.ok
        touched = {(v[1].a, v[1].b) for v in res.violations}
        assert any((1, 0) in pair for pair in touched)

    def test_length_exactly_at_upper_edge_fails(self):
        cfg = standard_config(2, 1.05, 0.1)
        bad = _with_moved_site(cfg, (1, 0), (1.0 + cfg.epsilon, 0.0))
        res = check_omega1(bad)
        assert not res.ok


class TestOmega3:
    def test_standard_passes_with_expected_determinant(self):
        cfg = standard_config(4, 1.05, 0.1)
        assert check_omega3(cfg).ok
        dets = np.linalg.det(triangle_gradients(cfg.N, cfg.corners))
        assert np.allclose(dets, 1.05**2, atol=1e-12)

    def test_reflected_apex_fails(self):
        bad = counterexamples.reflected_apex_config(4, 1.05, 0.1)
        assert not check_omega3(bad).ok

    def test_exactly_degenerate_triangle_fails(self):
        cfg = standard_config(4, 1.05, 0.1)
        # put the apex of the (0,0) up-triangle exactly on the base line
        bad = _with_moved_site(cfg, (0, 1), (0.7, 0.0))
        assert not check_omega3(bad).ok


class TestOmega2:
    def test_standard_passes_both(self):
        cfg = standard_config(4, 1.05, 0.1)
        assert is_admissible(cfg).omega2_ok
        assert check_omega2_oracle(cfg).ok

    def test_double_cover_fails_both(self):
        bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1)
        assert not is_admissible(bad).omega2_ok
        assert not check_omega2_oracle(bad).ok

    def test_wrapped_vertex_fails_omega3_away_from_the_vertex(self, fraction_winding):
        """The star winds twice around the vertex while its own six
        triangles are positive; by the lemma, a triangle elsewhere is not."""
        vertex = (2, 2)
        bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1, vertex=vertex)
        p, star = _stars(bad)
        s = lattice.site_index(vertex, 4)
        assert fraction_winding(p[s], star[s]) == 2
        assert abs(_angle_sums(p, star)[s] - 4.0 * math.pi) < ANGLE_SUM_TOL
        failed = {tri for _, tri, _ in check_omega3(bad).violations}
        assert failed == {t for t, ok in zip(lattice.triangles(4), _exact_omega3(bad)) if not ok}
        incident = {tri for tri, _ in lattice.vertex_star(vertex, 4)}
        assert failed and not failed & incident

    def test_coincident_sites_fail_oracle(self):
        bad = counterexamples.coincident_sites_config(4, 1.05, 0.1)
        assert not check_omega2_oracle(bad).ok
        assert not is_admissible(bad).omega2_ok

    def test_degenerate_image_reported_as_orientation_failure(self):
        cfg = standard_config(4, 1.05, 0.1)
        bad = _with_moved_site(cfg, (0, 1), (0.7, 0.0))
        res = check_omega2_oracle(bad)
        assert not res.ok
        assert any(tag == "omega3_degenerate" for tag, *_ in res.violations)

    def test_admissibility_and_oracle_agree_on_samples(self, sample_snapshots):
        for snap in sample_snapshots[::10]:
            assert is_admissible(snap).omega2_ok
            assert check_omega2_oracle(snap).ok

    def test_admissibility_and_oracle_agree_on_counterexamples(self):
        for bad in counterexamples.folded_counterexamples(4, 1.05, 0.1):
            assert not is_admissible(bad).omega2_ok
            assert not check_omega2_oracle(bad).ok


# Tolerance of the angle-sum reference below: six atan2 evaluations
# round at ~1e-15 each, and a winding defect moves a sum by 2*pi.
ANGLE_SUM_TOL = 1e-9


def _stars(cfg):
    """Every site's image and its six neighbour images, in counterclockwise order."""
    nbr_idx, nbr_offset = lattice.neighbor_tables(cfg.N)
    return cfg.positions, cfg.positions[nbr_idx] + cfg.l * cfg.N * nbr_offset


def _angle_sums(p, star):
    """Sum of the six signed image angles at every star: ``2*pi`` times its winding number."""
    e = star - p[:, None, :]
    e2 = np.roll(e, -1, axis=1)
    cross = e[..., 0] * e2[..., 1] - e[..., 1] * e2[..., 0]
    dot = e[..., 0] * e2[..., 0] + e[..., 1] * e2[..., 1]
    return np.arctan2(cross, dot).sum(axis=1)


SHIFTS = [(yu, yv) for yu in (-1, 0, 1) for yv in (-1, 0, 1)]


def _oracle_reference(cfg):
    """Scalar all-pairs version of the oracle: ``(tested pairs, violations)``.

    Every centre triangle i meets every triangle j > i under all nine
    tiling shifts, and itself under the four shifts after (0, 0); a pair
    whose boxes overlap strictly in Python floats goes to the exact
    predicate.  Corners come from the scalar periodic extension rule.
    """
    N = cfg.N
    tris = lattice.triangles(N)

    def corners(tri, y):
        return tuple(
            tuple(float(c) for c in position(cfg, (u + N * y[0], v + N * y[1])))
            for u, v in lattice.triangle_corners(tri)
        )

    def box(p):
        xs, ys = [q[0] for q in p], [q[1] for q in p]
        return min(xs), max(xs), min(ys), max(ys)

    centre = [corners(t, (0, 0)) for t in tris]
    degenerate = [
        ("omega3_degenerate", t) for t, p in zip(tris, centre) if geometry.orient_sign(*p) == 0
    ]
    if degenerate:
        return [], degenerate
    tiled = [[corners(t, y) for y in SHIFTS] for t in tris]
    tested, violations = [], []
    for i, a in enumerate(centre):
        ax0, ax1, ay0, ay1 = box(a)
        for j in range(i, len(tris)):
            for k, y in enumerate(SHIFTS):
                if j == i and not y > (0, 0):
                    continue
                b = tiled[j][k]
                bx0, bx1, by0, by1 = box(b)
                if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                    tested.append((a, b))
                    if geometry.triangles_overlap(a, b):
                        violations.append(("omega2_overlap", tris[i], tris[j], y))
    return tested, violations


def _reference_states():
    for N in (2, 3, 4):
        yield pytest.param(standard_config(N, 1.05, 0.1), id=f"standard-N{N}")
        params = SamplerParams(sweeps=20, burn_in=10, thin=10, seed=N)
        yield pytest.param(run_chain(N, 1.05, 0.1, params).records[-1], id=f"sampled-N{N}")
    for N in (4, 5, 6):
        for n, bad in enumerate(counterexamples.folded_counterexamples(N, 1.05, 0.1)):
            yield pytest.param(bad, id=f"folded-N{N}-{n}")


REFERENCE_STATES = list(_reference_states())


def _oracle_pairs(cfg):
    """The oracle's pairs as corner tuples, all chunks in order, and the number of chunks."""
    pairs, chunks = [], 0
    for ii, jj, kk, P, Q in C._oracle_pairs(cfg):
        assert np.array_equal(P, cfg.corners[ii])
        assert np.array_equal(Q, C._tiled_corners(cfg, jj, kk))
        pairs += [(tuple(map(tuple, a)), tuple(map(tuple, b))) for a, b in zip(P.tolist(), Q.tolist())]
        chunks += 1
    return pairs, chunks


# Centre triangles per oracle chunk in the chunked tests: every reference
# state, T = 8 ... 72 triangles, spans at least two chunks.
SMALL_CHUNK = 5


class TestOracleCellList:
    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_matches_scalar_all_pairs_reference(self, cfg):
        self._assert_matches_reference(cfg)

    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_chunks_match_scalar_all_pairs_reference(self, monkeypatch, cfg):
        monkeypatch.setattr(C, "_ORACLE_CHUNK", SMALL_CHUNK)
        chunks = self._assert_matches_reference(cfg)
        assert chunks is None or chunks == -(-cfg.corners.shape[0] // SMALL_CHUNK) >= 2

    @staticmethod
    def _assert_matches_reference(cfg):
        """The reference's violations, and its pairs in its order; returns the chunk count."""
        want_tested, want_violations = _oracle_reference(cfg)
        got = check_omega2_oracle(cfg)
        assert got.violations == want_violations
        assert got.ok == (not want_violations)
        if any(tag == "omega3_degenerate" for tag, *_ in want_violations):
            return None  # the reference tests no pair then, and neither does the oracle
        pairs, chunks = _oracle_pairs(cfg)
        assert pairs == want_tested
        return chunks

    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_forced_fallback_tests_every_pair_with_the_scalar(self, monkeypatch, cfg):
        """With the float filter deciding nothing, the oracle calls the
        scalar predicate on exactly the reference's pairs, in order."""
        self._assert_forced_fallback_follows_the_reference(monkeypatch, cfg)

    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_chunks_force_fallback_in_the_reference_order(self, monkeypatch, cfg):
        monkeypatch.setattr(C, "_ORACLE_CHUNK", SMALL_CHUNK)
        self._assert_forced_fallback_follows_the_reference(monkeypatch, cfg)

    @staticmethod
    def _assert_forced_fallback_follows_the_reference(monkeypatch, cfg):
        tested = []
        exact = geometry.triangles_overlap
        filtered = geometry.orient_signs

        def recorded(a, b):
            tested.append((tuple(map(tuple, a.tolist())), tuple(map(tuple, b.tolist()))))
            return exact(a, b)

        def undecided(a, b, c):
            sign, decided = filtered(a, b, c)
            return sign, np.zeros_like(decided)

        want_tested, want_violations = _oracle_reference(cfg)
        monkeypatch.setattr(geometry, "orient_signs", undecided)
        monkeypatch.setattr(geometry, "triangles_overlap", recorded)
        got = check_omega2_oracle(cfg)
        assert got.violations == want_violations
        assert got.ok == (not want_violations)
        assert tested == want_tested

    def test_chunks_do_not_change_the_pairs_of_a_large_state(self, monkeypatch):
        params = SamplerParams(sweeps=30, burn_in=0, thin=30, seed=1)
        cfg = run_chain(16, 1.05, 0.1, params).records[-1]
        monkeypatch.setattr(C, "_ORACLE_CHUNK", cfg.corners.shape[0])
        whole, chunks = _oracle_pairs(cfg)
        assert chunks == 1
        monkeypatch.setattr(C, "_ORACLE_CHUNK", 97)
        assert _oracle_pairs(cfg) == (whole, 6)

    @staticmethod
    def _oracle_peak(N):
        params = SamplerParams(sweeps=30, burn_in=0, thin=30, seed=1)
        cfg = run_chain(N, 1.05, 0.1, params).records[-1]
        tracemalloc.start()
        try:
            assert check_omega2_oracle(cfg).ok
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_at_n32_stays_below_3_mb(self):
        # the dense all-pairs box mask needed ~130 MB here, and the
        # nine-sign broadcast of each chunk's pairs 4.3 MB
        assert self._oracle_peak(32) < 3e6

    def test_peak_memory_at_n64_stays_below_6_mb(self):
        # one unchunked candidate list needed 27 MB here, and the
        # nine-sign broadcast 7.5 MB; the cell list alone keeps about
        # 4 MB (boxes, keys and order of the 18 N^2 tiled triangles)
        assert self._oracle_peak(64) < 6e6

    def test_peak_memory_at_n96_stays_below_6_mb(self):
        # the boxes of all 18 N^2 tiled triangles peaked at 10.7 MB here
        assert self._oracle_peak(96) < 6e6

    @pytest.mark.parametrize("cfg", REFERENCE_STATES + [pytest.param(16, id="sampled-N16"),
                                                         pytest.param(32, id="sampled-N32")])
    def test_block_test_equals_the_broadcast_form_on_every_chunk(self, cfg, broadcast_overlap_block):
        if isinstance(cfg, int):
            cfg = run_chain(cfg, 1.05, 0.1, SamplerParams(sweeps=30, burn_in=0, thin=30, seed=1)).records[-1]
        for _, _, _, P, Q in C._oracle_pairs(cfg):
            got, want = geometry.triangles_overlap_block(P, Q), broadcast_overlap_block(P, Q)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _seam_states():
    """Sampled states at N = 8, 16 and 32, in the window epsilon = 0.1 and in a wide one, 0.45."""
    for N in (8, 16, 32):
        for l, epsilon in ((1.05, 0.1), (1.2, 0.45)):
            params = SamplerParams(sweeps=30, burn_in=0, thin=30, seed=N)
            yield pytest.param(run_chain(N, l, epsilon, params).records[-1], id=f"N{N}-eps{epsilon}")


SEAM_STATES = list(_seam_states())

_U = 2.0**-53


def _all_image_boxes(cfg):
    """Boxes of all 9T tiled images, shape ``(9, T, 2)`` each, from ``_tiled_corners``."""
    T = cfg.corners.shape[0]
    return geometry.corner_box(C._tiled_corners(cfg, np.arange(T), np.arange(len(SHIFTS))[:, None]))


def _all_images_pairs(cfg, chunk=64):
    """``(i, j, k)`` of the oracle's rules over all 9T images, vectorised and
    chunked: strict box overlap, and ``i < j`` or ``i == j`` under the
    shifts after (0, 0), in ``(i, j, k)`` order."""
    T = cfg.corners.shape[0]
    lo, hi = geometry.corner_box(cfg.corners)
    lo_s, hi_s = _all_image_boxes(cfg)
    j = np.arange(T)
    half = np.array([y > (0, 0) for y in SHIFTS])[:, None]
    found = []
    for c0 in range(0, T, chunk):
        i = np.arange(c0, min(c0 + chunk, T))[:, None, None]
        box = (lo[i] < hi_s) & (lo_s < hi[i])
        rule = (i < j) | ((i == j) & half)
        ii, kk, jj = np.nonzero(box[..., 0] & box[..., 1] & rule)
        found.append(np.stack((c0 + ii, jj, kk), axis=1))
    found = np.concatenate(found)
    return found[np.lexsort(found.T[::-1])]


class TestSeamFilter:
    """The oracle tiles only the centre copies and the ghost images near
    the seams (``_seam_ghosts``); its pairs stay those over all 9T images."""

    @pytest.mark.parametrize("cfg", SEAM_STATES)
    def test_pairs_equal_the_all_images_reference(self, cfg):
        got = [np.stack((ii, jj, kk), axis=1) for ii, jj, kk, _, _ in C._oracle_pairs(cfg)]
        assert np.array_equal(np.concatenate(got), _all_images_pairs(cfg))

    @pytest.mark.parametrize("cfg", SEAM_STATES + REFERENCE_STATES[::3])
    def test_dropped_ghosts_overlap_no_centre_box(self, cfg):
        T = cfg.corners.shape[0]
        lo, hi = geometry.corner_box(cfg.corners)
        kept = C._seam_ghosts(cfg.l * cfg.N, lo.T.copy(), hi.T.copy())
        ghosts = np.array([k * T + j for k in range(len(SHIFTS)) if k != C._CENTRE for j in range(T)])
        dropped = np.setdiff1d(ghosts, kept)
        assert np.array_equal(np.sort(kept), kept) and np.isin(kept, ghosts).all()
        if T >= 2 * 8 * 8:
            assert len(kept) < len(ghosts) / 4
        lo_s, hi_s = (b.reshape(-1, 2) for b in _all_image_boxes(cfg))
        for c0 in range(0, len(dropped), 256):
            g = dropped[c0 : c0 + 256, None]
            box = (lo_s[g] < hi) & (lo < hi_s[g])
            assert not (box[..., 0] & box[..., 1]).any()

    @pytest.mark.parametrize("N", [2, 5, 16])
    def test_the_prediction_error_stays_within_the_proved_bound(self, N):
        """Steps (1) and (2) of the proof, in rational arithmetic: every
        ghost box lies within ``E = u (6 L + 2 M) / (1 - u)`` of its
        centre box plus ``L s``, on states whose corners reach far out."""
        states = [run_chain(N, 1.05, 0.1, SamplerParams(sweeps=2, thin=2, seed=N)).records[-1]]
        rng = np.random.Generator(np.random.PCG64(N))
        for scale in (1e3, 1e9):  # random positions: the proof assumes no lattice
            pos = scale * rng.standard_normal((N * N, 2))
            pos[0] = 0.0
            states.append(Configuration(N, 1.05, 0.1, pos))
        for cfg in states:
            T = cfg.corners.shape[0]
            L = cfg.l * cfg.N
            lo, hi = geometry.corner_box(cfg.corners)
            M = float(np.abs(np.concatenate((lo, hi))).max())
            E = _U * (6 * L + 2 * M) / (1 - _U)
            lo_s, hi_s = _all_image_boxes(cfg)
            worst = 0
            for k, s in enumerate(C._SHIFT_OFFSETS):
                Ls = [Fraction(L) * Fraction(float(x)) for x in s]
                for j in range(T):
                    for a in (0, 1):
                        for g, c in ((lo_s[k, j, a], lo[j, a]), (hi_s[k, j, a], hi[j, a])):
                            worst = max(worst, abs(Fraction(float(g)) - Fraction(float(c)) - Ls[a]))
            assert E / 8 < worst <= E  # the bound is within a small factor of the worst error
            assert E + _U * (3.01 * M + 3.02 * L) < C._SEAM_MARGIN * (L + M) * (1 - 2 * _U)

    @pytest.mark.parametrize("side", ["hi", "lo"])
    def test_the_filter_keeps_a_ghost_at_its_margin_and_drops_it_an_ulp_beyond(self, side):
        """A predicted box edge that lands on ``fl(CHI + mu)`` (or on
        ``fl(CLO - mu)``) keeps its ghost; the next float beyond drops it."""
        L = 1.05 * 4
        lo, hi = np.array([[-3.0, 0.0], [-3.0, -1.0]]), np.array([[6.0, 1.0], [6.0, 1.0]])  # (axis, box)
        mu = C._SEAM_MARGIN * (L + 6.0)  # M = 6
        k = SHIFTS.index((1, 0) if side == "hi" else (-1, 0))
        t = float(L * C._SHIFT_OFFSETS[k][0])
        edge, out = (6.0 + mu, math.inf) if side == "hi" else (-3.0 - mu, -math.inf)
        inside = (lambda x: x + t <= edge) if side == "hi" else (lambda x: x + t >= edge)
        x = edge - t  # moved to the last float x whose predicted edge x + t is inside
        while inside(np.nextafter(x, out)):
            x = np.nextafter(x, out)
        while not inside(x):
            x = np.nextafter(x, -out)
        assert x + t == edge

        def kept(x):
            b_lo, b_hi = lo.copy(), hi.copy()
            if side == "hi":  # ghost 1's box moves right by t: its lower x meets CHI
                b_lo[0, 1], b_hi[0, 1] = x, x + 1.0
            else:  # it moves left: its upper x meets CLO
                b_lo[0, 1], b_hi[0, 1] = x - 1.0, x
            return k * 2 + 1 in C._seam_ghosts(L, b_lo, b_hi).tolist()

        assert kept(x) and not kept(np.nextafter(x, out))

    @pytest.mark.parametrize("value", [2.0**1000, math.inf, math.nan])
    def test_a_state_outside_the_proof_keeps_every_ghost(self, value):
        lo, hi = np.array([[-3.0, 0.0], [-3.0, -1.0]]), np.array([[6.0, 1.0], [6.0, 1.0]])
        hi[1, 0] = value
        ghosts = [k * 2 + j for k in range(len(SHIFTS)) if k != C._CENTRE for j in (0, 1)]
        assert C._seam_ghosts(1.05 * 4, lo, hi).tolist() == ghosts
        hi[1, 0] = 6.0
        assert len(C._seam_ghosts(1.05 * 4, lo, hi)) < len(ghosts)


class TestIsAdmissible:
    def test_standard(self):
        assert is_admissible(standard_config(4, 1.05, 0.1)).ok

    def test_omega1_violation_reported(self):
        cfg = standard_config(4, 1.05, 0.1)
        target = position(cfg, (1, 0)) + np.array([2 * cfg.epsilon, 0.0])
        report = is_admissible(_with_moved_site(cfg, (1, 0), target))
        assert not report.omega1_ok and not report.ok

    def test_folded_triangle_fails_omega2_with_omega3(self):
        bad = counterexamples.reflected_apex_config(4, 1.05, 0.1)
        report = is_admissible(bad)
        assert not report.omega3_ok
        assert not report.omega2_ok
        assert any(tag == "omega2_skipped" for tag, *_ in report.violations)


def _jittered_states(epsilon, seed):
    """Standard states moved by uniform jitter: some admissible, some not."""
    rng = np.random.default_rng(seed)
    l = 1.0 + epsilon / 2.0
    for N in (3, 4, 6):
        base = standard_config(N, l, epsilon).positions
        for amp in (0.02, 0.08, 0.15, 0.3):
            for _ in range(3):
                pos = base + rng.uniform(-amp, amp, size=base.shape)
                pos[0] = 0.0
                yield Configuration(N, l, epsilon, pos)


class TestImpliedOmega2:
    STATES = [
        *(bad for N in (4, 5, 6, 8)
          for bad in counterexamples.folded_counterexamples(N, 1.05, 0.1)),
        *_jittered_states(0.5, seed=1),
        *_jittered_states(0.8, seed=2),  # epsilon >= sqrt(3) - 1, outside any chain's regime
    ]

    def test_omega2_is_exact_omega3_and_the_oracle(self, sample_snapshots, fraction_winding):
        """The lemma on a corpus: ``is_admissible``'s omega2, the oracle and
        exact omega3 agree on every state, and where exact omega3 holds,
        every vertex star winds exactly once."""
        states = [
            *self.STATES,
            *sample_snapshots[::10],
            counterexamples.wrapped_vertex_config(4, 1.05, 0.1),
        ]
        passed = 0
        for cfg in states:
            exact = bool(np.all(_exact_omega3(cfg)))
            assert is_admissible(cfg).omega2_ok == check_omega2_oracle(cfg).ok == exact
            if exact:
                p, star = _stars(cfg)
                assert [fraction_winding(a, b) for a, b in zip(p, star)] == [1] * len(p)
                passed += 1
        assert 50 < passed < len(states) - 48  # both verdicts occur; the 48 folded states fail
        assert len(self.STATES) == 48 + 2 * 36


def _exact_omega3(cfg):
    """Per triangle: finite corners that turn strictly counterclockwise, by
    the scalar exact predicate on each triangle's float corners."""
    return [
        bool(np.isfinite(c).all()) and geometry.orient_sign(*c.tolist()) > 0 for c in cfg.corners
    ]


def _hexagon(angles, scale=1.0):
    return [(scale * math.cos(a), scale * math.sin(a)) for a in angles]


# Vertex stars around the origin: (name, vertices, winding number).
STARS = [
    ("ccw", _hexagon(np.arange(6) * math.pi / 3), 1),
    ("cw", _hexagon(-np.arange(6) * math.pi / 3), -1),
    ("twice", _hexagon(np.arange(6) * 2 * math.pi / 3 + 0.1), 2),
    ("twice-cw", _hexagon(-np.arange(6) * 2 * math.pi / 3 + 0.1), -2),
    ("outside", [(x + 5.0, y) for x, y in _hexagon(np.arange(6) * math.pi / 3)], 0),
    # vertices exactly on the horizontal line through the centre, on the
    # ray and opposite it: the standard star's horizontal bonds
    ("on-ray", (1.05 * (np.array(lattice.NEIGHBOR_OFFSETS) @ lattice.EMBED_BASIS)).tolist(), 1),
    ("on-ray-touch", [(1.0, 0.0), (2.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (2.0, -1.0), (3.0, 0.0)], 1),
    ("collinear", [(1.0, -1.0), (1.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0), (-1.0, -1.0)], 1),
    ("coincident", [(1.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-1.0, 0.0), (0.0, -1.0)], 1),
    ("edge-line-through-centre", [(1.0, -1.0), (2.0, -2.0), (2.0, 2.0), (-1.0, 1.0), (-2.0, 0.5), (-1.0, -2.0)], 1),
]


class TestStarWinding:
    @pytest.mark.parametrize("name, star, want", STARS, ids=[s[0] for s in STARS])
    def test_positive_star_winds_at_least_once(self, fraction_winding, name, star, want):
        """The lemma's local step: where the six triangles (centre, q_k,
        q_k+1) are positively oriented, the star winds ``w >= 1`` times
        around its centre.  ``twice`` has positive triangles and ``w = 2``,
        so a single star does not force ``w = 1``; the sum over all stars
        does.  The exact winding reference gives the table's count under
        every cyclic relabelling of the vertices."""
        p = (0.0, 0.0)
        for k in range(6):
            assert fraction_winding(p, star[k:] + star[:k]) == want
        q = np.array(star)
        signs = geometry.orient_signs_exact(np.array(p), q, np.roll(q, -1, axis=0))
        if np.all(signs > 0):
            assert want >= 1
        # the degenerate stars wind once with a zero triangle: the converse fails
        assert np.all(signs > 0) == (name in ("ccw", "twice", "on-ray", "collinear"))


def _with_site_value(cfg, index, value):
    pos = np.array(cfg.positions)
    pos[index] = value
    return Configuration(cfg.N, cfg.l, cfg.epsilon, pos)


def _reference_omega1(cfg):
    """:func:`check_omega1` without its short-circuit: the violation list of every state."""
    d2 = cfg.bond_squares
    hi2 = (1.0 + cfg.epsilon) ** 2
    bad = np.flatnonzero(~((d2 > 1.0) & (d2 < hi2)))
    bonds = lattice.bonds(cfg.N)
    return C.CheckResult(bad.size == 0, [("omega1", bonds[i], math.sqrt(float(d2[i]))) for i in bad])


def _reference_omega3(cfg):
    """:func:`check_omega3` without its float shortcut: exact signs of every triangle."""
    cross = cfg.crosses
    bad = [i for i, ok in enumerate(_exact_omega3(cfg)) if not ok]
    tris = lattice.triangles(cfg.N)
    return C.CheckResult(not bad, [("omega3", tris[i], float(cross[i]) * (2.0 / SQRT3)) for i in bad])


def _reference_is_admissible(cfg):
    r1, r3 = _reference_omega1(cfg), _reference_omega3(cfg)
    r2 = [] if r3.ok else [("omega2_skipped", "omega3 failed")]
    return C.AdmissibilityReport(r1.ok, r3.ok, r3.ok, r1.violations + r3.violations + r2)


def _non_finite_states():
    for N in (2, 4):
        cfg = standard_config(N, 1.05, 0.1)
        for value in ((math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3), (-math.inf, math.nan)):
            yield _with_site_value(cfg, N + 1, value)


class TestShortCircuitedChecks:
    """``check_omega1`` settles a passing state from the extremes alone and
    ``check_omega3`` from its float test; the reports must be those of the
    full violation scan with exact signs."""

    def _states(self, sample_snapshots):
        yield from sample_snapshots[::10]  # passing
        yield from TestImpliedOmega2.STATES  # omega1- and omega3-failing, epsilon = 0.5 and 0.8
        yield from _non_finite_states()
        cfg = standard_config(4, 1.05, 0.1)
        yield _with_moved_site(cfg, (1, 0), (1.0 + cfg.epsilon, 0.0))  # bond exactly at the edge
        yield _with_moved_site(cfg, (0, 1), (0.7, 0.0))  # exactly degenerate triangle

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_reports_equal_the_full_scan(self, sample_snapshots):
        kinds = set()
        for cfg in self._states(sample_snapshots):
            want = _reference_is_admissible(cfg)
            # repr compares NaN violation values as equal and tells -0.0 from 0.0
            assert repr(check_omega1(cfg)) == repr(_reference_omega1(cfg))
            assert repr(check_omega3(cfg)) == repr(_reference_omega3(cfg))
            assert repr(is_admissible(cfg)) == repr(want)
            kinds.add((want.omega1_ok, want.omega3_ok, cfg.epsilon))
        assert {(True, True), (False, True), (False, False)} <= {k[:2] for k in kinds}
        assert {0.1, 0.5, 0.8} <= {k[2] for k in kinds}


class TestNonFiniteSites:
    @pytest.mark.parametrize("value", [(math.nan, 0.3), (0.3, math.nan), (math.nan, math.nan)])
    def test_nan_site_is_not_admissible(self, value):
        cfg = _with_site_value(standard_config(4, 1.05, 0.1), 5, value)
        report = is_admissible(cfg)
        assert not report.ok
        assert not check_omega1(cfg).ok and not check_omega3(cfg).ok

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("value", [(math.inf, 0.3), (0.3, -math.inf)])
    def test_inf_site_is_not_admissible(self, value):
        cfg = _with_site_value(standard_config(4, 1.05, 0.1), 5, value)
        assert not is_admissible(cfg).ok

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_oracle_fails_at_the_non_finite_site(self, value):
        cfg = _with_site_value(standard_config(4, 1.05, 0.1), 5, value)
        star = {tri for tri, _ in lattice.vertex_star((1, 1), 4)}
        res = check_omega2_oracle(cfg)
        assert not res.ok
        assert sorted(res.violations) == sorted(("omega3_nonfinite", tri) for tri in star)
        if math.isnan(value):  # an infinite site warns of inf - inf in cfg.crosses
            assert {tri for _, tri, _ in check_omega3(cfg).violations} == star

    @staticmethod
    def _block_with_nan_row(N, site, coordinate, B=5, row=2):
        base = standard_config(N, 1.05, 0.1).positions
        rng = np.random.default_rng(site)
        pos = base + rng.uniform(-0.01, 0.01, size=(B,) + base.shape)
        pos[:, 0] = 0.0
        pos[row, site, coordinate] = math.nan
        return C.snapshot_block(N, 1.05, 0.1, pos)

    @pytest.mark.parametrize("N", [2, 4])
    def test_nan_row_of_a_block_fails_both_checks_wherever_it_sits(self, N):
        # whichever site holds the NaN, and so wherever its NaN bonds and
        # crosses sit in the stacked rows, the cached extremes read NaN
        for site in range(1, N * N):
            for coordinate in (0, 1):
                block = self._block_with_nan_row(N, site, coordinate)
                for b, snap in enumerate(block.snapshots):
                    fresh = Configuration(N, snap.l, snap.epsilon, snap.positions)
                    report = is_admissible(snap)
                    assert repr(report) == repr(is_admissible(fresh))
                    if b != 2:
                        assert report.ok
                        continue
                    r = snap.reductions
                    assert all(map(math.isnan, (r.bond_square_min, r.bond_square_max, r.cross_min)))
                    assert not report.omega1_ok and not report.omega3_ok
                    assert not report.omega2_ok and not report.ok
                    assert not check_omega1(snap).ok and not check_omega3(snap).ok

    def test_nan_row_of_a_block_gives_the_fresh_identity_report(self):
        block = self._block_with_nan_row(4, 5, 1)
        for snap in block.snapshots:
            fresh = Configuration(4, snap.l, snap.epsilon, snap.positions)
            report = observables.identity_suite(snap)
            assert repr(report) == repr(observables.identity_suite(fresh))
        nan_report = observables.identity_suite(block.snapshots[2])
        assert not nan_report.ok
        assert math.isnan(nan_report.mean_gradient_error)
        assert math.isnan(nan_report.pythagoras_relative_error)

    def test_nan_bond_is_reported(self):
        cfg = _with_site_value(standard_config(2, 1.05, 0.1), 3, (math.nan, 0.0))
        res = check_omega1(cfg)
        assert not res.ok and all(math.isnan(v[2]) for v in res.violations)


class TestExactOmega3:
    def test_float_and_exact_signs_disagree_on_a_sliver(self):
        """Site (1, 1) of a jittered state slides onto its hexagon edge from
        site (1, 0) to site (0, 1), so the DOWN triangle at (1, 0) is a
        sliver and the other triangles stay positive.  Site (1, 0) sits
        near y = 0, so the corner differences from it round.  Nudged by
        ulps, the sliver's float cross product has the wrong sign both
        ways: <= 0 where the exact sign is +1, and > 0 where it is -1.
        ``check_omega3`` follows the exact signs, and the oracle agrees."""
        rng = np.random.default_rng(0)
        pos = standard_config(4, 1.05, 0.1).positions + rng.uniform(-0.02, 0.02, (16, 2))
        pos[0] = 0.0
        cfg = Configuration(4, 1.05, 0.1, pos)
        t = lattice.triangle_index(TriangleRef((1, 0), lattice.DOWN), 4)
        a, b = position(cfg, (1, 0)), position(cfg, (0, 1))
        kinds = set()
        for f in (0.3, 0.5, 0.6):
            m = a + f * (b - a)
            for nudge in np.ndindex(9, 9):
                sliver = _with_moved_site(cfg, (1, 1), m + (np.array(nudge) - 4) * np.spacing(m))
                exact = _exact_omega3(sliver)
                assert exact[:t] + exact[t + 1 :] == [True] * (len(exact) - 1)
                assert check_omega3(sliver) == _reference_omega3(sliver)
                assert is_admissible(sliver).omega2_ok == check_omega2_oracle(sliver).ok == exact[t]
                kinds.add((bool(sliver.crosses[t] > 0.0), exact[t]))
        assert kinds == {(True, True), (False, False), (True, False), (False, True)}

    def test_edges_from_the_first_corner_are_bond_vectors(self, sample_snapshots):
        """``c1 - c0``, and ``c2 - c0`` of an UP triangle, round to bitwise
        the bond vectors whose squares ``bond_squares`` holds (step 2 of the
        proof in ``check_omega3``)."""
        for cfg in [sample_snapshots[0], *TestImpliedOmega2.STATES[::7]]:
            c = cfg.corners
            edge = lambda k: c[:, k] - c[:, 0]
            sq = lambda d: d[..., 0] ** 2 + d[..., 1] ** 2
            bonds = cfg.bond_squares.reshape(-1, 3)  # offsets (1, 0), (0, 1), (1, -1) per site
            up, down = slice(0, None, 2), slice(1, None, 2)
            assert np.array_equal(sq(edge(1)[up]), bonds[:, 0])
            assert np.array_equal(sq(edge(2)[up]), bonds[:, 1])
            assert np.array_equal(sq(edge(1)[down]), bonds[:, 1])


class TestOracleDegenerateTiledCopies:
    """The oracle's degenerate pre-pass checks only the centre copies.

    A tiled copy can round to collinear where its centre copy does not;
    the oracle stays clear of ``DegenerateTriangleError`` only because no
    such copy has passed the box filter into a candidate pair.
    """

    @pytest.mark.parametrize("n", [6, 8])
    def test_degenerate_tiled_copies_never_reach_the_scalar_predicate(self, monkeypatch, n):
        cfg = counterexamples.folded_counterexamples(4, 1.05, 0.1)[n]
        T = cfg.corners.shape[0]
        tiled = C._tiled_corners(cfg, np.arange(T), np.arange(len(SHIFTS))[:, None])
        sign = np.array([[geometry.orient_sign(*tri) for tri in copies] for copies in tiled])
        centre = SHIFTS.index((0, 0))
        # Tiled copies that round to sign 0 exist, while every centre copy passes the pre-pass.
        degenerate = {(int(k), int(j)) for k, j in np.argwhere(sign == 0)}
        assert degenerate and all(k != centre for k, _ in degenerate)
        assert np.all(sign[centre] != 0)
        # No candidate pair involves one.
        pairs = {(k, j) for _, jj, kk, _, _ in C._oracle_pairs(cfg) for k, j in zip(kk.tolist(), jj.tolist())}
        assert not pairs & degenerate
        # The oracle reports a violation without raising; every pair it
        # hands to the scalar predicate has two nondegenerate triangles.
        scalar = []
        real = geometry.triangles_overlap

        def recording(a, b):
            scalar.append((geometry.orient_sign(*a), geometry.orient_sign(*b)))
            return real(a, b)

        monkeypatch.setattr(geometry, "triangles_overlap", recording)
        result = check_omega2_oracle(cfg)
        assert not result.ok and result.violations
        assert all(sa != 0 and sb != 0 for sa, sb in scalar)


def _integer_wraps(N):
    """Integer wrap of every triangle corner, from the scalar enumerations, ``(2N^2, 3, 2)``."""
    def wrap(x):
        cu, cv = lattice.canonical(x, N)
        return ((x[0] - cu) // N, (x[1] - cv) // N)

    tris = lattice.triangles(N)
    return np.array([[wrap(x) for x in lattice.triangle_corners(t)] for t in tris], dtype=np.int64)


class TestTiledCorners:
    """``_tiled_corners`` adds the exact shift offset to the exact seam
    offset before scaling by ``l*N``; that is bitwise the integer-folded
    form ``positions + l*N*((wrap + shift) @ EMBED_BASIS)``, whose copies
    of one corner coincide exactly."""

    @pytest.mark.parametrize("N", range(2, 34))
    def test_equals_the_integer_folded_wrap_bitwise(self, N):
        sites, _, _ = lattice.triangle_tables(N)
        wrap = _integer_wraps(N)
        shifts = np.array(SHIFTS)
        T = 2 * N * N
        rng = np.random.Generator(np.random.PCG64(N))
        jj, kk = rng.integers(0, T, 200), rng.integers(0, len(SHIFTS), 200)
        params = SamplerParams(sweeps=2, thin=2, seed=N)
        for cfg in (standard_config(N, 1.05, 0.1), run_chain(N, 1.05, 0.1, params).records[-1]):
            for j, k in ((np.arange(T), np.arange(len(SHIFTS))[:, None]), (jj, kk)):
                folded = (wrap[j] + shifts[k][..., None, :]) @ lattice.EMBED_BASIS
                want = cfg.positions[sites[j]] + cfg.l * N * folded
                assert np.array_equal(C._tiled_corners(cfg, j, k), want)

    @pytest.mark.parametrize("N", [2, 5, 16])
    def test_the_oracle_boxes_the_tilings_of_tiled_corners_bitwise(self, monkeypatch, N):
        # every box the cell list holds, the centre copies and each ghost
        # the seam filter keeps, is that image's own box, bitwise
        cfg = run_chain(N, 1.05, 0.1, SamplerParams(sweeps=2, thin=2, seed=N)).records[-1]
        held = []
        real = C._oracle_images

        def recording(*args):
            held.append(real(*args))
            return held[-1]

        monkeypatch.setattr(C, "_oracle_images", recording)
        next(C._oracle_pairs(cfg))
        (ids, lo_s, hi_s), = held
        T = cfg.corners.shape[0]
        assert np.array_equal(ids[:T], C._CENTRE * T + np.arange(T))
        assert len(set(ids.tolist())) == len(ids)
        for n, (k, j) in enumerate(zip(*np.divmod(ids, T))):
            lo, hi = geometry.corner_box(C._tiled_corners(cfg, j, k))
            assert lo.tobytes() == lo_s[:, n].tobytes() and hi.tobytes() == hi_s[:, n].tobytes()


class TestSymmetryMaps:
    def test_translate_by_zero_is_identity(self, sample_snapshots):
        cfg = sample_snapshots[0]
        assert np.array_equal(translate(cfg, (0, 0)).positions, cfg.positions)

    def test_translate_inverse(self, sample_snapshots):
        cfg = sample_snapshots[0]
        back = translate(translate(cfg, (2, 1)), (-2, -1))
        assert np.allclose(back.positions, cfg.positions, atol=1e-12)

    def test_reflect_is_involution(self, sample_snapshots):
        cfg = sample_snapshots[0]
        assert np.allclose(reflect(reflect(cfg)).positions, cfg.positions, atol=1e-12)

    def test_gauge_preserved_exactly(self, sample_snapshots):
        cfg = sample_snapshots[-1]
        for mapped in (translate(cfg, (3, 2)), reflect(cfg)):
            assert mapped.positions[0, 0] == 0.0 and mapped.positions[0, 1] == 0.0

    def test_admissibility_invariance(self, sample_snapshots):
        for snap in sample_snapshots[::20]:
            assert is_admissible(translate(snap, (1, 3))).ok
            assert is_admissible(reflect(snap)).ok


class TestSerialization:
    def test_round_trip_is_bit_exact(self, sample_snapshots):
        for snap in sample_snapshots[::25]:
            again = from_json(to_json(snap))
            assert np.array_equal(again.positions, snap.positions)
            assert again.N == snap.N and again.l == snap.l and again.epsilon == snap.epsilon

    def test_schema_field(self):
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        assert record["schema"] == C.CONFIG_SCHEMA
        assert len(record["positions"]) == 2 * 4

    def test_rejects_wrong_schema(self):
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        record["schema"] = "something.else"
        with pytest.raises(ValueError):
            from_json(json.dumps(record))

    @pytest.mark.parametrize("bad_N", [2.7, "2", True])
    def test_rejects_a_non_integer_lattice_size(self, bad_N):
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        record["N"] = bad_N
        with pytest.raises(ValueError):
            from_json(json.dumps(record))

    @pytest.mark.parametrize(
        "field, bad", [("l", "1.05"), ("l", True), ("epsilon", True), ("epsilon", "0.1"), ("epsilon", None)]
    )
    def test_rejects_a_non_real_window_parameter(self, field, bad):
        # "1.05" and true loaded through float() as l = 1.05 and epsilon = 1.0
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        record[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            from_json(json.dumps(record))

    def test_loads_integer_window_parameters_as_floats(self):
        record = json.loads(to_json(standard_config(2, 1.5, 1.0)))
        record["epsilon"] = 1
        cfg = from_json(json.dumps(record))
        assert type(cfg.epsilon) is float and cfg.epsilon == 1.0

    def test_rejects_gauge_violation(self):
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        record["positions"][0] = 0.5
        with pytest.raises(ValueError):
            from_json(json.dumps(record))


class TestFiniteTriangles:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_equals_the_axis_reduction(self, rng, value):
        corners = standard_config(4, 1.05, 0.1).corners + rng.uniform(-0.01, 0.01, (5, 32, 3, 2))
        corners[rng.random(corners.shape) < 0.02] = value
        for c in (corners, corners[2]):  # a stack, and one snapshot
            want = np.isfinite(c).all(axis=(-2, -1))
            assert np.array_equal(C._finite_triangles(c), want)
        assert 0 < np.count_nonzero(~C._finite_triangles(corners)) < corners.shape[0] * 32
