import json
import math
import tracemalloc

import numpy as np
import pytest

from hardlattice import configuration as C
from hardlattice import counterexamples, geometry, kernels, lattice
from hardlattice.configuration import (
    Configuration,
    check_omega1,
    check_omega2_fast,
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

    def test_cached_arrays_are_read_only(self):
        cfg = standard_config(4, 1.05, 0.1)
        for name in ("corners", "gradients", "crosses", "bond_squares"):
            with pytest.raises(ValueError):
                getattr(cfg, name).flat[0] = 1.0


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
         (3, 1.05, 0.0), (3, 1.05, 1.5)],
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
        assert check_omega2_fast(cfg).ok
        assert check_omega2_oracle(cfg).ok

    def test_double_cover_fails_both(self):
        bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1)
        assert not check_omega2_fast(bad).ok
        assert not check_omega2_oracle(bad).ok

    def test_wrapped_vertex_winds_twice(self, fraction_winding):
        bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1, vertex=(2, 2))
        p, star = _stars(bad)
        s = lattice.site_index((2, 2), 4)
        assert geometry.winding_numbers(p, star)[s] == 2
        assert fraction_winding(p[s], star[s]) == 2
        assert abs(_angle_sums(p, star)[s] - 4.0 * math.pi) < ANGLE_SUM_TOL

    def test_coincident_sites_fail_oracle(self):
        bad = counterexamples.coincident_sites_config(4, 1.05, 0.1)
        assert not check_omega2_oracle(bad).ok
        assert not check_omega2_fast(bad).ok

    def test_degenerate_image_reported_as_orientation_failure(self):
        cfg = standard_config(4, 1.05, 0.1)
        bad = _with_moved_site(cfg, (0, 1), (0.7, 0.0))
        res = check_omega2_oracle(bad)
        assert not res.ok
        assert any(tag == "omega3_degenerate" for tag, *_ in res.violations)

    def test_fast_and_oracle_agree_on_samples(self, sample_snapshots):
        for snap in sample_snapshots[::10]:
            assert check_omega2_fast(snap).ok
            assert check_omega2_oracle(snap).ok

    def test_fast_and_oracle_agree_on_counterexamples(self):
        for bad in counterexamples.folded_counterexamples(4, 1.05, 0.1):
            assert not check_omega2_fast(bad).ok
            assert not check_omega2_oracle(bad).ok


# Tolerance of the angle-sum reference below: six atan2 evaluations
# round at ~1e-15 each, and a winding defect moves a sum by 2*pi.
ANGLE_SUM_TOL = 1e-9


def _stars(cfg):
    """Every site's image and its six neighbour images, in counterclockwise order."""
    nbr_idx, nbr_wrap = lattice.neighbor_tables(cfg.N)
    return cfg.positions, cfg.positions[nbr_idx] + cfg.l * cfg.N * (nbr_wrap @ lattice.EMBED_BASIS)


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


class TestOracleCellList:
    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_matches_scalar_all_pairs_reference(self, cfg):
        want_tested, want_violations = _oracle_reference(cfg)
        got = check_omega2_oracle(cfg)
        assert got.violations == want_violations
        assert got.ok == (not want_violations)
        if any(tag == "omega3_degenerate" for tag, *_ in want_violations):
            return  # the reference tests no pair then, and neither does the oracle
        ii, jj, kk, tiled = C._oracle_candidates(cfg)
        pairs = [
            (tuple(map(tuple, cfg.corners[i].tolist())), tuple(map(tuple, tiled[k, j].tolist())))
            for i, j, k in zip(ii.tolist(), jj.tolist(), kk.tolist())
        ]
        assert pairs == want_tested

    @pytest.mark.parametrize("cfg", REFERENCE_STATES)
    def test_forced_fallback_tests_every_pair_with_the_scalar(self, monkeypatch, cfg):
        """With the float filter deciding nothing, the oracle calls the
        scalar predicate on exactly the reference's pairs, in order."""
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

    def test_peak_memory_at_n32_stays_below_16_mb(self):
        params = SamplerParams(sweeps=30, burn_in=0, thin=30, seed=1)
        cfg = run_chain(32, 1.05, 0.1, params).records[-1]
        tracemalloc.start()
        try:
            assert check_omega2_oracle(cfg).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense all-pairs box mask needed ~130 MB here
        assert peak < 16e6


class TestIsAdmissible:
    def test_standard(self):
        assert is_admissible(standard_config(4, 1.05, 0.1)).ok

    def test_omega1_violation_reported(self):
        cfg = standard_config(4, 1.05, 0.1)
        target = position(cfg, (1, 0)) + np.array([2 * cfg.epsilon, 0.0])
        report = is_admissible(_with_moved_site(cfg, (1, 0), target))
        assert not report.omega1_ok and not report.ok

    def test_folded_triangle_skips_fast_injectivity(self):
        bad = counterexamples.reflected_apex_config(4, 1.05, 0.1)
        report = is_admissible(bad)
        assert not report.omega3_ok
        assert not report.omega2_ok
        assert any(tag == "omega2_skipped" for tag, *_ in report.violations)


def _report_with_fast_certificate(cfg):
    """``is_admissible`` as it reads when the fast omega2 certificate runs whenever omega3 holds."""
    r1, r3 = check_omega1(cfg), check_omega3(cfg)
    if r3.ok:
        r2 = check_omega2_fast(cfg)
    else:
        r2 = C.CheckResult(False, [("omega2_skipped", "omega3 failed")])
    return C.AdmissibilityReport(r1.ok, r2.ok, r3.ok, r1.violations + r3.violations + r2.violations)


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
        *_jittered_states(0.8, seed=2),  # epsilon >= sqrt(3) - 1: the certificate decides
    ]

    def test_reports_equal_the_fast_certificate_reports(self, monkeypatch):
        want = [_report_with_fast_certificate(cfg) for cfg in self.STATES]
        calls = []
        real = geometry.winding_numbers
        monkeypatch.setattr(geometry, "winding_numbers", lambda p, q: calls.append(p) or real(p, q))
        got = [is_admissible(cfg) for cfg in self.STATES]
        assert got == want
        # The certificate ran exactly where omega1 failed or epsilon is too
        # large for the lemma, and every kind of state occurred.
        lean = [(1.0 + cfg.epsilon) ** 2 < kernels.LEAN_HI2 for cfg in self.STATES]
        skipped = [r.omega1_ok and r.omega3_ok and ok for r, ok in zip(want, lean)]
        assert len(calls) == sum(r.omega3_ok for r in want) - sum(skipped)
        assert sum(skipped) > 0 and len(calls) > 0
        assert sum(not r.ok for r in want) > 48 and sum(r.ok for r in want) > 0
        assert len(self.STATES) == 48 + 2 * 36

    def test_windings_equal_exact_and_angle_sum_references(self, sample_snapshots, fraction_winding):
        """Where omega3 holds and the certificate counts, every star winds
        once: by the exact crossing rule, and by the atan2 angle sums the
        certificate used to take, within their own tolerance.  So the
        certificate passes exactly where the angle-sum certificate did."""
        counted = 0
        for cfg in [*self.STATES, *sample_snapshots[::10]]:
            res = check_omega2_fast(cfg)
            if not check_omega3(cfg).ok:
                assert not res.ok
                continue
            p, star = _stars(cfg)
            w = geometry.winding_numbers(p, star)
            sums = _angle_sums(p, star)
            assert w.tolist() == [fraction_winding(a, b) for a, b in zip(p, star)]
            assert np.all(np.abs(sums - 2.0 * math.pi * w) <= ANGLE_SUM_TOL)
            bad = np.flatnonzero(w != 1)
            assert res.violations == [
                ("omega2_winding", lattice.site_of_index(int(i), cfg.N), int(w[i])) for i in bad
            ]
            assert res.ok == bool(np.all(np.abs(sums - 2.0 * math.pi) <= ANGLE_SUM_TOL))
            counted += 1
        assert counted > 50

    def test_standard_stars_put_vertices_on_the_line_through_the_centre(self):
        """Horizontal bonds have exactly ``e.y == 0``, so the half-open
        crossing rule decides the standard state's winding."""
        cfg = standard_config(4, 1.05, 0.1)
        p, star = _stars(cfg)
        assert np.all(np.any(star[..., 1] == p[:, None, 1], axis=1))
        assert check_omega2_fast(cfg).ok


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
    """:func:`check_omega3` without its short-circuit."""
    cross = cfg.crosses
    bad = np.flatnonzero(~(cross > 0.0))
    tris = lattice.triangles(cfg.N)
    return C.CheckResult(bad.size == 0, [("omega3", tris[i], float(cross[i]) * (2.0 / SQRT3)) for i in bad])


def _reference_is_admissible(cfg):
    r1, r3 = _reference_omega1(cfg), _reference_omega3(cfg)
    if not r3.ok:
        r2 = C.CheckResult(False, [("omega2_skipped", "omega3 failed")])
    elif r1.ok and (1.0 + cfg.epsilon) ** 2 < kernels.LEAN_HI2:
        r2 = C.CheckResult(True)
    else:
        r2 = check_omega2_fast(cfg)
    return C.AdmissibilityReport(r1.ok, r2.ok, r3.ok, r1.violations + r3.violations + r2.violations)


def _non_finite_states():
    for N in (2, 4):
        cfg = standard_config(N, 1.05, 0.1)
        for value in ((math.nan, 0.3), (0.3, math.nan), (math.inf, 0.3), (-math.inf, math.nan)):
            yield _with_site_value(cfg, N + 1, value)


class TestShortCircuitedChecks:
    """``check_omega1`` and ``check_omega3`` settle a passing state from the
    extremes alone; the reports must be those of the full violation scan."""

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

    def test_nan_bond_is_reported(self):
        cfg = _with_site_value(standard_config(2, 1.05, 0.1), 3, (math.nan, 0.0))
        res = check_omega1(cfg)
        assert not res.ok and all(math.isnan(v[2]) for v in res.violations)


class TestOracleDegenerateTiledCopies:
    """The oracle's degenerate pre-pass checks only the centre copies.

    A tiled copy can round to collinear where its centre copy does not;
    the oracle stays clear of ``DegenerateTriangleError`` only because no
    such copy has passed the box filter into a candidate pair.
    """

    @pytest.mark.parametrize("n", [6, 8])
    def test_degenerate_tiled_copies_never_reach_the_scalar_predicate(self, monkeypatch, n):
        cfg = counterexamples.folded_counterexamples(4, 1.05, 0.1)[n]
        ii, jj, kk, tiled = C._oracle_candidates(cfg)
        sign = np.array([[geometry.orient_sign(*tri) for tri in copies] for copies in tiled])
        centre = SHIFTS.index((0, 0))
        # Tiled copies that round to sign 0 exist, while every centre copy passes the pre-pass.
        degenerate = {(int(k), int(j)) for k, j in np.argwhere(sign == 0)}
        assert degenerate and all(k != centre for k, _ in degenerate)
        assert np.all(sign[centre] != 0)
        # No candidate pair involves one.
        pairs = set(zip(kk.tolist(), jj.tolist()))
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

    def test_rejects_gauge_violation(self):
        record = json.loads(to_json(standard_config(2, 1.05, 0.1)))
        record["positions"][0] = 0.5
        with pytest.raises(ValueError):
            from_json(json.dumps(record))
