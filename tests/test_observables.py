import math

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import geometry, lattice, observables as O
from hardlattice.configuration import LAMBDA0, Configuration, standard_config
from hardlattice.lattice import NEIGHBOR_OFFSETS, TriangleRef, embed

SQRT2 = math.sqrt(2.0)


class TestOrderParameter:
    def test_standard_against_scaled_target_vanishes(self):
        cfg = standard_config(4, 1.05, 0.1)
        t = lattice.triangle_index(TriangleRef((1, 2), lattice.UP), cfg.N)
        assert O.per_triangle_order_parameters(cfg, 1.05 * np.eye(2))[t] < 1e-28

    def test_standard_against_identity(self):
        cfg = standard_config(4, 1.05, 0.1)
        t = lattice.triangle_index(TriangleRef((0, 0), lattice.DOWN), cfg.N)
        assert abs(O.per_triangle_order_parameters(cfg, np.eye(2))[t] - 2 * 0.05**2) < 1e-15

    def test_triangle_inequality_bound_on_samples(self, sample_snapshots):
        # |A - Id|^2 <= |A - l*Id|^2 + c3^2 (l-1)^2 + 2 c3 (l-1) |A - l*Id|
        for snap in sample_snapshots[::10]:
            a = O.per_triangle_order_parameters(snap, np.eye(2))
            b = O.per_triangle_order_parameters(snap, snap.l * np.eye(2))
            bound = b + 2.0 * (snap.l - 1.0) ** 2 + 2.0 * SQRT2 * (snap.l - 1.0) * np.sqrt(b)
            assert np.all(a <= bound + 1e-12)


class TestBondVector:
    def test_standard_first_direction(self):
        cfg = standard_config(4, 1.05, 0.1)
        assert np.allclose(O.bond_vector(cfg, (0, 0), (1, 0)), (1.05, 0.0), atol=1e-15)

    def test_all_offsets_scale_the_embedding(self):
        cfg = standard_config(4, 1.03, 0.1)
        for z in NEIGHBOR_OFFSETS:
            assert np.allclose(O.bond_vector(cfg, (2, 3), z), 1.03 * embed(z), atol=1e-12)

    def test_rejects_non_neighbor_offset(self):
        cfg = standard_config(2, 1.05, 0.1)
        with pytest.raises(ValueError):
            O.bond_vector(cfg, (0, 0), (2, 0))
        with pytest.raises(ValueError):
            O.bond_vector(cfg, (0, 0), (1, 1))

    def test_norm_inside_window_on_admissible_samples(self, sample_snapshots):
        for snap in sample_snapshots[::25]:
            for z in NEIGHBOR_OFFSETS:
                for x in [(0, 0), (1, 3), (2, 2)]:
                    r = float(np.hypot(*O.bond_vector(snap, x, z)))
                    assert 1.0 < r < 1.0 + snap.epsilon


class TestSideDeviationSum:
    def test_standard_closed_form(self):
        N, l = 4, 1.05
        cfg = standard_config(N, l, 0.1)
        assert abs(O.side_deviation_sum(cfg) - 3 * N * N * (l - 1) ** 2) < 1e-12

    def test_positive_and_bounded_on_samples(self, sample_snapshots):
        for snap in sample_snapshots[::10]:
            s = O.side_deviation_sum(snap)
            assert 0.0 < s < 3 * snap.N**2 * snap.epsilon**2


class TestL2GradientDeviation:
    def test_standard_vanishes_at_scaled_target(self):
        cfg = standard_config(4, 1.05, 0.1)
        assert O.l2_gradient_deviation(cfg, 1.05 * np.eye(2)) < 1e-26

    def test_equals_cell_area_times_order_parameter_sum(self, sample_snapshots):
        snap = sample_snapshots[0]
        target = snap.l * np.eye(2)
        direct = O.l2_gradient_deviation(snap, target)
        per_tri = O.per_triangle_order_parameters(snap, target)
        assert abs(direct - LAMBDA0 * per_tri.sum()) < 1e-14
        # identically distributed cells make this |T| * cell_area * mean
        assert abs(direct - 2 * snap.N**2 * LAMBDA0 * per_tri.mean()) < 1e-12

    def test_pythagoras_shift_to_any_rotation(self, sample_snapshots):
        for snap in sample_snapshots[::25]:
            theta = geometry.polar_rotation(O.mean_gradient(snap))
            R = geometry.rotation(theta)
            lhs = O.l2_gradient_deviation(snap, R)
            base = O.l2_gradient_deviation(snap, snap.l * np.eye(2))
            shift = 2 * snap.N**2 * LAMBDA0 * float(np.sum((snap.l * np.eye(2) - R) ** 2))
            assert abs(lhs - base - shift) <= 1e-9 * max(lhs, 1e-30)


class TestAreaDifferenceSum:
    def test_standard_closed_form(self):
        N, l = 4, 1.05
        cfg = standard_config(N, l, 0.1)
        expected = 2 * N * N * (math.sqrt(3) / 4) * (l * l - 1)
        assert abs(O.area_difference_sum(cfg) - expected) < 1e-12

    def test_constant_across_admissible_samples(self, sample_snapshots):
        closed = O.area_difference_closed_form(4, 1.05)
        for snap in sample_snapshots:
            assert abs(O.area_difference_sum(snap) - closed) <= 1e-9 * closed

    def test_vanishes_as_side_length_approaches_one(self):
        assert O.area_difference_closed_form(4, 1.0) == 0.0


class TestMeanGradient:
    def test_standard_is_exactly_scaled_identity(self):
        cfg = standard_config(4, 1.05, 0.1)
        assert geometry.frobenius(O.mean_gradient(cfg) - 1.05 * np.eye(2)) < 1e-14

    def test_samples_within_tolerance(self, sample_snapshots):
        for snap in sample_snapshots:
            err = geometry.frobenius(O.mean_gradient(snap) - snap.l * np.eye(2))
            assert err <= 1e-10

    def test_holds_for_inadmissible_periodic_configurations(self, rng):
        # the identity needs only the periodic boundary rule, not admissibility
        N, l = 4, 1.05
        pos = rng.uniform(-3.0, 8.0, size=(N * N, 2))
        pos[0] = 0.0
        cfg = Configuration(N, l, 0.1, pos)
        assert geometry.frobenius(O.mean_gradient(cfg) - l * np.eye(2)) <= 1e-10


class TestObserveAndIdentitySuite:
    def test_identity_suite_green_on_samples(self, sample_snapshots):
        for snap in sample_snapshots:
            rep = O.identity_suite(snap)
            assert rep.ok, rep


def _blocks(N, sweeps=150, seed=0):
    blocks = []
    params = hl.SamplerParams(sweeps=sweeps, burn_in=10, thin=1, seed=seed, scan_order="random")
    hl.run_chain(N, 1.05, 0.1, params, blocks.append)
    return blocks


class TestBlockObservables:
    @pytest.mark.parametrize("N", [2, 3, 4, 12])
    def test_identity_suite_on_block_snapshots_equals_fresh_snapshots(self, N):
        # a block snapshot reads pre-filled stacked geometry; its report
        # must be bitwise the one a freshly built snapshot gives
        for block in _blocks(N, seed=N):
            for snap in block.snapshots:
                fresh = Configuration(N, snap.l, snap.epsilon, snap.positions)
                rep = O.identity_suite(snap)
                assert rep == O.identity_suite(fresh)
                assert rep.ok

    @pytest.mark.parametrize("N", [2, 3, 4, 12])
    def test_block_order_parameters_equal_per_snapshot_means(self, N):
        for block in _blocks(N, seed=N + 1):
            for target in (np.eye(2), 1.05 * np.eye(2)):
                got = O.block_order_parameters(block, target)
                want = [float(np.mean(O.per_triangle_order_parameters(s, target)))
                        for s in block.snapshots]
                assert got.tolist() == want


@pytest.mark.slow
def test_order_parameter_samples_exchangeable_across_triangles():
    scipy_stats = pytest.importorskip("scipy.stats")
    series = {t: [] for t in (0, 1, 3, 6)}

    def observer(block):
        for cfg in block.snapshots:
            op = O.per_triangle_order_parameters(cfg, cfg.l * np.eye(2))
            for t in series:
                series[t].append(float(op[t]))
        return None

    params = hl.SamplerParams(
        sweeps=1_200_000, burn_in=5000, thin=120, seed=31, proposal_radius=0.025
    )
    hl.run_chain(2, 1.05, 0.1, params, observer)
    keys = list(series)
    assert len(series[keys[0]]) == 10_000
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            stat = scipy_stats.ks_2samp(series[keys[i]], series[keys[j]])
            assert stat.pvalue > 1e-3, (keys[i], keys[j], stat)
