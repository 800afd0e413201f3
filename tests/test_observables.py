import math

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import configuration as C, geometry, lattice, observables as O
from hardlattice.configuration import LAMBDA0, Configuration, standard_config
from hardlattice.lattice import NEIGHBOR_OFFSETS, TriangleRef, embed
from hardlattice.sampler import block_size

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

    def test_square_roots_of_the_cached_squares_match_hypot(self, sample_snapshots):
        # the sum reads cfg.bond_squares; lengths by hypot of the bond
        # vectors differ from their square roots only in the last bits
        for snap in sample_snapshots[::10]:
            d = np.hypot(*C._bond_vectors(snap.N, snap.l, snap.positions)) - 1.0
            assert O.side_deviation_sum(snap) == pytest.approx(float(np.sum(d * d)), rel=1e-12)


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

    @staticmethod
    def _assert_order_parameter(N, seed, field, target):
        # scan's order parameter: the record's deviation sum over the
        # triangle count, on block snapshots and on fresh lone ones
        T = 2 * N * N
        for block in _blocks(N, seed=seed):
            for snap in block.snapshots:
                fresh = Configuration(N, snap.l, snap.epsilon, snap.positions)
                want = float(np.mean(O.per_triangle_order_parameters(snap, target))).hex()
                assert (getattr(snap.reductions, field) / T).hex() == want
                assert (getattr(fresh.reductions, field) / T).hex() == want

    @pytest.mark.parametrize("N", [2, 3, 4, 12])
    def test_record_op_id_is_the_per_snapshot_mean(self, N):
        self._assert_order_parameter(N, N + 1, "id_deviation", np.eye(2))

    @pytest.mark.parametrize("N", [2, 3, 4, 12])
    def test_record_op_lid_is_the_per_snapshot_mean(self, N):
        # the same sum the identity suite reads for its Pythagoras split
        self._assert_order_parameter(N, N + 2, "lid_deviation", 1.05 * np.eye(2))


def _reference_identity_suite(cfg):
    """The identity suite as the plain composition of its parts, the oracle of the lean one."""
    mean = O.mean_gradient(cfg)
    mg_err = geometry.frobenius(mean - cfg.l * np.eye(2))
    area = O.area_difference_sum(cfg)
    closed = O.area_difference_closed_form(cfg.N, cfg.l)
    area_err = abs(area - closed) / abs(closed)
    R = geometry.rotation(geometry.polar_rotation(mean))
    lhs = O.l2_gradient_deviation(cfg, R)
    a = O.l2_gradient_deviation(cfg, cfg.l * np.eye(2))
    b = 2.0 * cfg.N * cfg.N * LAMBDA0 * float(np.sum((cfg.l * np.eye(2) - R) ** 2))
    pyth_err = abs(lhs - a - b) / max(lhs, 1e-300)
    return O.IdentityReport(mg_err, area_err, pyth_err)


def _block_snapshots(N, epsilon, sweeps, seed):
    blocks = []
    params = hl.SamplerParams(sweeps=sweeps, burn_in=10, thin=1, seed=seed, scan_order="random")
    hl.run_chain(N, 1.0 + epsilon / 2.0, epsilon, params, blocks.append)
    return [snap for block in blocks for snap in block.snapshots]


class TestLeanIdentitySuite:
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 12, 32])
    def test_equals_reference_on_block_and_fresh_snapshots(self, N, epsilon):
        snaps = _block_snapshots(N, epsilon, sweeps=80 if N <= 8 else 12, seed=N)
        for snap in snaps:
            fresh = Configuration(N, snap.l, snap.epsilon, snap.positions)
            want = _reference_identity_suite(fresh)
            assert O.identity_suite(snap) == want
            assert O.identity_suite(fresh) == want

    @pytest.mark.parametrize("N", [2, 3, 4, 7, 12, 32])
    def test_equals_reference_on_standard_states(self, N):
        for l, epsilon in ((1.0001, 0.1), (1.05, 0.1), (1.3, 0.5), (1.9, 1.0)):
            cfg = standard_config(N, l, epsilon)
            assert O.identity_suite(cfg) == _reference_identity_suite(cfg)

    def test_equals_reference_on_inadmissible_periodic_states(self, rng):
        for N in (2, 4, 6):
            for _ in range(20):
                pos = standard_config(N, 1.05, 0.1).positions + rng.uniform(-0.4, 0.4, (N * N, 2))
                pos[0] = 0.0
                cfg = Configuration(N, 1.05, 0.1, pos)
                assert O.identity_suite(cfg) == _reference_identity_suite(cfg)

    def test_undefined_polar_rotation_raises_as_the_reference_does(self):
        # The boundary rule pins the mean gradient at l * Id, so only a
        # snapshot whose cached gradients are replaced by a stand-in
        # reaches the equidistant case; its reductions record is built
        # from the stand-in on first use.
        G = np.tile(np.array([[1.0, 0.0], [0.0, -1.0]]), (8, 1, 1))
        for suite in (O.identity_suite, _reference_identity_suite):
            cfg = standard_config(2, 1.05, 0.1)
            vars(cfg)["gradients"] = G
            with pytest.raises(ValueError, match="equidistant"):
                suite(cfg)
            r = cfg.reductions
            assert r.rotation is None and math.isnan(r.rotation_deviation)
            assert r.lid_deviation == pytest.approx(8 * (0.05**2 + 2.05**2))
            assert r.id_deviation == 32.0


class TestLeanSuiteNumpyEqualities:
    """:func:`observables.identity_suite` replaces three numpy calls of the
    reference composition with cheaper ones that must give the same bits.
    These are properties of numpy's summation order on the CPU that runs
    the tests, not of IEEE arithmetic, so they are pinned here."""

    SIZES = [8, 18, 32, 50, 128, 200, 512, 1152, 2048]

    @staticmethod
    def _stack(rng, T):
        # gradient-like entries: l * Id plus perturbations of several scales
        G = 1.05 * np.eye(2) + rng.uniform(-0.3, 0.3, (T, 2, 2)) * 10.0 ** rng.integers(-6, 1, (T, 1, 1))
        block = np.stack([G, G[::-1]])  # a row of a stacked block is a view
        return [G, block[1]]

    @staticmethod
    def _assert_bitwise(got, want, what):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, f"{what} differs in {bad.size} of {want.size} values"

    @pytest.mark.parametrize("T", SIZES)
    def test_reduce_over_triangles_divided_is_mean(self, rng, T):
        for _ in range(20):
            for G in self._stack(rng, T):
                self._assert_bitwise(np.add.reduce(G, axis=0) / T, G.mean(axis=0), "mean")

    @pytest.mark.parametrize("T", SIZES)
    def test_trailing_axes_reduce_of_a_stack_is_the_reduce_of_each_half(self, rng, T):
        for _ in range(20):
            G = self._stack(rng, T)[0]
            targets = np.array([geometry.rotation(rng.uniform(-0.1, 0.1)), 1.05 * np.eye(2)])
            diff = G - targets[:, None]
            stacked = np.add.reduce(diff * diff, axis=(-2, -1))
            for k in range(2):
                half = G - targets[k]
                self._assert_bitwise(stacked[k], np.sum(half * half, axis=(-2, -1)), "stack")
                self._assert_bitwise(np.add.reduce(stacked[k]), np.sum(stacked[k]), "row sum")

    @staticmethod
    def _gradient_block(rng, B, T):
        return np.stack([TestLeanSuiteNumpyEqualities._stack(rng, T)[0] for _ in range(B)])

    @pytest.mark.parametrize("B", [1, 7, 64])
    @pytest.mark.parametrize("T", SIZES)
    def test_sum_over_axis_1_of_a_block_is_each_snapshots_mean(self, rng, B, T):
        # configuration._reductions' mean gradient: one reduction over the
        # triangle axis of (B, T, 2, 2) against axis 0 of each (T, 2, 2)
        # snapshot
        for _ in range(3):
            G = self._gradient_block(rng, B, T)
            means = np.add.reduce(G, axis=1) / T
            for b in range(B):
                self._assert_bitwise(means[b], np.add.reduce(G[b], axis=0) / T, "block sum")
                self._assert_bitwise(means[b], G[b].mean(axis=0), "block mean")

    @pytest.mark.parametrize("B", [1, 7, 64])
    @pytest.mark.parametrize("T", SIZES)
    def test_block_deviations_are_each_snapshots(self, rng, B, T):
        # configuration._reductions' deviation pass: one pass over (4, B, T)
        # component planes against each snapshot's three targets, the
        # 2x2 sums added in row-major order, then summed over the
        # triangles in one reduction, against np.sum of each snapshot's
        # deviations
        G = self._gradient_block(rng, B, T)
        targets = np.stack([
            np.array([geometry.rotation(rng.uniform(-0.1, 0.1)), 1.05 * np.eye(2), np.eye(2)])
            for _ in range(B)
        ])
        per_triangle = C._deviation_planes(G, targets)
        assert per_triangle.shape == (3, B, T) and per_triangle.flags.c_contiguous
        sums = C._triangle_sums(per_triangle)
        for b in range(B):
            for k in range(3):
                half = G[b] - targets[b, k]
                want = np.sum(half * half, axis=(-2, -1))
                self._assert_bitwise(per_triangle[k, b], want, "block deviations")
                self._assert_bitwise(sums[k, b], np.sum(want), "row sum")

    @pytest.mark.parametrize("N", [2, 4, 12, 32, 48, 96])
    def test_deviation_planes_are_the_2x2_helper_at_every_size(self, rng, N):
        # against configuration._squared_deviations, the row-major 2x2
        # helper, on sampled-like gradients of a block whose row 1 has a
        # NaN corner and whose row 2 has no nearest rotation (NaN target,
        # as configuration._reductions passes it)
        B = 3
        base = standard_config(N, 1.05, 0.1).positions
        pos = base + rng.uniform(-0.02, 0.02, (B,) + base.shape)
        pos[:, 0] = 0.0
        pos[1, N * N - 1, 0] = math.nan
        G = C.triangle_gradients(N, C.image_triangle_corners(N, 1.05, pos))
        targets = np.array([
            [geometry.rotation(0.01), 1.05 * np.eye(2), np.eye(2)],
            [geometry.rotation(-0.02), 1.05 * np.eye(2), np.eye(2)],
            [np.full((2, 2), math.nan), 1.05 * np.eye(2), np.eye(2)],
        ])
        planes = C._deviation_planes(G, targets)
        sums = C._triangle_sums(planes)
        for b in range(B):
            for k in range(3):
                want = C._squared_deviations(G[b], targets[b, k])
                self._assert_bitwise(planes[k, b], want, f"plane {k} of row {b}")
                self._assert_bitwise(sums[k, b], np.add.reduce(want), f"sum {k} of row {b}")
        assert np.isnan(planes[:, 1]).any() and not np.isnan(planes[:, 0]).any()
        assert np.isnan(planes[0, 2]).all() and not np.isnan(planes[1:, 2]).any()

    @pytest.mark.parametrize("N", [48, 96])
    def test_reductions_of_a_block_with_nan_and_equidistant_rows(self, N):
        # the whole record at the sizes of the N-curve: a sampled row, a
        # row with a NaN site, and a stand-in row whose mean gradient has
        # no nearest rotation, each against its own lone-snapshot pass
        T = 2 * N * N
        base = standard_config(N, 1.05, 0.1)
        rng = np.random.default_rng(N)
        pos = base.positions + rng.uniform(-0.02, 0.02, (2,) + base.positions.shape)
        pos[:, 0] = 0.0
        pos[1, 5, 1] = math.nan
        block = C.snapshot_block(N, 1.05, 0.1, pos)
        G = np.concatenate([np.stack([s.gradients for s in block.snapshots]),
                            np.tile(np.array([[1.0, 0.0], [0.0, -1.0]]), (1, T, 1, 1))])
        d2 = np.concatenate([np.stack([s.bond_squares for s in block.snapshots]), np.ones((1, 3 * N * N))])
        crosses = np.concatenate([np.stack([s.crosses for s in block.snapshots]), np.ones((1, T))])
        records = C._reductions(1.05, d2, crosses, G)
        assert records[2].rotation is None and math.isnan(records[2].rotation_deviation)
        assert math.isnan(records[1].lid_deviation) and not math.isnan(records[0].lid_deviation)
        for b, record in enumerate(records):
            alone = C._reductions(1.05, d2[b:b + 1], crosses[b:b + 1], G[b:b + 1])[0]
            assert repr(record) == repr(alone)
            targets = [1.05 * np.eye(2), np.eye(2)]
            if record.rotation is not None:
                c, s = record.rotation
                targets.insert(0, np.array([[c, -s], [s, c]]))
            got = [record.lid_deviation, record.id_deviation]
            if record.rotation is not None:
                got.insert(0, record.rotation_deviation)
            want = [float(np.add.reduce(C._squared_deviations(G[b], t))) for t in targets]
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 7, 8, 12, 16, 23, 32, 48, 64, 96])
    def test_triangle_sums_are_each_rows_own_sum(self, rng, N):
        # configuration._triangle_sums: one reduction per block of (B, T)
        # and (B, 3, T) rows, C-ordered or column-major as corner_crosses
        # of a block is, against each row's own 1-D np.add.reduce
        T = 2 * N * N
        for B in sorted({1, 2, 7, block_size(N), 64}):
            for shape in ((B, T), (B, 3, T)):
                x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
                for a in (x, np.asfortranarray(x)):
                    want = [np.add.reduce(a[i]) for i in np.ndindex(shape[:-1])]
                    self._assert_bitwise(C._triangle_sums(a).ravel(), want, f"{a.strides} sums")

    @pytest.mark.parametrize("N", [2, 4, 12])
    def test_area_sums_of_a_sampled_block_are_each_snapshots(self, N):
        block = _blocks(N, seed=N + 3)[0]
        corners = C.image_triangle_corners(N, 1.05, block.positions)
        areas = 0.5 * C.corner_crosses(corners) - LAMBDA0
        want = [np.add.reduce(0.5 * s.crosses - LAMBDA0) for s in block.snapshots]
        self._assert_bitwise(C._triangle_sums(areas), want, "area sums")

    def test_sum_of_a_2x2_adds_in_row_major_order(self, rng):
        m = rng.uniform(-1.0, 1.0, (200_000, 2, 2)) * 10.0 ** rng.integers(-8, 9, (200_000, 2, 2))
        sq = m * m
        want = ((sq[:, 0, 0] + sq[:, 0, 1]) + sq[:, 1, 0]) + sq[:, 1, 1]
        got = np.array([np.sum(x) for x in sq[:2000]])
        self._assert_bitwise(got, want[:2000], "2x2 sum")
        self._assert_bitwise(np.sum(sq, axis=(-2, -1)), want, "stacked 2x2 sums")


@pytest.mark.slow
# at 10,000 samples per series scipy falls back from the exact KS method
@pytest.mark.filterwarnings(
    "ignore:ks_2samp. Exact calculation unsuccessful. Switching to method=asymp.:RuntimeWarning"
)
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
