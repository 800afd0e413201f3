import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import analysis as A
from hardlattice import configuration as C
from hardlattice import geometry
from hardlattice import observables as O
from hardlattice.configuration import standard_config
from hardlattice.sampler import SamplerParams, block_size

SQRT3 = math.sqrt(3.0)
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _margin_objective(a1, a2, a3):
    lam = geometry.heron_area(a1, a2, a3)
    dev = (a1 - 1.0) + (a2 - 1.0) + (a3 - 1.0)
    return lam - SQRT3 / 4.0 - dev / (4.0 * SQRT3)


class TestEpsilonCertification:
    def test_objective_vanishes_at_unit_corner(self):
        assert _margin_objective(1.0, 1.0, 1.0) == 0.0

    def test_default_window_certifies(self):
        margin = A.epsilon_margin(0.1, 64)
        assert margin > 0.0
        cert = A.certify_epsilon(0.1, 64)
        assert cert.certified
        assert cert.lipschitz_slack > 0.0
        assert cert.grid_margin > cert.margin

    def test_wide_window_fails_with_negative_grid_margin(self):
        margin = A.epsilon_margin(1.0, 64)
        assert margin <= 0.0
        assert not A.certify_epsilon(1.0, 64).certified

    def test_certified_margin_is_a_true_lower_bound_on_random_triples(self, rng):
        cert = A.certify_epsilon(0.1, 64)
        for _ in range(20_000):
            a = 1.0 + 0.1 * rng.random(3)
            dev = float(np.sum(a - 1.0))
            if dev == 0.0:
                continue
            q = _margin_objective(*a) / dev
            assert q >= cert.margin - 1e-12

    def test_margin_ladder_monotone_nonincreasing(self):
        margins = [A.certify_epsilon(e, 64).grid_margin for e in (0.05, 0.1, 0.2)]
        assert margins[0] >= margins[1] >= margins[2]

    def test_grid_too_coarse_raises(self):
        with pytest.raises(A.CertificationError):
            A.epsilon_margin(0.2, 64)

    def test_finer_grid_certifies_wider_window(self):
        assert A.epsilon_margin(0.2, 512) > 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            A.epsilon_margin(0.1, 32)

    def test_hessian_bound_unavailable_at_degenerate_window(self):
        with pytest.raises(A.CertificationError):
            A._hessian_bound(1.0)

    def test_hessian_bound_dominates_sampled_hessians(self, rng):
        # central finite differences of the area function stay below the
        # interval bound everywhere in the box
        eps = 0.1
        bound = A._hessian_bound(eps)
        h = 1e-5
        for _ in range(200):
            a = 1.0 + eps * rng.random(3)
            H = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    aij = a.copy()

                    def f(da_i, da_j, aij=aij, i=i, j=j):
                        b = aij.copy()
                        b[i] += da_i
                        b[j] += da_j
                        return geometry.heron_area(*b)

                    H[i, j] = (
                        f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)
                    ) / (4 * h * h)
            assert np.sqrt(np.sum(H * H)) <= bound + 1e-3


class TestSquaredBound:
    def test_zero_violations_on_certified_window(self):
        rep = A.verify_squared_bound(0.1, n_samples=100_000, seed=0)
        assert rep.ok
        assert rep.n_violations == 0
        assert rep.scalar_ok
        assert rep.min_margin > 0.0

    def test_boundary_triple_holds(self):
        eps = 0.1
        a = (1.0 + eps, 1.0 + eps, 1.0 + eps)
        lhs = sum((x - 1.0) ** 2 for x in a)
        rhs = 4.0 * SQRT3 * eps * (geometry.heron_area(*a) - SQRT3 / 4.0)
        assert lhs <= rhs

    def test_both_sides_vanish_at_unit_corner(self):
        a = (1.0 + 1e-12, 1.0 + 1e-12, 1.0 + 1e-12)
        lhs = sum((x - 1.0) ** 2 for x in a)
        rhs = 4.0 * SQRT3 * 0.1 * (geometry.heron_area(*a) - SQRT3 / 4.0)
        assert lhs < 1e-20 and abs(rhs) < 1e-10

    def test_requires_certified_window(self):
        with pytest.raises(A.CertificationError):
            A.verify_squared_bound(1.0, n_samples=10)


class TestRigidityConstant:
    def test_conformal_scaling_pins_ratio_two(self):
        # rotations of l*Id deviate by l-1 on every direction and sit at
        # squared distance 2(l-1)^2, so the supremum is at least 2
        l = 1.04
        A_mat = geometry.rotation(0.7) @ (l * np.eye(2))
        dist2 = geometry.dist_so2(A_mat) ** 2
        dev = abs(l - 1.0)
        assert abs(dist2 / dev**2 - 2.0) < 1e-9

    def test_estimate_exceeds_two_and_is_finite(self):
        est = A.estimate_rigidity_constant(n_samples=100_000, deviation_cap=0.1, seed=0)
        assert est.n_samples == 100_000
        assert 2.0 <= est.c_hat < 50.0

    def test_stable_across_seeds(self):
        vals = [
            A.estimate_rigidity_constant(n_samples=200_000, deviation_cap=0.1, seed=s).c_hat
            for s in (0, 1, 2)
        ]
        assert (max(vals) - min(vals)) / min(vals) < 0.05

    def test_monotone_in_cap(self):
        small = A.estimate_rigidity_constant(n_samples=100_000, deviation_cap=0.05, seed=0).c_hat
        large = A.estimate_rigidity_constant(n_samples=100_000, deviation_cap=0.2, seed=0).c_hat
        assert small <= large

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            A.estimate_rigidity_constant(n_samples=10, deviation_cap=0.0)

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, "1000", True])
    def test_rejects_bad_sample_count(self, n_samples):
        with pytest.raises(ValueError):
            A.estimate_rigidity_constant(n_samples=n_samples, deviation_cap=0.1)

    @pytest.mark.parametrize("cap", [0.0, -0.1, 1.5, "0.1", math.nan])
    def test_rejects_cap_outside_unit_interval(self, cap):
        with pytest.raises(ValueError):
            A.check_deviation_cap(cap)

    def test_peak_memory_stays_small(self):
        # the verify default: one 200k-candidate draw, processed in
        # sub-blocks; the whole-batch temporaries peaked near 55 MB
        tracemalloc.start()
        try:
            A.estimate_rigidity_constant(n_samples=200_000, deviation_cap=0.1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


def _reference_rigidity_constant(n_samples, deviation_cap, seed):
    """The whole-batch einsum estimator, kept as a bit-for-bit reference."""
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.eye(2)
    c_hat = 0.0
    kept = 0
    while kept < n_samples:
        n = 200_000
        E = rng.uniform(-2.0 * deviation_cap, 2.0 * deviation_cap, size=(n, 2, 2))
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        c, s = np.cos(theta), np.sin(theta)
        R = np.empty((n, 2, 2))
        R[:, 0, 0] = c
        R[:, 0, 1] = -s
        R[:, 1, 0] = s
        R[:, 1, 1] = c
        A_ = R @ (eye + E)
        det = A_[:, 0, 0] * A_[:, 1, 1] - A_[:, 0, 1] * A_[:, 1, 0]
        Av = np.einsum("nij,kj->nki", A_, A._V_DIRECTIONS)
        dev = np.abs(np.hypot(Av[..., 0], Av[..., 1]) - 1.0)
        maxdev = dev.max(axis=1)
        idx = np.flatnonzero((det > 0.0) & (maxdev <= deviation_cap) & (maxdev > 0.0))
        if kept + idx.size > n_samples:
            idx = idx[: n_samples - kept]
        if idx.size:
            ratios = geometry.dist_so2_batch(A_[idx]) ** 2 / maxdev[idx] ** 2
            c_hat = max(c_hat, float(ratios.max()))
            kept += idx.size
    return c_hat, kept


def _reference_dist_so2_agreement(n_matrices, n_grid, seed):
    """One draw and one grid search per matrix."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    done = 0
    while done < n_matrices:
        M = rng.standard_normal((2, 2))
        if M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] <= 0.0:
            continue
        diff = abs(geometry.dist_so2(M) - geometry.dist_so2_bruteforce(M, n_grid))
        worst = max(worst, diff)
        done += 1
    return worst


def _reference_heron_cross_agreement(n_triangles, seed, jitter=0.05):
    """One draw and numpy-scalar arithmetic per triangle."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    worst = 0.0
    for _ in range(n_triangles):
        pts = base + jitter * (2.0 * rng.random((3, 2)) - 1.0)
        a1 = math.hypot(*(pts[1] - pts[0]))
        a2 = math.hypot(*(pts[2] - pts[1]))
        a3 = math.hypot(*(pts[0] - pts[2]))
        h = geometry.heron_area(a1, a2, a3)
        c = abs(geometry.signed_area(pts[0], pts[1], pts[2]))
        worst = max(worst, abs(h - c) / c)
    return worst


class TestSampledChecksMatchReference:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("cap", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("n_samples", [30_001, 50_000])
    def test_rigidity_constant_bitwise(self, n_samples, cap, seed):
        # 30_001 stops in the middle of a sub-block
        est = A.estimate_rigidity_constant(n_samples, cap, seed=seed)
        c_hat, kept = _reference_rigidity_constant(n_samples, cap, seed)
        assert est.c_hat == c_hat
        assert est.n_samples == kept == n_samples

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_dist_so2_agreement_bitwise(self, seed):
        assert A.dist_so2_agreement(500, 3600, seed=seed) == _reference_dist_so2_agreement(
            500, 3600, seed
        )

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_heron_cross_agreement_bitwise(self, seed):
        # more triangles than one draw block
        n = A._HERON_DRAW + 900
        assert A.heron_cross_agreement(n, seed=seed) == _reference_heron_cross_agreement(n, seed)


@pytest.fixture(scope="module")
def c_hat():
    return A.estimate_rigidity_constant(n_samples=300_000, deviation_cap=0.1, seed=0).c_hat


class TestEstimateChain:
    def test_standard_config_closed_forms(self, c_hat):
        N, l, eps = 4, 1.05, 0.1
        cfg = standard_config(N, l, eps)
        rep = A.check_estimate_chain(cfg, c_hat, A.identity_suite(cfg))
        assert rep.ok
        # the side-sum vs area check reduces to 3N^2(l-1)^2 <= 6N^2 eps (l^2-1)
        expected = 4.0 * SQRT3 * eps * (2 * N * N * (SQRT3 / 4) * (l * l - 1)) - 3 * N * N * (
            l - 1
        ) ** 2
        assert abs(rep.side_sum_vs_area_margin - expected) < 1e-9

    def test_passes_on_samples(self, sample_snapshots, c_hat):
        for snap in sample_snapshots[::5]:
            rep = A.check_estimate_chain(snap, c_hat, A.identity_suite(snap))
            assert rep.ok, rep

    def test_passes_near_window_edge(self, c_hat):
        # push bonds toward the upper edge of the window
        res = hl.run_chain(2, 1.09, 0.1, SamplerParams(sweeps=400, burn_in=100, thin=2, seed=5))
        for snap in res.records[::10]:
            assert A.check_estimate_chain(snap, c_hat, A.identity_suite(snap)).ok


class TestBatchMeans:
    def test_iid_standard_error(self, rng):
        x = rng.standard_normal(20_000)
        mean, se = A.batch_means(x)
        assert abs(mean) < 5 * se
        assert 0.5 / math.sqrt(20_000) < se < 2.0 / math.sqrt(20_000)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            A.batch_means(np.arange(10.0))

    def test_autocorrelation_time_of_iid_series_is_small(self, rng):
        tau = A.integrated_autocorrelation_time(rng.standard_normal(5000))
        assert 0.5 < tau < 2.0


class TestAgreementOracles:
    def test_dist_so2_agreement_small(self):
        assert A.dist_so2_agreement(500, 3600, seed=1) <= 2e-3

    def test_heron_cross_agreement_small(self):
        assert A.heron_cross_agreement(2000, seed=1) <= 1e-12

    @pytest.mark.parametrize(
        "call",
        [
            lambda: A.dist_so2_agreement(0, 3600),
            lambda: A.dist_so2_agreement(10, 4),
            lambda: A.dist_so2_agreement(10, 3600.0),
            lambda: A.heron_cross_agreement(0),
            lambda: A.heron_cross_agreement(2.5),
            lambda: A.verify_squared_bound(0.1, n_samples=0),
        ],
        ids=["dist-zero", "dist-grid-4", "dist-grid-float", "heron-zero", "heron-float", "sq-zero"],
    )
    def test_reject_bad_sizes(self, call):
        with pytest.raises(ValueError):
            call()


class TestScan:
    def test_smoke_grid(self):
        params = SamplerParams(sweeps=600, burn_in=100, thin=5, seed=0)
        records = A.scan([2, 4], [1.01, 1.05], 0.1, params, master_seed=7)
        assert len(records) == 4
        assert [(r.N, r.l) for r in records] == [(2, 1.01), (2, 1.05), (4, 1.01), (4, 1.05)]
        for rec in records:
            assert rec.identities_ok
            assert rec.n_samples == 120
            assert 0.0 < rec.acceptance_rate < 1.0
            assert rec.se_op_id > 0.0

    def test_deterministic_given_seed(self):
        params = SamplerParams(sweeps=600, burn_in=100, thin=5, seed=0)
        a = A.scan([2], [1.05], 0.1, params, master_seed=42)
        b = A.scan([2], [1.05], 0.1, params, master_seed=42)
        assert A.scan_csv_text(a) == A.scan_csv_text(b)

    def test_thread_count_does_not_change_results(self):
        params = SamplerParams(sweeps=600, burn_in=100, thin=5, seed=0)
        seq = A.scan([2, 4], [1.05], 0.1, params, master_seed=5, threads=1)
        par = A.scan([2, 4], [1.05], 0.1, params, master_seed=5, threads=2)
        assert A.scan_csv_text(seq) == A.scan_csv_text(par)

    def test_process_pool_is_imported_only_for_threads(self):
        # a fresh interpreter: this one may already hold the modules
        code = (
            "import sys, hardlattice.cli\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_rejects_side_length_outside_window(self):
        params = SamplerParams(sweeps=600, burn_in=0, thin=5, seed=0)
        with pytest.raises(ValueError):
            A.scan([2], [1.2], 0.1, params)

    def test_rejects_uncertified_window(self):
        params = SamplerParams(sweeps=600, burn_in=0, thin=5, seed=0)
        with pytest.raises(A.CertificationError):
            A.scan([2], [1.05], 0.2, params, certification_grid=64)

    def test_requires_enough_samples(self):
        params = SamplerParams(sweeps=100, burn_in=0, thin=5, seed=0)
        with pytest.raises(ValueError):
            A.scan([2], [1.05], 0.1, params)

    def test_grid_point_builds_geometry_once_per_block(self, monkeypatch):
        builders = ("image_triangle_corners", "triangle_gradients", "corner_crosses",
                    "bond_length_squares")
        calls = dict.fromkeys(builders, 0)
        for name in builders:

            def counted(*args, _name=name, _fn=getattr(C, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(C, name, counted)
        blocks = []

        def recorded(*args, _fn=C.snapshot_block):
            blocks.append(_fn(*args))
            return blocks[-1]

        monkeypatch.setattr(C, "snapshot_block", recorded)
        params = SamplerParams(sweeps=200, burn_in=10, thin=2, seed=0)
        rec = A.run_grid_point(2, 1.05, 0.1, params, seed=3)
        assert rec.n_samples == 100 and block_size(2) == 64
        assert [len(b.snapshots) for b in blocks] == [64, 36]
        # The chain-start admissibility check reads the corners, crosses
        # and bond lengths but not the gradients; each block builds all
        # four once, for all of its snapshots.
        assert calls == {
            "image_triangle_corners": len(blocks) + 1,
            "triangle_gradients": len(blocks),
            "corner_crosses": len(blocks) + 1,
            "bond_length_squares": len(blocks) + 1,
        }
        for block in blocks:
            for snap in block.snapshots:
                fresh = C.Configuration(snap.N, snap.l, snap.epsilon, snap.positions)
                for name in ("corners", "gradients", "crosses", "bond_squares"):
                    cached = vars(snap)[name]  # filled by the block, not by the snapshot
                    assert not cached.flags.writeable
                    assert cached.tobytes() == getattr(fresh, name).tobytes()

    @staticmethod
    def _reference_snapshots(N, params, seed):
        return hl.Chain.from_standard(N, 1.05, 0.1, replace(params, seed=seed)).run().records

    def test_grid_point_equals_per_snapshot_observer(self):
        params = SamplerParams(sweeps=300, burn_in=10, thin=1, seed=0, scan_order="random")
        rec = A.run_grid_point(4, 1.05, 0.1, params, seed=3)
        snaps = self._reference_snapshots(4, params, 3)
        eye = np.eye(2)
        op_id = [float(np.mean(O.per_triangle_order_parameters(s, eye))) for s in snaps]
        op_lid = [float(np.mean(O.per_triangle_order_parameters(s, s.l * eye))) for s in snaps]
        bonds = [O.bond_vector(s, (0, 0), (1, 0)) for s in snaps]
        assert (rec.mean_op_id, rec.se_op_id) == A.batch_means(op_id)
        assert (rec.mean_op_lid, rec.se_op_lid) == A.batch_means(op_lid)
        assert (rec.mean_bond_dx, rec.se_bond_dx) == A.batch_means([float(b[0]) for b in bonds])
        assert (rec.mean_bond_dy, rec.se_bond_dy) == A.batch_means([float(b[1]) for b in bonds])
        assert rec.autocorrelation_time == A.integrated_autocorrelation_time(np.array(op_lid))

    def test_identity_failure_names_the_first_failing_sample(self, monkeypatch):
        params = SamplerParams(sweeps=200, burn_in=10, thin=1, seed=0)
        snaps = self._reference_snapshots(2, params, 3)
        errors = [O.identity_suite(s).pythagoras_relative_error for s in snaps]
        tol = sorted(errors)[-5]  # the four largest errors fail
        monkeypatch.setattr(O, "PYTHAGORAS_RTOL", tol)
        first = next(O.identity_suite(s) for s in snaps if not O.identity_suite(s).ok)
        with pytest.raises(A.IdentityFailureError) as err:
            A.run_grid_point(2, 1.05, 0.1, params, seed=3)
        assert str(err.value) == (
            "identity suite failed at N=2, l=1.05: "
            f"mean_gradient={first.mean_gradient_error:.3e}, "
            f"area={first.area_relative_error:.3e}, "
            f"pythagoras={first.pythagoras_relative_error:.3e}"
        )

    def test_csv_layout(self):
        params = SamplerParams(sweeps=600, burn_in=100, thin=5, seed=0)
        text = A.scan_csv_text(A.scan([2], [1.05], 0.1, params, master_seed=1))
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(A.CSV_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "2" and cells[-1] in ("true", "false")
