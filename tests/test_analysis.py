import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

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


def _k(e):
    """The cubic whose sign decides the certificate, in exact arithmetic."""
    return 2 - Fraction(7, 3) * e - 4 * e**2 - e**3


def _heron_p(a1, a2, a3):
    """16 * area^2 of the triangle with sides a1, a2, a3 (Heron's product)."""
    return (a1 + a2 + a3) * (-a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)


class TestEpsilonCertification:
    # the positive root of k, (sqrt(33) - 3)/6, and the next float up
    ROOT_BELOW = 0.4574271077563381
    ROOT_ABOVE = 0.45742710775633816

    def test_objective_vanishes_at_unit_corner(self):
        assert _margin_objective(1.0, 1.0, 1.0) == 0.0

    def test_default_window_certifies(self):
        cert = A.certify_epsilon(0.1)
        assert cert.certified
        assert cert.margin == pytest.approx(1.078262e-01, rel=1e-6)
        # the second argument is the ignored certification_grid
        assert A.certify_epsilon(0.1, 64) == cert

    def test_wide_window_fails_with_negative_margin(self):
        cert = A.certify_epsilon(1.0, 64)
        assert not cert.certified
        assert cert.margin <= 0.0

    def test_proof_identities_hold_in_fractions(self):
        # G = P(1 + d) - 3 - 2S - S^2/3 equals the expansion whose brackets
        # are nonnegative, and G = eps k(eps) at the corner (1 + eps, 1, 1)
        rng = random.Random(2024)
        for _ in range(200):
            d = [Fraction(rng.randrange(0, 701), 1000) for _ in range(3)]
            S = sum(d)
            Q, C, F = (sum(x**n for x in d) for n in (2, 3, 4))
            G = _heron_p(*(1 + x for x in d)) - 3 - 2 * S - S * S / 3
            expansion = (
                sum(x * _k(x) for x in d)
                + Fraction(11, 3) * (S * S - Q)
                + 4 * (S * Q - C)
                + (Q * Q - F)
            )
            assert G == expansion
            e = d[0]
            assert _heron_p(1 + e, 1, 1) - 3 - 2 * e - e * e / 3 == e * _k(e)

    def test_boundary_floats_around_the_root(self):
        assert math.nextafter(self.ROOT_BELOW, 1.0) == self.ROOT_ABOVE
        assert A.certify_epsilon(self.ROOT_BELOW).certified
        assert not A.certify_epsilon(self.ROOT_ABOVE).certified
        assert _k(Fraction(self.ROOT_BELOW)) > 0 > _k(Fraction(self.ROOT_ABOVE))

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.45, 0.457])
    def test_certifies_below_the_root(self, eps):
        cert = A.certify_epsilon(eps)
        assert cert.certified and cert.margin > 0.0

    @pytest.mark.parametrize("eps", [0.46, 1.0])
    def test_refuses_above_the_root_with_the_corner_witness(self, eps):
        cert = A.certify_epsilon(eps)
        assert not cert.certified and cert.margin <= 0.0
        corner = (1.0 + eps, 1.0, 1.0)
        if eps < 1.0:  # the corner of the eps = 1 box is degenerate
            assert cert.margin == pytest.approx(_margin_objective(*corner) / eps, rel=1e-9)
            assert _margin_objective(*corner) < 0.0

    def test_certified_margin_is_a_true_lower_bound_on_random_triples(self, rng):
        cert = A.certify_epsilon(0.1, 64)
        for _ in range(20_000):
            a = 1.0 + 0.1 * rng.random(3)
            dev = float(np.sum(a - 1.0))
            if dev == 0.0:
                continue
            q = _margin_objective(*a) / dev
            assert q >= cert.margin - 1e-12

    def test_margin_is_below_the_grid_minimum_on_a_ladder(self):
        # q = f/S on a 41^3 Heron grid, unit corner excluded
        g = 41
        u = np.linspace(0.0, 1.0, g)
        u1, u2, u3 = np.meshgrid(u, u, u, indexing="ij")
        for eps in np.linspace(0.01, 0.45, 45).tolist():
            a1, a2, a3 = 1.0 + eps * u1, 1.0 + eps * u2, 1.0 + eps * u3
            dev = (a1 - 1.0) + (a2 - 1.0) + (a3 - 1.0)
            lam = 0.25 * np.sqrt(_heron_p(a1, a2, a3))
            f = lam - SQRT3 / 4.0 - dev / (4.0 * SQRT3)
            q = f[dev > 0.0] / dev[dev > 0.0]
            cert = A.certify_epsilon(eps)
            assert cert.certified
            assert cert.margin <= q.min()

    def test_margin_ladder_monotone_nonincreasing(self):
        margins = [A.certify_epsilon(e, 64).margin for e in (0.05, 0.1, 0.2)]
        assert margins[0] >= margins[1] >= margins[2]

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, math.nan, True, "0.1"])
    def test_rejects_epsilon_outside_the_unit_interval(self, eps):
        with pytest.raises(ValueError):
            A.certify_epsilon(eps)


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

    @pytest.mark.parametrize("eps", [0.3, 0.45])
    def test_zero_violations_on_the_wider_certified_windows(self, eps):
        rep = A.verify_squared_bound(eps, n_samples=100_000, seed=0)
        assert rep.ok and rep.n_violations == 0 and rep.scalar_ok

    def test_requires_certified_window(self):
        with pytest.raises(A.CertificationError):
            A.verify_squared_bound(1.0, n_samples=10)
        with pytest.raises(A.CertificationError):
            A.verify_squared_bound(0.46, n_samples=10)


class TestRigidityConstant:
    def test_conformal_scaling_pins_ratio_two(self):
        # rotations of l*Id deviate by l-1 on every direction and sit at
        # squared distance 2(l-1)^2, so the supremum is at least 2
        l = 1.04
        A_mat = geometry.rotation(0.7) @ (l * np.eye(2))
        dist2 = float(geometry.dist_so2_batch(A_mat)) ** 2
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
    """The whole-batch einsum estimator on rotated candidates ``R(theta) (Id + E)``.

    The rotation cancels in exact arithmetic, so this independent oracle
    keeps the same samples as the estimator and differs from it only in
    rounding."""
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
        diff = abs(float(geometry.dist_so2_batch(M)) - geometry.dist_so2_bruteforce(M, n_grid))
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
    def test_rigidity_constant_matches_rotated_reference(self, n_samples, cap, seed):
        # 30_001 stops in the middle of a sub-block.  Rounding of the
        # rotation moves c_hat by at most 6.4e-14 relative over these
        # cases; a wrong edge direction or acceptance rule moves it ~1e-3.
        est = A.estimate_rigidity_constant(n_samples, cap, seed=seed)
        c_hat, kept = _reference_rigidity_constant(n_samples, cap, seed)
        assert est.n_samples == kept == n_samples
        assert est.c_hat == pytest.approx(c_hat, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_dist_so2_agreement_bitwise(self, seed):
        assert A.dist_so2_agreement(500, 3600, seed=seed) == _reference_dist_so2_agreement(
            500, 3600, seed
        )

    def test_dist_so2_agreement_skips_empty_draws(self, monkeypatch):
        # one candidate per draw: about half of the draws keep no matrix
        monkeypatch.setattr(A, "_AGREEMENT_DRAW", 1)
        assert A.dist_so2_agreement(50, 97, seed=3) == _reference_dist_so2_agreement(50, 97, 3)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_heron_cross_agreement_bitwise(self, seed):
        # more triangles than one draw block
        n = A._HERON_DRAW + 900
        assert A.heron_cross_agreement(n, seed=seed) == _reference_heron_cross_agreement(n, seed)


def _reference_rigidity_batch(n_samples, deviation_cap, seed):
    """The estimator without its prefilter: one ``(200k, 2, 2)`` draw per
    batch, the unused angles drawn, ``hypot`` on every candidate.

    Returns ``(c_hat, kept, stop)``, ``stop`` the number of candidates
    read up to and including the last accepted one."""
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.eye(2)
    h = A._V_DIRECTIONS[1, 1]
    c_hat = 0.0
    kept = 0
    batch = 0
    while kept < n_samples:
        E = rng.uniform(-2.0 * deviation_cap, 2.0 * deviation_cap, size=(A._RIGIDITY_DRAW, 2, 2))
        rng.uniform(0.0, 2.0 * math.pi, size=A._RIGIDITY_DRAW)
        for start in range(0, A._RIGIDITY_DRAW, A._RIGIDITY_BLOCK):
            A_ = eye + E[start : start + A._RIGIDITY_BLOCK]
            a00, a01, a10, a11 = np.ascontiguousarray(A_.reshape(-1, 4).T)
            det = a00 * a11 - a01 * a10
            x_half, y_half = 0.5 * a00, 0.5 * a10
            x_h, y_h = h * a01, h * a11
            maxdev = np.maximum(
                np.abs(np.hypot(a00, a10) - 1.0),
                np.maximum(
                    np.abs(np.hypot(x_half + x_h, y_half + y_h) - 1.0),
                    np.abs(np.hypot(x_half - x_h, y_half - y_h) - 1.0),
                ),
            )
            idx = np.flatnonzero((det > 0.0) & (maxdev <= deviation_cap) & (maxdev > 0.0))
            idx = idx[: n_samples - kept]
            if idx.size:
                ratios = geometry.dist_so2_batch(A_[idx]) ** 2 / maxdev[idx] ** 2
                c_hat = A._fold_max(c_hat, float(ratios.max()))
                kept += idx.size
                stop = batch * A._RIGIDITY_DRAW + start + int(idx[-1]) + 1
            if kept == n_samples:
                break
        batch += 1
    return c_hat, kept, stop


def _reference_squared_margins(u, epsilon):
    """The squared bound's margins on ``(n, 3)`` rows, with ``np.sum``."""
    lam0 = 0.25 * math.sqrt(3.0)
    a = 1.0 + epsilon * u
    dev = a - 1.0
    lhs = np.sum(dev * dev, axis=1)
    s0 = a.sum(axis=1)
    s1 = -a[:, 0] + a[:, 1] + a[:, 2]
    s2 = a[:, 0] - a[:, 1] + a[:, 2]
    s3 = a[:, 0] + a[:, 1] - a[:, 2]
    lam = 0.25 * np.sqrt(np.clip(s0 * s1 * s2 * s3, 0.0, None))
    rhs = A.FOUR_SQRT3 * epsilon * (lam - lam0)
    return rhs - lhs


def _reference_squared_bound(epsilon, n_samples, seed):
    """The squared bound with 200k draws of ``(n, 3)`` rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    violations = 0
    min_margin = math.inf
    done = 0
    while done < n_samples:
        n = min(200_000, n_samples - done)
        margin = _reference_squared_margins(rng.random((n, 3)), epsilon)
        violations += int(np.count_nonzero(~(margin >= 0.0)))
        min_margin = A._fold_min(min_margin, float(margin.min()))
        done += n
    x = 1.0 + epsilon * rng.random(100_000)
    d = x - 1.0
    scalar_ok = bool(np.all(d * d <= epsilon * d))
    return A.SquaredBoundReport(epsilon, n_samples, violations, min_margin, scalar_ok)


def _recorded_batches(monkeypatch, fn):
    """Run ``fn`` and return every stack it passed to ``geometry.dist_so2_batch``, joined."""
    real = geometry.dist_so2_batch
    seen = []

    def record(Ms):
        seen.append(np.array(Ms))
        return real(Ms)

    monkeypatch.setattr(geometry, "dist_so2_batch", record)
    out = fn()
    monkeypatch.setattr(geometry, "dist_so2_batch", real)
    return out, np.concatenate(seen)


class TestFastSampledChecksAreBitwise:
    @pytest.mark.parametrize("cap", [1e-3, 0.05, 0.1, 0.5, 0.999, 1.0])
    @pytest.mark.parametrize("n_samples", [1, 10_001, 50_001])
    def test_rigidity_constant_keeps_every_sample(self, monkeypatch, cap, n_samples):
        # 31k-41k of a 200k batch pass, so 10_001 stops inside a
        # sub-block of the first batch and 50_001 inside the second batch
        seed = 7 if cap < 0.5 else 0
        est, got = _recorded_batches(
            monkeypatch, lambda: A.estimate_rigidity_constant(n_samples, cap, seed=seed)
        )
        (c_hat, kept, stop), want = _recorded_batches(
            monkeypatch, lambda: _reference_rigidity_batch(n_samples, cap, seed)
        )
        assert got.tobytes() == want.tobytes()
        assert (est.c_hat, est.n_samples) == (c_hat, kept) == (c_hat, n_samples)
        if n_samples > 1:
            assert stop % A._RIGIDITY_BLOCK != 0
            assert (stop > A._RIGIDITY_DRAW) == (n_samples == 50_001)

    def test_advance_leaves_the_state_of_drawing_the_angles(self):
        drawn = np.random.Generator(np.random.PCG64(11))
        skipped = np.random.Generator(np.random.PCG64(11))
        for rng in (drawn, skipped):
            rng.uniform(-0.2, 0.2, size=(A._RIGIDITY_DRAW, 2, 2))
        drawn.uniform(0.0, 2.0 * math.pi, size=A._RIGIDITY_DRAW)
        skipped.bit_generator.advance(A._RIGIDITY_DRAW)
        assert drawn.bit_generator.state == skipped.bit_generator.state
        assert drawn.random(5).tolist() == skipped.random(5).tolist()

    @pytest.mark.parametrize("cap", [1e-3, 0.05, 0.1, 0.3, 0.5, 0.75, 0.999, 1.0])
    def test_prefilter_bounds_keep_every_passing_length(self, rng, cap):
        # image vectors whose hypot lands within a few ulps of 1 +- cap,
        # where the test's own rounding decides: every one that passes
        # |hypot - 1| <= cap has its q = x*x + y*y inside the bounds
        q_lo, q_hi = A._rigidity_q_bounds(cap)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=20_000)
        for edge in (1.0 + cap, 1.0 - cap):
            r = edge + np.spacing(edge) * rng.integers(-8, 9, size=phi.size)
            x, y = r * np.cos(phi), r * np.sin(phi)
            passes = np.abs(np.hypot(x, y) - 1.0) <= cap
            q = x * x + y * y
            assert passes.any()
            assert np.all((q[passes] >= q_lo) & (q[passes] <= q_hi))
        # and the bounds do drop lengths off by more than the slack
        assert (1.0 + cap + 4e-9) ** 2 > q_hi
        assert cap > A._RIGIDITY_LOWER_CAP or (1.0 - cap - 4e-9) ** 2 < q_lo

    @pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("n_samples", [1, A._SQUARED_DRAW + 1, 200_001])
    def test_squared_bound_matches_row_sum_reference(self, epsilon, n_samples):
        for seed in (0, 5):
            got = A.verify_squared_bound(epsilon, n_samples, seed=seed)
            assert got == _reference_squared_bound(epsilon, n_samples, seed)

    @pytest.mark.parametrize("epsilon", [1e-3, 0.05, 0.1, 0.5, 1.0])
    def test_squared_margins_bitwise(self, rng, epsilon):
        u = rng.random((100_000, 3))
        u[:3] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
        got = A._squared_bound_margins(u, epsilon)
        assert got.tobytes() == _reference_squared_margins(u, epsilon).tobytes()

    def test_row_sums_of_three_add_left_to_right(self, rng):
        # verify_squared_bound's column sums rely on it
        x = rng.standard_normal((100_000, 3)) * 10.0 ** rng.uniform(-3, 3, (100_000, 3))
        d = x * x
        assert np.sum(d, axis=1).tobytes() == ((d[:, 0] + d[:, 1]) + d[:, 2]).tobytes()
        assert x.sum(axis=1).tobytes() == ((x[:, 0] + x[:, 1]) + x[:, 2]).tobytes()


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


class TestFoldsKeepNaN:
    """A NaN value must reach the reported worst case: Python's
    ``max(0.0, nan)`` is ``0.0`` and ``min(inf, nan)`` is ``inf``."""

    def test_rigidity_constant(self, monkeypatch):
        real = geometry.dist_so2_batch
        calls = []

        def nan_first(Ms):
            out = real(Ms)
            if not calls:
                out[0] = math.nan
            calls.append(len(Ms))
            return out

        monkeypatch.setattr(geometry, "dist_so2_batch", nan_first)
        est = A.estimate_rigidity_constant(30_000, 0.1, seed=0)
        assert len(calls) > 1 and math.isnan(est.c_hat)

    def test_so2_agreement(self, monkeypatch):
        real = geometry.dist_so2_bruteforce
        calls = []

        def nan_in_second(Ms, n_grid):
            out = real(Ms, n_grid)
            if len(calls) == 1:
                out[3] = math.nan
            calls.append(len(Ms))
            return out

        monkeypatch.setattr(geometry, "dist_so2_bruteforce", nan_in_second)
        assert math.isnan(A.dist_so2_agreement(1000, 97, seed=0))
        assert len(calls) > 2

    def test_squared_bound_margin(self, monkeypatch):
        monkeypatch.setattr(A, "certify_epsilon", lambda *args: SimpleNamespace(certified=True))
        monkeypatch.setattr(A, "FOUR_SQRT3", math.nan)
        rep = A.verify_squared_bound(0.1, n_samples=1000, seed=0)
        assert math.isnan(rep.min_margin)
        assert rep.n_violations == 1000 and not rep.ok

    def test_fold_helpers(self):
        assert math.isnan(A._fold_max(0.0, math.nan)) and math.isnan(A._fold_max(math.nan, 1.0))
        assert math.isnan(A._fold_min(math.inf, math.nan)) and math.isnan(A._fold_min(math.nan, -1.0))
        assert A._fold_max(0.5, 2.0) == 2.0 and A._fold_min(0.5, 2.0) == 0.5


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

    def test_worker_count_is_capped_at_the_grid_size(self, monkeypatch):
        # a pool forks all its workers at once; record the count instead
        import concurrent.futures

        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        params = SamplerParams(sweeps=500, burn_in=0, thin=5, seed=0)
        seq = A.scan([2, 3], [1.05], 0.1, params, master_seed=5)
        assert A.scan_csv_text(A.scan([2, 3], [1.05], 0.1, params, master_seed=5, threads=64)) == (
            A.scan_csv_text(seq)
        )
        assert made == [2]
        A.scan([2], [1.05], 0.1, params, master_seed=5, threads=64)
        assert made == [2]  # one grid point runs in this process

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
            A.scan([2], [1.05], 0.46, params)

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
        # The chain-start admissibility check builds all four once for the
        # lone start state, whose reductions record reads the gradients
        # too; each block builds all four once, for all of its snapshots.
        assert calls == dict.fromkeys(builders, len(blocks) + 1)
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
