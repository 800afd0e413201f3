import math
import os
import random
import re
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


# Edge directions of the unit reference triangle, at 0, 60 and 120 degrees.
_V_EDGES = np.array([[1.0, 0.0], [0.5, SQRT3 / 2.0], [-0.5, SQRT3 / 2.0]])


def _reference_rigidity_constant(n_samples, epsilon, seed):
    """The estimate from one whole draw of ``(n_samples, 3)`` deviations."""
    rng = np.random.Generator(np.random.PCG64(seed))
    d = epsilon * (1.0 - rng.random((n_samples, 3)))
    ratios = geometry.dist_so2_batch(A._one_sided_gradients(d)) ** 2 / d.max(axis=1) ** 2
    return float(ratios.max())


class TestRigidityConstant:
    def test_conformal_scaling_pins_ratio_two(self):
        # rotations of l*Id deviate by l-1 on every direction and sit at
        # squared distance 2(l-1)^2, so the supremum is at least 2
        l = 1.04
        A_mat = geometry.rotation(0.7) @ (l * np.eye(2))
        dist2 = float(geometry.dist_so2_batch(A_mat)) ** 2
        dev = abs(l - 1.0)
        assert abs(dist2 / dev**2 - 2.0) < 1e-9

    @pytest.mark.parametrize("m", [Fraction(k, 97) for k in range(1, 97)] + [Fraction(1, 10**9)])
    def test_proof_corner_inequalities_are_exact(self, m):
        # step 5 of RIGIDITY_CONSTANT's proof in rational arithmetic
        M = (1 + m) ** 2
        for s, (hi, lo) in [((M, 1, 1), (M, (4 - M) / 3)), ((M, M, 1), ((4 * M - 1) / 3, 1))]:
            # the stated singular values squared are a +- R of step 2
            a = sum(s) / 3
            r2 = Fraction(2, 3) * sum((x - a) ** 2 for x in s)
            assert hi + lo == 2 * a and (hi - lo) ** 2 == 4 * r2 and lo > 0
        # (M, 1, 1): D <= 2 m^2 iff 3 (1 - m)^2 <= 4 - M, and the gap is 4 m (1 - m)
        assert (4 - M) - 3 * (1 - m) ** 2 == 4 * m * (1 - m) > 0
        # (M, M, 1): D <= 2 m^2 iff (4M - 1)/3 <= (1 + sqrt(2) m)^2; a
        # rational r below sqrt(2) makes the right side smaller
        r = Fraction(1414, 1000)
        assert r * r < 2 and 6 * r - 8 > 0
        assert (4 * M - 1) / 3 < (1 + r * m) ** 2

    @pytest.mark.parametrize("epsilon", [0.1, 0.4574, 0.99])
    def test_bound_holds_on_a_grid_of_the_cube(self, epsilon):
        t = np.linspace(0.0, epsilon, 41)
        d = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)[1:]
        dist2 = geometry.dist_so2_batch(A._one_sided_gradients(d)) ** 2
        margin = A.RIGIDITY_CONSTANT * d.max(axis=1) ** 2 - dist2
        assert margin.min() >= -A._RIGIDITY_ALLOWANCE
        # equality on the diagonal, the dilations
        diag = (d[:, 0] == d[:, 1]) & (d[:, 1] == d[:, 2])
        assert np.abs(margin[diag]).max() <= A._RIGIDITY_ALLOWANCE

    @pytest.mark.parametrize("epsilon, seed", [(0.05, 0), (0.1, 1), (0.4574, 2)])
    def test_estimate_approaches_two_from_below(self, epsilon, seed):
        # near the diagonal 2 - g ~ (4/3)(2 - a - b) for d = t(1, a, b), so
        # a draw lands within x of 2 with probability about 0.28 x^2, and
        # 1e6 draws all stay below 1.99 with probability about exp(-28)
        est = A.estimate_rigidity_constant(1_000_000, epsilon, seed=seed)
        assert (est.n_samples, est.epsilon, est.seed) == (1_000_000, epsilon, seed)
        assert 1.99 < est.c_hat <= 2.0
        assert est.ok

    @pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.4574])
    def test_gradients_carry_the_drawn_sides(self, rng, epsilon):
        d = epsilon * (1.0 - rng.random((50_000, 3)))
        d[:3] = [[epsilon] * 3, [epsilon, 1e-12, 1e-12], [1e-12, 1e-12, epsilon]]
        G = A._one_sided_gradients(d)
        sides = np.linalg.norm(np.einsum("nij,kj->nki", G, _V_EDGES), axis=2)
        assert np.abs(sides - (1.0 + d)).max() < 1e-14
        assert np.all(G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0] > 0.0)

    @pytest.mark.parametrize("n_samples", [1, A._RIGIDITY_BLOCK, A._RIGIDITY_BLOCK + 1, 30_001])
    @pytest.mark.parametrize("block", [7, 1000, 4096, 40_000])
    def test_does_not_depend_on_the_block(self, monkeypatch, n_samples, block):
        monkeypatch.setattr(A, "_RIGIDITY_BLOCK", block)
        est = A.estimate_rigidity_constant(n_samples, 0.1, seed=5)
        assert est.n_samples == n_samples
        assert est.c_hat == _reference_rigidity_constant(n_samples, 0.1, 5)

    @pytest.mark.parametrize(
        "c_hat, ok", [(2.0, True), (2.0 + 2.0**-47, True), (2.0 + 2.0**-45, False), (math.nan, False)]
    )
    def test_ok_allows_rounding_of_two_only(self, c_hat, ok):
        assert A.RigidityConstantEstimate(c_hat, 0.1, 1, 0).ok is ok

    @pytest.mark.parametrize("n_samples", [0, -5, 2.5, "1000", True, 1.5, "3", np.int64(0)])
    def test_rejects_bad_sample_count(self, n_samples):
        with pytest.raises(ValueError):
            A.estimate_rigidity_constant(n_samples=n_samples, epsilon=0.1)

    def test_accepts_a_numpy_sample_count_at_the_minimum(self):
        est = A.estimate_rigidity_constant(n_samples=np.int64(1), epsilon=0.1)
        assert est.n_samples == 1 and 0.0 < est.c_hat <= 2.0

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.5, "0.1", True, math.nan])
    def test_rejects_epsilon_outside_the_window_range(self, epsilon):
        with pytest.raises(ValueError):
            A.estimate_rigidity_constant(n_samples=10, epsilon=epsilon)

    def test_peak_memory_stays_small(self):
        # the verify default, drawn into one reused 4k-row buffer
        assert _peak_bytes(lambda: A.estimate_rigidity_constant(200_000, 0.1, seed=1)) < 2e6


class TestFlatGemm:
    """One flat GEMM over the rows of a stack of 2x2 matrices gives the
    stacked matmul's entries bitwise, on the CPU that runs the tests."""

    @pytest.mark.parametrize("n", [1, 7, 4096, 100_000])
    def test_equals_the_stacked_matmul_bitwise(self, rng, n):
        for B in C._BINV:
            E = rng.standard_normal((n, 2, 2))
            flat = (E.reshape(-1, 2) @ B).reshape(-1, 2, 2)
            assert flat.tobytes() == (E @ B).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 4096, 100_000])
    def test_one_sided_gradients_equal_the_stacked_matmul_bitwise(self, rng, n):
        d = 0.1 * (1.0 - rng.random((n, 3)))
        G = A._one_sided_gradients(d)
        # the edge matrix [c1 c2] of _one_sided_gradients' docstring
        edges = np.zeros((n, 2, 2))
        edges[:, 0, 0] = 1.0 + d[:, 0]
        a1, a2, a3 = (1.0 + d).T
        edges[:, 0, 1] = (a1 * a1 + a2 * a2 - a3 * a3) / (2.0 * a1)
        heron = (a1 + a2 + a3) * (-a1 + a2 + a3) * (a1 - a2 + a3) * (a1 + a2 - a3)
        edges[:, 1, 1] = np.sqrt(heron) / (2.0 * a1)
        assert G.tobytes() == (edges @ C._BINV[0]).tobytes()


def _peak_bytes(call):
    """tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampledChecksPeakMemory:
    """Steps 2-4 of ``verify`` at its default sizes; each bound failed at
    the sizes and whole-block temporaries these checks had before."""

    def test_squared_bound(self):
        # 25k-triple draws peaked at 3.5 MB
        assert _peak_bytes(lambda: A.verify_squared_bound(0.1, 200_000, seed=1)) < 1.5e6

    def test_heron_cross_agreement(self):
        # the scalar loop over 4,096-triangle blocks peaked at 2.0 MB
        assert _peak_bytes(lambda: A.heron_cross_agreement(10_000, seed=1)) < 1.5e6

    def test_dist_so2_agreement(self):
        # 16-matrix grid-search chunks peaked at 1.0 MB
        assert _peak_bytes(lambda: A.dist_so2_agreement(2000, 3600, seed=1)) < 0.8e6


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
    """The scalar loop: one draw per triangle, then the scalar formulas on
    Python floats, which raise where the array pass must raise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    worst = 0.0
    for _ in range(n_triangles):
        p0, p1, p2 = (base + jitter * (2.0 * rng.random((3, 2)) - 1.0)).tolist()
        a1 = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
        a2 = math.hypot(p2[0] - p1[0], p2[1] - p1[1])
        a3 = math.hypot(p0[0] - p2[0], p0[1] - p2[1])
        h = geometry.heron_area(a1, a2, a3)
        c = abs(geometry.signed_area(p0, p1, p2))
        worst = A._fold_max(worst, abs(h - c) / c)
    return worst


# The six doubles of one triangle's draw that, at jitter 1, fold it so
# that the scalar loop raises: corners (0, 0), (1, 0), (0.5, 0) are
# collinear with Heron's product 0; (0, 0), (1, 0), (0, 0) repeat a
# corner; the third triangle lies on the line y = x, so its cross
# product is exactly 0 while its rounded sides keep Heron's product > 0.
_HALF_ROOT3 = SQRT3 / 2.0
_FOLDED_DRAWS = {
    "collinear": [0.5, 0.5, 0.5, 0.5, 0.5, (1.0 - _HALF_ROOT3) / 2.0],
    "repeated": [0.5, 0.5, 0.5, 0.5, 0.25, (1.0 - _HALF_ROOT3) / 2.0],
    "flat": [0.5, 0.5, 0.4569256484551104, 0.9569256484551104, 0.5364393954584128, 0.3534266935661935],
}


class _PlantedStream:
    """``np.random.Generator`` on the given bit generator, except that the
    six doubles of each planted triangle index ``k`` (doubles ``6k`` to
    ``6k + 5`` of the stream) are replaced."""

    def __init__(self, generator, bit_generator, planted):
        self._rng = generator(bit_generator)
        self._planted = planted
        self._drawn = 0

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        flat = u.reshape(-1)
        for k, six in self._planted.items():
            at = 6 * k - self._drawn
            if 0 <= at < flat.size:
                flat[at : at + 6] = six
        self._drawn += flat.size
        return u


class TestSampledChecksMatchReference:
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

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("jitter", [1e-3, 0.2, 0.5])
    def test_heron_cross_agreement_bitwise_at_other_jitters(self, seed, jitter):
        n = A._HERON_DRAW + 900
        got = A.heron_cross_agreement(n, seed=seed, jitter=jitter)
        assert got == _reference_heron_cross_agreement(n, seed, jitter)

    @pytest.mark.parametrize(
        "planted, want",
        [
            ({5: "flat"}, ZeroDivisionError),
            ({0: "collinear"}, geometry.DegenerateTriangleError),
            ({A._HERON_DRAW + 3: "repeated"}, ValueError),
            ({9: "flat", 4: "collinear", 7: "repeated"}, geometry.DegenerateTriangleError),
            ({3: "flat", 8: "collinear"}, ZeroDivisionError),
            ({A._HERON_DRAW - 1: "repeated", A._HERON_DRAW: "collinear"}, ValueError),
        ],
    )
    def test_heron_cross_agreement_raises_as_the_scalar_loop(self, monkeypatch, planted, want):
        # the first folded triangle in draw order raises, with the error
        # and message of the scalar loop, and no numpy warning
        real = np.random.Generator
        draws = {k: _FOLDED_DRAWS[name] for k, name in planted.items()}
        monkeypatch.setattr(np.random, "Generator", lambda bg: _PlantedStream(real, bg, draws))
        raised = []
        for check in (A.heron_cross_agreement, _reference_heron_cross_agreement):
            with pytest.raises((ValueError, ZeroDivisionError)) as info:
                check(A._HERON_DRAW + 900, seed=3, jitter=1.0)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is want

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("block", [7, 8192, 25_000])
    def test_squared_bound_does_not_depend_on_the_block(self, monkeypatch, seed, block):
        monkeypatch.setattr(A, "_SQUARED_DRAW", block)
        got = A.verify_squared_bound(0.1, 30_001, seed=seed)
        assert got == _reference_squared_bound(0.1, 30_001, seed)

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


class TestFastSampledChecksAreBitwise:
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


class TestEstimateChain:
    def test_standard_config_closed_forms(self):
        N, l, eps = 4, 1.05, 0.1
        cfg = standard_config(N, l, eps)
        rep = A.check_estimate_chain(cfg, A.identity_suite(cfg))
        assert rep.ok
        # the side-sum vs area check reduces to 3N^2(l-1)^2 <= 6N^2 eps (l^2-1)
        expected = 4.0 * SQRT3 * eps * (2 * N * N * (SQRT3 / 4) * (l * l - 1)) - 3 * N * N * (
            l - 1
        ) ** 2
        assert abs(rep.side_sum_vs_area_margin - expected) < 1e-9
        # the L2 check: 2N^2 dilated triangles at dist^2 = 2(l-1)^2 against
        # 2 * 2 times the 3N^2 bonds' (l-1)^2
        l2 = C.LAMBDA0 * (4 * 3 * N * N - 2 * N * N * 2) * (l - 1) ** 2
        assert rep.l2_vs_side_sum_margin == pytest.approx(l2, rel=1e-9)

    @pytest.mark.parametrize("N", [4, 32])
    @pytest.mark.parametrize("l", [1.0005, 1.05])
    def test_standard_state_meets_the_bound_within_the_allowance(self, N, l):
        # every triangle is a dilation by l, where the bound is an
        # equality; the margins read a few ulps either side of 0
        cfg = standard_config(N, l, 0.1)
        rep = A.check_estimate_chain(cfg, A.identity_suite(cfg))
        assert rep.ok
        assert abs(rep.triangle_bound_margin) <= A._RIGIDITY_ALLOWANCE

    def test_triangle_pushed_past_the_allowance_fails(self):
        # moving one site of the standard state by 1e-3 shortens a side
        # below 1, out of the bound's domain; that triangle then exceeds
        # 2 max d^2 by far more than the allowance
        N, l = 4, 1.0005
        pos = standard_config(N, l, 0.1).positions.copy()
        pos[5] += [1e-3, 0.0]
        cfg = C.Configuration(N, l, 0.1, pos)
        rep = A.check_estimate_chain(cfg, A.identity_suite(cfg))
        assert rep.triangle_bound_margin < -1e4 * A._RIGIDITY_ALLOWANCE
        assert not rep.ok

    def test_passes_on_samples(self, sample_snapshots):
        for snap in sample_snapshots[::5]:
            rep = A.check_estimate_chain(snap, A.identity_suite(snap))
            assert rep.ok, rep

    def test_passes_near_window_edge(self):
        # push bonds toward the upper edge of the window
        res = hl.run_chain(2, 1.09, 0.1, SamplerParams(sweeps=400, burn_in=100, thin=2, seed=5))
        for snap in res.records[::10]:
            assert A.check_estimate_chain(snap, A.identity_suite(snap)).ok


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


def _fresh_interpreter(code, blas_threads):
    """Run ``code`` in a new interpreter with ``OPENBLAS_NUM_THREADS`` unset
    (``blas_threads=None``) or set; returns its stripped stdout."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


class TestBlasThreads:
    """Importing the package before numpy asks OpenBLAS for one thread
    unless the user set ``OPENBLAS_NUM_THREADS``: long dot products give
    different last bits with one and with several threads."""

    READ = "import os, hardlattice\nprint(os.environ['OPENBLAS_NUM_THREADS'])"

    def test_one_thread_when_unset(self):
        assert _fresh_interpreter(self.READ, None) == "1"

    @pytest.mark.parametrize("chosen", ["2", "1", "4"])
    def test_a_chosen_value_is_kept(self, chosen):
        assert _fresh_interpreter(self.READ, chosen) == chosen

    def test_tau_of_a_long_series_is_the_one_thread_value(self):
        # an AR(1) series of 60k values: its dot products are long enough
        # for OpenBLAS to split them over threads
        code = (
            "import hardlattice.analysis as A\n"
            "import numpy as np\n"
            "noise = np.random.default_rng(11).standard_normal(60_000).tolist()\n"
            "x, v = [], 0.0\n"
            "for e in noise:\n"
            "    v = 0.9 * v + e\n"
            "    x.append(v)\n"
            "print(repr(A.integrated_autocorrelation_time(np.array(x))))\n"
        )
        tau = _fresh_interpreter(code, None)
        assert tau == _fresh_interpreter(code, "1")
        assert 5.0 < float(tau) < 40.0


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
        # one grid search on all survivors: a NaN between finite
        # differences reaches the result
        real = geometry.dist_so2_bruteforce
        calls = []

        def nan_inside(Ms, n_grid):
            out = real(Ms, n_grid)
            out[len(Ms) // 2] = math.nan
            calls.append(len(Ms))
            return out

        monkeypatch.setattr(geometry, "dist_so2_bruteforce", nan_inside)
        assert math.isnan(A.dist_so2_agreement(1000, 97, seed=0))
        assert calls == [1000]

    def test_heron_cross_agreement(self, monkeypatch):
        # a NaN side in the second block
        real = math.hypot
        calls = []

        def nan_in_second_block(x, y):
            calls.append(None)
            return math.nan if len(calls) == 3 * A._HERON_DRAW + 5 else real(x, y)

        monkeypatch.setattr(math, "hypot", nan_in_second_block)
        assert math.isnan(A.heron_cross_agreement(2 * A._HERON_DRAW + 10, seed=0))

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

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"master_seed": 1.5}, "master_seed must be an integer >= 0, got 1.5"),
            ({"master_seed": True}, "master_seed must be an integer >= 0, got True"),
            ({"master_seed": "3"}, "master_seed must be an integer >= 0, got '3'"),
            ({"master_seed": np.int64(-1)}, "master_seed must be an integer >= 0"),
            ({"threads": "x"}, "threads must be an integer >= 1, got 'x'"),
            ({"threads": 1.5}, "threads must be an integer >= 1, got 1.5"),
            ({"threads": True}, "threads must be an integer >= 1, got True"),
            ({"threads": np.int64(0)}, "threads must be an integer >= 1"),
        ],
        ids=["seed-float", "seed-bool", "seed-str", "seed-np-below", "threads-str", "threads-float",
             "threads-bool", "threads-np-below"],
    )
    def test_rejects_seed_and_threads_before_any_chain_runs(self, monkeypatch, kwargs, match):
        # 1.5 and True used to run as seed 1, and "x" failed in min()
        def no_chain(*args):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(A, "run_grid_point", no_chain)
        params = SamplerParams(sweeps=600, burn_in=0, thin=5, seed=0)
        with pytest.raises(ValueError, match=re.escape(match)):
            A.scan([2], [1.05], 0.1, params, **kwargs)

    def test_accepts_numpy_seed_and_threads_at_their_minimum(self):
        params = SamplerParams(sweeps=500, burn_in=0, thin=5, seed=0)
        plain = A.scan([2], [1.05], 0.1, params, master_seed=0, threads=1)
        numpy = A.scan([2], [1.05], 0.1, params, master_seed=np.int64(0), threads=np.int64(1))
        assert A.scan_csv_text(numpy) == A.scan_csv_text(plain)

    def test_requires_enough_samples(self):
        params = SamplerParams(sweeps=100, burn_in=0, thin=5, seed=0)
        with pytest.raises(ValueError):
            A.scan([2], [1.05], 0.1, params)

    def test_grid_point_rejects_a_short_run_before_the_chain(self, monkeypatch):
        def no_sweep(self):
            raise AssertionError("a chain swept")

        monkeypatch.setattr(hl.Chain, "sweep", no_sweep)
        params = SamplerParams(sweeps=50, burn_in=0, thin=1, seed=0)
        with pytest.raises(ValueError, match="at least 100 emitted samples"):
            A.run_grid_point(2, 1.05, 0.1, params, seed=3)

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
        errors = [O.identity_suite(s).frame_relative_error for s in snaps]
        tol = sorted(errors)[-5]  # the four largest errors fail
        monkeypatch.setattr(O, "FRAME_RTOL", tol)
        first = next(O.identity_suite(s) for s in snaps if not O.identity_suite(s).ok)
        with pytest.raises(A.IdentityFailureError) as err:
            A.run_grid_point(2, 1.05, 0.1, params, seed=3)
        assert str(err.value) == (
            "identity suite failed at N=2, l=1.05: "
            f"mean_gradient={first.mean_gradient_error:.3e}, "
            f"area={first.area_relative_error:.3e}, "
            f"frame={first.frame_relative_error:.3e}"
        )

    def test_csv_layout(self):
        params = SamplerParams(sweeps=600, burn_in=100, thin=5, seed=0)
        text = A.scan_csv_text(A.scan([2], [1.05], 0.1, params, master_seed=1))
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(A.CSV_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "2" and cells[-1] in ("true", "false")


def _reference_triangle_bound(cfg):
    """Check (i) of ``check_estimate_chain`` with the largest squared side
    deviation taken as the ``axis=1`` maximum of the stacked sides."""
    dist2 = geometry.dist_so2_batch(cfg.gradients) ** 2
    c = cfg.corners
    lengths = np.stack([np.hypot(*(c[:, b] - c[:, a]).T) for a, b in ((0, 1), (1, 2), (2, 0))], axis=1)
    per_tri = A.RIGIDITY_CONSTANT * ((lengths - 1.0) ** 2).max(axis=1) - dist2
    worst = int(np.argmin(per_tri))
    return float(per_tri[worst]), worst


class TestTriangleBoundFold:
    def test_equals_the_axis_reduction_on_samples_and_nan_sites(self, sample_snapshots):
        states = list(sample_snapshots[::10])
        for site, value in ((5, (math.nan, 0.3)), (9, (0.2, math.nan)), (14, (math.nan, math.nan))):
            pos = np.array(standard_config(4, 1.05, 0.1).positions)
            pos[site] = value
            states.append(C.Configuration(4, 1.05, 0.1, pos))
        margins = []
        for cfg in states:
            rep = A.check_estimate_chain(cfg, A.identity_suite(cfg))
            got = (rep.triangle_bound_margin, rep.worst_triangle)
            assert repr(got) == repr(_reference_triangle_bound(cfg))  # repr: NaN equals NaN
            margins.append(got[0])
        assert math.isnan(margins[-1]) and not math.isnan(margins[0])
