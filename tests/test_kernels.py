import math

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import configuration as C
from hardlattice import counterexamples, kernels, lattice
from hardlattice.configuration import Configuration
from hardlattice.lattice import EMBED_BASIS


def _tables(cfg):
    nbr_idx, nbr_wrap = lattice.neighbor_tables(cfg.N)
    shift = cfg.l * cfg.N * (nbr_wrap @ EMBED_BASIS)
    hi2 = (1.0 + cfg.epsilon) * (1.0 + cfg.epsilon)
    return nbr_idx, shift, hi2


def test_backend_is_reported():
    assert kernels.BACKEND == "numpy"


def test_local_ok_accepts_interior_state():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    pos = np.array(cfg.positions)
    for s in range(1, 16):
        assert kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def test_local_ok_rejects_bond_stretched_past_window():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    pos = np.array(cfg.positions)
    s = lattice.site_index((2, 2), 4)
    # push the site away from its (1, 0) neighbor beyond 1 + epsilon
    pos[s] = pos[s] + np.array([-(0.2), 0.0])
    assert not kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def test_local_ok_rejects_compressed_bond():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    pos = np.array(cfg.positions)
    s = lattice.site_index((1, 1), 4)
    nbr = pos[lattice.site_index((2, 1), 4)]
    pos[s] = nbr + np.array([-0.99, 0.0])  # bond length 0.99 < 1
    assert not kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def test_local_ok_rejects_nan_neighbour():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    pos = np.array(cfg.positions)
    s = lattice.site_index((1, 1), 4)
    # only x is NaN: every y comparison of the winding count still holds
    pos[nbr_idx[s, 2], 0] = math.nan
    assert not kernels.star_ok(pos, nbr_idx, shift, s, hi2, False)
    assert not kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def _angle_sum_star_ok(e, hi2, check_bonds):
    """``star_ok`` as an angle-sum certificate, on the six edge vectors ``e``:
    bond windows, positive orientations, and six ``atan2`` angles summing
    to ``2*pi`` within 1e-9."""
    total = 0.0
    for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]):
        if check_bonds and not 1.0 < ax * ax + ay * ay < hi2:
            return False
        cr = ax * by - ay * bx
        if cr <= 0.0:
            return False
        total += math.atan2(cr, ax * bx + ay * by)
    return abs(total - 2.0 * math.pi) <= 1e-9


def test_star_ok_matches_angle_sum_reference_on_random_stars():
    """The winding count decides every star as the angle sums did, at
    every epsilon a configuration allows, on stars that wind once and
    stars that wind twice around the centre."""
    rng = np.random.Generator(np.random.PCG64(23))
    nbr_idx = np.tile(np.arange(1, 7), (7, 1))
    shift = np.zeros((7, 6, 2))
    rejected = twice = 0
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        hi2 = (1.0 + eps) * (1.0 + eps)
        for n in range(1500):
            turns = 2 if n % 10 == 0 else 1
            ang = 0.1 + turns * np.arange(6) * math.pi / 3 + rng.uniform(-0.6, 0.6, 6)
            length = 1.0 + eps * rng.uniform(-0.1, 1.1, (6, 1))
            pos = np.zeros((7, 2))
            pos[0] = rng.uniform(-1.0, 1.0, 2)
            pos[1:] = pos[0] + length * np.stack((np.cos(ang), np.sin(ang)), 1)
            e = [(x + 0.0 - pos[0, 0], y + 0.0 - pos[0, 1]) for x, y in pos[1:].tolist()]
            for check_bonds in (True, False):
                want = _angle_sum_star_ok(e, hi2, check_bonds)
                assert kernels.star_ok(pos, nbr_idx, shift, 0, hi2, check_bonds) == want
                rejected += not want
            # a double star with positive orientations: only the winding rejects it
            twice += turns == 2 and all(ax * by - ay * bx > 0.0 for (ax, ay), (bx, by) in zip(e, e[1:] + e[:1]))
    assert 3000 < rejected < 15000 and twice > 100


def test_local_ok_rejects_wrapped_vertex():
    bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1, vertex=(2, 2))
    nbr_idx, shift, hi2 = _tables(bad)
    s = lattice.site_index((2, 2), 4)
    pos = np.array(bad.positions)
    # the six bonds and orientations at the vertex pass: its winding of 2 rejects it
    e = pos[nbr_idx[s]] + shift[s] - pos[s]
    e2 = np.roll(e, -1, axis=0)
    assert np.all(e[:, 0] * e2[:, 1] - e[:, 1] * e2[:, 0] > 0.0)
    assert np.all(((e * e).sum(axis=1) > 1.0) & ((e * e).sum(axis=1) < hi2))
    assert not kernels.star_ok(pos, nbr_idx, shift, s, hi2, True)
    assert not kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def test_local_decision_matches_full_admissibility_check():
    """The locally checked constraints are exactly the ones a single-site
    move can affect, so the sweep's decision (the lean check for every
    epsilon here), ``local_ok`` and the full recheck must all agree from
    any admissible state."""
    rng = np.random.Generator(np.random.PCG64(17))
    accepted = rejected = 0
    for eps in (0.05, 0.1, 0.3, 0.5, 0.7):
        chain = hl.Chain(C.standard_config(4, 1.0 + eps / 2, eps), hl.SamplerParams(sweeps=0, seed=5))
        for _ in range(100):
            chain.sweep()
        base = chain.snapshot()
        assert C.is_admissible(base).ok
        nbr_idx, shift, hi2 = _tables(base)
        nbrs = kernels.neighbour_triples(nbr_idx, shift)
        assert hi2 < kernels.LEAN_HI2
        radius = 0.5 * eps
        for _ in range(1200):
            s = int(rng.integers(1, 16))
            uniforms = rng.random((1, 2))
            rho = radius * math.sqrt(uniforms[0, 0])
            phi = kernels.TWO_PI * uniforms[0, 1]
            proposed = np.array(base.positions)
            proposed[s, 0] += rho * math.cos(phi)
            proposed[s, 1] += rho * math.sin(phi)

            pos = np.array(base.positions)
            order = np.array([s], dtype=np.int64)
            lean = bool(kernels.sweep(pos, nbrs, order, uniforms, radius, hi2))
            local = kernels.local_ok(proposed, nbr_idx, shift, s, hi2)
            full = C.is_admissible(Configuration(4, base.l, eps, proposed)).ok
            assert lean == local == full
            assert np.array_equal(pos, proposed if lean else base.positions)
            accepted += lean
            rejected += not lean
    # the proposal scale straddles the constraint surface
    assert accepted >= 1000 and rejected >= 1000


def _reference_sweep(pos, nbr_idx, shift, order, uniforms, radius, hi2):
    """Scalar sweep that decides every proposal with the full ``local_ok``."""
    accepted = 0
    for t, s in enumerate(order):
        rho = radius * math.sqrt(uniforms[t, 0])
        phi = kernels.TWO_PI * uniforms[t, 1]
        old = pos[s].copy()
        pos[s, 0] = old[0] + rho * math.cos(phi)
        pos[s, 1] = old[1] + rho * math.sin(phi)
        if kernels.local_ok(pos, nbr_idx, shift, s, hi2):
            accepted += 1
        else:
            pos[s] = old
    return accepted


def _visit_order(kind, rng, N):
    if kind == "random":  # with replacement, as random scan draws it
        return rng.integers(1, N * N, size=N * N - 1, dtype=np.int64)
    if kind == "permutation":
        return 1 + rng.permutation(N * N - 1)
    return np.arange(1, N * N, dtype=np.int64)


@pytest.mark.parametrize(
    "N, sweeps", [(2, 40), (3, 20), (4, 20), (5, 10), (6, 8), (8, 5), (12, 3), (16, 2), (32, 1)]
)
@pytest.mark.parametrize("scan_order", ["raster", "permutation", "random"])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5, 0.7])
def test_sweep_matches_local_ok_reference_loop(N, sweeps, scan_order, eps, monkeypatch):
    """Bitwise the same trajectory and accept count as a loop deciding with
    ``local_ok``, at the largest proposal radius a chain allows: the scalar
    loop on every order, and a ``SweepPlan`` on every repeat-free one, at
    every N whether or not a chain would pick the plan there."""
    cfg = C.standard_config(N, 1.0 + eps / 2, eps)
    nbr_idx, shift, hi2 = _tables(cfg)
    assert hi2 < kernels.LEAN_HI2
    nbrs = kernels.neighbour_triples(nbr_idx, shift)
    rng = np.random.Generator(np.random.PCG64([N, int(100 * eps)]))
    radius = 0.5 * eps
    pos = np.array(cfg.positions)
    ref = pos.copy()
    planned = pos.copy()
    resolved = []
    fixed_point = kernels._fixed_point

    def counting(acc, amb, *rest):
        rounds = fixed_point(acc, amb, *rest)
        resolved.append((int(amb.sum()), rounds))
        return rounds

    monkeypatch.setattr(kernels, "_fixed_point", counting)
    total = 0
    for _ in range(sweeps):
        order = _visit_order(scan_order, rng, N)
        uniforms = rng.random((order.size, 2))
        acc = kernels.sweep(pos, nbrs, order, uniforms, radius, hi2)
        assert type(acc) is int
        assert acc == _reference_sweep(ref, nbr_idx, shift, order, uniforms, radius, hi2)
        assert pos.tobytes() == ref.tobytes()
        if scan_order != "random":
            plan = kernels.plan(nbr_idx, shift, order)
            got = kernels.sweep(planned, None, plan, uniforms, radius, hi2)
            assert type(got) is int and got == acc
            assert planned.tobytes() == ref.tobytes()
        total += acc
    # both decisions were exercised
    assert 0 < total < sweeps * (N * N - 1)
    if scan_order != "random":
        # so were ambiguous rows, and fixed points that took a second round
        assert sum(amb for amb, _ in resolved) > 0
        assert max(rounds for _, rounds in resolved) >= 2


def test_plan_rejects_a_repeated_site():
    nbr_idx, shift, _ = _tables(C.standard_config(4, 1.05, 0.1))
    with pytest.raises(ValueError, match="repeats"):
        kernels.plan(nbr_idx, shift, np.array([1, 2, 3, 2], dtype=np.int64))


def test_plan_leaves_unvisited_sites_in_place():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    order = np.array([5, 9, 6, 10], dtype=np.int64)
    plan = kernels.plan(nbr_idx, shift, order)
    uniforms = np.random.Generator(np.random.PCG64(8)).random((order.size, 2))
    pos = np.array(cfg.positions)
    ref = pos.copy()
    acc = kernels.sweep(pos, None, plan, uniforms, 0.05, hi2)
    assert acc == kernels.sweep(ref, kernels.neighbour_triples(nbr_idx, shift), order, uniforms, 0.05, hi2)
    assert acc > 0 and pos.tobytes() == ref.tobytes()
    still = np.setdiff1d(np.arange(16), order)
    assert pos[still].tobytes() == np.array(cfg.positions)[still].tobytes()


class TestTrigMatchesMath:
    """The plan sweep computes proposals with numpy's ``sqrt``, ``cos`` and
    ``sin``, the scalar loop with ``math``'s.  Both sweeps, and so the
    raster ``scan.csv`` across the crossover, agree bitwise only where these
    agree bitwise on the CPU that runs them."""

    COUNT = 1 << 20

    @staticmethod
    def _assert_bitwise(name, args, got, want):
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (
            f"np.{name} differs from math.{name} on {bad.size} of {args.size} values "
            f"(first at {args[bad[0]]!r}); the plan and scalar sweep paths, and hence "
            f"the raster scan.csv, agree only when they are bitwise equal"
        )

    def test_sqrt_on_proposal_radii(self, rng):
        u = rng.random(self.COUNT)
        want = np.array([math.sqrt(x) for x in u.tolist()])
        self._assert_bitwise("sqrt", u, np.sqrt(u), want)

    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_trig_on_proposal_angles(self, rng, name):
        phi = kernels.TWO_PI * rng.random(self.COUNT)
        fn = getattr(math, name)
        want = np.array([fn(x) for x in phi.tolist()])
        self._assert_bitwise(name, phi, getattr(np, name)(phi), want)


def test_sweep_equals_sequential_single_site_updates():
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    nbrs = kernels.neighbour_triples(nbr_idx, shift)
    order = np.arange(1, 16, dtype=np.int64)
    uniforms = np.random.Generator(np.random.PCG64(3)).random((15, 2))

    pos_a = np.array(cfg.positions)
    acc_a = kernels.sweep(pos_a, nbrs, order, uniforms, 0.01, hi2)

    pos_b = np.array(cfg.positions)
    acc_b = 0
    for t in range(15):
        acc_b += kernels.sweep(pos_b, nbrs, order[t : t + 1], uniforms[t : t + 1], 0.01, hi2)
    assert acc_a == acc_b
    assert np.array_equal(pos_a, pos_b)


def test_rejection_restores_state_exactly():
    cfg = C.standard_config(4, 1.01, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    pos = np.array(cfg.positions)
    before = pos.copy()
    order = np.array([5], dtype=np.int64)
    # the largest radius a chain allows, towards a neighbour at 1.01:
    # the move compresses that bond below 1
    uniforms = np.array([[0.99, 0.37]])
    acc = kernels.sweep(pos, kernels.neighbour_triples(nbr_idx, shift), order, uniforms, 0.05, hi2)
    assert acc == 0
    assert np.array_equal(pos, before)
