import math

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import configuration as C
from hardlattice import counterexamples, kernels, lattice
from hardlattice.configuration import Configuration


def _tables(cfg):
    nbr_idx, nbr_offset = lattice.neighbor_tables(cfg.N)
    shift = cfg.l * cfg.N * nbr_offset
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
    # only x is NaN: the bond test fails on the NaN square
    pos[nbr_idx[s, 2], 0] = math.nan
    assert not kernels.local_ok(pos, nbr_idx, shift, s, hi2)


def _reference_local_ok(pos, nbr_idx, shift, s, hi2):
    """``local_ok`` in array form: the six edge vectors from ``s``, their
    squares strictly inside ``(1, hi2)`` and the six cross products of
    consecutive edges positive."""
    e = pos[nbr_idx[s]] + shift[s] - pos[s]
    d2 = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]
    f = np.roll(e, -1, axis=0)
    cross = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    return bool(np.all((d2 > 1.0) & (d2 < hi2)) and np.all(cross > 0.0))


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_local_ok_matches_array_reference_on_random_stars(eps):
    """Random stars, one in ten winding twice around the centre, with bond
    lengths straddling both ends of the window: ``local_ok`` agrees with
    the array reference on each.  A double star whose bonds and triangles
    pass is accepted: ``local_ok`` decides only states in which every
    constraint not involving ``s`` holds."""
    rng = np.random.Generator(np.random.PCG64(23))
    nbr_idx = np.tile(np.arange(1, 7), (7, 1))
    shift = np.zeros((7, 6, 2))
    hi2 = (1.0 + eps) * (1.0 + eps)
    accepted = twice = 0
    for n in range(1500):
        turns = 2 if n % 10 == 0 else 1
        ang = 0.1 + turns * np.arange(6) * math.pi / 3 + rng.uniform(-0.6, 0.6, 6)
        length = 1.0 + eps * rng.uniform(-0.1, 1.1, (6, 1))
        pos = np.zeros((7, 2))
        pos[0] = rng.uniform(-1.0, 1.0, 2)
        pos[1:] = pos[0] + length * np.stack((np.cos(ang), np.sin(ang)), 1)
        got = kernels.local_ok(pos, nbr_idx, shift, 0, hi2)
        assert got == _reference_local_ok(pos, nbr_idx, shift, 0, hi2)
        accepted += got
        twice += got and turns == 2
    assert 0 < accepted < 1500 and twice > 0


def test_local_ok_rejects_nan_cross_product():
    """With ``hi2`` NaN the bond test passes every square, NaN included
    (``d2 >= nan`` is False), so only the orientation test can reject a
    NaN neighbour: a NaN cross product is not positive."""
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, _ = _tables(cfg)
    pos = np.array(cfg.positions)
    s = lattice.site_index((1, 1), 4)
    assert kernels.local_ok(pos, nbr_idx, shift, s, math.nan)
    pos[nbr_idx[s, 2], 0] = math.nan
    assert not kernels.local_ok(pos, nbr_idx, shift, s, math.nan)


def test_local_ok_passes_the_wrapped_vertex_outside_its_precondition():
    """``wrapped_vertex_config`` winds twice around its vertex, yet the six
    bonds and orientations there pass: ``local_ok`` decides only states in
    which every constraint not involving ``s`` holds, and this one has
    inverted triangles away from the vertex, which is where exact omega3,
    and so the full check, rejects it."""
    bad = counterexamples.wrapped_vertex_config(4, 1.05, 0.1, vertex=(2, 2))
    nbr_idx, shift, hi2 = _tables(bad)
    s = lattice.site_index((2, 2), 4)
    pos = np.array(bad.positions)
    assert kernels.local_ok(pos, nbr_idx, shift, s, hi2)
    incident = {tri for tri, _ in lattice.vertex_star((2, 2), 4)}
    failed = {tri for _, tri, _ in C.check_omega3(bad).violations}
    assert failed and not failed & incident
    assert not C.is_admissible(bad).ok


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
    "N, sweeps",
    [(2, 40), (3, 20), (4, 20), (5, 10), (6, 8), (8, 5), (12, 3), (16, 2), (32, 1), (48, 1), (96, 1)],
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
        resolved.append((amb.size, rounds))
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


def test_fixed_point_raises_on_a_cyclic_predecessor_table():
    """Two ambiguous attempts, each reading the other in slot 0: attempt 0
    passes only if attempt 1 moved, attempt 1 only if attempt 0 stayed, so
    no assignment is a fixed point."""
    verdicts = np.ones((2, 2, 8), dtype=bool)
    verdicts[0, 0, 0] = False  # attempt 0, slot 0: fails against attempt 1's old position
    verdicts[1, 1, 0] = False  # attempt 1, slot 0: fails against attempt 0's proposal
    old, new = verdicts.view(np.uint64)[..., 0]
    pred = np.zeros((2, 8), dtype=np.int64)
    pred[0, 0], pred[1, 0] = 1, 0
    acc = (old & new) == kernels.ALL_PASS
    amb = np.flatnonzero(((old | new) == kernels.ALL_PASS) != acc)
    assert amb.tolist() == [0, 1]
    with pytest.raises(RuntimeError, match="cycle"):
        kernels._fixed_point(acc, amb, old, new, pred)


def test_fixed_point_settles_a_chain_of_ambiguous_rows():
    """Attempt 0 passes under both outcomes; attempt 1 passes only if 0
    moved, attempt 2 only if 1 moved.  Round 1 decides 1, round 2 decides
    2, and round 3 changes nothing."""
    verdicts = np.ones((2, 3, 8), dtype=bool)
    verdicts[0, 1, 4] = False  # attempt 1, slot 4: fails against attempt 0's old position
    verdicts[0, 2, 3] = False  # attempt 2, slot 3: fails against attempt 1's old position
    old, new = verdicts.view(np.uint64)[..., 0]
    pred = np.zeros((3, 8), dtype=np.int64)
    pred[1, 4], pred[2, 3] = 0, 1
    acc = (old & new) == kernels.ALL_PASS
    amb = np.flatnonzero(((old | new) == kernels.ALL_PASS) != acc)
    assert acc.tolist() == [True, False, False] and amb.tolist() == [1, 2]
    assert kernels._fixed_point(acc, amb, old, new, pred) == 3
    assert acc.tolist() == [True, True, True]


def test_plan_verdict_rows_keep_their_pads():
    """After sweeps the verdicts' two pad columns are still True, so a row
    is ALL_PASS exactly when its six verdicts are True; the work buffers
    are the plan's own, reused by every sweep."""
    cfg = C.standard_config(6, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    order = np.arange(1, 36, dtype=np.int64)
    plan = kernels.plan(nbr_idx, shift, order)
    buffers = plan.concat, plan.verdicts
    pos = np.array(cfg.positions)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(5):
        kernels.sweep(pos, None, plan, rng.random((order.size, 2)), 0.05, hi2)
        assert plan.verdicts[..., 6:].all()
        assert np.array_equal(plan.rows == kernels.ALL_PASS, plan.verdicts[..., :6].all(axis=-1))
        assert np.shares_memory(plan.rows, plan.verdicts)
        assert 0 < (plan.rows == kernels.ALL_PASS).sum() < plan.rows.size
    assert buffers[0] is plan.concat and buffers[1] is plan.verdicts


@pytest.mark.parametrize(
    "make",
    [
        lambda p: np.asfortranarray(p),
        lambda p: p.astype(np.float32),
        lambda p: np.concatenate((p, p), axis=1)[:, ::2],
        lambda p: np.concatenate((p, p[:, :1]), axis=1),
        lambda p: p.ravel(),
    ],
    ids=["fortran", "float32", "strided", "three-columns", "flat"],
)
def test_plan_sweep_rejects_positions_it_cannot_view(make):
    """A plan sweep writes through a complex view of ``pos``; a copy would
    take the moves with it, so it refuses, before writing anything."""
    cfg = C.standard_config(4, 1.05, 0.1)
    nbr_idx, shift, hi2 = _tables(cfg)
    order = np.arange(1, 16, dtype=np.int64)
    plan = kernels.plan(nbr_idx, shift, order)
    pos = make(np.array(cfg.positions))
    before = pos.copy()
    uniforms = np.random.Generator(np.random.PCG64(2)).random((order.size, 2))
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.sweep(pos, None, plan, uniforms, 0.05, hi2)
    assert pos.tobytes() == before.tobytes()
    good = np.array(cfg.positions)
    assert kernels.sweep(good, None, plan, uniforms, 0.05, hi2) > 0
    assert np.shares_memory(kernels._complex_view(good), good)


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
