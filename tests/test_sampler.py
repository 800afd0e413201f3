import json
import math
import os

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import configuration as C
from hardlattice import kernels, lattice, sampler
from hardlattice.sampler import Chain, ChainInvariantError, InadmissibleStateError, SamplerParams

TWO_PI = 2.0 * math.pi
# Six atan2 evaluations round at ~1e-15 each; a winding defect moves an
# angle sum by a multiple of 2*pi, so 1e-9 separates the two cleanly.
ANGLE_SUM_TOL = 1e-9


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerParams(sweeps=-1)
        with pytest.raises(ValueError):
            SamplerParams(sweeps=10, thin=0)
        with pytest.raises(ValueError):
            SamplerParams(sweeps=10, proposal_radius=0.0)
        with pytest.raises(ValueError):
            SamplerParams(sweeps=10, scan_order="zigzag")

    @pytest.mark.parametrize(
        "field, minimum", [("sweeps", 0), ("burn_in", 0), ("thin", 1), ("omega2_oracle_every", 0)]
    )
    @pytest.mark.parametrize("kind", ["bool", "float", "str", "np-below"])
    def test_rejects_a_count_that_is_not_an_integer_at_its_minimum(self, field, minimum, kind):
        bad = {"bool": True, "float": 1.5, "str": "3", "np-below": np.int64(minimum - 1)}[kind]
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {minimum}, got "):
            SamplerParams(**dict({"sweeps": 10}, **{field: bad}))

    def test_accepts_numpy_counts_at_their_minimum(self):
        params = SamplerParams(
            sweeps=np.int64(0), burn_in=np.int64(0), thin=np.int64(1), omega2_oracle_every=np.int64(0)
        )
        assert Chain.from_standard(2, 1.05, 0.1, params).run().sweeps_run == 0

    def test_default_radius_tracks_window(self):
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0))
        assert chain.radius == 0.01

    def test_chain_rejects_epsilon_outside_lean_regime(self):
        with pytest.raises(ValueError, match="sqrt"):
            Chain.from_standard(2, 1.3, 0.75, SamplerParams(sweeps=0))

    def test_chain_radius_bound_is_half_the_window(self):
        with pytest.raises(ValueError, match="proposal_radius"):
            Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, proposal_radius=0.51 * 0.1))
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, proposal_radius=0.5 * 0.1))
        assert chain.radius == 0.05


class TestBasics:
    def test_pinned_site_cannot_move(self):
        for scan_order in ("raster", "random"):
            params = SamplerParams(sweeps=0, seed=1, scan_order=scan_order)
            chain = Chain.from_standard(4, 1.05, 0.1, params)
            first = chain.snapshot()
            before = first.positions.tobytes()
            pinned = first.positions[0].tobytes()
            for _ in range(50):
                chain.sweep()
            assert chain.accepted > 0
            assert chain.snapshot().positions[0].tobytes() == pinned
            # a snapshot owns its positions: later sweeps leave it alone
            assert first.positions.tobytes() == before
            assert not np.shares_memory(first.positions, chain._pos)

    def test_zero_sweeps_gives_empty_records(self):
        res = hl.run_chain(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=1))
        assert res.records == []

    def test_tiny_radius_accepts_everything(self):
        # the standard configuration is an interior point of the admissible set
        chain = Chain.from_standard(4, 1.05, 0.1, SamplerParams(sweeps=0, seed=1, proposal_radius=1e-6))
        accepted = chain.sweep()
        assert accepted == 4 * 4 - 1

    def test_identical_seed_identical_stream(self):
        params = SamplerParams(sweeps=60, burn_in=10, thin=2, seed=321)
        r1 = hl.run_chain(2, 1.05, 0.1, params)
        r2 = hl.run_chain(2, 1.05, 0.1, params)
        assert r1.accepted == r2.accepted
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.positions, b.positions)

    def test_acceptance_rate_strictly_inside_unit_interval(self):
        res = hl.run_chain(4, 1.05, 0.1, SamplerParams(sweeps=10_000, seed=8))
        assert 0.0 < res.acceptance_rate < 1.0

    def test_random_scan_order_runs_and_stays_admissible(self):
        res = hl.run_chain(2, 1.05, 0.1, SamplerParams(sweeps=100, thin=10, seed=4, scan_order="random"))
        for snap in res.records:
            assert C.is_admissible(snap).ok

    def test_rejects_inadmissible_start(self):
        cfg = C.standard_config(4, 1.05, 0.1)
        pos = np.array(cfg.positions)
        pos[5] = pos[5] + np.array([0.5, 0.0])
        bad = C.Configuration(4, cfg.l, cfg.epsilon, pos)
        with pytest.raises(InadmissibleStateError):
            Chain(bad, SamplerParams(sweeps=1))

    @pytest.mark.parametrize("value", [(math.nan, 0.0), (1.05, math.nan)])
    def test_rejects_nan_site(self, value):
        # NaN fails every comparison, so it must fail the window and sign tests
        cfg = C.standard_config(4, 1.05, 0.1)
        pos = np.array(cfg.positions)
        pos[5] = value
        bad = C.Configuration(4, cfg.l, cfg.epsilon, pos)
        with pytest.raises(InadmissibleStateError):
            Chain(bad, SamplerParams(sweeps=10))


class TestChainInvariant:
    def test_snapshots_always_admissible_with_periodic_oracle(self):
        params = SamplerParams(sweeps=300, burn_in=50, thin=5, seed=11, omega2_oracle_every=10)
        res = hl.run_chain(4, 1.05, 0.1, params)
        assert len(res.records) == 60
        for snap in res.records:
            assert C.is_admissible(snap).ok

    def test_observer_receives_immutable_snapshots(self):
        seen = []

        def observer(block):
            seen.extend(block.snapshots)
            return block.snapshots  # ignored

        res = hl.run_chain(2, 1.05, 0.1, SamplerParams(sweeps=20, thin=5, seed=2), observer)
        assert len(seen) == 4 and res.records == []
        with pytest.raises(ValueError):
            seen[0].positions[0, 0] = 1.0


def _reference_run(N, params):
    """What ``Chain.run`` computes, as a plain loop that copies each emitted snapshot."""
    chain = Chain.from_standard(N, 1.05, 0.1, params)
    for _ in range(params.burn_in):
        chain.sweep()
    snaps = []
    for s in range(params.sweeps):
        chain.sweep()
        if (s + 1) % params.thin == 0:
            snaps.append(chain.snapshot())
    return chain, snaps


class TestBlocks:
    @pytest.mark.parametrize("order", ["raster", "random"])
    @pytest.mark.parametrize("thin,sweeps", [(1, 150), (3, 200)])
    @pytest.mark.parametrize("N", [2, 3, 4, 12])
    def test_run_equals_plain_loop(self, N, thin, sweeps, order):
        params = SamplerParams(sweeps=sweeps, burn_in=5, thin=thin, seed=N, scan_order=order)
        ref, ref_snaps = _reference_run(N, params)
        chain = Chain.from_standard(N, 1.05, 0.1, params)
        blocks = []
        res = chain.run(lambda block: blocks.append(block))
        assert res.records == []
        # More than one block, and a final partial one; the last sweeps
        # emit nothing when thin does not divide them.
        assert len(blocks) >= 2
        assert all(len(b.snapshots) == sampler.block_size(N) for b in blocks[:-1])
        assert thin == 1 or sweeps % thin != 0
        snaps = [snap for b in blocks for snap in b.snapshots]
        assert len(snaps) == len(ref_snaps) == sweeps // thin
        for snap, want in zip(snaps, ref_snaps):
            assert snap.positions.tobytes() == want.positions.tobytes()
        for b in blocks:
            assert b.positions.tobytes() == np.stack([s.positions for s in b.snapshots]).tobytes()
        assert chain._pos.tobytes() == ref._pos.tobytes()
        assert (chain.accepted, chain.proposed, chain.sweeps_done) == (
            ref.accepted, ref.proposed, ref.sweeps_done)
        # run() draws exactly the per-sweep stream, so a resumed run goes on from it
        assert chain.rng.bit_generator.state == ref.rng.bit_generator.state
        assert res.sweeps_run == 5 + sweeps and res.accepted == ref.accepted

    def test_records_default_to_the_snapshots(self):
        params = SamplerParams(sweeps=100, burn_in=3, thin=1, seed=4)
        _, ref_snaps = _reference_run(2, params)
        res = hl.run_chain(2, 1.05, 0.1, params)
        assert [s.positions.tobytes() for s in res.records] == [
            s.positions.tobytes() for s in ref_snaps]

    def test_recheck_failure_in_a_block_precedes_its_observer(self, monkeypatch):
        # Checks are per block: a recheck failure at the block's sixth
        # snapshot is raised before the observer sees its first one.
        real_check = C.is_admissible
        calls = []

        def check(cfg):
            calls.append(None)
            report = real_check(cfg)
            if len(calls) == 7:  # chain start, then snapshots 0..5
                report.omega1_ok = False
            return report

        def observer(block):
            raise AssertionError("observer reached before the failing recheck")

        monkeypatch.setattr(C, "is_admissible", check)
        params = SamplerParams(sweeps=100, thin=1, seed=4)
        with pytest.raises(ChainInvariantError, match="after sweep 6 failed recheck"):
            hl.run_chain(2, 1.05, 0.1, params, observer)

    @pytest.mark.parametrize("N, scan_order", [(3, "raster"), (4, "random"), (9, "raster")])
    def test_nan_row_in_a_block_fails_the_recheck_at_its_sweep(self, monkeypatch, N, scan_order):
        # One sweep leaves a NaN at a site and the next puts the site back,
        # so exactly one snapshot of the block holds the NaN.  Its recheck
        # reads the extremes the block pre-filled, and must fail there.
        real_sweep = kernels.sweep
        burn_in, bad_sweep = 4, 4 + 7
        calls, saved = [], {}

        def sweep(pos, *args):
            acc = real_sweep(pos, *args)
            calls.append(None)
            if len(calls) == bad_sweep:
                saved["xy"] = pos[N + 1].copy()
                pos[N + 1, 1] = math.nan
            elif len(calls) == bad_sweep + 1:
                pos[N + 1] = saved["xy"]
            return acc

        def observer(block):
            raise AssertionError("observer reached before the failing recheck")

        monkeypatch.setattr(kernels, "sweep", sweep)
        params = SamplerParams(sweeps=40, burn_in=burn_in, thin=1, seed=8, scan_order=scan_order)
        with pytest.raises(ChainInvariantError, match=f"after sweep {bad_sweep} failed recheck"):
            hl.run_chain(N, 1.05, 0.1, params, observer)

    def test_block_size_is_bounded_in_sites(self):
        for N in (2, 3, 4, 8, 12, 31, 32, 33, 64):
            b = sampler.block_size(N)
            assert 1 <= b <= sampler.BLOCK_SNAPSHOTS
            assert b * N * N <= max(sampler.BLOCK_SITES, N * N)

    @pytest.mark.parametrize("fail_at", [None, 0, 40, 64, 70])
    def test_recheck_failure_names_its_sweep_and_oracle_keeps_its_samples(
        self, monkeypatch, fail_at
    ):
        burn_in, thin, every = 7, 3, 3
        params = SamplerParams(sweeps=300, burn_in=burn_in, thin=thin, seed=12,
                               omega2_oracle_every=every)
        _, ref_snaps = _reference_run(2, params)
        real_check, real_oracle = C.is_admissible, C.check_omega2_oracle
        checked, oracled = [], []

        def check(cfg):
            checked.append(cfg.positions.tobytes())
            report = real_check(cfg)
            if fail_at is not None and len(checked) == fail_at + 2:  # +1: chain start
                report.omega1_ok = False
            return report

        def oracle(cfg):
            oracled.append(cfg.positions.tobytes())
            return real_oracle(cfg)

        monkeypatch.setattr(C, "is_admissible", check)
        monkeypatch.setattr(C, "check_omega2_oracle", oracle)
        chain = Chain.from_standard(2, 1.05, 0.1, params)
        if fail_at is None:
            chain.run()
            last = len(ref_snaps)
        else:
            sweep = burn_in + (fail_at + 1) * thin
            with pytest.raises(ChainInvariantError, match=f"after sweep {sweep} failed recheck"):
                chain.run()
            last = fail_at
        # Checked in order; the oracle saw every third emitted sample
        # before the failing one, as a per-snapshot loop would.
        want = [s.positions.tobytes() for s in ref_snaps]
        assert checked[1:] == want[: last + (fail_at is not None)]
        assert oracled == want[:last:every]


class TestCheckpoint:
    def test_resume_reproduces_uninterrupted_trajectory(self):
        params = SamplerParams(sweeps=0, seed=99)
        full = Chain.from_standard(4, 1.05, 0.1, params)
        for _ in range(60):
            full.sweep()

        half = Chain.from_standard(4, 1.05, 0.1, params)
        for _ in range(30):
            half.sweep()
        resumed = Chain.from_checkpoint(half.checkpoint())
        for _ in range(30):
            resumed.sweep()

        assert np.array_equal(resumed.snapshot().positions, full.snapshot().positions)
        assert resumed.accepted == full.accepted
        assert resumed.proposed == full.proposed
        assert resumed.sweeps_done == full.sweeps_done

    def test_checkpoint_file_round_trip(self, tmp_path):
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=5))
        for _ in range(10):
            chain.sweep()
        path = tmp_path / "state.json"
        chain.save_checkpoint(path)
        again = Chain.from_checkpoint(path)
        assert np.array_equal(again.snapshot().positions, chain.snapshot().positions)
        chain.sweep()
        again.sweep()
        assert np.array_equal(again.snapshot().positions, chain.snapshot().positions)

    @pytest.mark.parametrize("field, bad", [("l", "1.05"), ("epsilon", True)])
    def test_rejects_checkpoint_with_a_non_real_window_parameter(self, field, bad):
        data = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=5)).checkpoint()
        data["configuration"][field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            Chain.from_checkpoint(data)

    def test_rejects_checkpoint_with_nan_position(self, tmp_path):
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=5))
        chain.sweep()
        data = chain.checkpoint()
        data["configuration"]["positions"][3] = math.nan
        with pytest.raises(InadmissibleStateError):
            Chain.from_checkpoint(data)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(data))  # written as the JSON literal NaN
        assert "NaN" in path.read_text()
        with pytest.raises(InadmissibleStateError):
            Chain.from_checkpoint(path)

    @pytest.mark.parametrize(
        "counters, match",
        [
            ({"accepted": -3}, "accepted must be an integer >= 0"),
            ({"accepted": True}, "accepted must be an integer >= 0"),
            ({"accepted": 1.5}, "accepted must be an integer >= 0"),
            ({"accepted": "3"}, "accepted must be an integer >= 0"),
            ({"proposed": 75.0}, "proposed must be an integer >= 0"),
            ({"sweeps_done": -1}, "sweeps_done must be an integer >= 0"),
            ({"sweeps_done": False}, "sweeps_done must be an integer >= 0"),
            ({"accepted": np.int64(-1)}, "accepted must be an integer >= 0"),
            ({"accepted": 100}, "accepted 100 moves of 75 proposed"),
            ({"accepted": 0, "proposed": 74}, "proposed 74 moves in 25 sweeps of 3 movable sites"),
            ({"sweeps_done": 24}, "proposed 75 moves in 24 sweeps"),
            ({"accepted": 0, "proposed": 0}, "proposed 0 moves in 25 sweeps"),
        ],
        ids=["accepted-neg", "accepted-bool", "accepted-float", "accepted-str", "proposed-float",
             "sweeps-neg", "sweeps-bool", "accepted-np-neg", "accepted-above-proposed", "proposed-off-by-one",
             "sweeps-off-by-one", "proposed-zero"],
    )
    def test_rejects_counters_no_chain_reaches(self, counters, match):
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=5))
        for _ in range(25):
            chain.sweep()
        data = chain.checkpoint()
        assert data["counters"]["proposed"] == 75 and data["counters"]["accepted"] <= 75
        data["counters"].update(counters)
        with pytest.raises(ValueError, match=match):
            Chain.from_checkpoint(data)

    @pytest.mark.parametrize("order", ["raster", "random"])
    def test_accepts_the_counters_of_any_chain(self, order):
        # every move accepted, none accepted, and the fresh chain all resume
        params = SamplerParams(sweeps=0, seed=5, scan_order=order)
        for accepted in (0, 75):
            chain = Chain.from_standard(2, 1.05, 0.1, params)
            for _ in range(25):
                chain.sweep()
            data = chain.checkpoint()
            data["counters"]["accepted"] = accepted
            assert Chain.from_checkpoint(data).acceptance_rate == accepted / 75
        fresh = Chain.from_checkpoint(Chain.from_standard(3, 1.05, 0.1, params).checkpoint())
        assert (fresh.accepted, fresh.proposed, fresh.sweeps_done) == (0, 0, 0)
        # numpy counters resume as Python ints, so the next checkpoint is JSON
        data["counters"] = {name: np.int64(value) for name, value in data["counters"].items()}
        resumed = Chain.from_checkpoint(data)
        assert {type(resumed.accepted), type(resumed.proposed), type(resumed.sweeps_done)} == {int}
        json.dumps(resumed.checkpoint())

    def test_failed_save_keeps_earlier_checkpoint(self, tmp_path, monkeypatch):
        chain = Chain.from_standard(2, 1.05, 0.1, SamplerParams(sweeps=0, seed=5))
        path = tmp_path / "state.json"
        chain.save_checkpoint(path)
        saved = path.read_text()
        chain.sweep()

        # serialisation fails after the configuration has been encoded
        good = chain.checkpoint()
        monkeypatch.setattr(Chain, "checkpoint", lambda self: dict(good, zz=object()))
        with pytest.raises(TypeError):
            chain.save_checkpoint(path)
        assert path.read_text() == saved
        assert os.listdir(tmp_path) == ["state.json"]

        # the rename onto the old file fails
        monkeypatch.undo()

        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError):
            chain.save_checkpoint(path)
        monkeypatch.undo()
        assert path.read_text() == saved
        assert os.listdir(tmp_path) == ["state.json"]  # no temp file left behind
        assert Chain.from_checkpoint(path).sweeps_done == 0


class TestSweepPaths:
    """``_reference_run`` drives ``Chain.sweep`` itself, so only a chain on
    the other kernel path can catch a wrong one."""

    @staticmethod
    def _state(chain):
        return (chain._pos.tobytes(), chain.accepted, chain.proposed, chain.sweeps_done,
                chain.rng.bit_generator.state)

    @staticmethod
    def _advance(chain, sweeps):
        for _ in range(sweeps):
            chain.sweep()

    def test_plan_chain_equals_scalar_chain(self, monkeypatch):
        params = SamplerParams(sweeps=0, seed=12, proposal_radius=0.05)
        monkeypatch.setattr(kernels, "PLAN_MIN_SITES", 10**9)
        scalar = Chain.from_standard(12, 1.05, 0.1, params)
        assert not isinstance(scalar._visits, kernels.SweepPlan)
        self._advance(scalar, 30)
        scalar_resumed = Chain.from_checkpoint(scalar.checkpoint())
        monkeypatch.undo()

        planned = Chain.from_standard(12, 1.05, 0.1, params)
        assert 12 * 12 >= kernels.PLAN_MIN_SITES
        assert isinstance(planned._visits, kernels.SweepPlan)
        self._advance(planned, 30)
        assert self._state(planned) == self._state(scalar)
        assert 0 < planned.accepted < planned.proposed
        assert planned.checkpoint() == scalar.checkpoint()

        planned_resumed = Chain.from_checkpoint(planned.checkpoint())
        assert isinstance(planned_resumed._visits, kernels.SweepPlan)
        for chain in (scalar, scalar_resumed, planned, planned_resumed):
            self._advance(chain, 30)
        assert not isinstance(scalar_resumed._visits, kernels.SweepPlan)
        assert (
            self._state(planned)
            == self._state(planned_resumed)
            == self._state(scalar)
            == self._state(scalar_resumed)
        )

    @pytest.mark.parametrize(
        "N, order, scalar",
        [(7, "raster", False), (12, "raster", False), (9, "random", True), (12, "random", True),
         (6, "raster", True)],
    )
    def test_neighbour_triples_are_built_only_for_the_scalar_loop(self, monkeypatch, N, order, scalar):
        """A raster chain at or above the plan crossover never builds the
        triples, which only the scalar loop reads; every other chain does."""
        built = []
        triples = kernels.neighbour_triples

        def counted(*args):
            built.append(None)
            return triples(*args)

        monkeypatch.setattr(kernels, "neighbour_triples", counted)
        params = SamplerParams(sweeps=3, seed=N, scan_order=order)
        chain = Chain.from_standard(N, 1.05, 0.1, params)
        assert isinstance(chain._visits, kernels.SweepPlan) == (not scalar)
        assert len(built) == int(scalar)
        chain.run()
        assert len(built) == int(scalar)
        assert (Chain.from_checkpoint(chain.checkpoint())._nbrs is None) == (not scalar)


# ---------------------------------------------------------------------------
# Uniform-law sanity at miniature scale: freeze all sites but one, run the
# real kernel on that site alone, and compare cell occupancies against
# brute-force cell areas of the admissible slice.
# ---------------------------------------------------------------------------


def _batched_admissible(points, cfg, movable_idx):
    """Vectorized full admissibility over candidate positions of one site.

    Independent re-implementation of the three checks for the test: bond
    window, orientation, and vertex angle sums, evaluated for every
    candidate position in ``points``.
    """
    N, l, eps = cfg.N, cfg.l, cfg.epsilon
    n = len(points)
    pos = np.broadcast_to(cfg.positions, (n, N * N, 2)).copy()
    pos[:, movable_idx] = points

    bond_sites, bond_offset = lattice.bond_tables(N)
    pa = pos[:, bond_sites[:, 0]]
    pb = pos[:, bond_sites[:, 1]] + l * N * bond_offset
    d2 = np.sum((pb - pa) ** 2, axis=2)
    hi2 = (1.0 + eps) * (1.0 + eps)
    ok = np.all((d2 > 1.0) & (d2 < hi2), axis=1)

    tri_sites, tri_offset, _ = lattice.triangle_tables(N)
    corners = pos[:, tri_sites] + l * N * tri_offset
    d1 = corners[:, :, 1] - corners[:, :, 0]
    d2t = corners[:, :, 2] - corners[:, :, 0]
    cross = d1[..., 0] * d2t[..., 1] - d1[..., 1] * d2t[..., 0]
    ok &= np.all(cross > 0.0, axis=1)

    nbr_idx, nbr_offset = lattice.neighbor_tables(N)
    w = pos[:, nbr_idx] + l * N * nbr_offset
    e = w - pos[:, :, None, :]
    e2 = np.roll(e, -1, axis=2)
    cr = e[..., 0] * e2[..., 1] - e[..., 1] * e2[..., 0]
    dt = e[..., 0] * e2[..., 0] + e[..., 1] * e2[..., 1]
    sums = np.arctan2(cr, dt).sum(axis=2)
    ok &= np.all(np.abs(sums - TWO_PI) <= ANGLE_SUM_TOL, axis=1)
    return ok


@pytest.mark.slow
def test_single_site_occupancy_matches_cell_areas():
    # the window edge 1+eps is far from binding here: the slice for one
    # site is a hexagon of radius min(l-1, 1+eps-l) around its cage center
    N, l, eps = 2, 1.12, 0.3
    cfg = C.standard_config(N, l, eps)
    site = (1, 1)
    idx = lattice.site_index(site, N)
    center = cfg.positions[idx].copy()
    half = 0.14
    n_cells = 4

    # brute-force area oracle on a fine grid
    g = 400
    axis = np.linspace(-half, half, g, endpoint=False) + half / g
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([gx.ravel() + center[0], gy.ravel() + center[1]], axis=1)
    inside = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), 40_000):
        sl = slice(lo, lo + 40_000)
        inside[sl] = _batched_admissible(points[sl], cfg, idx)
    assert inside.sum() > 5000

    cell_of_point = (
        np.minimum((gx.ravel() + half) / (2 * half) * n_cells, n_cells - 1).astype(int) * n_cells
        + np.minimum((gy.ravel() + half) / (2 * half) * n_cells, n_cells - 1).astype(int)
    )
    expected = np.bincount(cell_of_point[inside], minlength=n_cells * n_cells).astype(float)
    expected /= expected.sum()

    # chain occupancy: the kernel proposes only the chosen site
    nbr_idx, nbr_offset = lattice.neighbor_tables(N)
    nbrs = kernels.neighbour_triples(nbr_idx, l * N * nbr_offset)
    hi2 = (1.0 + eps) * (1.0 + eps)
    order = np.array([idx], dtype=np.int64)
    M = 300_000
    uniforms = np.random.Generator(np.random.PCG64(1234)).random((M, 2))
    pos = np.array(cfg.positions)
    cells = np.empty(M, dtype=int)
    accepted = 0
    for t in range(M):
        accepted += kernels.sweep(pos, nbrs, order, uniforms[t : t + 1], 0.05, hi2)
        x, y = pos[idx] - center
        cx = min(int((x + half) / (2 * half) * n_cells), n_cells - 1)
        cy = min(int((y + half) / (2 * half) * n_cells), n_cells - 1)
        cells[t] = cx * n_cells + cy
    assert 0 < accepted < M

    # final state must still be admissible in the full sense
    assert C.is_admissible(C.Configuration(N, l, eps, pos)).ok

    checked = 0
    for c in range(n_cells * n_cells):
        if expected[c] < 0.02:
            continue
        series = (cells == c).astype(float)
        nb = M // 20
        bm = series[: 20 * nb].reshape(20, nb).mean(axis=1)
        obs = bm.mean()
        se = bm.std(ddof=1) / math.sqrt(20)
        assert abs(obs - expected[c]) <= 4.0 * se, (
            f"cell {c}: observed {obs:.4f}, expected {expected[c]:.4f}, se {se:.4f}"
        )
        checked += 1
    assert checked >= 8

    # two-state split: left/right halves of the slice occupy in proportion
    # to their areas (uniform stationary law)
    left_area = expected[: n_cells * n_cells // 2].sum()
    left_series = (cells < n_cells * n_cells // 2).astype(float)
    nb = M // 20
    bm = left_series[: 20 * nb].reshape(20, nb).mean(axis=1)
    assert abs(bm.mean() - left_area) <= 4.0 * bm.std(ddof=1) / math.sqrt(20)


@pytest.mark.slow
def test_bond_length_distribution_translation_covariant():
    scipy_stats = pytest.importorskip("scipy.stats")
    samples = {(0, 0): [], (1, 1): [], (0, 1): []}

    def observer(block):
        for cfg in block.snapshots:
            for x in samples:
                w = C.position(cfg, (x[0] + 1, x[1])) - C.position(cfg, x)
                samples[x].append(float(np.hypot(*w)))
        return None

    # the bond length decorrelates in O(100) sweeps at this proposal
    # scale; the stride makes the samples effectively independent so the
    # two-sample test is calibrated
    params = SamplerParams(
        sweeps=720_000, burn_in=5000, thin=120, seed=6, proposal_radius=0.025
    )
    hl.run_chain(2, 1.05, 0.1, params, observer)
    keys = list(samples)
    assert len(samples[keys[0]]) == 6000
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            stat = scipy_stats.ks_2samp(samples[keys[i]], samples[keys[j]])
            assert stat.pvalue > 1e-3, (keys[i], keys[j], stat)
