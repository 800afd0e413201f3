"""Acceptance gate: every criterion the package must meet, each printing
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The deterministic identities are checked at tight float tolerances on
real sampler output; statistical statements use batch-means errors; the
oracle equivalences compare independent computations of the same
quantity.  Every run is seeded, so the suite is reproducible.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hardlattice as hl
from hardlattice import analysis as A
from hardlattice import configuration as C
from hardlattice import counterexamples, geometry
from hardlattice import observables as O
from hardlattice.lattice import NEIGHBOR_OFFSETS, embed

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

GRID_N = (2, 4, 8)
GRID_L = (1.01, 1.05)
EPSILON = 0.1


def _report(criterion, ok, detail, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\ncriterion {criterion:28s} {'PASS' if ok else 'FAIL'}  {detail}{stamp}")
    return ok


@pytest.fixture(scope="module")
def grid_snapshots():
    """>= 1000 equilibrated samples for each (N, l) in the acceptance grid."""
    out = {}
    for i, (N, l) in enumerate((N, l) for N in GRID_N for l in GRID_L):
        params = hl.SamplerParams(sweeps=3000, burn_in=600, thin=3, seed=np.random.SeedSequence([404, i]))
        out[(N, l)] = hl.run_chain(N, l, EPSILON, params).records
        assert len(out[(N, l)]) == 1000
    return out


@pytest.fixture(scope="module")
def rigidity_estimate():
    return A.estimate_rigidity_constant(n_samples=1_000_000, epsilon=EPSILON, seed=2718)


def test_criterion_01_area_identity(grid_snapshots):
    t0 = time.time()
    worst = 0.0
    for (N, l), snaps in grid_snapshots.items():
        closed = O.area_difference_closed_form(N, l)
        for snap in snaps:
            rel = abs(O.area_difference_sum(snap) - closed) / closed
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 120.0
    assert _report("01-area-identity", ok, f"max_rel_err={worst:.3e} over 6000 samples", elapsed)


def test_criterion_02_mean_gradient_identity(grid_snapshots):
    t0 = time.time()
    worst = 0.0
    for snaps in grid_snapshots.values():
        for snap in snaps:
            err = geometry.frobenius(O.mean_gradient(snap) - snap.l * np.eye(2))
            worst = max(worst, err)
    ok = worst <= 1e-10
    assert _report("02-mean-gradient", ok, f"max_frobenius_err={worst:.3e}", time.time() - t0)


def test_criterion_03_pythagoras_identity(grid_snapshots):
    t0 = time.time()
    worst = 0.0
    for snaps in grid_snapshots.values():
        for snap in snaps:
            worst = max(worst, O.identity_suite(snap).pythagoras_relative_error)
    ok = worst <= 1e-9
    assert _report("03-pythagoras", ok, f"max_rel_err={worst:.3e}", time.time() - t0)


def test_criterion_04_bond_vector_expectation():
    t0 = time.time()
    N, l = 4, 1.05
    sites = ((0, 0), (1, 2), (3, 1))
    series = np.empty((10_000, len(sites), 6, 2))
    count = [0]

    def observer(block):
        for cfg in block.snapshots:
            for si, x in enumerate(sites):
                for zi, z in enumerate(NEIGHBOR_OFFSETS):
                    series[count[0], si, zi] = O.bond_vector(cfg, x, z)
            count[0] += 1
        return None

    params = hl.SamplerParams(sweeps=100_000, burn_in=5_000, thin=10, seed=1001)
    hl.run_chain(N, l, EPSILON, params, observer)
    assert count[0] == 10_000

    worst_pull = 0.0
    for si in range(len(sites)):
        for zi, z in enumerate(NEIGHBOR_OFFSETS):
            target = l * embed(z)
            for comp in range(2):
                mean, se = A.batch_means(series[:, si, zi, comp])
                pull = abs(mean - target[comp]) / se
                worst_pull = max(worst_pull, pull)
    elapsed = time.time() - t0
    ok = worst_pull <= 4.0 and elapsed <= 600.0
    assert _report(
        "04-bond-expectation",
        ok,
        f"max |mean - l*z| = {worst_pull:.2f} standard errors (36 comparisons, 1e5 sweeps)",
        elapsed,
    )


def test_criterion_05_geometry_oracles():
    t0 = time.time()
    dist_worst = A.dist_so2_agreement(10_000, 3600, seed=515)
    heron_worst = A.heron_cross_agreement(10_000, seed=515)
    elapsed = time.time() - t0
    ok = dist_worst <= 2e-3 and heron_worst <= 1e-12 and elapsed <= 60.0
    assert _report(
        "05-so2-and-heron-oracles",
        ok,
        f"dist_max_abs={dist_worst:.3e} heron_max_rel={heron_worst:.3e}",
        elapsed,
    )


def test_criterion_06_window_certification():
    t0 = time.time()
    cert = A.certify_epsilon(0.1)
    margin = cert.margin
    sq = A.verify_squared_bound(0.1, n_samples=1_000_000, seed=616)
    elapsed = time.time() - t0
    ok = margin > 0.0 and cert.certified and sq.n_violations == 0 and sq.scalar_ok and elapsed <= 60.0
    assert _report(
        "06-epsilon-certificate",
        ok,
        f"margin={margin:.4e} violations={sq.n_violations}/{sq.n_samples}",
        elapsed,
    )


def test_criterion_07_estimate_chain(grid_snapshots, rigidity_estimate):
    t0 = time.time()
    c_hat = rigidity_estimate.c_hat
    n_checked = 0
    failures = 0
    worst = math.inf
    for snaps in grid_snapshots.values():
        for snap in snaps:
            rep = A.check_estimate_chain(snap, O.identity_suite(snap))
            failures += not rep.ok
            worst = min(worst, rep.triangle_bound_margin)
            n_checked += 1
    ok = failures == 0 and rigidity_estimate.ok
    assert _report(
        "07-estimate-chain",
        ok,
        f"constant={A.RIGIDITY_CONSTANT} c_hat={c_hat:.4f} failures={failures}/{n_checked} worst_margin={worst:.3e}",
        time.time() - t0,
    )


def test_criterion_08_injectivity_oracle_equivalence(grid_snapshots):
    t0 = time.time()
    snaps = grid_snapshots[(4, 1.05)]
    assert len(snaps) >= 1000
    agree = True
    for snap in snaps:
        fast = C.is_admissible(snap).omega2_ok
        oracle = C.check_omega2_oracle(snap).ok
        agree &= fast and oracle
    bad_states = counterexamples.folded_counterexamples(4, 1.05, EPSILON)
    assert len(bad_states) >= 10
    rejected = 0
    for bad in bad_states:
        fast_rejects = not C.is_admissible(bad).omega2_ok
        oracle_rejects = not C.check_omega2_oracle(bad).ok
        agree &= fast_rejects and oracle_rejects
        rejected += fast_rejects and oracle_rejects
    elapsed = time.time() - t0
    ok = agree and elapsed <= 300.0
    assert _report(
        "08-injectivity-equivalence",
        ok,
        f"samples={len(snaps)} counterexamples_rejected={rejected}/{len(bad_states)}",
        elapsed,
    )


def test_criterion_09_order_parameter_trend():
    t0 = time.time()
    eps = 0.2  # the upper grid point l = 1.1 needs a window reaching past it
    assert A.certify_epsilon(eps).certified
    params = hl.SamplerParams(sweeps=8000, burn_in=2000, thin=4, seed=909)
    records = A.scan(list(GRID_N), [1.01, 1.1], eps, params, master_seed=909)
    by_point = {(r.N, r.l): r for r in records}

    separated = True
    for N in GRID_N:
        low = by_point[(N, 1.01)]
        high = by_point[(N, 1.1)]
        upper_low = low.mean_op_id + 1.96 * low.se_op_id
        lower_high = high.mean_op_id - 1.96 * high.se_op_id
        separated &= upper_low < lower_high

    means_low = [by_point[(N, 1.01)].mean_op_id for N in GRID_N]
    uniform = max(means_low) / min(means_low) <= 2.0

    elapsed = time.time() - t0
    ok = separated and uniform and elapsed <= 1800.0
    assert _report(
        "09-order-parameter-trend",
        ok,
        f"CI_separated={separated} N_ratio={max(means_low) / min(means_low):.2f} "
        f"(means at l=1.01: {[f'{m:.2e}' for m in means_low]})",
        elapsed,
    )


@pytest.mark.slow
def test_criterion_10_byte_identical_csv():
    t0 = time.time()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(
                {"seed": 777, "scan": {"N": [2, 4], "l": [1.05], "sweeps": 800, "burn_in": 100, "thin": 5}},
                fh,
            )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        blobs = []
        for run in ("a", "b"):
            out_dir = os.path.join(tmp, run)
            proc = subprocess.run(
                [sys.executable, "-m", "hardlattice", "scan", "--config", cfg_path, "--out", out_dir],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            with open(os.path.join(out_dir, "scan.csv"), "rb") as fh:
                blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    assert _report(
        "10-deterministic-output",
        ok,
        f"two CLI runs, {len(blobs[0])} bytes each, identical={ok}",
        time.time() - t0,
    )
