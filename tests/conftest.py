import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import hardlattice as hl

settings.register_profile(
    "default",
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def sample_chain_result():
    """A short equilibrated run shared by tests that only need typical states."""
    params = hl.SamplerParams(sweeps=600, burn_in=200, thin=3, seed=2024)
    return hl.run_chain(4, 1.05, 0.1, params)


@pytest.fixture(scope="session")
def sample_snapshots(sample_chain_result):
    return sample_chain_result.records


@pytest.fixture(scope="session")
def rng():
    return np.random.Generator(np.random.PCG64(99))


def _fraction_winding(p, polygon) -> int:
    """Sunday's crossing rule in rational arithmetic: how often the closed
    ``polygon`` winds around ``p``.  Edge ``a -> b`` counts +1 where
    ``a.y <= p.y < b.y`` with ``p`` strictly left of it, and -1 where
    ``b.y <= p.y < a.y`` with ``p`` strictly right of it."""
    px, py = Fraction(p[0]), Fraction(p[1])
    q = [(Fraction(x), Fraction(y)) for x, y in polygon]
    w = 0
    for (ax, ay), (bx, by) in zip(q, q[1:] + q[:1]):
        side = (ax - px) * (by - py) - (ay - py) * (bx - px)
        if ay <= py < by and side > 0:
            w += 1
        elif by <= py < ay and side < 0:
            w -= 1
    return w


@pytest.fixture(scope="session")
def fraction_winding():
    """How often a closed polygon winds around a point, in exact arithmetic.

    The test reference for the lemma in ``hardlattice.configuration``:
    where exact omega3 holds, every vertex star winds once."""
    return _fraction_winding


def _allocating_orient_signs(a, b, c):
    """``geometry.orient_signs`` as it was before its work arrays were
    reused: every step allocates, and the nine edge-vertex signs of a
    pair come from one broadcast call."""
    a, b, c = np.asarray(a, float), np.asarray(b, float), np.asarray(c, float)
    with np.errstate(over="ignore", invalid="ignore"):
        ax = a[..., 0] - c[..., 0]
        ay = a[..., 1] - c[..., 1]
        bx = b[..., 0] - c[..., 0]
        by = b[..., 1] - c[..., 1]
        detleft = ax * by
        detright = ay * bx
        det = detleft - detright
        detsum = np.abs(detleft + detright)
        sign = np.sign(det).astype(np.int8)
    underflow = ((np.abs(detleft) < hl.geometry._MIN_NORMAL) & (ax != 0.0) & (by != 0.0)) | (
        (np.abs(detright) < hl.geometry._MIN_NORMAL) & (ay != 0.0) & (bx != 0.0)
    )
    bound = hl.geometry._ORIENT_ERRBOUND * detsum
    return sign, ~underflow & np.isfinite(det) & (np.abs(det) >= bound)


def _broadcast_overlap_block(P, Q):
    """``geometry.triangles_overlap_block`` as it was before it tested one
    edge at a time: all nine signs of a direction in one ``(M, 3, 3)``
    broadcast of :func:`_allocating_orient_signs`."""
    (P, ok_p), (Q, ok_q) = hl.geometry._ccw_stack(P), hl.geometry._ccw_stack(Q)
    (lo_p, hi_p), (lo_q, hi_q) = hl.geometry.corner_box(P), hl.geometry.corner_box(Q)
    apart = (hi_p <= lo_q) | (hi_q <= lo_p)
    apart = apart[:, 0] | apart[:, 1]
    separated = np.zeros_like(apart)
    joined = np.ones_like(apart)
    for S, V in ((P, Q), (Q, P)):
        sign, decided = _allocating_orient_signs(S[:, :, None], S[:, [1, 2, 0], None], V[:, None, :])
        separated |= (decided & (sign <= 0)).all(axis=2).any(axis=1)
        joined &= (decided & (sign > 0)).any(axis=2).all(axis=1)
    decided = ok_p & ok_q & (apart | separated | joined)
    return decided & ~apart & ~separated, decided


@pytest.fixture(scope="session")
def allocating_orient_signs():
    """The allocating form of ``geometry.orient_signs``, the reference
    its in-place form is pinned to bitwise."""
    return _allocating_orient_signs


@pytest.fixture(scope="session")
def broadcast_overlap_block():
    """The broadcast form of ``geometry.triangles_overlap_block``, the
    reference its one-edge-at-a-time form is pinned to."""
    return _broadcast_overlap_block


def _exhaustive_bruteforce(M, n_grid):
    """``geometry.dist_so2_bruteforce`` as it was before its windowed
    search: the grid expression on all ``n_grid`` angles for every
    matrix, one stacked expression per block of 16 matrices."""
    m = np.asarray(M, dtype=float)
    theta = np.arange(n_grid) * (2.0 * math.pi / n_grid)
    c = np.cos(theta)
    s = np.sin(theta)
    flat = m.reshape(-1, 2, 2)
    d2 = np.empty(len(flat))
    for start in range(0, len(flat), 16):
        q = flat[start : start + 16]
        d2[start : start + 16] = (
            (q[:, 0, 0, None] - c) ** 2
            + (q[:, 0, 1, None] + s) ** 2
            + (q[:, 1, 0, None] - s) ** 2
            + (q[:, 1, 1, None] - c) ** 2
        ).min(axis=-1)
    dmin = np.sqrt(d2).reshape(m.shape[:-2])
    return float(dmin) if m.ndim == 2 else dmin


@pytest.fixture(scope="session")
def exhaustive_bruteforce():
    """The exhaustive form of ``geometry.dist_so2_bruteforce``, the
    reference its windowed search is pinned to bitwise."""
    return _exhaustive_bruteforce
