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
    """The exact reference of ``geometry.winding_numbers``, one polygon at a time."""
    return _fraction_winding
