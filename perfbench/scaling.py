"""Layer-scaling table: kernel throughput and exact-oracle cost against N.

Usage::

    python perfbench/scaling.py SEED

prints one JSON object of ``scale.*`` metrics.  Every number is taken
on a sampled configuration (a chain from the scaled standard state after
``BURN_IN`` sweeps), because the oracle's prefilter passes a
state-dependent number of triangle pairs.  The oracle is also timed on
the standard state itself, which is where the baseline figures in
``perfbench/README.md`` were taken.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import hardlattice as hl
from hardlattice import configuration
from tracing import oracle_peak_mb

L, EPSILON = 1.05, 0.1
BURN_IN = 20
KERNEL_N = (4, 8, 16, 32)
ORACLE_N = (8, 16, 24, 32)
KERNEL_MIN_S = 0.5  # timed sweeps per N last at least this long
ORACLE_REPS = 3


def sampled_chain(N: int, seed: int) -> hl.Chain:
    params = hl.SamplerParams(sweeps=0, seed=[seed, N])
    chain = hl.Chain.from_standard(N, L, EPSILON, params)
    for _ in range(BURN_IN):
        chain.sweep()
    return chain


def kernel_updates_per_s(chain: hl.Chain) -> float:
    """Attempted site updates per second over whole sweeps."""
    proposed0 = chain.proposed
    t0 = time.perf_counter()
    elapsed = 0.0
    while elapsed < KERNEL_MIN_S:
        chain.sweep()
        elapsed = time.perf_counter() - t0
    return (chain.proposed - proposed0) / elapsed


def oracle_ms(cfg, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = configuration.check_omega2_oracle(cfg)
        times.append(time.perf_counter() - t0)
        if not result.ok:
            raise SystemExit(f"oracle rejected an admissible state at N={cfg.N}")
    return 1e3 * statistics.median(times)


def main(seed: int) -> dict:
    out = {}
    chains = {}
    for N in KERNEL_N:
        chains[N] = sampled_chain(N, seed)
        out[f"scale.kernel_updates_per_s.N{N}"] = kernel_updates_per_s(chains[N])
    for N in ORACLE_N:
        sampled = (chains[N] if N in chains else sampled_chain(N, seed)).snapshot()
        standard = configuration.standard_config(N, L, EPSILON)
        out[f"scale.oracle_ms.N{N}"] = oracle_ms(sampled, ORACLE_REPS)
        peak, pairs = oracle_peak_mb(configuration.check_omega2_oracle, sampled)
        out[f"scale.oracle_peak_mb.N{N}"] = peak
        out[f"scale.oracle_pairs.N{N}"] = pairs
        out[f"scale.oracle_std_ms.N{N}"] = oracle_ms(standard, 1)
        peak, pairs = oracle_peak_mb(configuration.check_omega2_oracle, standard)
        out[f"scale.oracle_std_peak_mb.N{N}"] = peak
        out[f"scale.oracle_std_pairs.N{N}"] = pairs
    return out


if __name__ == "__main__":
    print(json.dumps(main(int(sys.argv[1]))))
