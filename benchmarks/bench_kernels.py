#!/usr/bin/env python3
"""Sweep-throughput comparison of the numba and plain-numpy kernel backends.

Runs the same seeded chain workload in two subprocesses, one per
backend, and reports site updates per second.  A backend that cannot
be imported is reported as skipped.  Usage:

    python benchmarks/bench_kernels.py [--N 8] [--sweeps 4000]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys

_CHILD = """
import json, sys, time
import hardlattice as hl
from hardlattice import kernels

N, sweeps = int(sys.argv[1]), int(sys.argv[2])
params = hl.SamplerParams(sweeps=sweeps, burn_in=0, thin=sweeps, seed=12345)
chain = hl.Chain.from_standard(N, 1.05, 0.1, params)
chain.sweep()  # warm up (jit compilation on the numba path)

t0 = time.perf_counter()
result = chain.run()
elapsed = time.perf_counter() - t0
updates = sweeps * (N * N - 1)
print(json.dumps({
    "backend": kernels.BACKEND,
    "elapsed_s": elapsed,
    "updates_per_s": updates / elapsed,
    "acceptance": result.acceptance_rate,
}))
"""


def run_backend(backend: str, N: int, sweeps: int) -> dict:
    env = dict(os.environ, HARDLATTICE_BACKEND=backend)
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(N), str(sweeps)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=8)
    ap.add_argument("--sweeps", type=int, default=4000)
    args = ap.parse_args()

    results = {}
    print(f"{'backend':>8}  {'updates/s':>12}  {'elapsed':>9}  acceptance")
    for backend in ("numba", "numpy"):
        if backend == "numba" and importlib.util.find_spec("numba") is None:
            print(f"{backend:>8}  not importable, skipped")
            continue
        try:
            r = results[backend] = run_backend(backend, args.N, args.sweeps)
        except subprocess.CalledProcessError as exc:
            print(f"{backend:>8}  failed\n{exc.stderr}", file=sys.stderr)
            continue
        print(
            f"{r['backend']:>8}  {r['updates_per_s']:>12.0f}  {r['elapsed_s']:>8.2f}s"
            f"  {r['acceptance']:.3f}"
        )
    if len(results) == 2:
        speedup = results["numba"]["updates_per_s"] / results["numpy"]["updates_per_s"]
        print(f"\nnumba speedup over numpy fallback: {speedup:.1f}x")


if __name__ == "__main__":
    main()
