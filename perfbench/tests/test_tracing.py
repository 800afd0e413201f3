"""Self-check of the benchmark's tracing.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The traced runs use tiny configurations.  They assert the trace's exact
invariants, that tracing leaves ``scan.csv`` byte-identical, and that a
binding the wrappers miss makes the invariants fail.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402

SCAN = {"N": [2, 3], "l": [1.05], "sweeps": 100, "burn_in": 5, "thin": 1}
VERIFY = {
    "N": 4, "l": 1.05, "sweeps": 20, "burn_in": 2, "thin": 1, "omega2_oracle_every": 10,
    "squared_bound_samples": 1000, "rigidity_samples": 1000, "heron_samples": 100,
    "dist_matrices": 10,
}


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(tmp_path, command, block, traced):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({command: block}))
    out = tmp_path / ("traced" if traced else "plain")
    argv = [command, "--config", str(config), "--out", str(out), "--threads", "1", "--seed", "3"]
    spans = tmp_path / "spans.npz"
    head = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), str(spans)] if traced else [
        sys.executable, "-m", "hardlattice"]
    proc = subprocess.run(head + argv, env=_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout, (tracing.summarize(tracing.load(str(spans))) if traced else None)


def test_scan_trace_invariants_and_identical_csv(tmp_path):
    plain, _, _ = _run(tmp_path, "scan", SCAN, traced=False)
    traced, _, summary = _run(tmp_path, "scan", SCAN, traced=True)
    points = len(SCAN["N"]) * len(SCAN["l"])
    sweeps = points * (SCAN["burn_in"] + SCAN["sweeps"])
    emitted = points * SCAN["sweeps"]
    assert tracing.selfcheck(summary, sweeps, emitted + points) == []
    assert (plain / "scan.csv").read_bytes() == (traced / "scan.csv").read_bytes()
    # Both bindings of identity_suite (analysis and observables) are traced.
    assert tracing.stat(summary, "observables.identity_suite", "calls") == emitted
    assert summary["covered_s"] > 0.0


def test_verify_trace_invariants(tmp_path):
    _, plain_out, _ = _run(tmp_path, "verify", VERIFY, traced=False)
    _, traced_out, summary = _run(tmp_path, "verify", VERIFY, traced=True)
    assert traced_out == plain_out
    assert traced_out.count("PASS ") == 7
    sweeps = VERIFY["burn_in"] + VERIFY["sweeps"]
    assert tracing.selfcheck(summary, sweeps, VERIFY["sweeps"] + 1) == []
    assert summary["meta"]["oracle_peak_mb"] > 0.0
    assert tracing.stat(summary, "geometry.triangles_overlap", "calls") > 0


def test_missed_binding_breaks_the_invariants(tmp_path):
    import hardlattice.cli  # noqa: F401  (install wraps every layer, cli included)
    from hardlattice import configuration, sampler

    original = configuration.is_admissible
    tracer = tracing.Tracer()
    tracer.install()
    configuration.is_admissible = original  # a binding the wrappers overlooked
    try:
        params = sampler.SamplerParams(sweeps=10, burn_in=0, thin=1, seed=1)
        sampler.Chain.from_standard(2, 1.05, 0.1, params).run()
    finally:
        tracer.uninstall()
    spans = tmp_path / "spans.npz"
    tracer.save(str(spans), {})
    problems = tracing.selfcheck(tracing.summarize(tracing.load(str(spans))), 10, 11)
    assert problems == ["configuration.is_admissible.calls = 0, expected 11"]
