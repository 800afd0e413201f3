#!/usr/bin/env python3
"""hardlattice benchmark: the real CLI end to end, and a traced per-layer run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scan-kernel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  It times a fresh
``python -m hardlattice ...`` process per repetition (``--threads 1``,
``--seed`` passed through) until ``--seconds`` have passed, at least
``MIN_REPS`` times, and reports medians.  ``setup_s`` is the median of
``SETUP_PER_REP`` fresh interpreters per repetition, each timed from
spawn until it has imported hardlattice, loaded the config and certified
the window, i.e. up to the first chain.  Both times are in reference
seconds, scaled by the host speed that ``calibrate.py`` measures next to
each timed process.  The raw times are printed too.

``--trace 1`` measures the per-layer metrics.  It alternates untraced
runs with traced ones (``tracing.py``: the same CLI call in-process, with
every layer's public functions wrapped) until ``--seconds`` have passed,
then runs the layer-scaling table (``scaling.py``).

Every run checks the program's outputs: exit status, the CSV header,
``identities_ok`` on every row, seven ``PASS`` lines from ``verify``, and
one output digest per seed, traced or not.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import calibrate
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_REPS = 3
SETUP_PER_REP = 3
CHILD_TIMEOUT_S = 150.0
MB_PER_KIB = 1024 / 1e6  # rusage reports KiB; MB here is 10**6 bytes, as in ROADMAP

CSV_HEADER = (
    "N,l,epsilon,sweeps,n_samples,acceptance_rate,mean_op_id,se_op_id,"
    "mean_op_lid,se_op_lid,mean_bond_dx,se_bond_dx,mean_bond_dy,se_bond_dy,"
    "identities_ok"
)
VERIFY_CHECKS = 7

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "scan-kernel": {
        "command": "scan",
        "block": {
            "N": [12],
            "l": [1.02, 1.06],
            "sweeps": 500,
            "burn_in": 20,
            "thin": 5,
            "scan_order": "raster",
            "omega2_oracle_every": 0,
        },
        "flags": [],
    },
    "scan-snapshot": {
        "command": "scan",
        "block": {
            "N": [2, 4],
            "l": [1.01, 1.03, 1.05, 1.08],
            "sweeps": 500,
            "burn_in": 50,
            "thin": 1,
            "scan_order": "random",
            "omega2_oracle_every": 0,
        },
        "flags": ["--emit-gnuplot"],
    },
    "verify-oracle": {
        "command": "verify",
        "block": {
            "N": 32,
            "l": 1.05,
            "sweeps": 30,
            "burn_in": 0,
            "thin": 1,
            "omega2_oracle_every": 10,
        },
        "flags": [],
    },
}

# Prints the moment the first chain could start; interpreter teardown is
# not set-up.  time.monotonic is CLOCK_MONOTONIC, shared by all processes.
SETUP_CHILD = (
    "import sys, time\n"
    "from hardlattice import analysis, cli\n"
    "block = cli.load_config(sys.argv[1])[sys.argv[2]]\n"
    "analysis.certify_epsilon(block['epsilon'], block['certification_grid'])\n"
    "print(time.monotonic())\n"
)

ENV_CHILD = """
import json, os, platform, sys
import numpy
from hardlattice import kernels
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
cpu = platform.processor() or "unknown"
try:
    with open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
except OSError:
    pass
print(json.dumps({"backend": kernels.BACKEND, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy_version,
                  "nproc": os.cpu_count(), "cpu": cpu}))
"""

# ROADMAP open item 1, measured on the standard state with the numpy backend.
BASELINE = {
    "scale.kernel_updates_per_s.N4": 9.2e3,
    "scale.kernel_updates_per_s.N8": 7.8e3,
    "scale.kernel_updates_per_s.N16": 13.7e3,
    "scale.oracle_std_ms.N8": 34.0,
    "scale.oracle_std_ms.N16": 168.0,
    "scale.oracle_std_ms.N24": 478.0,
    "scale.oracle_std_ms.N32": 1155.0,
    "scale.oracle_std_peak_mb.N8": 0.6,
    "scale.oracle_std_peak_mb.N16": 8.6,
    "scale.oracle_std_peak_mb.N24": 42.0,
    "scale.oracle_std_peak_mb.N32": 130.0,
}


class Workload:
    """One workload's CLI call and the counts its outputs must show."""

    def __init__(self, name: str, seed: int):
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.command = spec["command"]
        self.block = spec["block"]
        self.flags = spec["flags"]
        b = self.block
        Ns = b["N"] if isinstance(b["N"], list) else [b["N"]]
        ls = b["l"] if isinstance(b["l"], list) else [b["l"]]
        self.grid_points = len(Ns) * len(ls)
        sweeps = b["burn_in"] + b["sweeps"]
        self.sweep_calls = self.grid_points * sweeps
        self.updates = len(ls) * sum(sweeps * (N * N - 1) for N in Ns)
        self.emitted = self.grid_points * (b["sweeps"] // b["thin"])
        every = b["omega2_oracle_every"]
        self.oracle_samples = math.ceil(self.emitted / every) if every else 0
        self.oracle_N = max(Ns)
        # Units of work that pass or fail: grid points for scan, checks for verify.
        self.units = self.grid_points if self.command == "scan" else VERIFY_CHECKS

    def write_config(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"seed": self.seed, "threads": 1, self.command: self.block}, fh)

    def cli_argv(self, config: str, out: str) -> list[str]:
        return [self.command, "--config", config, "--out", out, "--threads", "1",
                "--seed", str(self.seed), *self.flags]


class Child(NamedTuple):
    started: float  # time.monotonic() just before the spawn
    wall: float  # spawn to exit, pauses left out
    rss_mb: float
    code: int
    stdout: str
    chunks: list  # reference chunk times, see calibrate.py


def run_child(argv: list[str], log: str, env: dict, calibrator=None) -> Child:
    """Run one process to completion; wall time and peak RSS from wait4.

    With a ``calibrator``, the reference chunk is timed once before the
    spawn and then every ``SLICE_S`` while the process is stopped; the
    wall time leaves those pauses out.  The CLI runs with ``--threads 1``,
    so it has no worker processes that would go on while it is stopped.
    """
    chunks, pauses = [], []
    if calibrator:
        chunks.append(calibrator.chunk())
    with open(log, "wb") as out, open(log + ".err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            if calibrator:
                _pause_and_calibrate(proc.pid, calibrator, chunks, pauses)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0 - sum(b - a for a, b in pauses)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log) as fh:
        stdout = fh.read()
    return Child(t0, wall, usage.ru_maxrss * MB_PER_KIB, proc.returncode, stdout, chunks)


def _pause_and_calibrate(pid, calibrator, chunks, pauses) -> None:
    """Until ``pid`` exits, stop it every SLICE_S and time one chunk."""
    pidfd = os.pidfd_open(pid)
    try:
        while not select.select([pidfd], [], [], calibrate.SLICE_S)[0]:
            os.kill(pid, signal.SIGSTOP)
            stopped = time.monotonic()
            try:
                chunks.append(calibrator.chunk())
            finally:
                os.kill(pid, signal.SIGCONT)
                pauses.append((stopped, time.monotonic()))
    finally:
        os.close(pidfd)


class Checker:
    """Correctness gate over every invocation of one benchmark run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.problems: list[str] = []

    def check(self, child: Child, out_dir: str, label: str) -> tuple[str, float]:
        """Count the failed units of one invocation; return its digest and ESS.

        The ESS is the sum over grid points of ``n_samples /
        autocorrelation_time``; 0 for ``verify``, which writes no sidecar.
        """
        wl = self.wl
        self.attempted += wl.units
        if child.code != 0:
            self.failed += wl.units
            self.problems.append(f"{label}: exit status {child.code}")
            return "", 0.0
        ess = 0.0
        if wl.command == "verify":
            lines = child.stdout.splitlines()
            passed = sum(line.startswith("PASS ") for line in lines)
            failed = VERIFY_CHECKS - min(passed, VERIFY_CHECKS)
            if passed != VERIFY_CHECKS or any(line.startswith("FAIL") for line in lines):
                failed = max(failed, 1)
                self.problems.append(f"{label}: {passed} PASS lines, expected {VERIFY_CHECKS}")
            digest = hashlib.sha256(child.stdout.encode()).hexdigest()
        else:
            failed, digest, ess = self._check_scan(out_dir, label)
        self.failed += failed
        self.digests.add(digest)
        return digest, ess

    def _check_scan(self, out_dir: str, label: str):
        wl = self.wl
        try:
            with open(os.path.join(out_dir, "scan.csv"), "rb") as fh:
                raw = fh.read()
            with open(os.path.join(out_dir, "scan.meta.json")) as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            self.problems.append(f"{label}: {exc}")
            return wl.units, "", 0.0
        lines = raw.decode().splitlines()
        if not lines or lines[0] != CSV_HEADER:
            self.problems.append(f"{label}: unexpected CSV header")
            return wl.units, "", 0.0
        rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]
        want = wl.emitted // wl.grid_points
        good = [r for r in rows if r["identities_ok"] == "true" and int(r["n_samples"]) == want]
        failed = wl.units - min(len(good), wl.units)
        if failed or len(rows) != wl.units:
            failed = max(failed, 1)
            self.problems.append(f"{label}: {len(good)} good rows of {len(rows)}, expected {wl.units}")
        if "--emit-gnuplot" in wl.flags and not os.path.exists(os.path.join(out_dir, "scan.dat")):
            failed = max(failed, 1)
            self.problems.append(f"{label}: scan.dat missing")
        ess = sum(int(r["n_samples"]) / d["autocorrelation_time"]
                  for r, d in zip(rows, meta["diagnostics"]))
        return failed, hashlib.sha256(raw).hexdigest(), ess

    def verdict(self) -> bool:
        """True when no unit failed, no check failed and all digests agree."""
        if len(self.digests) > 1:
            self.problems.append(f"runs of seed {self.wl.seed} differ: {sorted(self.digests)}")
        return self.failed == 0 and not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HARDLATTICE_THREADS", None)
    return env


def measure_end_to_end(wl, seconds, work, env, checker) -> dict:
    config = os.path.join(work, "config.json")
    wl.write_config(config)
    py = sys.executable
    # Untimed first interpreter: fills the bytecode cache and reads the environment.
    env_child = run_child([py, "-c", ENV_CHILD], os.path.join(work, "env.log"), env)
    if env_child.code != 0:
        raise SystemExit(f"cannot import hardlattice from {SRC}")
    print("environment " + env_child.stdout.strip())
    setup, walls, rss = [], [], []
    raw_setup, raw_walls = [], []
    with calibrate.Calibrator(env) as calibrator:
        t0 = time.monotonic()
        while len(walls) < MIN_REPS or time.monotonic() - t0 < seconds:
            # Set-up samples are spread over the run, like the repetitions.
            # Each set-up child is paired with a reference import just before it.
            for _ in range(SETUP_PER_REP):
                ref = run_child([py, "-c", calibrate.IMPORT_CHILD],
                                os.path.join(work, "import.log"), env)
                child = run_child([py, "-c", SETUP_CHILD, config, wl.command],
                                  os.path.join(work, "setup.log"), env)
                if ref.code != 0 or child.code != 0:
                    raise SystemExit("set-up child failed")
                t = float(child.stdout) - child.started
                raw_setup.append(t)
                setup.append(t * calibrate.REF_IMPORT_S / (float(ref.stdout) - ref.started))
            out = os.path.join(work, f"out{len(walls)}")
            child = run_child([py, "-m", "hardlattice", *wl.cli_argv(config, out)],
                              os.path.join(work, f"run{len(walls)}.log"), env, calibrator)
            scale = calibrate.scale(child.chunks)
            digest, _ = checker.check(child, out, f"run {len(walls)}")
            print(f"rep {len(walls)} wall_s={child.wall * scale:.4f} raw_wall_s={child.wall:.4f} "
                  f"host_scale={scale:.4f} chunks={len(child.chunks)} "
                  f"peak_rss_mb={child.rss_mb:.1f} exit={child.code} sha256={digest}")
            walls.append(child.wall * scale)
            raw_walls.append(child.wall)
            rss.append(child.rss_mb)
            shutil.rmtree(out, ignore_errors=True)
    wall = statistics.median(walls)
    print(f"setup_s reps: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"raw setup_s reps: {' '.join(f'{t:.4f}' for t in raw_setup)}")
    print(f"raw medians: wall_s={statistics.median(raw_walls):.4f} "
          f"setup_s={statistics.median(raw_setup):.4f}")
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "site_updates_per_s": wl.updates / wall,
        "samples_per_s": wl.emitted / wall,
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(wl, seconds, work, env, checker) -> dict:
    config = os.path.join(work, "config.json")
    wl.write_config(config)
    py = sys.executable
    tracer_py = os.path.join(BENCH_DIR, "tracing.py")
    pairs = []
    t0 = time.monotonic()
    while not pairs or time.monotonic() - t0 < seconds:
        k = len(pairs)
        pair = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out = os.path.join(work, f"{'traced' if traced else 'plain'}{k}")
            log = out + ".log"
            if traced:
                spans = out + ".npz"
                child = run_child([py, tracer_py, spans, *wl.cli_argv(config, out)], log, env)
            else:
                child = run_child([py, "-m", "hardlattice", *wl.cli_argv(config, out)], log, env)
            digest, ess = checker.check(child, out, f"{'traced' if traced else 'untraced'} run {k}")
            print(f"pair {k} traced={int(traced)} wall_s={child.wall:.4f} "
                  f"exit={child.code} sha256={digest}")
            if not traced:
                pair["plain"], pair["ess"] = child.wall, ess
            elif child.code == 0:
                trace = tracing.load(spans)
                # The tracemalloc post-pass is not part of the traced work.
                pair["traced"] = child.wall - trace["meta"]["post_s"]
                pair["summary"] = tracing.summarize(trace)
            shutil.rmtree(out, ignore_errors=True)
        pairs.append(pair)
    if any("summary" not in p for p in pairs):
        return {}
    for k, p in enumerate(pairs):
        for problem in tracing.selfcheck(p["summary"], wl.sweep_calls, wl.emitted + wl.grid_points):
            checker.problems.append(f"trace self-check, pair {k}: {problem}")
    # Layer figures come from the traced run with the median wall.
    mid = sorted(pairs, key=lambda p: p["traced"])[(len(pairs) - 1) // 2]
    metrics = layer_metrics(wl, mid["summary"], mid["traced"])
    metrics["trace_overhead_frac"] = statistics.median(p["traced"] / p["plain"] - 1.0 for p in pairs)
    metrics["ess_per_s"] = statistics.median(p["ess"] / p["plain"] for p in pairs)

    scale_log = os.path.join(work, "scaling.log")
    child = run_child([py, os.path.join(BENCH_DIR, "scaling.py"), str(wl.seed)], scale_log, env)
    if child.code != 0:
        checker.problems.append("scaling table failed")
        return metrics
    scale = json.loads(child.stdout.strip().splitlines()[-1])
    metrics.update(scale)
    print_scaling(scale)
    return metrics


def layer_metrics(wl, s, wall) -> dict:
    def stat(name, key):
        return tracing.stat(s, name, key)

    sweep_busy = stat("kernels.sweep", "busy_s")
    oracle_at_N = int((s["tags"].get(tracing.ORACLE, []) == wl.oracle_N).sum())
    rise = s["meta"]["rss_rise_kb"]
    m = {
        "kernels.sweep.busy_s": sweep_busy,
        "kernels.sweep.calls": stat("kernels.sweep", "calls"),
        "kernels.updates_per_s": wl.updates / sweep_busy,
        "kernels.acceptance": s["meta"]["result_sum"].get("kernels.sweep", 0) / wl.updates,
        "sampler.Chain.sweep.self_s": stat("sampler.Chain.sweep", "self_s"),
        "sampler.Chain.run.self_s": stat("sampler.Chain.run", "self_s"),
        "sampler.snapshot_frac": (stat("sampler.Chain.run", "busy_s")
                                  - stat("sampler.Chain.sweep", "busy_s")) / wall,
        "configuration.triangle_gradients.per_sample":
            stat("configuration.triangle_gradients", "calls") / wl.emitted,
        "configuration.image_triangle_corners.per_sample":
            stat("configuration.image_triangle_corners", "calls") / wl.emitted,
        "configuration.check_omega2_oracle.per_sample":
            oracle_at_N / wl.oracle_samples if wl.oracle_samples else 0.0,
        "configuration.check_omega2_oracle.peak_mb": s["meta"]["oracle_peak_mb"],
        "configuration.check_omega2_oracle.rss_rise_mb": rise.get(tracing.ORACLE, 0) * MB_PER_KIB,
        "analysis.estimate_rigidity_constant.rss_rise_mb":
            rise.get("analysis.estimate_rigidity_constant", 0) * MB_PER_KIB,
        "geometry.triangles_overlap.calls": stat("geometry.triangles_overlap", "calls"),
        "analysis.aggregate.busy_s": stat("analysis.batch_means", "busy_s")
            + stat("analysis.integrated_autocorrelation_time", "busy_s"),
        "import_s": stat("import", "busy_s"),
        "cli.self_s": sum(row["self_s"] for name, row in s["per_name"].items()
                          if name.startswith("cli.")),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - s["covered_s"],
    }
    for name in ("configuration.is_admissible", "observables.identity_suite",
                 "configuration.check_omega2_oracle"):
        m[f"{name}.busy_s"] = stat(name, "busy_s")
        m[f"{name}.calls"] = stat(name, "calls")
    for name in ("analysis.estimate_rigidity_constant", "analysis.check_estimate_chain",
                 "analysis.dist_so2_agreement", "analysis.write_scan_csv",
                 "analysis.certify_epsilon"):
        m[f"{name}.busy_s"] = stat(name, "busy_s")
    for layer, t in s["layer_self_s"].items():
        m[f"self_frac.{layer}"] = t / wall
    m["self_frac.uncovered"] = m["trace.uncovered_s"] / wall

    print("layer self time (share of traced wall):")
    rows = sorted(s["per_name"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows[:15]:
        print(f"  {name:48s} calls={row['calls']:8d} busy_s={row['busy_s']:9.4f} "
              f"self_s={row['self_s']:9.4f} ({row['self_s'] / wall:6.1%})")
    return m


def print_scaling(scale: dict) -> None:
    print("layer scaling (sampled state; ROADMAP item 1 baseline, standard state):")
    for key in sorted(scale, key=lambda k: (k.rsplit(".N", 1)[0], int(k.rsplit(".N", 1)[1]))):
        base = BASELINE.get(key)
        note = f"  baseline {base:g}" if base is not None else ""
        print(f"  {key:36s} {scale[key]:12.4f}{note}")


def bench_metrics(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hardlattice", "cli.py")):
        print(f"error: no hardlattice sources under {SRC}", file=sys.stderr)
        return 2
    units = bench_metrics(args.trace)

    wl = Workload(args.workload, args.seed)
    work = os.path.join(WORK, f"{wl.name}-s{wl.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    checker = Checker(wl)
    env = child_env()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(wl, args.seconds, work, env, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = checker.verdict()
    if correct and set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        print(f"error: metrics do not match BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    for problem in checker.problems:
        print(f"check failed: {problem}")
    print(f"digest {wl.name} seed={wl.seed} sha256={','.join(sorted(checker.digests))}")
    print(f"failed_frac={checker.failed / max(checker.attempted, 1):.6g} "
          f"({checker.failed} of {checker.attempted})")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
