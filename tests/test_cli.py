import ast
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import weakref

import pytest

from hardlattice import analysis, cli, counterexamples, geometry, kernels, observables, sampler
from hardlattice import configuration as cfgmod
from hardlattice.sampler import InadmissibleStateError


def _write(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _perfbench_constant(name):
    """The literal value of a top-level constant of ``perfbench/run.py``."""
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        module = ast.parse(fh.read())
    return next(
        ast.literal_eval(node.value)
        for node in module.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    )


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


# Runs argv[1:] and prints its exit code and wait4 peak RSS in KiB.  A
# child's peak counts the memory of the process it was forked from, so
# the child is started from this small interpreter, not from pytest.
_MAXRSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _child_maxrss_mb(argv, cwd):
    """Exit code and peak RSS in MiB of a child process, from wait4."""
    out = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, *argv], capture_output=True, text=True, env=_src_env(), cwd=cwd
    )
    assert out.returncode == 0, out.stderr
    code, kib = out.stdout.split()
    return int(code), int(kib) / 1024.0


SMALL_SCAN = {
    "seed": 11,
    "scan": {"N": [2], "l": [1.05], "sweeps": 600, "burn_in": 100, "thin": 5},
}

FAST_VERIFY = {
    "seed": 11,
    "verify": {
        "sweeps": 400,
        "burn_in": 100,
        "thin": 5,
        "squared_bound_samples": 50_000,
        "rigidity_samples": 50_000,
        "heron_samples": 2000,
        "dist_matrices": 300,
    },
}


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert cli.main(["scan", "--config", str(tmp_path / "nope.json")]) == 1

    def test_unknown_top_level_key(self, tmp_path):
        path = _write(tmp_path / "c.json", {"bogus": 1})
        assert cli.main(["scan", "--config", path]) == 1

    def test_unknown_scan_key(self, tmp_path):
        cfg = {"scan": dict(SMALL_SCAN["scan"], extra=True)}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["scan", "--config", path]) == 1

    def test_side_length_below_window(self, tmp_path):
        cfg = {"scan": dict(SMALL_SCAN["scan"], l=[0.9])}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_side_length_above_window(self, tmp_path):
        cfg = {"scan": dict(SMALL_SCAN["scan"], l=[1.2])}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_bad_rng_identifier(self, tmp_path):
        path = _write(tmp_path / "c.json", {"rng": "mt19937"})
        assert cli.main(["verify", "--config", path]) == 1

    def test_bad_threads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDLATTICE_THREADS", "many")
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 1

    def test_uncertifiable_epsilon(self, tmp_path):
        cfg = {"scan": dict(SMALL_SCAN["scan"], epsilon=0.46, l=[1.05])}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "command, config, flags",
        [
            ("scan", {"scan": {"thin": 0}}, []),
            ("scan", {"scan": {"sweeps": "600"}}, []),
            ("scan", {"scan": {"epsilon": "0.1"}}, []),
            ("scan", {"scan": {"N": []}}, []),
            ("scan", {"scan": {"l": []}}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], N=[4])}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], l="1.05")}, []),
            ("verify", FAST_VERIFY, ["--omega2-oracle-every", "-1"]),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], rigidity_samples="1000")}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], rigidity_samples=0)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], heron_samples=2.5)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], heron_samples=0)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], dist_matrices=0)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], squared_bound_samples=0)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], dist_grid=4)}, []),
            ("oracle", {"oracle": {"rigidity_samples": 0}}, []),
            ("oracle", {"oracle": {"dist_matrices": "300"}}, []),
            ("oracle", {"oracle": {"dist_grid": 4}}, []),
            ("scan", {"scan": dict(SMALL_SCAN["scan"], proposal_radius=0.2)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], proposal_radius=0.2)}, []),
            ("oracle", {"oracle": {"epsilon_ladder": ["0.1"]}}, []),
            ("oracle", {"oracle": {"epsilon_ladder": 0.1}}, []),
            ("oracle", {"oracle": {"epsilon_ladder": []}}, []),
            ("scan", {"scan": dict(SMALL_SCAN["scan"], epsilon=True)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], epsilon=True)}, []),
            ("oracle", {"oracle": {"epsilon_ladder": [True, 0.05]}}, []),
            ("scan", SMALL_SCAN, ["--threads", "0"]),
            ("scan", SMALL_SCAN, ["--threads", "-4"]),
            ("scan", dict(SMALL_SCAN, threads=True), []),
            ("scan", dict(SMALL_SCAN, seed=True), []),
            ("scan", SMALL_SCAN, ["--seed", "-3"]),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], sweeps=0)}, []),
            ("verify", {"verify": dict(FAST_VERIFY["verify"], sweeps=4)}, []),
            ("scan", dict(SMALL_SCAN, out_dir=5), []),
            ("scan", dict(SMALL_SCAN, out_dir=None), []),
            ("scan", dict(SMALL_SCAN, out_dir=""), []),
            ("verify", dict(FAST_VERIFY, out_dir=5), []),
            ("scan", SMALL_SCAN, ["--out", ""]),
            ("oracle", {}, ["--out", ""]),
        ],
        ids=[
            "thin-0", "sweeps-str", "epsilon-str", "scan-N-empty", "scan-l-empty", "verify-N-list", "verify-l-str",
            "oracle-every-neg", "verify-rigidity-str", "verify-rigidity-0", "verify-heron-float",
            "verify-heron-0", "verify-dist-0", "verify-squared-0", "verify-dist-grid-4",
            "oracle-rigidity-0", "oracle-dist-str", "oracle-dist-grid-4",
            "scan-radius-big", "verify-radius-big", "oracle-ladder-str",
            "oracle-ladder-scalar", "oracle-ladder-empty", "scan-epsilon-bool",
            "verify-epsilon-bool", "oracle-ladder-bool", "threads-flag-0", "threads-flag-neg",
            "threads-bool", "seed-bool", "seed-flag-neg", "verify-sweeps-0",
            "verify-sweeps-below-thin", "out-dir-int", "out-dir-null", "out-dir-empty",
            "verify-out-dir-int", "out-flag-empty", "oracle-out-flag-empty",
        ],
    )
    def test_bad_value_maps_to_exit_one(self, tmp_path, capsys, command, config, flags):
        path = _write(tmp_path / "c.json", config)
        argv = [command, "--config", path, "--out", str(tmp_path / "o"), *flags]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        # the block is rejected before any check runs or any file or
        # directory is written
        assert "PASS" not in captured.out
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, block", [("verify", FAST_VERIFY["verify"]), ("oracle", {"rigidity_samples": 1000})]
    )
    def test_deviation_cap_is_an_unknown_key(self, tmp_path, capsys, command, block):
        # the estimate samples the bond window itself, so the cap of the
        # former two-sided deviations is rejected, even at its old default
        path = _write(tmp_path / "c.json", {command: dict(block, deviation_cap=0.1)})
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown keys in {command}: ['deviation_cap']\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["scan", "verify"])
    def test_benchmark_setup_probe_runs_on_the_default_config(self, tmp_path, command):
        # The benchmark times its set-up with this probe, which passes the
        # block's certification_grid to certify_epsilon: the key and the
        # ignored parameter must both keep working.
        probe = _perfbench_constant("SETUP_CHILD")
        path = _write(tmp_path / "c.json", {})
        proc = subprocess.run(
            [sys.executable, "-c", probe, path, command], capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, proc.stderr
        float(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_benchmark_verify_block_stays_within_7_mb_of_import(tmp_path):
    # End-to-end guard on the benchmark's verify-oracle workload: the
    # child's peak RSS over an import-only child is the memory of the
    # checks themselves, heap growth included, which tracemalloc does
    # not see.  It was 9 MB when steps 2, 3 and 7 drew whole 25k blocks
    # and the oracle tested all nine signs of a pair at once.
    block = _perfbench_constant("WORKLOADS")["verify-oracle"]["block"]
    path = _write(tmp_path / "c.json", {"seed": 1, "threads": 1, "verify": block})
    code, base = _child_maxrss_mb([sys.executable, "-c", "import numpy.random, hardlattice.cli"], tmp_path)
    assert code == 0
    code, peak = _child_maxrss_mb(
        [sys.executable, "-m", "hardlattice", "verify", "--config", path, "--out", "o", "--threads", "1"],
        tmp_path,
    )
    assert code == 0
    assert peak - base < 7.0, (peak, base)


class TestScanCommand:
    def test_smoke_run_writes_csv_and_sidecar(self, tmp_path):
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        out = tmp_path / "out"
        assert cli.main(["scan", "--config", path, "--out", str(out)]) == 0
        text = (out / "scan.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(analysis.CSV_COLUMNS)
        assert len(lines) == 2

        meta = json.loads((out / "scan.meta.json").read_text())
        assert meta["schema"] == cli.RUN_SCHEMA
        assert meta["master_seed"] == 11
        assert meta["rng"] == "pcg64"
        assert meta["kernel_backend"] == "numpy"
        assert meta["certificate"]["certified"] is True
        assert "versions" in meta

    def test_reruns_are_byte_identical(self, tmp_path):
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/scan.csv").read_bytes() == (tmp_path / "b/scan.csv").read_bytes()
        assert (tmp_path / "a/scan.meta.json").read_bytes() == (
            tmp_path / "b/scan.meta.json"
        ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(
            ["scan", "--config", path, "--out", str(tmp_path / "b"), "--seed", "99"]
        ) == 0
        assert (tmp_path / "a/scan.csv").read_bytes() != (tmp_path / "b/scan.csv").read_bytes()

    def test_scan_order_config_key_reaches_the_sampler(self, tmp_path):
        raster = {"seed": 3, "scan": dict(SMALL_SCAN["scan"])}
        rand = {"seed": 3, "scan": dict(SMALL_SCAN["scan"], scan_order="random")}
        pa = _write(tmp_path / "a.json", raster)
        pb = _write(tmp_path / "b.json", rand)
        assert cli.main(["scan", "--config", pa, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["scan", "--config", pb, "--out", str(tmp_path / "b")]) == 0
        # a different visit order consumes the stream differently
        assert (tmp_path / "a/scan.csv").read_bytes() != (tmp_path / "b/scan.csv").read_bytes()

    def test_gnuplot_emission(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        out = tmp_path / "out"
        assert cli.main(
            ["scan", "--config", path, "--out", str(out), "--emit-gnuplot", "--certify-epsilon"]
        ) == 0
        dat = (out / "scan.dat").read_text()
        assert dat.startswith("# hardlattice scan data")
        assert "identities_ok" in dat
        cert = analysis.certify_epsilon(0.1)
        line = f"epsilon=0.1 margin={cert.margin!r} certified=True"
        assert capsys.readouterr().out.splitlines()[0] == line

    def test_wide_certified_window_scans(self, tmp_path):
        cfg = {"seed": 11, "scan": dict(SMALL_SCAN["scan"], epsilon=0.3, l=[1.2])}
        path = _write(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["scan", "--config", path, "--out", str(out)]) == 0
        meta = json.loads((out / "scan.meta.json").read_text())
        assert set(meta["certificate"]) == {"epsilon", "margin", "certified"}
        assert meta["certificate"]["certified"] is True
        assert meta["config"]["certification_grid"] == 64  # accepted and ignored

    def test_no_partial_output_on_failure(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise analysis.IdentityFailureError("forced")

        monkeypatch.setattr(analysis, "scan", boom)
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        out = tmp_path / "out"
        assert cli.main(["scan", "--config", path, "--out", str(out)]) == 3
        assert not (out / "scan.csv").exists()

    def test_inadmissible_start_maps_to_exit_two(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise InadmissibleStateError("forced")

        monkeypatch.setattr(analysis, "scan", boom)
        path = _write(tmp_path / "c.json", SMALL_SCAN)
        assert cli.main(["scan", "--config", path, "--out", str(tmp_path / "o")]) == 2


def _count_calls(monkeypatch, fn):
    """Replace every binding of ``fn`` in the loaded hardlattice modules by a
    counting wrapper, as the benchmark's tracer does; returns the call list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "hardlattice" or name.startswith("hardlattice."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


class TestScanCallCounts:
    """The call counts the benchmark's traced self-check asserts, on a small scan.

    N = 2 runs the scalar sweep in blocks of 64 snapshots, N = 9 the
    vectorised raster plan in blocks of 12 (the last one partial); thin 2
    tells a per-sweep count from a per-sample one.
    """

    SCAN = {"N": [2, 9], "l": [1.03, 1.05], "sweeps": 200, "burn_in": 7, "thin": 2}

    def test_counts_per_sweep_per_sample_and_per_chain(self, tmp_path, monkeypatch):
        assert observables.identity_suite is analysis.identity_suite
        suite = _count_calls(monkeypatch, observables.identity_suite)
        admissible = _count_calls(monkeypatch, cfgmod.is_admissible)
        sweeps = _count_calls(monkeypatch, kernels.sweep)
        path = _write(tmp_path / "c.json", {"scan": self.SCAN})
        argv = ["scan", "--config", path, "--out", str(tmp_path / "o"), "--threads", "1"]
        assert cli.main(argv) == 0
        chains = len(self.SCAN["N"]) * len(self.SCAN["l"])
        emitted = chains * (self.SCAN["sweeps"] // self.SCAN["thin"])
        assert len(suite) == emitted
        assert len(admissible) == emitted + chains
        assert len(sweeps) == chains * (self.SCAN["burn_in"] + self.SCAN["sweeps"])


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        step7 = out.splitlines()[-1].split()
        assert step7[:3] == ["PASS", "estimate-chain", "constant=2"]
        assert 1.9 < float(step7[3].removeprefix("c_hat=")) <= 2.0

    def test_oracle_every_flag(self, tmp_path):
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path, "--omega2-oracle-every", "5"]) == 0

    def test_oracle_runs_once_per_checked_sample(self, tmp_path, monkeypatch):
        checked = []
        oracle = cfgmod.check_omega2_oracle

        def counted(cfg):
            checked.append(cfg)
            return oracle(cfg)

        monkeypatch.setattr(cfgmod, "check_omega2_oracle", counted)
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path, "--omega2-oracle-every", "3"]) == 0
        block = FAST_VERIFY["verify"]
        n_samples = block["sweeps"] // block["thin"]
        n_counter = len(counterexamples.folded_counterexamples(4, 1.05, 0.1))
        assert len(checked) == math.ceil(n_samples / 3) + n_counter

    def test_oracle_count_stops_at_the_first_failure(self, tmp_path, capsys, monkeypatch):
        calls = []
        oracle = cfgmod.check_omega2_oracle

        def fails_second(cfg):
            calls.append(cfg)
            return cfgmod.CheckResult(False) if len(calls) == 2 else oracle(cfg)

        monkeypatch.setattr(cfgmod, "check_omega2_oracle", fails_second)
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 3
        out = [row.split() for row in capsys.readouterr().out.splitlines()]
        step6 = [row for row in out if row[1] == "injectivity-fast-vs-oracle"]
        # 80 samples, 8 scheduled; the oracle stopped after the second
        assert step6 == [
            ["FAIL", "injectivity-fast-vs-oracle", "samples=80", "oracle_checked=2", "counterexamples=12"]
        ]

    def test_identity_suite_runs_once_per_sample(self, tmp_path, monkeypatch):
        checked = []
        suite = analysis.identity_suite

        def counted(cfg):
            checked.append(cfg)
            return suite(cfg)

        monkeypatch.setattr(analysis, "identity_suite", counted)
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 0
        block = FAST_VERIFY["verify"]
        assert len(checked) == block["sweeps"] // block["thin"]

    def test_samples_are_dropped_block_by_block(self, tmp_path, monkeypatch):
        """Steps 5-7 check each block as it is emitted: when the chain
        builds a block, at most one earlier block of samples is alive."""
        build = cfgmod.snapshot_block
        refs, alive = [], []

        def tracked(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            block = build(*args)
            refs.extend(weakref.ref(snap) for snap in block.snapshots)
            return block

        monkeypatch.setattr(cfgmod, "snapshot_block", tracked)
        config = {"verify": dict(FAST_VERIFY["verify"], N=9)}  # 80 samples, blocks of 12
        path = _write(tmp_path / "c.json", config)
        assert cli.main(["verify", "--config", path]) == 0
        size = sampler.block_size(9)
        assert len(alive) == math.ceil(80 / size) >= 3
        assert max(alive) <= size

    def test_nan_identity_error_fails_the_step(self, tmp_path, capsys, monkeypatch):
        suite = analysis.identity_suite

        def nan_area(cfg):
            return dataclasses.replace(suite(cfg), area_relative_error=math.nan)

        monkeypatch.setattr(analysis, "identity_suite", nan_area)
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 3
        assert "FAIL identity-suite" in capsys.readouterr().out

    @staticmethod
    def _nan_once(fn):
        calls = []

        def patched(*args):
            calls.append(None)
            return math.nan if len(calls) == 1 else fn(*args)

        return patched

    @pytest.mark.parametrize(
        "module, name, line",
        [
            # step 3 takes each side from math.hypot, in its array pass;
            # no step before it calls math.hypot
            (math, "hypot", ["FAIL", "heron-vs-cross", "max_rel_diff=nan"]),
            # step 4's grid search, since step 7 calls the closed form too
            (geometry, "dist_so2_bruteforce", ["FAIL", "so2-distance-oracle", "max_abs_diff=nan"]),
        ],
        ids=["hypot-line0", "dist_so2_bruteforce-line1"],
    )
    def test_one_nan_value_fails_its_step(self, tmp_path, capsys, monkeypatch, module, name, line):
        monkeypatch.setattr(module, name, self._nan_once(getattr(module, name)))
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 3
        out = capsys.readouterr().out.splitlines()
        assert line in [row.split() for row in out]
        assert sum(row.startswith("PASS") for row in out) == 6

    def test_one_nan_identity_error_is_printed(self, tmp_path, capsys, monkeypatch):
        suite = analysis.identity_suite
        calls = []

        def nan_once(cfg):
            calls.append(cfg)
            rep = suite(cfg)
            if len(calls) == 3:
                rep = dataclasses.replace(rep, pythagoras_relative_error=math.nan)
            return rep

        monkeypatch.setattr(analysis, "identity_suite", nan_once)
        path = _write(tmp_path / "c.json", FAST_VERIFY)
        assert cli.main(["verify", "--config", path]) == 3
        out = [row.split() for row in capsys.readouterr().out.splitlines()]
        step5 = [row for row in out if row[1] == "identity-suite"]
        assert step5[0][0] == "FAIL" and step5[0][-1] == "pythagoras=nan"
        # step 7 reads the same report, so it fails too
        assert ["FAIL", "estimate-chain"] in [row[:2] for row in out]

    def test_degenerate_window_fails(self, tmp_path, capsys):
        cfg = {"verify": dict(FAST_VERIFY["verify"], epsilon=1.0)}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["verify", "--config", path]) == 3
        assert "FAIL epsilon-certificate" in capsys.readouterr().out


class TestOracleCommand:
    def test_writes_report(self, tmp_path):
        cfg = {
            "seed": 3,
            "oracle": {
                "epsilon_ladder": [0.05, 0.1, 0.2],
                "rigidity_samples": 50_000,
                "dist_matrices": 300,
            },
        }
        path = _write(tmp_path / "c.json", cfg)
        out = tmp_path / "out"
        assert cli.main(["oracle", "--config", path, "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["schema"] == cli.ORACLE_SCHEMA
        ladder = payload["epsilon_ladder"]
        assert all(set(r) == {"epsilon", "margin", "certified"} for r in ladder)
        assert all(r["certified"] for r in ladder)
        margins = [r["margin"] for r in ladder]
        assert margins == sorted(margins, reverse=True)
        rigidity = payload["rigidity_constant"]
        assert set(rigidity) == {"constant", "c_hat", "epsilon", "n_samples"}
        # estimated at the ladder's largest epsilon, below the proved 2
        assert (rigidity["constant"], rigidity["epsilon"], rigidity["n_samples"]) == (2, 0.2, 50_000)
        assert 1.9 < rigidity["c_hat"] <= 2.0
        assert payload["dist_so2_agreement"]["max_abs_diff"] <= 2e-3

    def test_default_config_runs(self, tmp_path):
        cfg = {"oracle": {"rigidity_samples": 20_000, "dist_matrices": 100}}
        path = _write(tmp_path / "c.json", cfg)
        assert cli.main(["oracle", "--config", path, "--out", str(tmp_path / "o")]) == 0
