"""Batch command-line entry point.

Three subcommands driven by a JSON config file:

* ``scan``   -- run the (N, l) experiment grid, write a CSV of estimates
  plus a JSON metadata sidecar;
* ``verify`` -- run the identity and oracle suites, print one PASS/FAIL
  line per check;
* ``oracle`` -- compute the certified window margins, the Monte Carlo
  estimate of the proved rigidity constant, and the closed-form-vs-grid
  distance agreement, written as JSON.

Every run value is read from the config.  The flags ``--seed``,
``--threads`` and ``--out`` override its ``seed``, ``threads`` and
``out_dir``, and no other source does; only ``scan`` uses the thread
count.  Each block accepts a ``certification_grid`` key and ignores
it; the window certificate is exact and has no grid.

Exit codes: 0 success; 1 invalid config or command line; 2
inadmissible initial state; 3 failed identity or verification check.
Outputs embed the resolved config and master seed and are written
atomically, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__, analysis, counterexamples, geometry, kernels
from . import configuration as cfgmod
from .fileio import atomic_write_text
from .lattice import check_int
from .sampler import (
    Chain,
    ChainInvariantError,
    InadmissibleStateError,
    RNG_ALGORITHM,
    SamplerParams,
    check_lean_regime,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INADMISSIBLE = 2
EXIT_CHECK = 3

RUN_SCHEMA = "hardlattice.run.v1"
ORACLE_SCHEMA = "hardlattice.oracle.v2"


class ConfigError(ValueError):
    pass


# Allowed keys and validators per config block.  Unknown keys are rejected.
# ``certification_grid`` is accepted and ignored; the benchmark's set-up
# probe reads it and passes it to analysis.certify_epsilon.
_TOP_KEYS = {"seed", "rng", "threads", "out_dir", "scan", "verify", "oracle"}

_SCAN_DEFAULTS = {
    "N": [2, 4],
    "l": [1.01, 1.05],
    "epsilon": 0.1,
    "sweeps": 1000,
    "burn_in": 200,
    "thin": 5,
    "proposal_radius": None,
    "scan_order": "raster",
    "omega2_oracle_every": 0,
    "certification_grid": 64,
}

_VERIFY_DEFAULTS = {
    "epsilon": 0.1,
    "certification_grid": 64,
    "N": 4,
    "l": 1.05,
    "sweeps": 1000,
    "burn_in": 200,
    "thin": 5,
    "proposal_radius": None,
    "omega2_oracle_every": 10,
    "squared_bound_samples": 200_000,
    "rigidity_samples": 200_000,
    "heron_samples": 10_000,
    "dist_matrices": 2_000,
    "dist_grid": 3600,
}

_ORACLE_DEFAULTS = {
    "epsilon_ladder": [0.05, 0.1, 0.2],
    "certification_grid": 64,
    "rigidity_samples": 1_000_000,
    "dist_matrices": 10_000,
    "dist_grid": 3600,
}


def _check_block(block: dict, defaults: dict, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(block)
    return merged


def load_config(path: str | None) -> dict:
    """Load and strictly validate the run configuration."""
    if path is None:
        raw = {}
    else:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    cfg = {
        "seed": raw.get("seed", 0),
        "rng": raw.get("rng", RNG_ALGORITHM),
        "threads": raw.get("threads", 1),
        "out_dir": raw.get("out_dir", "hardlattice-out"),
        "scan": _check_block(raw.get("scan", {}), _SCAN_DEFAULTS, "scan"),
        "verify": _check_block(raw.get("verify", {}), _VERIFY_DEFAULTS, "verify"),
        "oracle": _check_block(raw.get("oracle", {}), _ORACLE_DEFAULTS, "oracle"),
    }
    if cfg["rng"] != RNG_ALGORITHM:
        raise ConfigError(f"unsupported rng {cfg['rng']!r}; only {RNG_ALGORITHM!r} is implemented")
    check_int(cfg["seed"], "seed", 0)
    check_int(cfg["threads"], "threads", 1)
    _check_out_dir(cfg["out_dir"], "out_dir")
    return cfg


def _check_out_dir(value, name: str):
    """Return ``value`` if it is a non-empty string; raise ``ConfigError`` otherwise."""
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a non-empty path, got {value!r}")
    return value


def _sampler_params(block: dict, seed=0) -> SamplerParams:
    return SamplerParams(
        sweeps=block["sweeps"],
        burn_in=block["burn_in"],
        thin=block["thin"],
        proposal_radius=block["proposal_radius"],
        seed=seed,
        scan_order=block.get("scan_order", "raster"),
        omega2_oracle_every=block.get("omega2_oracle_every", 0),
    )


def _check_monte_carlo_sizes(block: dict, where: str) -> None:
    """Reject the block's sample counts and SO(2) grid through the checks
    of the functions that use them."""
    for key in ("squared_bound_samples", "heron_samples", "dist_matrices", "rigidity_samples"):
        if key in block:
            check_int(block[key], f"{where}.{key}", 1)
    check_int(block["dist_grid"], f"{where}.dist_grid", geometry.MIN_GRID_SIZE)


def _versions() -> dict:
    return {
        "hardlattice": __version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def _write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _seed_and_threads(args, cfg) -> tuple[int, int]:
    """The master seed and the worker count: each the flag, else the
    config, checked like the config value."""
    seed = cfg["seed"] if args.seed is None else check_int(args.seed, "--seed", 0)
    threads = cfg["threads"] if args.threads is None else check_int(args.threads, "--threads", 1)
    return seed, threads


def _gnuplot_text(records, meta: dict) -> str:
    lines = ["# hardlattice scan data", "# config: " + json.dumps(meta, sort_keys=True)]
    lines.append("# columns: " + " ".join(analysis.CSV_COLUMNS))
    last_n = None
    for rec in records:
        if last_n is not None and rec.N != last_n:
            lines.append("")  # blank line separates per-N blocks
        last_n = rec.N
        lines.append(rec.csv_row().replace(",", " "))
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    block = cfg["scan"]
    seed, threads = _seed_and_threads(args, cfg)
    out_dir = cfg["out_dir"] if args.out is None else _check_out_dir(args.out, "--out")

    # analysis.scan certifies the window and rejects an uncertified one.
    records = analysis.scan(
        block["N"],
        block["l"],
        block["epsilon"],
        _sampler_params(block),
        master_seed=seed,
        threads=threads,
    )

    meta = {
        "schema": RUN_SCHEMA,
        "command": "scan",
        "master_seed": seed,
        "rng": RNG_ALGORITHM,
        "kernel_backend": kernels.BACKEND,
        "config": block,
        "certificate": asdict(analysis.certify_epsilon(block["epsilon"])),
        "versions": _versions(),
        "diagnostics": [
            {"N": r.N, "l": r.l, "autocorrelation_time": r.autocorrelation_time}
            for r in records
        ],
    }
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "scan.csv")
    analysis.write_scan_csv(records, csv_path)
    _write_json(os.path.join(out_dir, "scan.meta.json"), meta)
    if args.emit_gnuplot:
        atomic_write_text(os.path.join(out_dir, "scan.dat"), _gnuplot_text(records, block))
    print(f"wrote {csv_path} ({len(records)} grid points)")
    return EXIT_OK


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name:28s} {detail}")
    return ok


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    block = cfg["verify"]
    seed, _ = _seed_and_threads(args, cfg)
    params = _sampler_params(block, seed=np.random.SeedSequence([seed, 0]))
    # The chain runs the exact oracle; 0 and 1 both mean every sample here.
    params = replace(params, omega2_oracle_every=max(1, params.omega2_oracle_every))
    eps = block["epsilon"]
    all_ok = True

    # Validate the whole block, in the order scan does, before any check
    # prints: the chain's sample count, epsilon (in certify_epsilon), then
    # the chain's N, l and proposal radius, then the Monte Carlo sizes of
    # steps 2-4 and 7.
    if params.sweeps // params.thin < 1:
        raise ConfigError("verify requires at least one emitted sample (sweeps // thin >= 1)")
    cert = analysis.certify_epsilon(eps)
    cfgmod.check_lattice_size(block["N"])
    cfgmod.check_side_length(block["l"], eps)
    if cert.certified:
        # an uncertified window skips the chain, so only a certified one
        # needs the chain's regime
        check_lean_regime(eps, params.proposal_radius)
    _check_monte_carlo_sizes(block, "verify")

    # 1. Certified window.
    all_ok &= _report("epsilon-certificate", cert.certified, f"margin={cert.margin:.6e}")

    # 2. Squared side-deviation bound on random triples.
    if cert.certified:
        sq = analysis.verify_squared_bound(eps, block["squared_bound_samples"], seed=seed)
        all_ok &= _report(
            "squared-side-bound",
            sq.ok,
            f"violations={sq.n_violations}/{sq.n_samples} min_margin={sq.min_margin:.3e}",
        )
    else:
        all_ok &= _report("squared-side-bound", False, "skipped: window not certified")

    # 3. Side-length area formula vs cross product.
    worst = analysis.heron_cross_agreement(block["heron_samples"], seed=seed)
    all_ok &= _report("heron-vs-cross", worst <= 1e-12, f"max_rel_diff={worst:.3e}")

    # 4. Closed-form SO(2) distance vs grid search.
    worst = analysis.dist_so2_agreement(block["dist_matrices"], block["dist_grid"], seed=seed)
    all_ok &= _report("so2-distance-oracle", worst <= 2e-3, f"max_abs_diff={worst:.3e}")

    # 5-7 need chain samples; skip them when the window itself failed.
    if not cert.certified:
        _report("identity-suite", False, "skipped: window not certified")
        _report("injectivity-fast-vs-oracle", False, "skipped: window not certified")
        _report("estimate-chain", False, "skipped: window not certified")
        return EXIT_CHECK

    # Step 7's independent estimate of the constant does not depend on the chain.
    est = analysis.estimate_rigidity_constant(block["rigidity_samples"], eps, seed=seed)

    # Steps 5-7 check each block of samples as the chain emits it and keep
    # only the per-sample reports, so the samples of a block are dropped
    # before the next one is built.  The chain's own recheck runs the
    # exact oracle on every K-th sample first; a failure raises
    # ChainInvariantError, naming the sweep, before any of steps 5-7 print.
    identities, estimates = [], []

    def check_block(samples):
        for snap in samples.snapshots:
            ident = analysis.identity_suite(snap)
            identities.append(ident)
            estimates.append(analysis.check_estimate_chain(snap, ident))

    Chain.from_standard(block["N"], block["l"], eps, params).run(check_block)
    n_samples = len(identities)

    # 5. Exact identities on every sample.
    # ndarray.max keeps a NaN error, which a Python max fold would drop.
    worst_err = np.array(
        [
            (rep.mean_gradient_error, rep.area_relative_error, rep.frame_relative_error)
            for rep in identities
        ]
    ).max(axis=0).tolist()
    all_ok &= _report(
        "identity-suite",
        all(rep.ok for rep in identities),
        f"n={n_samples} mean_grad={worst_err[0]:.2e} area={worst_err[1]:.2e} "
        f"frame={worst_err[2]:.2e}",
    )

    # 6. Injectivity read off exact omega3, as is_admissible reports
    # omega2, vs the exact oracle.  The chain's recheck passed
    # is_admissible on every sample and the oracle on every K-th, or it
    # raised.  Both checks must reject every folded counterexample; the
    # constructions are about the checks, not the verify window, so
    # fixed parameters keep them valid for any configured epsilon.
    folded = counterexamples.folded_counterexamples(4, 1.05, 0.1)
    agree = not any(
        [cfgmod.check_omega3(bad).ok or cfgmod.check_omega2_oracle(bad).ok for bad in folded]
    )
    all_ok &= _report(
        "injectivity-fast-vs-oracle",
        agree,
        f"samples={n_samples} "
        f"oracle_checked={len(range(0, n_samples, params.omega2_oracle_every))} "
        f"counterexamples={len(folded)}",
    )

    # 7. Estimate chain on every sample, with the proved constant, and
    # the Monte Carlo estimate of that constant.
    # np.min keeps a NaN margin, as step 5's ndarray.max keeps a NaN error.
    worst_margin = float(np.min([rep.triangle_bound_margin for rep in estimates]))
    all_ok &= _report(
        "estimate-chain",
        est.ok and all(rep.ok for rep in estimates),
        f"constant={analysis.RIGIDITY_CONSTANT} c_hat={est.c_hat:.4f} "
        f"worst_triangle_margin={worst_margin:.3e}",
    )

    return EXIT_OK if all_ok else EXIT_CHECK


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    block = cfg["oracle"]
    seed, _ = _seed_and_threads(args, cfg)
    out_dir = cfg["out_dir"] if args.out is None else _check_out_dir(args.out, "--out")
    _check_monte_carlo_sizes(block, "oracle")
    ladder_eps = block["epsilon_ladder"]
    if not isinstance(ladder_eps, list) or not ladder_eps:
        raise ConfigError(f"oracle.epsilon_ladder must be a nonempty list, got {ladder_eps!r}")
    certs = [analysis.certify_epsilon(eps) for eps in ladder_eps]

    ladder = [
        {"epsilon": cert.epsilon, "margin": cert.margin, "certified": cert.certified}
        for cert in certs
    ]
    est = analysis.estimate_rigidity_constant(block["rigidity_samples"], max(ladder_eps), seed=seed)
    dist_worst = analysis.dist_so2_agreement(block["dist_matrices"], block["dist_grid"], seed=seed)

    payload = {
        "schema": ORACLE_SCHEMA,
        "master_seed": seed,
        "rng": RNG_ALGORITHM,
        "config": block,
        "epsilon_ladder": ladder,
        "rigidity_constant": {
            "constant": analysis.RIGIDITY_CONSTANT,
            "c_hat": est.c_hat,
            "epsilon": est.epsilon,
            "n_samples": est.n_samples,
        },
        "dist_so2_agreement": {
            "n_matrices": block["dist_matrices"],
            "n_grid": block["dist_grid"],
            "max_abs_diff": dist_worst,
        },
        "versions": _versions(),
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "oracle.json")
    _write_json(path, payload)
    print(f"wrote {path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit ``EXIT_CONFIG``, as an
    invalid config does, not argparse's 2, which is ``EXIT_INADMISSIBLE``
    here.  Subcommand parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardlattice",
        description="Constrained Monte Carlo and verification suites for the "
        "perturbed triangular hard-disk lattice.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to the JSON run config")
    common.add_argument("--seed", type=int, help="master seed (overrides config)")
    common.add_argument(
        "--threads", type=int, help="parallel grid workers, used by scan only (overrides config)"
    )
    common.add_argument("--out", help="output directory (overrides config)")

    sub = parser.add_subparsers(dest="command", required=True)
    p_scan = sub.add_parser("scan", parents=[common], help="run the (N, l) experiment grid")
    p_scan.add_argument(
        "--emit-gnuplot", action="store_true", help="also write plain-text data blocks"
    )
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", parents=[common], help="run the identity and oracle suites")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", parents=[common], help="compute oracle constants")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, analysis.CertificationError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InadmissibleStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (analysis.IdentityFailureError, ChainInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK


def entry() -> int:
    """Run one command as a process: ``python -m hardlattice`` and the
    ``hardlattice`` script both start here.

    Every module the commands use is imported by now, so ``gc.freeze()``
    moves the import-time heap (about 22,000 tracked objects with numpy
    2.4, most of them numpy's) into the permanent generation.  The collections at
    interpreter exit, any full collection in a long run and the workers
    forked by ``--threads`` then skip it.  In-process callers of
    :func:`main` keep the collector as they set it.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
