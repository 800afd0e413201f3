"""Metropolis sampling of the uniform law on the admissible set.

Single-site updates with a symmetric disk proposal: a move is accepted
iff the locally affected constraints pass, which targets exactly the
uniform distribution on the admissible set (acceptance ratio one inside,
zero outside).  One chain is strictly single threaded; parallelism
belongs at the level of independent chains.

Randomness comes from a PCG64 stream.  Each sweep draws before the
kernel call: in random scan order first the visit order (one site index
per attempted move), then two uniforms per attempted move (proposal
radius and angle).  So checkpointing at sweep boundaries is exact.

The kernel decides each move with the lean check of :mod:`kernels`,
which reads the six bond lengths alone.  It is exact only for
``epsilon < sqrt(3) - 1`` and a proposal radius of at most
``epsilon / 2``, where no orientation can flip and, by the lemma in
:mod:`configuration`, injectivity follows from orientation;
:func:`check_lean_regime` enforces both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

import numpy as np

from . import configuration as cfgmod
from . import kernels, lattice
from .configuration import Configuration
from .fileio import atomic_write_text

RNG_ALGORITHM = "pcg64"

# Emitted snapshots are checked and observed in blocks of at most
# BLOCK_SNAPSHOTS snapshots and BLOCK_SITES sites in all.  The stacked
# geometry takes about 220 bytes per site, so a block stays near 220 kB.
BLOCK_SNAPSHOTS = 64
BLOCK_SITES = 1024

CHECKPOINT_SCHEMA = "hardlattice.checkpoint.v1"


class InadmissibleStateError(RuntimeError):
    """A chain was asked to start from (or reached) an inadmissible state."""


class ChainInvariantError(RuntimeError):
    """An emitted snapshot failed a full admissibility recheck."""


def check_lean_regime(epsilon: float, proposal_radius: float | None) -> float:
    """Return the proposal radius of a chain at ``epsilon``.

    ``proposal_radius`` defaults to ``epsilon / 10``.  Raises
    ``ValueError`` unless ``(1 + epsilon)**2 < kernels.LEAN_HI2`` and the
    radius is at most ``epsilon / 2``: the preconditions under which the
    kernel's lean check decides every move exactly.
    """
    if not cfgmod.window_hi2(epsilon) < kernels.LEAN_HI2:
        raise ValueError(f"a chain needs epsilon < sqrt(3) - 1, got {epsilon!r}")
    radius = proposal_radius if proposal_radius is not None else epsilon / 10.0
    if not radius <= epsilon / 2.0:
        raise ValueError(
            f"proposal_radius must be at most epsilon / 2 = {epsilon / 2.0}, got {radius!r}"
        )
    return radius


@dataclass
class SamplerParams:
    """Knobs of one chain.

    ``proposal_radius`` defaults to ``epsilon / 10`` at chain
    construction and may not exceed ``epsilon / 2``; ``thin`` is the
    sweep stride between emitted snapshots.  ``omega2_oracle_every = K``
    runs the exact injectivity oracle on the emitted snapshots
    ``0, K, 2K, ...`` of the chain, counted from its first emission
    (``K = 0`` disables it).  The chain is the one place that schedules
    the oracle: ``verify`` runs its chain with ``max(1, K)``.  The
    integer fields go through :func:`lattice.check_int`.
    """

    sweeps: int
    burn_in: int = 0
    thin: int = 1
    proposal_radius: float | None = None
    seed: object = 0
    scan_order: str = "raster"
    omega2_oracle_every: int = 0

    def __post_init__(self):
        for name, minimum in (("sweeps", 0), ("burn_in", 0), ("thin", 1), ("omega2_oracle_every", 0)):
            lattice.check_int(getattr(self, name), name, minimum)
        radius = self.proposal_radius
        if radius is not None and (isinstance(radius, bool) or not isinstance(radius, Real)):
            raise ValueError(f"proposal_radius must be a real number, got {radius!r}")
        if self.proposal_radius is not None and not self.proposal_radius > 0.0:
            raise ValueError("proposal_radius must be positive")
        if self.scan_order not in ("raster", "random"):
            raise ValueError(f"scan_order must be 'raster' or 'random', got {self.scan_order!r}")


@dataclass
class ChainResult:
    records: list
    acceptance_rate: float
    accepted: int
    proposed: int
    sweeps_run: int


def block_size(N: int) -> int:
    """Snapshots per block of a chain at lattice size ``N`` (at least one)."""
    return max(1, min(BLOCK_SNAPSHOTS, BLOCK_SITES // (N * N)))


class Chain:
    """Mutable working state of one Metropolis chain.

    Snapshots handed to observers are immutable copies; the working
    array never escapes.  Site ``(0, 0)`` is pinned and never proposed.
    Raises ``ValueError`` outside the regime of :func:`check_lean_regime`.
    """

    def __init__(self, cfg: Configuration, params: SamplerParams):
        report = cfgmod.is_admissible(cfg)
        if not report.ok:
            raise InadmissibleStateError(
                f"initial state is not admissible: {report.violations[:3]}"
            )
        self.N = cfg.N
        self.l = cfg.l
        self.epsilon = cfg.epsilon
        self.params = params
        self.radius = check_lean_regime(cfg.epsilon, params.proposal_radius)
        self._pos = np.array(cfg.positions, dtype=float)
        nbr_idx, nbr_offset = lattice.neighbor_tables(cfg.N)
        self._hi2 = cfgmod.window_hi2(cfg.epsilon)
        nbr_shift = cfg.l * cfg.N * nbr_offset
        self._raster = np.arange(1, cfg.N * cfg.N, dtype=np.int64)
        # Raster sweeps at or above the crossover run vectorised and never
        # read the neighbour triples; every other chain runs the scalar loop.
        if params.scan_order == "raster" and cfg.N * cfg.N >= kernels.PLAN_MIN_SITES:
            self._visits = kernels.plan(nbr_idx, nbr_shift, self._raster)
            self._nbrs = None
        else:
            self._visits = self._raster
            self._nbrs = kernels.neighbour_triples(nbr_idx, nbr_shift)
        self.rng = np.random.Generator(np.random.PCG64(params.seed))
        self.accepted = 0
        self.proposed = 0
        self.sweeps_done = 0

    @classmethod
    def from_standard(cls, N: int, l: float, epsilon: float, params: SamplerParams) -> "Chain":
        return cls(cfgmod.standard_config(N, l, epsilon), params)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else float("nan")

    def snapshot(self) -> Configuration:
        return Configuration(self.N, self.l, self.epsilon, self._pos)  # Configuration copies it

    def sweep(self) -> int:
        """One update attempt per movable site; returns the number accepted.

        Draw order per sweep: the visit order first (random scan only),
        then two uniforms per attempt.
        """
        attempts = self._raster.size
        if self.params.scan_order == "random":
            visits = self.rng.integers(1, self.N * self.N, size=attempts, dtype=np.int64)
        else:
            visits = self._visits
        uniforms = self.rng.random((attempts, 2))
        acc = kernels.sweep(self._pos, self._nbrs, visits, uniforms, self.radius, self._hi2)
        self.accepted += acc
        self.proposed += attempts
        self.sweeps_done += 1
        return acc

    def run(self, observer=None) -> ChainResult:
        """Burn in, then emit a snapshot every ``thin`` sweeps.

        Emitted snapshots are handled in blocks of :func:`block_size`:
        each emitted position is copied into the block, and when the
        block is full (or holds the last emission) its geometry is built
        once by :func:`configuration.snapshot_block`.  Then every snapshot
        of the block, in order, passes a full
        :func:`configuration.is_admissible` recheck, and the exact oracle
        on every ``omega2_oracle_every``-th emitted snapshot; a failure
        names the sweep after which its snapshot was taken.  Last, the
        block goes to ``observer``, which should do at most O(block)
        work; what it returns is ignored.  Without an observer the
        snapshots themselves are collected as the result's ``records``;
        with one, ``records`` stays empty.  The sweeps after the last
        emission still run.

        Checks run when a block is complete, so a snapshot that fails
        one is reported after up to ``(block_size - 1) * thin`` further
        sweeps.  All rechecks of a block precede its observer: when one
        snapshot fails the observer's checks and a later one in the same
        block fails the recheck, the recheck failure is raised.
        """
        for _ in range(self.params.burn_in):
            self.sweep()
        thin = self.params.thin
        total = self.params.sweeps // thin
        size = block_size(self.N)
        records = []
        emitted = 0
        block, swept = None, []
        for s in range(self.params.sweeps):
            self.sweep()
            if (s + 1) % thin:
                continue
            if block is None:
                block = np.empty((min(size, total - emitted), self.N * self.N, 2))
            block[len(swept)] = self._pos
            swept.append(self.sweeps_done)
            if len(swept) == len(block):
                checked = self._check(block, swept, emitted)
                if observer is None:
                    records.extend(checked.snapshots)
                else:
                    observer(checked)
                emitted += len(swept)
                block, swept = None, []
        return ChainResult(
            records=records,
            acceptance_rate=self.acceptance_rate,
            accepted=self.accepted,
            proposed=self.proposed,
            sweeps_run=self.sweeps_done,
        )

    def _check(self, positions, swept, emitted):
        """Build one block of snapshots and recheck it; see :meth:`run`."""
        block = cfgmod.snapshot_block(self.N, self.l, self.epsilon, positions)
        every = self.params.omega2_oracle_every
        for k, (snap, sweep) in enumerate(zip(block.snapshots, swept)):
            report = cfgmod.is_admissible(snap)
            if not report.ok:
                raise ChainInvariantError(
                    f"snapshot after sweep {sweep} failed recheck: {report.violations[:3]}"
                )
            if every > 0 and (emitted + k) % every == 0:
                oracle = cfgmod.check_omega2_oracle(snap)
                if not oracle.ok:
                    raise ChainInvariantError(
                        f"snapshot after sweep {sweep} failed the exact "
                        f"injectivity oracle: {oracle.violations[:3]}"
                    )
        return block

    def checkpoint(self) -> dict:
        """JSON-ready state: positions, rng state, counters.

        Resuming from this and continuing reproduces the uninterrupted
        trajectory exactly (sweep granularity).
        """
        return {
            "schema": CHECKPOINT_SCHEMA,
            "configuration": json.loads(cfgmod.to_json(self.snapshot())),
            "rng": {"algorithm": RNG_ALGORITHM, "state": self.rng.bit_generator.state},
            "counters": {
                "accepted": self.accepted,
                "proposed": self.proposed,
                "sweeps_done": self.sweeps_done,
            },
            "params": {
                "sweeps": self.params.sweeps,
                "burn_in": self.params.burn_in,
                "thin": self.params.thin,
                "proposal_radius": self.radius,
                "scan_order": self.params.scan_order,
                "omega2_oracle_every": self.params.omega2_oracle_every,
            },
        }

    def save_checkpoint(self, path) -> None:
        """Write :meth:`checkpoint` to ``path``; a failed save keeps the old file."""
        atomic_write_text(path, json.dumps(self.checkpoint()))

    @classmethod
    def from_checkpoint(cls, source) -> "Chain":
        """Resume a chain from :meth:`checkpoint`'s record or a file of it.

        Raises ``ValueError`` unless the counters are integers (not
        bools) of at least 0 that one chain could have reached: at most
        ``proposed`` moves accepted, and one proposal per movable site
        in each of the ``sweeps_done`` sweeps.
        """
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source) as fh:
                data = json.load(fh)
        else:
            data = source
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(f"unexpected checkpoint schema {data.get('schema')!r}")
        cfg = cfgmod.from_json(json.dumps(data["configuration"]))
        if data["rng"]["algorithm"] != RNG_ALGORITHM:
            raise ValueError(f"unsupported rng algorithm {data['rng']['algorithm']!r}")
        p = data["params"]
        params = SamplerParams(
            sweeps=p["sweeps"],
            burn_in=p["burn_in"],
            thin=p["thin"],
            proposal_radius=p["proposal_radius"],
            scan_order=p["scan_order"],
            omega2_oracle_every=p["omega2_oracle_every"],
        )
        accepted, proposed, sweeps_done = (
            lattice.check_int(data["counters"][name], f"checkpoint counter {name}", 0)
            for name in ("accepted", "proposed", "sweeps_done")
        )
        if accepted > proposed:
            raise ValueError(f"checkpoint accepted {accepted} moves of {proposed} proposed")
        if proposed != sweeps_done * (cfg.N * cfg.N - 1):
            raise ValueError(
                f"checkpoint proposed {proposed} moves in {sweeps_done} sweeps of "
                f"{cfg.N * cfg.N - 1} movable sites"
            )
        chain = cls(cfg, params)
        chain.rng.bit_generator.state = data["rng"]["state"]
        chain.accepted, chain.proposed, chain.sweeps_done = accepted, proposed, sweeps_done
        return chain


def run_chain(N: int, l: float, epsilon: float, params: SamplerParams, observer=None) -> ChainResult:
    """Run one chain from the scaled standard configuration."""
    return Chain.from_standard(N, l, epsilon, params).run(observer)
