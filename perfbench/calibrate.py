"""Host-speed calibration: fixed reference work timed next to every timed run.

The benchmark's host shares its CPUs with other tenants, and their load
makes the whole CPU slower or faster by up to 1.5x for tens of seconds
at a time.  The program's own work cannot tell that apart from a real
change of speed.  This module times a frozen reference chunk of work,
which does not import hardlattice, so no change to the program can move
it.  ``run.py`` times one chunk right before it starts a timed process,
then stops the process every ``SLICE_S`` seconds (SIGSTOP), times one
chunk and lets it go on (SIGCONT).  Chunk and program never run at the
same time, so neither slows the other; the pauses are left out of the
process's time.  That time is then scaled by ``REF_CHUNK_S / mean chunk
time``: the time it would have taken on a host that runs the chunk in
``REF_CHUNK_S``.

The chunk mixes the two kinds of work the program does: an interpreted
loop over numpy scalars, like the single-site kernel, and whole-array
numpy arithmetic, like the overlap oracle and the identity suite.

``setup_s`` is mostly interpreter start and the numpy import, which a
compute chunk tracks poorly.  Each set-up child is paired with a fresh
interpreter that only imports numpy (``IMPORT_CHILD``), timed right
before it, and scaled by ``REF_IMPORT_S`` over that interpreter's time.
numpy is part of the environment, not of the program, so a change to
the program cannot move that reference either.

The chunk runs in a helper process (:class:`Calibrator`), started once
per benchmark run.  Keeping it out of the benchmark's own process keeps
that process small, because a child's peak RSS from ``wait4`` includes
the RSS of the process that forked it.  Run as a script, this file is
the helper: it answers each line of input with the time of one chunk.
"""

from __future__ import annotations

import subprocess
import sys
import time

# The chunk's time on the box where the benchmark was written, in a quiet
# phase.  A constant, so that a scaled time still reads in seconds.
REF_CHUNK_S = 0.011
SLICE_S = 0.25

# The same for the reference interpreter, spawn to numpy imported.
REF_IMPORT_S = 0.12
IMPORT_CHILD = "import time, numpy\nprint(time.monotonic())\n"


class Calibrator:
    """The helper process that times the reference chunk."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, text=True)

    def chunk(self) -> float:
        """Time one reference chunk, in seconds."""
        self.proc.stdin.write("chunk\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("calibration helper exited")
        return float(answer)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Calibrator:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scale(chunks: list[float]) -> float:
    """Factor from a time taken next to ``chunks`` to reference seconds."""
    return REF_CHUNK_S * len(chunks) / sum(chunks)


def _serve() -> None:
    import math

    import numpy as np

    rng = np.random.default_rng(12345)
    pos = rng.random((64, 2))
    nbr = rng.integers(0, 64, (64, 6))
    a = rng.random((96, 96, 9))
    b = rng.random((96, 96, 9))

    def chunk() -> float:
        acc = 0.0
        for t in range(3000):
            s = t & 63
            x = pos[s, 0]
            y = pos[s, 1]
            for k in range(2):
                j = nbr[s, k]
                dx = pos[j, 0] - x
                dy = pos[j, 1] - y
                acc += math.sqrt(dx * dx + dy * dy) + math.atan2(dy, dx)
        for _ in range(12):
            m = (a * b - b) > 0.25
            acc += float(np.count_nonzero(m.any(axis=2)))
        return acc

    chunk()  # warm-up
    while sys.stdin.readline():
        t0 = time.perf_counter()
        chunk()
        print(time.perf_counter() - t0, flush=True)


if __name__ == "__main__":
    _serve()
