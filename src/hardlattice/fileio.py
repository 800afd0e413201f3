"""File output shared by the sampler and the experiment layer."""

from __future__ import annotations

import os
import tempfile


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` so that readers see the old file or the whole new one.

    The text goes to a fresh temp file in the target's directory, which is
    synced to disk and then renamed over ``path``.  On any failure the
    temp file is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=directory or ".", prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp creates it 0600
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
