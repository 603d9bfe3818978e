"""Small shared utilities with no domain dependencies."""

from __future__ import annotations

import contextlib
import os
import tempfile

# Read once (setting and restoring it is the only portable way) so the
# files written below get the mode a plain ``open()`` would give them,
# not ``mkstemp``'s owner-only 0600.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (write-then-rename).

    A reader never observes a partially written file: either the old
    content (or absence) or the complete new content.  Both cache layers
    (the grid :class:`~repro.experiments.grid.ResultCache` and campaign
    pcap artifacts) persist through this helper so a crashed run cannot
    leave a readable truncated capture behind.  Every write goes through
    its own temp file beside ``path``, so concurrent writers (two
    processes sharing a cache) never clobber each other's half-written
    file; the last rename wins with a complete payload.  A failed write
    removes its temp file.
    """
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                prefix=os.path.basename(path) + ".",
                                suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fileobj:
            os.fchmod(fd, 0o666 & ~_UMASK)
            fileobj.write(payload)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def check_jobs(jobs: int) -> int:
    """``jobs`` if it is a usable worker-process count, else ValueError."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs
