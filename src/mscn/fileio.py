"""Crash-safe replacement of output files."""

from __future__ import annotations

import os


def write_atomic(path, blob: bytes) -> None:
    """Write `blob` to `path` so that readers see the old file or the new
    one, never a torn mix.

    The bytes go to a temporary file in the same directory, are flushed to
    disk, and the temporary file then replaces `path` in one rename.  On
    failure the temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
