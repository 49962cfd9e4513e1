"""Crash-safe replacement of output files, and bounded reads of the
package's binary files (datasets and checkpoints)."""

from __future__ import annotations

import os
import struct


def write_atomic(path, *parts) -> None:
    """Write the buffers `parts`, in order, to `path` so that readers see
    the old file or the new one, never a torn mix.

    The bytes go to a temporary file in the same directory, are flushed to
    disk, and the temporary file then replaces `path` in one rename.  On
    failure the temporary file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Reader:
    """The bytes of the file at `path` after its header, the 4-byte
    `magic` and a u32 `version`, which is checked when it is built.  A
    malformed file raises `error`, the format's own error class.  `take`
    hands out the rest in order, as views that records are read from in
    place."""

    def __init__(self, path, magic: bytes, version: int, error: type):
        with open(path, "rb") as fh:
            self._blob = memoryview(fh.read())
        self._error = error
        if self._blob[:4] != magic:
            raise error(f"bad magic: {bytes(self._blob[:4])!r}")
        if len(self._blob) < 8:
            raise error("truncated header")
        (found,) = struct.unpack_from("<I", self._blob, 4)
        if found != version:
            raise error(f"unsupported version: {found}")
        self.pos = 8

    def take(self, count: int) -> memoryview:
        """The next `count` bytes; `error` if fewer are left."""
        pos = self.pos
        if pos + count > len(self._blob):
            raise self._error(f"truncated at byte {pos}: needed {count} more")
        self.pos = pos + count
        return self._blob[pos:pos + count]

    @property
    def left(self) -> int:
        """The count of bytes not yet taken."""
        return len(self._blob) - self.pos
