"""Atomic file replacement, shared by every on-disk artifact the
analyzer writes: certificates, the serving layer's stores and its
poison registry.

The bytes go to a uniquely named temporary file next to the target,
are flushed to disk, and then replace the target by rename, so a reader
(or a kill mid-write) sees either the old file or the new one.  When
any step fails, the temporary file is removed before the error
propagates, so a full disk leaves nothing behind.  This module imports
nothing from the rest of the package.
"""

from __future__ import annotations

import os

__all__ = ["atomic_write"]


def atomic_write(path: str, data: bytes, private: bool = False) -> None:
    """Replace ``path`` with ``data``.  A user-facing file (a
    certificate) gets the mode ``open`` would give it under the process
    umask, and its directory must exist; a ``private`` one (the
    serving layer's cache entries) is created mode 0600, in a directory
    made on demand."""
    if private:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                 0o600 if private else 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
