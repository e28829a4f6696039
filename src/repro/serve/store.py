"""On-disk stores for the serving layer: exact results and fixpoint
journals.

Both stores are content-addressed (keys are hex digests from
repro.serve.fingerprints), write atomically (write-to-temp + rename,
the same discipline as supervisor checkpoints) so a kill mid-write
never corrupts an entry, and evict by file mtime when a configured
entry bound is exceeded — cache warmth survives daemon restarts, disk
usage stays bounded.

Every entry is stored under a payload checksum: one line holding the
hex SHA-256 of the payload bytes, then the payload.  Reads verify it;
an entry that fails (truncated write that survived a crash, bit rot,
hand-editing) is **moved to a ``quarantine/`` subdirectory** — counted
as a miss, preserved for post-mortem, and never re-read or served.

A small in-memory layer fronts each store; its hit/miss/eviction
counters feed the daemon's ``stats`` protocol op.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Dict, Optional

from ..fileio import atomic_write

__all__ = ["JournalStore", "ResultStore"]

_KEY_CHARS = set("0123456789abcdef")


def _safe_key(key: str) -> bool:
    return bool(key) and set(key) <= _KEY_CHARS


class _DiskStore:
    """Shared machinery: a directory of <key><ext> files with an
    in-memory LRU front and mtime-ordered disk eviction."""

    def __init__(self, directory: Optional[str], ext: str,
                 max_memory: int, max_disk: int):
        self.directory = directory
        self.ext = ext
        self.max_memory = max_memory
        self.max_disk = max_disk
        self._mem: "OrderedDict[str, object]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.quarantined = 0

    # -- encoding hooks ------------------------------------------------------

    def _encode(self, value) -> bytes:  # pragma: no cover - overridden
        raise NotImplementedError

    def _decode(self, data: bytes):  # pragma: no cover - overridden
        raise NotImplementedError

    # -- API -----------------------------------------------------------------

    def _path(self, key: str) -> Optional[str]:
        if self.directory is None or not _safe_key(key):
            return None
        return os.path.join(self.directory, f"{key}{self.ext}")

    def get(self, key: str):
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
            self.memory_hits += 1
            return entry
        path = self._path(key)
        if path is not None and os.path.exists(path):
            try:
                with open(path, "rb") as f:
                    data = f.read()
                value = self._decode(self._verify(data))
            except (OSError, ValueError):
                # A corrupt entry is a miss, never an error: move it
                # aside for post-mortem so it is never served or
                # re-read, and the key can be repopulated.
                self._quarantine(path)
                self.misses += 1
                return None
            self._remember(key, value)
            self.disk_hits += 1
            return value
        self.misses += 1
        return None

    @staticmethod
    def _checksum(payload: bytes) -> bytes:
        return hashlib.sha256(payload).hexdigest().encode() + b"\n"

    def _verify(self, data: bytes) -> bytes:
        """Strip and check the checksum header; ValueError on mismatch
        (including headerless files from before checksumming)."""
        header, sep, payload = data.partition(b"\n")
        if (not sep or len(header) != 64
                or header != self._checksum(payload)[:64]):
            raise ValueError("payload checksum mismatch")
        return payload

    def _quarantine(self, path: str) -> None:
        qdir = os.path.join(os.path.dirname(path), "quarantine")
        try:
            os.makedirs(qdir, exist_ok=True)
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
            self.quarantined += 1
        except OSError:
            try:  # cannot move it: dropping beats re-reading garbage
                os.unlink(path)
            except OSError:
                pass

    def put(self, key: str, value) -> None:
        self.puts += 1
        self._remember(key, value)
        path = self._path(key)
        if path is None:
            return
        payload = self._encode(value)
        atomic_write(path, self._checksum(payload) + payload,
                     private=True)
        self._evict_disk()

    def _remember(self, key: str, value) -> None:
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_memory:
            self._mem.popitem(last=False)

    def _evict_disk(self) -> None:
        if self.directory is None:
            return
        try:
            names = [n for n in os.listdir(self.directory)
                     if n.endswith(self.ext)]
        except OSError:
            return
        excess = len(names) - self.max_disk
        if excess <= 0:
            return
        paths = [os.path.join(self.directory, n) for n in names]

        def mtime(p: str) -> float:
            try:
                return os.path.getmtime(p)
            except OSError:
                return 0.0

        for p in sorted(paths, key=mtime)[:excess]:
            try:
                os.unlink(p)
                self.evictions += 1
            except OSError:
                pass

    def entry_count(self) -> int:
        if self.directory is None:
            return len(self._mem)
        try:
            return sum(1 for n in os.listdir(self.directory)
                       if n.endswith(self.ext))
        except OSError:
            return len(self._mem)

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "memory_entries": len(self._mem),
            "disk_entries": self.entry_count(),
        }


class ResultStore(_DiskStore):
    """Exact-result cache: request key -> the stored response envelope
    (result payload + digest) of the cold run that populated it.  JSON
    on disk so entries are inspectable (``<cache>/results/<key>.json``)."""

    def __init__(self, cache_dir: Optional[str],
                 max_memory: int = 512, max_disk: int = 4096):
        directory = (os.path.join(cache_dir, "results")
                     if cache_dir else None)
        super().__init__(directory, ".json", max_memory, max_disk)

    def _encode(self, value) -> bytes:
        return (json.dumps(value, sort_keys=True, indent=1) + "\n").encode()

    def _decode(self, data: bytes):
        return json.loads(data.decode())


class JournalStore(_DiskStore):
    """Fixpoint-journal store: journal key (the compat fingerprint
    salted with ``repro.serve.cache.JOURNAL_VERSION``) -> the pickled
    per-statement (pre, post) journal of the most recent eligible run
    with that layout (``<cache>/fixpoint/<key>.pkl``).  Values stay
    opaque bytes here — CrossRunCache.attach unpickles them (journals
    hold slim context-free footprint slices, so this is cheap)."""

    def __init__(self, cache_dir: Optional[str],
                 max_memory: int = 4, max_disk: int = 64):
        directory = (os.path.join(cache_dir, "fixpoint")
                     if cache_dir else None)
        super().__init__(directory, ".pkl", max_memory, max_disk)

    def _encode(self, value) -> bytes:
        return value

    def _decode(self, data: bytes):
        return data
