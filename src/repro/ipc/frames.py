"""Length-prefixed JSON frames: the analyzer's one framing format.

Every message is a 4-byte big-endian length followed by that many bytes
of UTF-8 JSON (one object per frame).  Length prefixes make truncation
*detectable*: a peer killed mid-write leaves a frame whose declared
length exceeds the bytes that follow, which the reader reports as a
:class:`ProtocolError` instead of blocking forever or mis-parsing the
next frame.  The format carries every channel between analyzer
processes: the serve daemon's Unix socket (:mod:`repro.serve.server` /
:mod:`repro.serve.client`) and the worker pipes of
:mod:`repro.ipc.process`, where it rides on claimed stdin/stdout.

Writers call :func:`encode_frame` (or :func:`send_frame` on a buffered
stream); every reader is one :class:`FdFrameReader` over a raw file
descriptor, with an optional ``select`` deadline.
"""

from __future__ import annotations

import json
import os
import select
import struct
import time
from typing import Dict, Optional

__all__ = ["FdFrameReader", "FrameTimeout", "MAX_FRAME", "ProtocolError",
           "encode_frame", "send_frame"]

# One frame may carry whole translation units or a full result payload;
# bound it generously (64 MiB) so a runaway peer cannot exhaust
# the parent's memory.
MAX_FRAME = 64 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """Malformed frame: oversized, truncated stream, bad JSON."""


class FrameTimeout(ProtocolError):
    """A deadline-bounded read ran out of time (the peer is wedged, not
    dead — the caller decides whether to kill it)."""


def encode_frame(message: Dict) -> bytes:
    """Serialize one message to its on-wire bytes (header + body)."""
    data = json.dumps(message, separators=(",", ":")).encode()
    if len(data) > MAX_FRAME:
        raise ProtocolError("frame exceeds size limit")
    return _FRAME_HEADER.pack(len(data)) + data


def send_frame(stream, message: Dict) -> None:
    """Write one frame to a buffered binary stream and flush it (pipes
    are fully buffered)."""
    stream.write(encode_frame(message))
    stream.flush()


class FdFrameReader:
    """The frame reader: reads frames from a raw file descriptor (a
    pipe or a socket) into its own buffer.

    :meth:`recv_frame` returns ``None`` on clean EOF (no header bytes
    at all), raises :class:`ProtocolError` on a half-written, oversized
    or non-JSON frame — the tell of a peer that died mid-write — and
    :class:`FrameTimeout` when a deadline passes first.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self._buf = b""

    def _read_exact(self, n: int, deadline: Optional[float]) -> bytes:
        while len(self._buf) < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FrameTimeout("frame read deadline exceeded")
                ready, _, _ = select.select([self.fd], [], [], remaining)
                if not ready:
                    continue
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                break  # EOF: the caller decides if that is clean
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def recv_frame(self, deadline: Optional[float] = None) -> Optional[Dict]:
        """Read one frame, by the ``time.monotonic()`` ``deadline`` if
        one is given."""
        header = self._read_exact(_FRAME_HEADER.size, deadline)
        if not header:
            return None
        if len(header) < _FRAME_HEADER.size:
            raise ProtocolError(
                "truncated frame header (peer died mid-write)")
        (length,) = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ProtocolError(f"oversized frame ({length} bytes)")
        body = self._read_exact(length, deadline)
        if len(body) < length:
            raise ProtocolError(
                f"truncated frame body ({len(body)} of {length} bytes)")
        try:
            msg = json.loads(body)
        except ValueError as e:
            raise ProtocolError(f"bad JSON in frame: {e}")
        if not isinstance(msg, dict):
            raise ProtocolError("frame is not a JSON object")
        return msg
