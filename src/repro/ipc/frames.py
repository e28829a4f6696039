"""Length-prefixed JSON frames: the analyzer's one framing format.

Every message is a 4-byte big-endian length followed by that many bytes
of UTF-8 JSON (one object per frame).  Length prefixes make truncation
*detectable*: a peer killed mid-write leaves a frame whose declared
length exceeds the bytes that follow, which the readers here report as a
:class:`ProtocolError` instead of blocking forever or mis-parsing the
next frame.  The format carries the serve daemon's worker pipes
(:mod:`repro.serve.supervise` / :mod:`repro.serve.worker`), where it
rides on claimed stdin/stdout.

Two readers cover the two ends:

* :func:`recv_frame` — blocking read from a buffered binary stream
  (the worker's stdin);
* :class:`FdFrameReader` — deadline-bounded ``select``-based reader over
  a raw file descriptor (the serve supervisor's hard job timeout).
"""

from __future__ import annotations

import json
import os
import select
import struct
import time
from typing import Dict, Optional

__all__ = ["FdFrameReader", "FrameTimeout", "MAX_FRAME", "ProtocolError",
           "encode_frame", "read_exact", "recv_frame", "send_frame"]

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


def _decode_body(body: bytes) -> Dict:
    try:
        msg = json.loads(body)
    except ValueError as e:
        raise ProtocolError(f"bad JSON in frame: {e}")
    if not isinstance(msg, dict):
        raise ProtocolError("frame is not a JSON object")
    return msg


def send_frame(stream, message: Dict) -> None:
    """Write one length-prefixed JSON frame to a binary stream and
    flush it (pipes and socket makefiles are fully buffered)."""
    stream.write(encode_frame(message))
    stream.flush()


def read_exact(stream, n: int) -> bytes:
    """Read exactly n bytes from a buffered binary stream, tolerating
    short reads (pipes return what is available, not what was asked)."""
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(stream) -> Optional[Dict]:
    """Read one length-prefixed frame.  Returns None on clean EOF (no
    header bytes at all); raises ProtocolError on a half-written frame
    — the tell of a peer that died mid-write."""
    header = read_exact(stream, _FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise ProtocolError("truncated frame header (peer died mid-write)")
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError("frame exceeds size limit")
    body = read_exact(stream, length)
    if len(body) < length:
        raise ProtocolError(
            f"truncated frame body ({len(body)} of {length} bytes)")
    return _decode_body(body)


class FdFrameReader:
    """Deadline-bounded frame reader over a raw file descriptor.

    Used by the serve supervisor to enforce a hard per-job timeout on
    the worker pipe: each read ``select``s with the remaining budget and
    raises :class:`FrameTimeout` on overrun.  Raises
    :class:`ProtocolError` on half-written frames and returns ``None``
    on clean EOF, mirroring :func:`recv_frame`.
    """

    def __init__(self, fd: int) -> None:
        self.fd = fd
        self._buf = b""

    def read_exact(self, n: int, deadline: Optional[float]) -> bytes:
        while len(self._buf) < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FrameTimeout("frame read deadline exceeded")
                wait = min(0.2, remaining)
            else:
                wait = 0.2
            ready, _, _ = select.select([self.fd], [], [], wait)
            if not ready:
                continue
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                break  # EOF: the caller decides if that is clean
            self._buf += chunk
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def recv_frame(self, deadline: Optional[float]) -> Optional[Dict]:
        header = self.read_exact(_FRAME_HEADER.size, deadline)
        if not header:
            return None
        if len(header) < _FRAME_HEADER.size:
            raise ProtocolError(
                "truncated frame header (peer died mid-write)")
        (length,) = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME:
            raise ProtocolError(f"oversized frame ({length} bytes)")
        body = self.read_exact(length, deadline)
        if len(body) < length:
            raise ProtocolError(
                f"truncated frame body ({len(body)} of {length} bytes)")
        return _decode_body(body)
