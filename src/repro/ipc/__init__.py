"""Shared inter-process plumbing.

:mod:`repro.ipc.frames` is the one implementation of the length-prefixed
JSON frame format spoken on the serve daemon's worker pipes
(:mod:`repro.serve.supervise`, :mod:`repro.serve.worker`).
"""

from .frames import (FdFrameReader, FrameTimeout, MAX_FRAME, ProtocolError,
                     encode_frame, read_exact, recv_frame, send_frame)

__all__ = ["FdFrameReader", "FrameTimeout", "MAX_FRAME", "ProtocolError",
           "encode_frame", "read_exact", "recv_frame", "send_frame"]
