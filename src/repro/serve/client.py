"""Client side of the analysis daemon: ``astree-repro client``.

:class:`ServeClient` is a thin synchronous wrapper over the protocol —
connect, send one frame of :mod:`repro.ipc.frames`, read one frame, with
``timeout`` as the deadline of each round trip.  Transport failures
(connect refused, timeout, the daemon dying mid-response with an EOF,
ECONNRESET or a truncated frame) surface as the typed, always-retryable
:class:`~repro.errors.ServeConnectionError`, never as raw socket
errors: the analyzer is deterministic and results are cached by
content, so resubmitting the same request is always safe.

:meth:`ServeClient.submit` can do that resubmitting itself: with
``retries > 0`` it reconnects and retries on connection errors and on
retryable daemon refusals (queue full, draining), honoring the
server's ``retry_after_s`` hint with exponential backoff on top.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ServeConnectionError
from ..ipc.frames import (FdFrameReader, FrameTimeout, ProtocolError,
                          encode_frame)

__all__ = ["ServeClient", "wait_until_ready"]


class ServeClient:
    """One connection to a running daemon (reconnects on retry)."""

    def __init__(self, socket_path: str, timeout: Optional[float] = None):
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._connect()

    def _connect(self) -> None:
        self.close()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except socket.timeout:
            sock.close()
            raise ServeConnectionError(
                f"timed out connecting to daemon at {self.socket_path}")
        except OSError as e:
            sock.close()
            raise ServeConnectionError(
                f"cannot connect to daemon at {self.socket_path}: {e}")
        self._sock = sock
        self._reader = FdFrameReader(sock.fileno())

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock = None
        self._reader = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, message: Dict) -> Dict:
        """One request/response round trip.  Raises
        :class:`ServeConnectionError` if the daemon dies mid-exchange
        (EOF, ECONNRESET, timeout) — the connection is closed and the
        next call through a retry path reconnects."""
        if self._sock is None:
            self._connect()
        deadline = (time.monotonic() + self.timeout
                    if self.timeout is not None else None)
        try:
            self._sock.sendall(encode_frame(message))
            reply = self._reader.recv_frame(deadline)
        except (socket.timeout, FrameTimeout):
            self.close()
            raise ServeConnectionError(
                f"request timed out after {self.timeout}s "
                f"(op={message.get('op')!r})")
        except OSError as e:
            self.close()
            raise ServeConnectionError(
                f"connection to daemon died mid-request: {e}")
        except ProtocolError as e:
            self.close()
            raise ServeConnectionError(
                f"garbled response from daemon: {e}")
        if reply is None:
            self.close()
            raise ServeConnectionError(
                "daemon closed the connection mid-response")
        return reply

    # -- ops -----------------------------------------------------------------

    def ping(self) -> Dict:
        return self.request({"op": "ping"})

    def stats(self) -> Dict:
        return self.request({"op": "stats"})

    def health(self) -> Dict:
        return self.request({"op": "health"})

    def shutdown(self) -> Dict:
        return self.request({"op": "shutdown"})

    def submit(self, sources: List[Tuple[str, str]], entry: str = "main",
               config: Optional[Dict] = None, bypass_cache: bool = False,
               retries: int = 0, backoff_s: float = 0.25) -> Dict:
        """Submit one job and wait for its result envelope.  With
        ``retries > 0``, connection deaths and retryable daemon refusals
        (queue full, draining) are retried after the server's
        ``retry_after_s`` hint (or exponential backoff), reconnecting as
        needed.  Structured job failures
        (``poisoned``, analysis errors) are returned as-is — they are
        answers, not transport faults."""
        message = {
            "op": "submit", "sources": [list(p) for p in sources],
            "entry": entry, "config": config or {},
            "bypass_cache": bypass_cache,
        }
        attempt = 0
        while True:
            try:
                reply = self.request(message)
            except ServeConnectionError:
                if attempt >= retries:
                    raise
                time.sleep(backoff_s * (2 ** attempt))
                attempt += 1
                continue
            if (not reply.get("ok") and reply.get("retryable")
                    and attempt < retries):
                delay = reply.get("retry_after_s")
                time.sleep(float(delay) if delay
                           else backoff_s * (2 ** attempt))
                attempt += 1
                continue
            return reply


def wait_until_ready(socket_path: str, timeout_s: float = 30.0,
                     alive: Optional[Callable[[], bool]] = None) -> None:
    """Retry ``ping`` until the daemon at ``socket_path`` answers.  An
    answered ping is the readiness signal: the socket file alone can be
    a stale one, or exist between ``bind`` and ``listen``.  ``alive`` is
    polled between attempts, so a daemon that died during boot fails
    fast; both failures raise :class:`ServeConnectionError`."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            remaining = max(deadline - time.monotonic(), 0.1)
            with ServeClient(socket_path, timeout=remaining) as client:
                client.ping()
            return
        except ServeConnectionError:
            if alive is not None and not alive():
                raise ServeConnectionError(
                    f"daemon for {socket_path} exited during boot")
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
