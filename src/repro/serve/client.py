"""Client side of the analysis daemon: ``astree-repro client``.

:class:`ServeClient` is a thin synchronous wrapper over the protocol —
connect, send one JSON line, read one JSON line.  Transport failures
(connect refused, timeout, the daemon dying mid-response with an EOF or
ECONNRESET) surface as the typed, always-retryable
:class:`~repro.errors.ServeConnectionError`, never as raw socket
errors: the analyzer is deterministic and results are cached by
content, so resubmitting the same request is always safe.

:meth:`ServeClient.submit` can do that resubmitting itself: with
``retries > 0`` it reconnects and retries on connection errors and on
retryable daemon refusals (queue full, draining), honoring the
server's ``retry_after_s`` hint with exponential backoff on top.

``edit_loop`` is the built-in benchmark driver (``--edit-loop N``): it
analyzes the given source cold, then N perturbed near-duplicates
(repro.serve.workload), reporting per-request wall time, cache
disposition and the digest-equality check against a bypass-cache
reference run.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ServeConnectionError
from .protocol import ProtocolError, recv_message, send_message

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
        self._reader = sock.makefile("rb")

    def close(self) -> None:
        try:
            if self._reader is not None:
                self._reader.close()
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
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
        try:
            send_message(self._sock, message)
            reply = recv_message(self._reader)
        except socket.timeout:
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
               config: Optional[Dict] = None, wait: bool = True,
               bypass_cache: bool = False, retries: int = 0,
               backoff_s: float = 0.25) -> Dict:
        """Submit one job.  With ``retries > 0``, connection deaths and
        retryable daemon refusals (queue full, draining) are retried
        after the server's ``retry_after_s`` hint (or exponential
        backoff), reconnecting as needed.  Structured job failures
        (``poisoned``, analysis errors) are returned as-is — they are
        answers, not transport faults."""
        message = {
            "op": "submit", "sources": [list(p) for p in sources],
            "entry": entry, "config": config or {}, "wait": wait,
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

    # -- the --edit-loop benchmark driver ------------------------------------

    def edit_loop(self, filename: str, source: str, rounds: int,
                  entry: str = "main", config: Optional[Dict] = None,
                  verify: bool = True) -> Dict:
        """Submit ``source`` then ``rounds`` perturbed near-duplicates;
        per round optionally submit a ``bypass_cache`` reference of the
        same variant and check digest equality.  Returns a summary dict
        (per-round rows + aggregate speedup)."""
        from .workload import make_variant

        rows: List[Dict] = []
        mismatches = 0
        for i in range(rounds + 1):
            variant = make_variant(source, i)  # i=0: the base source
            t0 = time.perf_counter()
            reply = self.submit([(filename, variant)], entry=entry,
                                config=config)
            wall = time.perf_counter() - t0
            if not reply.get("ok"):
                raise RuntimeError(
                    f"edit-loop round {i} failed: {reply.get('error')}")
            row = {
                "round": i,
                "cached": reply["cached"],
                "digest": reply["digest"],
                "client_wall_s": wall,
                "server_wall_s": reply["wall_s"],
                "cross_run_hits":
                    reply["result"].get("cross_run_hits", 0),
            }
            if verify:
                ref = self.submit([(filename, variant)], entry=entry,
                                  config=config, bypass_cache=True)
                if not ref.get("ok"):
                    raise RuntimeError(
                        f"edit-loop reference {i} failed: "
                        f"{ref.get('error')}")
                row["reference_digest"] = ref["digest"]
                row["bit_identical"] = ref["digest"] == reply["digest"]
                if not row["bit_identical"]:
                    mismatches += 1
            rows.append(row)
        warm = [r["server_wall_s"] for r in rows[1:]
                if not r["cached"]]
        cold = rows[0]["server_wall_s"]
        return {
            "rounds": rows,
            "mismatches": mismatches,
            "cold_wall_s": cold,
            "warm_avg_wall_s": sum(warm) / len(warm) if warm else 0.0,
        }


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
