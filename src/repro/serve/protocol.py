"""Wire protocol of the analysis daemon: newline-delimited JSON over a
Unix-domain socket.

Every request and response is one JSON object on one line, UTF-8.
Requests carry an ``op``; responses always carry ``ok`` (bool) plus
op-specific fields, or ``ok: false`` with ``error``.  One connection may
issue any number of requests; the daemon answers them in order.

Ops:

``ping``
    Liveness probe.  -> ``{ok, pid, uptime_s}``
``submit``
    Enqueue an analysis job.  Fields: ``sources`` (list of
    ``[filename, text]`` pairs), ``entry`` (default ``main``),
    ``config`` (dict of AnalyzerConfig field overrides, optional),
    ``wait`` (bool, default true: block until the job finishes and
    return its result envelope; otherwise return ``{job_id}``
    immediately), ``bypass_cache`` (bool: force a cold run, used by
    benchmarks to produce reference results).
``status``
    ``{job_id}`` -> ``{state, queue_depth}`` where state is one of
    queued/running/done/failed.
``result``
    ``{job_id}`` -> the job's result envelope (blocks until done).
``stats``
    -> counters of every cache layer, queue depth, request/hit totals.
``shutdown``
    Stop accepting work, finish the running job, exit.

Result envelope (also what the exact-result store persists)::

    {ok: true, job_id, cached: bool, digest: <sha256 of the semantic
     result fields>, wall_s: <serving time>,
     result: <AnalysisResult.to_json() record>}

The digest covers alarms/exit code/invariants only (see
repro.serve.fingerprints.result_digest) — the determinism contract is
that ``digest`` of a cache-served response equals the digest of the
cold run that populated the entry.

The daemon-to-worker channel uses the length-prefixed frames of
repro.ipc.frames instead (see repro.ipc.process).
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional

from ..ipc.frames import MAX_FRAME, ProtocolError

__all__ = ["ProtocolError", "error_response", "recv_message",
           "send_message"]


def send_message(sock: socket.socket, message: Dict) -> None:
    data = json.dumps(message, separators=(",", ":")).encode() + b"\n"
    sock.sendall(data)


def recv_message(reader) -> Optional[Dict]:
    """Read one message from a buffered binary reader (``sock.makefile``).
    Returns None on clean EOF, raises ProtocolError on garbage."""
    line = reader.readline(MAX_FRAME + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME:
        raise ProtocolError("message exceeds size limit")
    if not line.endswith(b"\n"):
        raise ProtocolError("truncated message (connection dropped mid-line)")
    try:
        msg = json.loads(line)
    except ValueError as e:
        raise ProtocolError(f"bad JSON: {e}")
    if not isinstance(msg, dict):
        raise ProtocolError("message is not a JSON object")
    return msg


def error_response(message: str, **extra) -> Dict:
    out = {"ok": False, "error": message}
    out.update(extra)
    return out

