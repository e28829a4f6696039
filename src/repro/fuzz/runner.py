"""Isolated case execution: one worker process per case, with retry.

Each case runs in a fresh ``python -m repro.fuzz.worker`` child
(:class:`repro.ipc.process.WorkerProcess`) that reads the spec as one
frame and answers with one verdict frame, so an analyzer crash, a
runaway allocation, or a hang is contained and classified instead of
killing the campaign.  The runner distinguishes

* **verdicts** — the reply frame (sound / unsound / degraded / rejected),
* **crashes** — the child died without a reply; its stderr traceback is
  signed by :func:`repro.ipc.process.crash_signature`,
* **timeouts** — no reply within the per-case limit; the child was
  killed and reaped,
* **infrastructure failures** — spawn errors (``OSError``) or SIGKILL
  (the OOM killer's signature), retried with exponential backoff before
  being surfaced, so transient host pressure does not masquerade as an
  analyzer bug.  A child that exits 0 without a reply is signed
  ``infra|no-reply|``.

The in-process variant (:class:`InProcessRunner`) runs the identical
worker code path in this interpreter — faster and easier to debug, used
by the reducer and ``--in-process`` replay.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional

from ..ipc.process import (RestartPolicy, WorkerDied, WorkerProcess,
                           crash_signature)
from .case import CaseSpec

__all__ = ["CaseOutcome", "InProcessRunner", "SubprocessRunner"]

#: Infrastructure failures are retried this many times, paced by a
#: RestartPolicy from this base delay (0.5 s, then 1 s).
_INFRA_RETRIES = 2
_INFRA_BACKOFF_S = 0.5


@dataclass
class CaseOutcome:
    """What one isolated execution of a case produced."""

    outcome: str                      # sound/unsound/degraded/rejected/
                                      # crash/timeout
    payload: Optional[Dict] = None    # worker JSON (verdicts only)
    signature: Optional[str] = None   # triage signature (failures only)
    stderr_tail: str = ""
    returncode: Optional[int] = None
    attempts: int = 1
    infra_retries: int = 0
    wall_time_s: float = 0.0


def _stderr_tail(text: str, limit: int = 4000) -> str:
    return text[-limit:] if len(text) > limit else text


class SubprocessRunner:
    """Runs case specs in isolated worker processes."""

    def __init__(self, timeout_s: Optional[float] = 120.0):
        self.timeout_s = timeout_s

    def run_spec(self, spec: CaseSpec) -> CaseOutcome:
        job = {"spec": spec.to_json()}
        policy = RestartPolicy(base_s=_INFRA_BACKOFF_S)
        started = time.perf_counter()

        def outcome(kind: str, **fields) -> CaseOutcome:
            return CaseOutcome(outcome=kind, attempts=policy.failures + 1,
                               infra_retries=policy.failures,
                               wall_time_s=time.perf_counter() - started,
                               **fields)

        while True:
            try:
                worker = WorkerProcess("repro.fuzz.worker")
            except OSError as exc:
                # Could not even spawn the worker: host-level trouble.
                if policy.failures < _INFRA_RETRIES:
                    time.sleep(policy.next_delay())
                    continue
                return outcome(
                    "crash", signature=f"infra|spawn|{type(exc).__name__}",
                    stderr_tail=str(exc))
            try:
                payload = worker.request(job, timeout_s=self.timeout_s)
            except WorkerDied as died:
                stderr = _stderr_tail(died.stderr)
                if died.timed_out:
                    return outcome("timeout",
                                   signature=f"timeout|{self.timeout_s}s|",
                                   stderr_tail=stderr)
                if (died.returncode == -signal.SIGKILL
                        and policy.failures < _INFRA_RETRIES):
                    time.sleep(policy.next_delay())
                    continue
                signature = ("infra|no-reply|" if died.returncode == 0
                             else crash_signature(died.stderr))
                return outcome("crash", signature=signature,
                               stderr_tail=stderr,
                               returncode=died.returncode)
            return outcome(payload.get("outcome", "crash"), payload=payload,
                           returncode=worker.close())


class InProcessRunner:
    """Runs the identical worker code path inside this interpreter.

    Crashes are caught and signed from the live traceback — the same
    :func:`crash_signature` format the subprocess path derives from
    worker stderr, so signatures agree across isolation modes.
    """

    def run_spec(self, spec: CaseSpec) -> CaseOutcome:
        from .worker import execute_spec

        started = time.perf_counter()
        try:
            payload = execute_spec(spec)
        except Exception:
            text = traceback.format_exc()
            return CaseOutcome(
                outcome="crash", signature=crash_signature(text),
                stderr_tail=_stderr_tail(text),
                wall_time_s=time.perf_counter() - started)
        return CaseOutcome(
            outcome=payload.get("outcome", "crash"), payload=payload,
            returncode=0, wall_time_s=time.perf_counter() - started)
