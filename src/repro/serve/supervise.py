"""Supervision of the out-of-process analysis worker.

The daemon never runs analysis in its own process: jobs are dispatched
to one ``python -m repro.serve.worker`` child, a
:class:`repro.ipc.process.WorkerProcess` kept across jobs.  That
primitive does the spawning, the framed request/response with a hard
deadline, the stderr capture and the death detection; this module is
the serve-specific policy on top:

* :class:`WorkerSupervisor` — the restart loop: spawns workers, paces
  respawns with exponential backoff
  (:class:`repro.ipc.process.RestartPolicy`), verifies each spawn with a
  ping, and converts a death into a :class:`WorkerCrashed` carrying a
  *stable crash signature* (:func:`repro.ipc.process.crash_signature`
  over the worker's stderr tail, falling back to the exit status) so the
  server can quarantine jobs that kill workers reproducibly.
* :class:`PoisonRegistry` — the quarantine: request keys that crashed a
  worker twice under one signature are answered with a structured
  ``poisoned`` error instead of being re-run.  Persisted atomically
  under ``<cache>/quarantine/poisoned.json`` so a daemon restart does
  not forget which inputs are lethal.

The supervisor serializes pipe access with a lock, but
:meth:`WorkerSupervisor.abort_current` deliberately takes no lock: the
drain path must be able to kill a wedged worker *while* the dispatcher
thread is blocked inside ``run_job`` holding the lock — the kill makes
the blocked read fail with EOF, which unblocks the dispatcher.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List, Optional

from ..errors import ServeError
from ..fileio import atomic_write
from ..ipc.process import (RestartPolicy, WorkerDied, WorkerProcess,
                           crash_signature)

__all__ = ["PoisonRegistry", "WorkerCrashed", "WorkerSupervisor"]

#: Base delay of the worker restart backoff (doubling, capped at 5 s).
RESTART_BACKOFF_S = 0.05


class WorkerCrashed(Exception):
    """A job took the worker down.  ``signature`` is stable across
    repeat crashes of the same underlying fault (triage-normalized
    stderr, or the exit status), which is what the poison quarantine
    keys on."""

    def __init__(self, signature: str, detail: str, exit_status: str):
        super().__init__(f"worker crashed [{signature}]: {detail}")
        self.signature = signature
        self.detail = detail
        self.exit_status = exit_status


class WorkerSupervisor:
    """Owns the (single) worker subprocess: spawn, ping-verify, restart
    with backoff, classify deaths into stable crash signatures."""

    #: Generous ceiling for spawn + interpreter/numpy import + ping.
    SPAWN_PING_TIMEOUT_S = 120.0

    def __init__(self, cache_dir: Optional[str] = None,
                 certify_mode: str = "off"):
        self._args: List[str] = []
        if cache_dir:
            self._args += ["--cache-dir", cache_dir]
        if certify_mode != "off":
            self._args += ["--certify", certify_mode]
        self.policy = RestartPolicy(base_s=RESTART_BACKOFF_S)
        self._lock = threading.Lock()
        self._worker: Optional[WorkerProcess] = None
        self._next_spawn_at = 0.0
        self._closing = False
        self.spawns = 0
        self.restarts = 0
        self.crashes = 0
        self.last_exit: Optional[str] = None
        self.last_signature: Optional[str] = None
        # The warm caches' counters from the latest reply (spawn ping
        # or job), so reading them never waits on a running job.
        self.worker_stats: Dict = {}

    # -- spawning -------------------------------------------------------------

    def ensure_started(self) -> None:
        """Eagerly spawn + ping the worker (best effort: a failure here
        is retried on the first job)."""
        try:
            with self._lock:
                self._ensure_worker()
        except ServeError:
            pass

    def _ensure_worker(self) -> WorkerProcess:
        if self._closing:
            raise ServeError("supervisor is shutting down")
        if self._worker is not None and self._worker.alive():
            return self._worker
        delay = self._next_spawn_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            worker = WorkerProcess("repro.serve.worker", self._args,
                                   stderr_passthrough=True)
        except OSError as e:
            raise ServeError(f"cannot spawn the analysis worker: {e}")
        self.spawns += 1
        try:
            reply = worker.request({"op": "ping"},
                                   timeout_s=self.SPAWN_PING_TIMEOUT_S)
        except WorkerDied as e:
            raise ServeError(
                f"analysis worker failed to start ({e.status}): "
                f"{e.detail}; stderr: {e.stderr[-500:]!r}")
        if not reply.get("ok"):
            worker.kill()
            worker.close()
            raise ServeError(f"analysis worker ping failed: {reply!r}")
        self.worker_stats = reply.get("worker_stats", {})
        self._worker = worker
        return worker

    # -- dispatch -------------------------------------------------------------

    def run_job(self, job, defaults: Dict,
                hard_timeout_s: Optional[float] = None) -> Dict:
        """Run one job on the worker; returns the worker's envelope.
        Raises :class:`WorkerCrashed` when the worker dies under the
        job (the caller decides about retry and quarantine)."""
        with self._lock:
            worker = self._ensure_worker()
            try:
                reply = worker.request(dict(job.to_wire(),
                                            defaults=defaults),
                                       timeout_s=hard_timeout_s)
            except WorkerDied as e:
                raise self._crashed(e)
            self.policy.reset()
            self.worker_stats = reply.pop("worker_stats", self.worker_stats)
            return reply

    def _crashed(self, died: WorkerDied) -> WorkerCrashed:
        """Classify a worker death, pace the next respawn, and build
        the WorkerCrashed for the caller.  Called with the lock held."""
        if died.timed_out:
            signature = "worker-timeout|hard-deadline|"
        else:
            signature = crash_signature(died.stderr)
            if signature.startswith("UnknownError|?|"):
                signature = f"worker-exit|{died.status}|"
        self._worker = None
        self.crashes += 1
        self.restarts += 1
        self.last_exit = died.status
        self.last_signature = signature
        self._next_spawn_at = time.monotonic() + self.policy.next_delay()
        print(f"astree-repro serve: worker-crash: {died.status} "
              f"[{signature}] — {died.detail}", file=sys.stderr, flush=True)
        return WorkerCrashed(signature, died.detail, died.status)

    # -- control --------------------------------------------------------------

    def abort_current(self) -> None:
        """Kill the worker out from under a blocked dispatch (drain
        escalation).  Lock-free on purpose — see the module docstring."""
        worker = self._worker
        if worker is not None:
            worker.kill()

    def shutdown(self) -> None:
        self._closing = True
        worker = self._worker
        self._worker = None
        if worker is not None:
            worker.close()

    def health(self) -> Dict:
        worker = self._worker
        return {
            "alive": bool(worker is not None and worker.alive()),
            "pid": worker.pid if worker is not None else None,
            "spawns": self.spawns,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "last_exit": self.last_exit,
            "last_crash_signature": self.last_signature,
        }


class PoisonRegistry:
    """Quarantine for jobs that reproducibly kill workers.

    Crash counts are keyed by (request key, crash signature); a key
    whose signature reaches two crashes is *poisoned* and answered with
    a structured error without touching a worker.  A successful
    ``bypass_cache`` run of the key clears it (the operator's way to
    re-admit a fixed input).  State persists as one atomic JSON file so
    a poisoned job cannot crash-loop a freshly restarted daemon."""

    def __init__(self, cache_dir: Optional[str] = None,
                 poison_threshold: int = 2):
        self.poison_threshold = poison_threshold
        self._path = (os.path.join(cache_dir, "quarantine", "poisoned.json")
                      if cache_dir else None)
        self._lock = threading.Lock()
        self._crashes: Dict[str, Dict[str, int]] = {}
        self._poisoned: Dict[str, Dict] = {}
        self._load()

    def _load(self) -> None:
        if self._path is None or not os.path.exists(self._path):
            return
        try:
            import json

            with open(self._path, "rb") as f:
                data = json.loads(f.read().decode())
            self._crashes = {str(k): {str(s): int(n)
                                      for s, n in dict(v).items()}
                             for k, v in dict(
                                 data.get("crashes", {})).items()}
            self._poisoned = {str(k): dict(v) for k, v in dict(
                data.get("poisoned", {})).items()}
        except (OSError, ValueError, TypeError, AttributeError):
            self._crashes, self._poisoned = {}, {}  # corrupt: start clean

    def _flush_locked(self) -> None:
        if self._path is None:
            return
        import json

        data = {"crashes": self._crashes, "poisoned": self._poisoned}
        try:
            atomic_write(self._path,
                         (json.dumps(data, indent=1, sort_keys=True)
                          + "\n").encode(), private=True)
        except OSError:
            pass  # quarantine persistence is best-effort

    def check(self, request_key: str) -> Optional[Dict]:
        with self._lock:
            entry = self._poisoned.get(request_key)
            return dict(entry) if entry else None

    def record_crash(self, request_key: str, signature: str) -> int:
        """Count one crash; returns the new count for this (key,
        signature) pair."""
        with self._lock:
            per_key = self._crashes.setdefault(request_key, {})
            per_key[signature] = per_key.get(signature, 0) + 1
            count = per_key[signature]
            self._flush_locked()
            return count

    def mark_poisoned(self, request_key: str, signature: str) -> Dict:
        with self._lock:
            count = self._crashes.get(request_key, {}).get(signature, 0)
            entry = {"signature": signature, "crashes": count}
            self._poisoned[request_key] = entry
            self._flush_locked()
            return dict(entry)

    def clear(self, request_key: str) -> None:
        """Forget the key's crashes and quarantine entry.  Called after
        every successful job, so the file is rewritten only when the key
        had an entry."""
        with self._lock:
            crashes = self._crashes.pop(request_key, None)
            poisoned = self._poisoned.pop(request_key, None)
            if crashes is not None or poisoned is not None:
                self._flush_locked()

    def size(self) -> int:
        with self._lock:
            return len(self._poisoned)

    def stats(self) -> Dict:
        with self._lock:
            return {
                "poisoned": len(self._poisoned),
                "keys_with_crashes": len(self._crashes),
                "signatures": sorted(
                    {e["signature"] for e in self._poisoned.values()}),
            }
