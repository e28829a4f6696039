"""The analysis daemon: ``astree-repro serve``.

One parent process, one Unix-domain socket, one *supervised analysis
worker subprocess*.  Connections get a thread each (protocol handling
is I/O-bound and cheap); analysis jobs run sequentially through the
worker so its process-global warm state — value intern pool, octagon
closure memo, frontend cache, journal store — stays coherent.

The socket speaks the length-prefixed JSON frames of
:mod:`repro.ipc.frames`, the worker pipe's format: one request frame,
one reply frame, any number per connection, answered in order.
Requests carry an ``op``; replies carry ``ok`` (bool) plus op-specific
fields, or ``ok: false`` with ``error``.  The ops (see "Protocol" in
docs/usage.md) are ``ping``, ``submit`` (waits for the job and answers
with its result envelope), ``stats``, ``health`` and ``shutdown``;
anything else gets an ``unknown op`` error reply.

The crash-isolation split (ISSUE 7): the parent owns everything that
must survive a crashing job — the accepted queue, the exact-result
store, the poison quarantine — while the worker subprocess owns the
warm per-process analysis state (frontend cache, journal store, intern
pools).  A job that segfaults, OOMs, or wedges the worker kills *one
subprocess*: the supervisor (repro.serve.supervise) restarts it with
exponential backoff, retries the in-flight job once on a fresh
worker, and quarantines request keys that kill workers twice under one
stable crash signature.  There is no in-process fallback: every job
runs in the worker.

The serving pipeline per job:

1. **Quarantine check.**  A poisoned request key is answered with a
   structured ``poisoned`` error without touching a worker (a
   ``bypass_cache`` run skips the check and, on success, re-admits the
   key).
2. **Exact-result lookup.**  ``request_key`` (source digest + entry +
   configuration fingerprint) indexes the :class:`ResultStore`.  A hit
   returns the stored envelope in microseconds — the analyzer is
   deterministic, so the stored result *is* the result.
3. **Dispatch to the worker** (repro.serve.worker), which runs the
   frontend cache -> cross-run fixpoint cache -> analysis -> journal
   harvest pipeline and replies with a result envelope over
   length-prefixed pipe frames.
4. **Store.**  Non-degraded results are written to the result store
   (atomic, checksummed, survives restarts); degraded results are
   served but never cached — a retry with a higher budget must not be
   answered with the coarse verdict.  Results produced after a crash
   retry are cached only because they are *complete successful runs*;
   a crashed or cancelled job never reaches the store.

Shutdown is a *drain*: ``stop()`` (or SIGTERM/SIGINT via the CLI, or
the ``shutdown`` op) stops accepting submissions, lets the in-flight
job finish within ``drain_deadline_s``, then escalates — queued jobs
fail with retryable cancellation envelopes, the worker is killed — and
always removes the socket file and returns (exit 0).  Every store
write is already on disk by then: results, journals and the
quarantine file are written when they change.

Every job runs under per-job supervisor budgets (defaults below,
overridable per request) so one pathological input degrades or dies
under the in-analysis supervisor instead of wedging the daemon;
``job_hard_timeout_s`` adds an outer parent-side ceiling after which
the worker itself is killed.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional

from ..config import AnalyzerConfig
from ..errors import ServeError
from ..frontend import source_digest
from ..ipc.frames import FdFrameReader, ProtocolError, encode_frame
from .fingerprints import request_key
from .jobs import (Job, JobQueue, QueueFull, decode_overrides,
                   effective_config)
from .store import ResultStore
from .supervise import PoisonRegistry, WorkerCrashed, WorkerSupervisor

__all__ = ["AnalysisServer", "ServeConfig"]


def error_response(message: str, **extra) -> Dict:
    """A structured refusal: ``{"ok": false, "error": ...}`` plus any
    machine-readable detail (``retryable``, ``retry_after_s``, ...)."""
    return dict({"ok": False, "error": message}, **extra)


@dataclasses.dataclass
class ServeConfig:
    """Daemon settings (CLI: ``astree-repro serve``)."""

    socket_path: str = "astree-serve.sock"
    cache_dir: Optional[str] = None  # None: in-memory caches only
    max_queue: int = 64
    # Per-job supervisor budget defaults; requests may override.
    job_deadline_s: Optional[float] = 300.0
    job_rss_limit_kib: Optional[int] = None
    # Parent-side hard ceiling per dispatch: the worker is killed (and
    # the job fails with a stable timeout signature) after this many
    # seconds.  None: rely on the in-analysis supervisor budgets only.
    job_hard_timeout_s: Optional[float] = None
    # Graceful-drain budget for the in-flight job on shutdown.
    drain_deadline_s: float = 10.0
    # Journal-warmed result validation (repro.certify): "off",
    # "sampled" (deterministic 1-in-8 by source digest), or "all".
    # A warm result that fails certification is never cached or
    # returned — it is discarded and the job re-runs cold.
    certify_serve: str = "sampled"


class AnalysisServer:
    """The long-lived daemon.  ``serve_forever`` blocks until a
    ``shutdown`` request (or ``stop()``, or a handled signal) arrives,
    then drains and cleans up before returning."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.queue = JobQueue(max_queue=config.max_queue)
        self.results = ResultStore(config.cache_dir)
        self.poison = PoisonRegistry(config.cache_dir)
        self.executor = WorkerSupervisor(
            cache_dir=config.cache_dir, certify_mode=config.certify_serve)
        self.started_at = time.monotonic()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        # Serving counters (the stats op).
        self.requests = 0
        self.result_hits = 0
        self.cold_runs = 0
        self.warm_runs = 0       # runs that spliced >= 1 donor record
        self.degraded_runs = 0
        self.cold_wall_s = 0.0
        self.warm_wall_s = 0.0
        self.journal_harvests = 0
        self.job_retries = 0
        self.poisoned_refusals = 0
        self.certified_runs = 0
        self.certify_rejections = 0
        self.incidents: List[str] = []

    def _incident(self, message: str) -> None:
        self.incidents.append(message)
        print(f"astree-repro serve: {message}", file=sys.stderr, flush=True)

    # -- job execution (dispatcher thread) -----------------------------------

    def _job_defaults(self) -> Dict:
        return {"deadline_s": self.config.job_deadline_s,
                "rss_kib": self.config.job_rss_limit_kib}

    def _serve_job(self, job: Job) -> None:
        """Drive one job to completion: quarantine check, exact-result
        lookup, worker dispatch with one crash retry.  Always settles
        the job (finish or fail); raising is reserved for bugs."""
        t0 = time.perf_counter()
        self.requests += 1
        cfg = effective_config(AnalyzerConfig(), job.config_overrides,
                               self.config.job_deadline_s,
                               self.config.job_rss_limit_kib)
        rkey = request_key(source_digest(job.sources), job.entry, cfg)

        if not job.bypass_cache:
            entry = self.poison.check(rkey)
            if entry is not None:
                self.poisoned_refusals += 1
                job.fail(
                    f"job is quarantined: it crashed the analysis worker "
                    f"{entry['crashes']} times [{entry['signature']}]; "
                    f"resubmit with bypass_cache to re-admit it",
                    poisoned=True, signature=entry["signature"],
                    request_key=rkey)
                return
            stored = self.results.get(rkey)
            if stored is not None:
                self.result_hits += 1
                job.finish({
                    "ok": True, "job_id": job.job_id, "cached": True,
                    "digest": stored["digest"], "result": stored["result"],
                    "wall_s": time.perf_counter() - t0,
                    "queue_depth": job.enqueued_depth,
                })
                return

        try:
            reply = self.executor.run_job(
                job, self._job_defaults(),
                hard_timeout_s=self.config.job_hard_timeout_s)
        except WorkerCrashed as first:
            self._crash_retry(job, rkey, first, t0)
            return
        except ServeError as e:
            job.fail(str(e), retryable=True)
            return
        self._finish_run(job, rkey, reply, t0)

    def _crash_retry(self, job: Job, rkey: str, first: WorkerCrashed,
                     t0: float) -> None:
        """The job took the worker down.  Count the crash; retry once
        on a fresh worker unless the signature already poisons the key
        or the daemon is draining (a drain kills the worker on purpose
        — that death must neither count against the job nor retry)."""
        if self._draining.is_set():
            job.fail("cancelled: daemon is draining", retryable=True,
                     cancelled=True)
            return
        count = self.poison.record_crash(rkey, first.signature)
        if count >= self.poison.poison_threshold:
            self._quarantine(job, rkey, first)
            return
        self.job_retries += 1
        self._incident(
            f"job {job.job_id} crashed the worker "
            f"[{first.signature}]; retrying once on a fresh worker")
        try:
            reply = self.executor.run_job(
                job, self._job_defaults(),
                hard_timeout_s=self.config.job_hard_timeout_s)
        except WorkerCrashed as second:
            if self._draining.is_set():
                job.fail("cancelled: daemon is draining", retryable=True,
                         cancelled=True)
                return
            count = self.poison.record_crash(rkey, second.signature)
            if count >= self.poison.poison_threshold:
                self._quarantine(job, rkey, second)
            else:
                # Two crashes under *different* signatures: flaky, not
                # provably poisonous.  Fail retryable with both.
                job.fail(
                    f"worker crashed twice under this job with differing "
                    f"signatures ({first.signature} then "
                    f"{second.signature})", retryable=True,
                    signatures=[first.signature, second.signature])
            return
        except ServeError as e:
            job.fail(str(e), retryable=True)
            return
        self._finish_run(job, rkey, reply, t0)

    def _quarantine(self, job: Job, rkey: str,
                    crash: WorkerCrashed) -> None:
        entry = self.poison.mark_poisoned(rkey, crash.signature)
        self._incident(
            f"job {job.job_id} quarantined: request key {rkey[:16]}... "
            f"crashed the worker {entry['crashes']} times "
            f"[{crash.signature}]")
        job.fail(
            f"job quarantined: it crashed the analysis worker "
            f"{entry['crashes']} times [{crash.signature}] "
            f"({crash.exit_status}); resubmit with bypass_cache to "
            f"re-admit it",
            poisoned=True, signature=crash.signature, request_key=rkey)

    def _finish_run(self, job: Job, rkey: str, reply: Dict,
                    t0: float) -> None:
        """Account a worker envelope and settle the job."""
        if not reply.get("ok"):
            job.finish(dict(reply, job_id=job.job_id))
            return
        payload = reply.get("result") or {}
        wall = time.perf_counter() - t0
        degraded = bool(reply.get("degraded"))
        if degraded:
            self.degraded_runs += 1
        elif payload.get("cross_run_hits", 0) > 0:
            self.warm_runs += 1
            self.warm_wall_s += wall
        else:
            self.cold_runs += 1
            self.cold_wall_s += wall
        if reply.get("harvested"):
            self.journal_harvests += 1
        if reply.get("certified"):
            self.certified_runs += 1
        if reply.get("certify_rejected"):
            self.certify_rejections += 1
            self._incident(
                f"job {job.job_id}: journal-warmed result failed "
                f"certification; served the certified cold re-run")
        # A complete successful run clears the key's crash history (and
        # for bypass runs, its quarantine entry: operator re-admission).
        self.poison.clear(rkey)
        if not degraded and not job.bypass_cache:
            self.results.put(rkey, {"digest": reply["digest"],
                                    "result": payload})
        job.finish({
            "ok": True, "job_id": job.job_id, "cached": False,
            "digest": reply["digest"], "result": payload, "wall_s": wall,
            "queue_depth": job.enqueued_depth,
        })

    def _dispatcher(self) -> None:
        while True:
            job = self.queue.next_job()
            if job is None:
                return
            try:
                self._serve_job(job)
            except Exception as e:  # defensive: never kill the loop
                job.fail(f"{type(e).__name__}: {e}")
            finally:
                self.queue.job_done(job)

    # -- request handling (connection threads) -------------------------------

    def _handle(self, msg: Dict) -> Dict:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid(),
                    "uptime_s": time.monotonic() - self.started_at}
        if op == "submit":
            return self._op_submit(msg)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "health":
            return {"ok": True, "health": self.health()}
        if op == "shutdown":
            self._stop.set()
            return {"ok": True, "stopping": True}
        return error_response(f"unknown op: {op!r}")

    def _retry_after_hint(self) -> float:
        """Rough seconds-until-capacity for load-shed responses: queue
        depth times the observed average run time."""
        runs = self.cold_runs + self.warm_runs
        avg = ((self.cold_wall_s + self.warm_wall_s) / runs
               if runs else 1.0)
        return round(min(60.0, max(0.5, avg * (self.queue.depth() + 1))), 2)

    def _op_submit(self, msg: Dict) -> Dict:
        if self._draining.is_set() or self._stop.is_set():
            return error_response("daemon is draining", retryable=True,
                                  retry_after_s=self._retry_after_hint())
        raw = msg.get("sources")
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(p, (list, tuple)) and len(p) == 2
                           for p in raw)):
            return error_response(
                "submit needs sources: [[filename, text], ...]")
        sources = [(str(n), str(t)) for n, t in raw]
        entry = str(msg.get("entry", "main"))
        overrides = msg.get("config") or {}
        if not isinstance(overrides, dict):
            return error_response("config must be an object")
        try:
            decode_overrides(overrides)  # validate before queueing
        except (ValueError, TypeError) as e:
            return error_response(str(e))
        job = Job(self.queue.new_job_id(), sources, entry, overrides,
                  bypass_cache=bool(msg.get("bypass_cache", False)))
        try:
            self.queue.submit(job)
        except QueueFull as e:
            return error_response(str(e), retryable=True,
                                  retry_after_s=self._retry_after_hint())
        job.done.wait()
        return job.envelope

    def stats(self) -> Dict:
        worker = self.executor.worker_stats
        warm_avg = self.warm_wall_s / self.warm_runs if self.warm_runs else 0.0
        cold_avg = self.cold_wall_s / self.cold_runs if self.cold_runs else 0.0
        return {
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self.started_at,
            "requests": self.requests,
            "result_cache": dict(self.results.stats(),
                                 hits=self.result_hits),
            "journal_store": dict(worker.get("journal_store", {}),
                                  harvests=self.journal_harvests),
            "frontend_cache": worker.get("frontend_cache", {}),
            "closure_memo": worker.get("closure_memo",
                                       {"hits": 0, "entries": 0,
                                        "evictions": 0}),
            "worker": self.executor.health(),
            "quarantine": dict(self.poison.stats(),
                               refusals=self.poisoned_refusals),
            "certify": {
                "mode": self.config.certify_serve,
                "certified": self.certified_runs,
                "rejections": self.certify_rejections,
            },
            "runs": {
                "cold": self.cold_runs, "warm": self.warm_runs,
                "degraded": self.degraded_runs,
                "retries": self.job_retries,
                "cold_avg_wall_s": cold_avg,
                "warm_avg_wall_s": warm_avg,
            },
            "queue": self.queue.stats(),
        }

    def health(self) -> Dict:
        """The ``health`` op: cheap liveness/capacity snapshot (never
        blocks behind a running job)."""
        return {
            "pid": os.getpid(),
            "uptime_s": time.monotonic() - self.started_at,
            "draining": self._draining.is_set(),
            "queue_depth": self.queue.depth(),
            "worker": self.executor.health(),
            "quarantine_size": self.poison.size(),
            "incidents": len(self.incidents),
        }

    # -- socket plumbing -----------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reader = FdFrameReader(conn.fileno())
            while not self._stop.is_set():
                try:
                    msg = reader.recv_frame()
                except ProtocolError as e:
                    conn.sendall(encode_frame(error_response(str(e))))
                    return
                if msg is None:
                    return
                conn.sendall(encode_frame(self._handle(msg)))
        except OSError:
            pass  # client went away; nothing to do
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _bind_listener(self) -> socket.socket:
        """Bind the Unix socket, recovering from a stale socket file
        left by a crashed daemon: probe-connect first — refuse only if
        something actually answers."""
        path = self.config.socket_path
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(1.0)
            try:
                probe.connect(path)
            except (ConnectionRefusedError, FileNotFoundError,
                    socket.timeout):
                self._incident(f"removed stale socket {path} "
                               f"(nothing listening)")
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
            except OSError as e:
                raise ServeError(f"socket path {path} is unusable: {e}")
            else:
                raise ServeError(f"a daemon is already listening on {path}")
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
        except OSError as e:
            listener.close()
            raise ServeError(f"cannot bind {path}: {e}")
        listener.listen(16)
        listener.settimeout(0.2)
        return listener

    def serve_forever(self) -> None:
        listener = self._bind_listener()
        self._listener = listener
        self.executor.ensure_started()
        dispatcher = threading.Thread(target=self._dispatcher,
                                      name="job-dispatcher", daemon=True)
        dispatcher.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    if len(self._threads) > 64:
                        self._threads = [t for t in self._threads
                                         if t.is_alive()]
                    continue
                except OSError:
                    break
                t = threading.Thread(target=self._serve_connection,
                                     args=(conn,), daemon=True)
                t.start()
                self._threads.append(t)
        finally:
            self._shutdown_sequence(dispatcher, listener)

    def _shutdown_sequence(self, dispatcher: threading.Thread,
                           listener: socket.socket) -> None:
        """Drain, escalate, clean up.  Runs to completion even
        when escalation is needed — the daemon always exits cleanly."""
        self._draining.set()
        self.queue.close()  # no new submits; wakes an idle dispatcher
        deadline = time.monotonic() + max(0.0, self.config.drain_deadline_s)
        while self.queue.busy() and time.monotonic() < deadline:
            time.sleep(0.05)
        if self.queue.busy():
            n = self.queue.cancel_pending(
                "cancelled: daemon drain deadline exceeded")
            self._incident(
                f"drain deadline ({self.config.drain_deadline_s:.1f}s) "
                f"exceeded: cancelled {n} queued job(s), aborting the "
                f"in-flight job")
            self.executor.abort_current()
        dispatcher.join(timeout=10.0)
        if dispatcher.is_alive():
            # Never silently leak a live dispatcher: escalate once more,
            # then record the incident if it still will not die.
            self._incident("dispatcher did not exit at drain deadline; "
                           "killing the worker")
            self.executor.abort_current()
            self.queue.cancel_pending("cancelled: daemon is shutting down")
            dispatcher.join(timeout=5.0)
            if dispatcher.is_alive():
                self._incident("dispatcher thread leaked past shutdown "
                               "escalation (daemonic; abandoning it)")
        # Let connection threads flush final responses for settled jobs.
        flush_deadline = time.monotonic() + 2.0
        for t in self._threads:
            t.join(timeout=max(0.0, flush_deadline - time.monotonic()))
        self.executor.shutdown()
        listener.close()
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass

    def stop(self) -> None:
        self._stop.set()
