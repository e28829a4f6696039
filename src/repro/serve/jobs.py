"""The daemon's in-process job queue and the job/config wire helpers.

One FIFO queue, one dispatcher: analysis runs are CPU-bound and share
per-worker warm state (intern pool, closure memo, frontend cache,
journal store), so running them sequentially through a single
supervised worker is both the fast and the correct arrangement — warm
state stays coherent, and a submit never makes an earlier job slower.
Every submit waits for its job, so the queue keeps no registry of
finished jobs.  Backpressure is a bounded queue: submits beyond
``max_queue`` pending jobs are refused with a retryable error response
(plus a ``retry_after_s`` hint) rather than buffered without limit.

Each job carries its own effective configuration, including the per-job
supervisor budgets the server imposes (wall deadline, RSS cap) so a
pathological request degrades or dies under the supervisor instead of
wedging the daemon.  The config decoding lives here because both sides
of the worker pipe need it: the parent computes the request key for the
exact-result cache and the poison quarantine, the worker builds the
same :class:`~repro.config.AnalyzerConfig` to run the analysis.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Dict, List, Optional, Tuple

__all__ = ["CLIENT_FIELDS", "Job", "JobQueue", "QueueFull",
           "decode_overrides", "effective_config"]


# Configuration fields a request may override.  Everything else is the
# daemon operator's call; rejecting unknown keys early gives clients a
# real error instead of a silently ignored knob.  ``trace`` is not
# settable: the reply carries no visit counts, so over serve it would
# only select the slow reference engine.
CLIENT_FIELDS = frozenset({
    "input_ranges", "max_clock", "default_unroll", "partition_functions",
    "enable_octagons", "enable_ellipsoids", "enable_decision_trees",
    "enable_clock", "collect_invariants",
    "wall_deadline_s", "rss_limit_kib", "stmt_timeout_s",
})


def decode_overrides(raw: Dict) -> Dict:
    """JSON-decoded config overrides -> AnalyzerConfig field values
    (tuples and sets do not survive JSON; rebuild them)."""
    out: Dict = {}
    for key, value in raw.items():
        if key not in CLIENT_FIELDS:
            raise ValueError(f"config field not settable over serve: {key}")
        if key == "input_ranges":
            value = {name: (float(lo), float(hi))
                     for name, (lo, hi) in dict(value).items()}
        elif key == "partition_functions":
            value = set(value)
        out[key] = value
    return out


def effective_config(base_config, raw_overrides: Dict,
                     default_deadline_s: Optional[float] = None,
                     default_rss_kib: Optional[int] = None):
    """The AnalyzerConfig one job runs under: the base config (the stock
    defaults, in the daemon and its worker alike), then the request's
    overrides, with the daemon's per-job budget defaults
    filling any budget the request left unset.  Identical on both sides
    of the worker pipe, so the parent's request key and the worker's
    analysis agree on the configuration fingerprint."""
    overrides = decode_overrides(raw_overrides)
    if "wall_deadline_s" not in overrides and default_deadline_s:
        overrides["wall_deadline_s"] = default_deadline_s
    if "rss_limit_kib" not in overrides and default_rss_kib:
        overrides["rss_limit_kib"] = default_rss_kib
    return base_config.with_overrides(**overrides)


class QueueFull(Exception):
    """Raised by submit when the pending queue is at capacity (or the
    daemon is draining)."""


class Job:
    """One analysis request.  ``envelope`` is the protocol result
    envelope once ``done`` is set — for failures too: a failed job's
    envelope is the structured error response (``ok: false`` plus
    ``error``/``poisoned``/``retryable`` fields), so clients get
    machine-readable failure detail, not just a message string."""

    __slots__ = ("job_id", "sources", "entry", "config_overrides",
                 "bypass_cache", "envelope", "done", "enqueued_depth")

    def __init__(self, job_id: str, sources: List[Tuple[str, str]],
                 entry: str, config_overrides: Dict,
                 bypass_cache: bool = False):
        self.job_id = job_id
        self.sources = sources
        self.entry = entry
        self.config_overrides = config_overrides
        self.bypass_cache = bypass_cache
        self.envelope: Optional[Dict] = None
        self.done = threading.Event()
        # Queue depth observed at submit time (surfaced per request).
        self.enqueued_depth = 0

    def to_wire(self) -> Dict:
        """The ``run`` frame sent to the worker subprocess."""
        return {
            "op": "run", "job_id": self.job_id,
            "sources": [list(p) for p in self.sources],
            "entry": self.entry, "config_overrides": self.config_overrides,
            "bypass_cache": self.bypass_cache,
        }

    def finish(self, envelope: Dict) -> None:
        """Settle the job with its envelope (``ok`` true or false)."""
        self.envelope = envelope
        self.done.set()

    def fail(self, message: str, **extra) -> None:
        self.finish(dict({"ok": False, "error": message,
                          "job_id": self.job_id}, **extra))


class JobQueue:
    """Bounded FIFO of Jobs, drained by one dispatcher."""

    def __init__(self, max_queue: int = 64):
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._pending: "deque[Job]" = deque()
        self._ids = itertools.count(1)
        self._closed = False
        self.running: Optional[Job] = None
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.cancelled = 0

    def new_job_id(self) -> str:
        return f"job-{next(self._ids)}"

    def submit(self, job: Job) -> None:
        with self._lock:
            if self._closed:
                self.rejected += 1
                raise QueueFull("daemon is shutting down")
            if len(self._pending) >= self.max_queue:
                self.rejected += 1
                raise QueueFull(
                    f"queue full ({self.max_queue} jobs pending)")
            job.enqueued_depth = len(self._pending)
            self._pending.append(job)
            self.submitted += 1
            self._available.notify()

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Blocks until a job is available or the queue is closed."""
        with self._lock:
            while not self._pending and not self._closed:
                if not self._available.wait(timeout):
                    return None
            if not self._pending:
                return None
            job = self._pending.popleft()
            self.running = job
            return job

    def job_done(self, job: Job) -> None:
        with self._lock:
            if self.running is job:
                self.running = None
            if job.envelope.get("ok"):
                self.completed += 1
            else:
                self.failed += 1

    def cancel_pending(self, reason: str) -> int:
        """Fail every still-queued job with a retryable cancellation
        envelope (drain-deadline escalation).  Returns the count."""
        with self._lock:
            cancelled = list(self._pending)
            self._pending.clear()
        for job in cancelled:
            job.fail(reason, retryable=True, cancelled=True)
            with self._lock:
                self.failed += 1
                self.cancelled += 1
        return len(cancelled)

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def busy(self) -> bool:
        """True while a job is pending or in flight."""
        with self._lock:
            return bool(self._pending) or self.running is not None

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._available.notify_all()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "depth": len(self._pending),
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "cancelled": self.cancelled,
            }
