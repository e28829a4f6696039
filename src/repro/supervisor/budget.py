"""Resource budgets and the watchdog thread.

A budget never kills the analysis: when a limit trips, the watchdog
raises a flag that the iterator polls at statement and fixpoint-iteration
boundaries, and the supervisor answers by stepping down the degradation
ladder (see :mod:`.degradation`).  The run therefore always terminates
with a sound — possibly coarser — verdict.

The RSS ceiling is checked against the *peak* resident set size of the
analyzer process (``VmHWM`` from ``/proc/self/status`` where available,
else ``ru_maxrss``).  Peak RSS is monotone, so once the ceiling trips it
stays tripped: the ladder runs to the end and the analysis finishes
under the cheapest sound configuration.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["ResourceBudget", "BudgetWatchdog", "peak_rss_self_kib"]


def peak_rss_self_kib() -> int:
    """Peak RSS of this process only, in KiB.

    Children are not counted: the analyzer runs no workers, so
    ``RUSAGE_CHILDREN`` would only see unrelated processes the caller
    has reaped.  ``VmHWM`` from ``/proc/self/status`` where it exists:
    on Linux the ``ru_maxrss`` of an exec'd process also covers the
    spawning process's high-water mark, carried across vfork and
    exec."""
    try:
        with open("/proc/self/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        rss //= 1024
    return int(rss)


@dataclass
class ResourceBudget:
    """The per-run limits; ``None`` disables the corresponding check."""

    wall_deadline_s: Optional[float] = None
    rss_limit_kib: Optional[int] = None
    stmt_timeout_s: Optional[float] = None

    @property
    def needs_watchdog(self) -> bool:
        return (self.wall_deadline_s is not None
                or self.rss_limit_kib is not None)

    @property
    def active(self) -> bool:
        return self.needs_watchdog or self.stmt_timeout_s is not None

    def check(self, started_at: float) -> Optional[str]:
        """Return the name of the first exceeded budget, or ``None``."""
        if (self.wall_deadline_s is not None
                and time.perf_counter() - started_at > self.wall_deadline_s):
            return "deadline"
        if (self.rss_limit_kib is not None
                and peak_rss_self_kib() > self.rss_limit_kib):
            return "rss"
        return None


class BudgetWatchdog:
    """Daemon thread sampling the budgets on a fixed interval.

    The watchdog only *observes*; it communicates through the supplied
    ``on_trip(reason)`` callback, which must be cheap and thread-safe
    (the supervisor's implementation just sets a flag the iterator polls
    from the analysis thread).
    """

    def __init__(self, budget: ResourceBudget, started_at: float,
                 on_trip: Callable[[str], None],
                 interval_s: float = 0.05) -> None:
        self.budget = budget
        self.started_at = started_at
        self.on_trip = on_trip
        self.interval_s = max(0.001, interval_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._thread is not None or not self.budget.needs_watchdog:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-budget-watchdog", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            reason = self.budget.check(self.started_at)
            if reason is not None:
                self.on_trip(reason)
