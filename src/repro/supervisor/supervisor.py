"""The analysis supervisor.

One :class:`Supervisor` instance wraps one analysis run.  It owns

* the run's *mutable copy* of the configuration (degradation rungs
  mutate it in place; the caller's config is never touched),
* the resource budgets,
* the degradation ladder, and
* the incident log.

The iterator polls it at two kinds of boundaries:

* ``poll_stmt`` at every statement — checks the deadline (and, every
  32nd statement, peak RSS) and samples the per-statement soft timeout;
* ``on_fixpoint_iteration`` at every widening-iteration boundary —
  checks the deadline and peak RSS.

Budget handling is strictly cooperative: budgets are only checked, and
the config only mutated, inside the poll calls, so the iterator never
observes a configuration change within a single statement's transfer
function.  Budgets need no background thread, since a trip can only be
acted on at a poll.  Peak RSS is monotone, so a sampled check loses no
trip; it lands at most 31 statements later.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from ..config import AnalyzerConfig
from .budget import ResourceBudget, peak_rss_self_kib
from .degradation import DegradationLadder
from .incidents import IncidentLog

__all__ = ["Supervisor"]

# Cap on recorded stmt-timeout incidents: a tiny limit on a large
# program would otherwise flood the log with one incident per statement.
MAX_STMT_TIMEOUT_INCIDENTS = 20


class Supervisor:
    """Per-run fault-tolerance coordinator (see module docstring)."""

    def __init__(self, config: AnalyzerConfig,
                 incidents: Optional[IncidentLog] = None) -> None:
        self.config = config
        self.incidents = incidents if incidents is not None else IncidentLog()
        self.budget = ResourceBudget(
            wall_deadline_s=config.wall_deadline_s,
            rss_limit_kib=config.rss_limit_kib,
            stmt_timeout_s=config.stmt_timeout_s,
        )
        self.ladder = DegradationLadder(config)
        self.degraded = False
        # Set by analyze_program once the context is built: needed to
        # flush configuration-derived caches when a degradation rung
        # mutates the config mid-run.
        self.ctx = None
        self._t0 = time.perf_counter()
        self._exhausted_reported = False
        self._stmt_timeout_incidents = 0
        self._last_stmt: Optional[Tuple[float, int]] = None
        self._polls = 0

    # -- budget trips ----------------------------------------------------------

    def _check_budgets(self, sample_rss: bool) -> None:
        """Check the budgets at a poll and degrade on a trip.  The
        deadline compare is free and runs on every poll; the RSS syscall
        is sampled."""
        reason = self.budget.check(self._t0, sample_rss)
        if reason is not None:
            self._degrade(reason, self._budget_detail(reason))

    def _budget_detail(self, reason: str) -> str:
        if reason == "deadline":
            return (f"wall clock {time.perf_counter() - self._t0:.2f}s "
                    f"exceeded deadline {self.config.wall_deadline_s}s")
        if reason == "rss":
            return (f"peak RSS {peak_rss_self_kib()} KiB exceeded ceiling "
                    f"{self.config.rss_limit_kib} KiB")
        return ""

    def _degrade(self, reason: str, detail: str) -> None:
        step = self.ladder.step()
        if step is None:
            if not self._exhausted_reported:
                self._exhausted_reported = True
                self.incidents.record(
                    reason, action="exhausted-ladder",
                    detail="all degradation rungs already applied; "
                           "finishing under the coarsest sound config")
            return
        name, rung_detail = step
        self.degraded = True
        if self.ctx is not None:
            # The rung mutated the config in place: every cache whose
            # keys or results depend on it (the incremental executors'
            # footprints and records) is now stale.
            self.ctx.invalidate_derived_caches()
        self.incidents.record(reason, action=f"degrade:{name}",
                              detail=f"{detail}; {rung_detail}")

    # -- iterator hooks --------------------------------------------------------

    def poll_stmt(self, it, s) -> None:
        """Called by the iterator at every statement entry."""
        self._polls += 1
        self._check_budgets(sample_rss=self._polls % 32 == 0)
        lim = self.budget.stmt_timeout_s
        if lim is None:
            return
        now = time.perf_counter()
        prev = self._last_stmt
        self._last_stmt = (now, s.sid)
        if prev is None:
            return
        prev_t, prev_sid = prev
        if now - prev_t > lim:
            if self._stmt_timeout_incidents < MAX_STMT_TIMEOUT_INCIDENTS:
                self._stmt_timeout_incidents += 1
                self._degrade(
                    "stmt-timeout",
                    f"statement {prev_sid} spent {now - prev_t:.3f}s "
                    f"(soft limit {lim}s)")

    def on_fixpoint_iteration(self) -> None:
        """Called at the top of every widening iteration (any depth)."""
        self._check_budgets(sample_rss=True)
