"""The analysis supervisor.

One :class:`Supervisor` instance wraps one analysis run.  It owns

* the run's *mutable copy* of the configuration (degradation rungs
  mutate it in place; the caller's config is never touched),
* the resource budgets,
* the degradation ladder,
* the incident log, and
* the checkpoint/resume machinery.

The iterator polls it at two kinds of boundaries:

* ``poll_stmt`` at every statement — checks the deadline (and, every
  32nd statement, peak RSS) and samples the per-statement soft timeout;
* ``on_fixpoint_iteration`` at every widening-iteration boundary —
  checks the deadline and peak RSS and, for *outermost* fixpoints,
  writes checkpoints.

Budget handling is strictly cooperative: budgets are only checked, and
the config only mutated, inside the poll calls, so the iterator never
observes a configuration change within a single statement's transfer
function.  Budgets need no background thread, since a trip can only be
acted on at a poll.  Peak RSS is monotone, so a sampled check loses no
trip; it lands at most 31 statements later.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

from ..config import AnalyzerConfig
from ..errors import CheckpointError, SupervisorHalt
from .budget import ResourceBudget, peak_rss_self_kib
from .checkpoint import (Checkpoint, context_fingerprint, load_checkpoint,
                         write_checkpoint)
from .degradation import DegradationLadder
from .incidents import IncidentLog

__all__ = ["Supervisor"]

# Fault-injection knob (tests/CI): simulate a kill by raising
# SupervisorHalt after N checkpoints have been written.
HALT_ENV = "REPRO_FAULT_HALT_AFTER_CHECKPOINTS"

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
        self.resumed = False
        # Set by attach_context: needed to flush configuration-derived
        # caches when a degradation rung mutates the config mid-run.
        self.ctx = None
        self._t0 = time.perf_counter()
        self._exhausted_reported = False
        self._stmt_timeout_incidents = 0
        self._last_stmt: Optional[Tuple[float, int]] = None
        self._polls = 0
        # Checkpointing.
        self._fingerprint: Optional[str] = None
        self._checkpoints_written = 0
        halt = None
        if os.environ.get(HALT_ENV):
            try:
                halt = int(os.environ[HALT_ENV])
            except ValueError:
                pass
        self._halt_after = halt
        # Resume.
        self._resume_cp: Optional[Checkpoint] = None
        self._resume_pending = False

    # -- lifecycle -------------------------------------------------------------

    def attach_context(self, ctx) -> None:
        """Bind the built AnalysisContext: when checkpointing or
        resuming, compute the fingerprint and, when resuming, load +
        validate the checkpoint and re-apply its recorded degradation
        rungs."""
        self.ctx = ctx
        path = self.config.resume_path
        if not (path or self.config.checkpoint_path):
            return
        self._fingerprint = context_fingerprint(ctx)
        if not path:
            return
        from ..iterator.state import set_active_context

        set_active_context(ctx)
        cp = load_checkpoint(path, self._fingerprint)
        self._resume_cp = cp
        self._resume_pending = True
        self.resumed = True
        self.incidents.restore(cp.incidents, cp.incidents_dropped)
        self.degraded = cp.degraded
        if cp.degradation_applied:
            self.ladder.apply_named(cp.degradation_applied)
        self.incidents.record(
            "resume", action="restored",
            detail=(f"checkpoint {path}: fixpoint ordinal {cp.ordinal}, "
                    f"loop {cp.loop_id}, iteration {cp.next_iteration}"))

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

    def on_fixpoint_iteration(self, it, loop_id: int, ordinal: int, k: int,
                              inv, prev_unstable, fairness_left: int) -> None:
        """Called at the top of every widening iteration (any depth)."""
        self._check_budgets(sample_rss=True)
        if it._fixpoint_depth != 1 or not self.config.checkpoint_path:
            return
        self._write_checkpoint(it, loop_id, ordinal, k, inv, prev_unstable,
                               fairness_left)

    def _write_checkpoint(self, it, loop_id, ordinal, k, inv, prev_unstable,
                          fairness_left) -> None:
        assert self._fingerprint is not None
        cp = Checkpoint(
            fingerprint=self._fingerprint,
            ordinal=ordinal,
            loop_id=loop_id,
            next_iteration=k,
            inv=inv,
            prev_unstable=(None if prev_unstable is None
                           else set(prev_unstable)),
            fairness_left=fairness_left,
            widening_iterations=it.widening_iterations,
            visit_counts=dict(it.visit_counts),
            loop_invariants=dict(it.loop_invariants),
            useful_oct_packs=set(it.ctx.useful_oct_packs),
            useful_bool_packs=set(it.ctx.useful_bool_packs),
            degradation_applied=list(self.ladder.applied),
            incidents=self.incidents.incidents,
            incidents_dropped=self.incidents.dropped,
            degraded=self.degraded,
        )
        write_checkpoint(self.config.checkpoint_path, cp)
        self._checkpoints_written += 1
        if (self._halt_after is not None
                and self._checkpoints_written >= self._halt_after):
            raise SupervisorHalt(
                f"simulated kill after {self._checkpoints_written} "
                f"checkpoint(s); resume with "
                f"--resume {self.config.checkpoint_path}")

    def resume_into(self, it, loop_id: int, ordinal: int):
        """Offer a restore to an outermost fixpoint that is about to
        start iterating.  Returns ``(inv, prev_unstable, fairness_left,
        start_iteration)`` when this is the checkpointed fixpoint, else
        ``None``."""
        if not self._resume_pending:
            return None
        cp = self._resume_cp
        if ordinal != cp.ordinal:
            return None
        if loop_id != cp.loop_id:
            raise CheckpointError(
                f"checkpoint targets loop {cp.loop_id} at fixpoint ordinal "
                f"{cp.ordinal}, but the replayed run reached loop {loop_id} "
                f"— program or configuration drift")
        self._resume_pending = False
        # Swap in every piece of global state the skipped iterations
        # produced; the replayed prefix regenerated identical values for
        # everything before this point.
        it.widening_iterations = cp.widening_iterations
        it.visit_counts = dict(cp.visit_counts)
        it.loop_invariants = dict(cp.loop_invariants)
        it.ctx.useful_oct_packs.clear()
        it.ctx.useful_oct_packs.update(cp.useful_oct_packs)
        it.ctx.useful_bool_packs.clear()
        it.ctx.useful_bool_packs.update(cp.useful_bool_packs)
        return (cp.inv, cp.prev_unstable, cp.fairness_left,
                cp.next_iteration)
