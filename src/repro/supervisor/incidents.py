"""Structured incident records.

Every deviation from the happy path — a tripped budget, a degradation
step, a checkpoint resume — is recorded as an
:class:`Incident` instead of being silently swallowed or raised at the
user.  The log rides on the :class:`~repro.analysis.AnalysisResult` so a
caller can audit exactly what the run survived and what it cost in
precision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["Incident", "IncidentLog"]


@dataclass(frozen=True)
class Incident:
    """One recorded deviation from the happy path.

    ``kind`` names what happened, ``action`` what the supervisor did
    about it (``degrade:<rung>``, ``exhausted-ladder``, ``restored``,
    ...), ``detail`` is a
    human-readable elaboration, and ``at_s`` is the offset from analysis
    start (informational only — never compared for determinism).
    """

    kind: str
    action: str
    detail: str
    at_s: float

    def __str__(self) -> str:
        base = f"[{self.kind}] {self.action}"
        return f"{base}: {self.detail}" if self.detail else base


class IncidentLog:
    """Append-only, size-capped incident sink of one analysis run."""

    MAX_INCIDENTS = 200

    def __init__(self) -> None:
        self._incidents: List[Incident] = []
        self.dropped: int = 0
        self._t0 = time.perf_counter()

    def record(self, kind: str, action: str = "", detail: str = "") -> None:
        if len(self._incidents) >= self.MAX_INCIDENTS:
            self.dropped += 1
            return
        self._incidents.append(
            Incident(kind, action, detail, time.perf_counter() - self._t0))

    @property
    def incidents(self) -> List[Incident]:
        return list(self._incidents)

    def restore(self, incidents: Sequence[Incident], dropped: int = 0) -> None:
        """Replace the log's contents (checkpoint resume)."""
        self._incidents = list(incidents)
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self._incidents)

    def __iter__(self):
        return iter(self._incidents)
