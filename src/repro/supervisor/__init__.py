"""Fault-tolerant analysis supervision.

The paper's promise is that the analyzer *always terminates with a sound
verdict* on hour-scale runs.  This package supplies the machinery:

* :mod:`.budget` — per-run resource budgets (wall-clock deadline,
  peak-RSS ceiling, per-statement soft timeout), checked at the
  iterator's polls;
* :mod:`.degradation` — the soundness-preserving degradation ladder that
  trades precision for termination when a budget trips;
* :mod:`.incidents` — the structured incident log attached to every
  :class:`~repro.analysis.AnalysisResult`;
* :mod:`.checkpoint` — iteration-boundary checkpoints and bit-identical
  resume;
* :mod:`.supervisor` — the :class:`Supervisor` façade the iterator
  reports into.
"""

from .budget import peak_rss_self_kib
from .checkpoint import Checkpoint, load_checkpoint, write_checkpoint
from .degradation import DEGRADATION_RUNGS, DegradationLadder
from .incidents import Incident, IncidentLog
from .supervisor import Supervisor

__all__ = [
    "Checkpoint",
    "DEGRADATION_RUNGS",
    "DegradationLadder",
    "Incident",
    "IncidentLog",
    "Supervisor",
    "load_checkpoint",
    "peak_rss_self_kib",
    "write_checkpoint",
]
