"""Iteration-boundary checkpoints and bit-identical resume.

The analysis spends essentially all of its time inside the widening/
narrowing fixpoints of outermost loops (the reactive main loop of the
program family).  A checkpoint is therefore taken *at the boundary of an
outermost fixpoint iteration*: it captures the loop invariant candidate,
the widening bookkeeping (iteration index, previously-unstable cells,
fairness budget), and every piece of iterator-global mutable state that
the skipped iterations would have produced (widening counters, visit
counts, collected loop invariants, pack-usefulness records, degradation
rungs, incidents).

Resume re-executes the program prefix from scratch — the analyzer is
deterministic, and everything before the dominant fixpoint is cheap —
then, when the fixpoint whose *invocation ordinal* matches the
checkpoint is entered, swaps in the captured snapshot and continues from
the recorded iteration.  Because the snapshot is the exact lattice
element and bookkeeping of the interrupted run, the resumed run is
bit-identical to an uninterrupted one.

Alarms need no capturing: checkpoints are only written inside fixpoints,
where checking mode is off (iteration mode emits no warnings —
Sect. 5.3), and the replayed prefix regenerates the pre-loop alarms
deduplicated by (statement id, kind) exactly as the original run did.
Certificate records (``repro.certify``) need no capturing for the same
reason: they are only appended during the checking pass, which runs
entirely after the last possible checkpoint boundary, so a resumed run
regenerates the full invariant map and certifies like an uninterrupted
one.

The on-disk format is a pickled dict (version-tagged, fingerprinted
against the program/config, written atomically via rename).  States
unpickle through the process-wide active-context registry, so
``load_checkpoint`` must run after ``set_active_context(ctx)``.
Visit counts are keyed by statement id, which every compilation of the
program assigns alike (see ``repro.frontend.ir.Stmt``).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..errors import CheckpointError
from ..fileio import atomic_write
from .incidents import Incident

__all__ = ["Checkpoint", "context_fingerprint", "load_checkpoint",
           "write_checkpoint"]

CHECKPOINT_VERSION = 3


def context_fingerprint(ctx) -> str:
    """Hash of what the checkpointed state is keyed against: the
    layout that gives its cell, pack and site ids their meaning plus the
    analysis-relevant configuration
    (:func:`repro.iterator.state.compat_fingerprint`; the configuration
    part carries ``SEMANTICS_VERSION``), the program as
    ``format_program`` prints it (no statement ids), and the global
    initializers, which that printout omits for arrays and structs.
    The printout also omits local declarations, so the layout is what
    notices an edit to one: a local array resized shifts the cell id of
    every variable after it.  A resume against a different program, a
    differently-parameterized run, or a build with other semantics is
    rejected up front instead of producing silently wrong states; a
    recompilation of the same source resumes, in any process.

    (The intern pools are process-local and a checkpoint never refers to
    them: a checkpoint is one pickle stream, so its states come back
    sharing the subtrees they shared when written, and values computed
    after the resume are interned afresh.)"""
    from ..frontend.pretty import format_program
    from ..iterator.state import compat_fingerprint

    h = hashlib.sha256()
    h.update(compat_fingerprint(ctx).encode())
    h.update(format_program(ctx.prog).encode())
    h.update(repr(sorted(ctx.prog.initializers.items())).encode())
    return h.hexdigest()


@dataclass
class Checkpoint:
    """A resumable snapshot of an in-flight analysis."""

    fingerprint: str
    # Which outermost fixpoint (by deterministic invocation ordinal) and
    # which of its iterations the snapshot was taken at.
    ordinal: int
    loop_id: int
    next_iteration: int
    # Fixpoint-local bookkeeping.
    inv: object  # AbstractState
    prev_unstable: Optional[Set[int]]
    fairness_left: int
    # Iterator-global mutable state the skipped iterations produced.
    widening_iterations: int
    # Statement id -> visits.
    visit_counts: Dict[int, int] = field(default_factory=dict)
    loop_invariants: Dict[int, object] = field(default_factory=dict)
    useful_oct_packs: Set[int] = field(default_factory=set)
    useful_bool_packs: Set[int] = field(default_factory=set)
    # Robustness context: rungs live at snapshot time, incidents so far.
    degradation_applied: List[str] = field(default_factory=list)
    incidents: List[Incident] = field(default_factory=list)
    incidents_dropped: int = 0
    degraded: bool = False


def write_checkpoint(path: str, cp: Checkpoint) -> None:
    """Atomically persist a checkpoint (see :mod:`repro.fileio`), so a
    kill mid-write leaves the previous checkpoint intact."""
    payload = {"version": CHECKPOINT_VERSION, "checkpoint": cp}
    atomic_write(path, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: str, expected_fingerprint: str) -> Checkpoint:
    """Load and validate a checkpoint.

    Requires the target run's ``AnalysisContext`` to be installed via
    ``set_active_context`` first (abstract states re-attach to it during
    unpickling)."""
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}")
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}")
    if not isinstance(payload, dict) or "checkpoint" not in payload:
        raise CheckpointError(f"corrupt checkpoint {path}: bad payload")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {payload.get('version')!r}, "
            f"this analyzer writes version {CHECKPOINT_VERSION}")
    cp = payload["checkpoint"]
    if not isinstance(cp, Checkpoint):
        raise CheckpointError(f"corrupt checkpoint {path}: bad payload")
    if cp.fingerprint != expected_fingerprint:
        raise CheckpointError(
            f"checkpoint {path} does not match this program/configuration "
            f"(fingerprint {cp.fingerprint[:12]}… vs "
            f"{expected_fingerprint[:12]}…)")
    return cp
