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
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..config import SEMANTICS_VERSION
from ..errors import CheckpointError
from .incidents import Incident

__all__ = ["Checkpoint", "context_fingerprint", "load_checkpoint",
           "write_checkpoint"]

CHECKPOINT_VERSION = 1


def context_fingerprint(ctx) -> str:
    """Hash of everything the checkpointed state is keyed against:
    statement ids, cell ids, pack layout, and the analysis-relevant
    starting configuration.  A resume against a different program or a
    differently-parameterized run is rejected up front instead of
    producing silently wrong (key-shifted) states, and so is one written
    by a build with another ``SEMANTICS_VERSION``.

    Deliberately excluded: ``incremental``, which also switches the
    sharing caches (intern pool, closure memo).  It affects physical
    identity and wall time only — results are bit-identical across its
    settings — so a checkpoint written under one setting must resume
    under the other.  (The intern pools are
    process-local and a checkpoint never refers to them: a checkpoint is
    one pickle stream, so its states come back sharing the subtrees
    they shared when written, and values computed after the resume are
    interned afresh.)"""
    from ..frontend import ir as I

    h = hashlib.sha256()
    h.update(repr(SEMANTICS_VERSION).encode())
    sids: List[int] = []
    for name in sorted(ctx.prog.functions):
        fn = ctx.prog.functions[name]
        h.update(name.encode())
        if fn.body:
            sids.extend(s.sid for s in I.iter_stmts(fn.body))
    h.update(repr(sorted(sids)).encode())
    h.update(repr(ctx.table.cell_count).encode())
    h.update(repr((len(ctx.oct_packs), len(ctx.bool_packs),
                   len(ctx.filter_sites))).encode())
    cfg = ctx.config
    ts = cfg.thresholds
    h.update(repr((
        cfg.enable_clock, cfg.enable_octagons, cfg.enable_ellipsoids,
        cfg.enable_decision_trees, cfg.enable_linearization,
        cfg.widening_delay, cfg.delay_fairness_bound, cfg.narrowing_steps,
        cfg.max_widening_iterations, cfg.default_unroll,
        sorted(cfg.loop_unroll.items()), cfg.iteration_epsilon,
        sorted(cfg.input_ranges.items()), cfg.max_clock,
        None if ts is None else len(ts),
    )).encode())
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
    """Atomically persist a checkpoint (write-to-temp + rename), so a
    kill mid-write leaves the previous checkpoint intact."""
    payload = {"version": CHECKPOINT_VERSION, "checkpoint": cp}
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(payload, f, pickle.HIGHEST_PROTOCOL)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


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
    if cp.fingerprint != expected_fingerprint:
        raise CheckpointError(
            f"checkpoint {path} does not match this program/configuration "
            f"(fingerprint {cp.fingerprint[:12]}… vs "
            f"{expected_fingerprint[:12]}…)")
    return cp
