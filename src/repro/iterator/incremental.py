"""Incremental fixpoint iteration: dependency-sliced body re-execution.

Widening sequences converge cell-by-cell: after the first few iterations
of a loop fixpoint most of the abstract state is already stable, yet the
classical iterator re-executes the *whole* loop body on every iteration.
This module re-executes only the statements that can possibly produce a
different post-state than last time, splicing the recorded post values
of the rest — bit-identical to full re-execution, by construction.  It
runs in every fixpoint body run except under ``AnalyzerConfig.trace``:
a traced run executes every statement and is the reference engine the
differential tests hold this module against.

The engine hooks :meth:`Iterator.exec_block`: while a fixpoint body run
is in progress (``Iterator._incr_active``), every statement sequence —
the loop body itself, branch bodies, called function bodies, nested loop
bodies — executes through a cached :class:`IncrementalSequenceExecutor`.
The granularity is therefore *per statement at every nesting level*: a
module call whose footprint intersects the changed cells re-executes,
but inside it only the statements whose own slices changed re-execute.

Soundness argument (see docs/architecture.md, "Incremental iteration and
sharing"):

* Every statement gets a static read/write footprint from
  :class:`~repro.iterator.footprints.FootprintAnalyzer`, a sound
  over-approximation of its effect.  The footprint includes refinement
  writes of guards, reduction writes of packed reads, and weak-update
  reads.
* After each execution the statement keeps one *record*
  (:func:`slim_pair`): the pre-state's values on every cell, octagon
  pack, decision-tree pack and filter site of ``reads ∪ writes`` (plus
  the clock when the slice has clocked cells) and the post-state's
  values on the write sets.  Records hold component values, never
  whole states.
* A statement is *skipped* only when its incoming state agrees with its
  record on that whole slice.  Abstract transfer functions are
  functions of exactly that slice, so the recorded post values *are*
  what the statement would recompute.
* The record is spliced by patching its write-set values onto the
  incoming state.  Because the write set over-approximates everything
  the statement may change, and the statement's effect on those
  components is fixed by the agreeing slice, patching is exact — not an
  approximation.
* Agreement compares abstract values with ``==`` (with ``is`` fast
  paths).  The analyzer already treats ``==``-equal values as
  interchangeable everywhere (cell-wise merges return ``a`` when
  ``a == b``), so substituting one for the other cannot change any
  downstream result.  ``NaN != NaN`` merely makes skips conservative.
  A record is replaced only when a state disagrees with it (the
  statement executes or adopts a donor record): a state spliced from it
  agreed with it on the whole slice, and agreement is transitive, so
  later states compare against the record exactly as they would
  against the last spliced state.
* Statements whose footprint is unresolved, or that may break /
  continue / return / tick the clock, are never recorded: they always
  re-execute, and their non-normal continuations flow exactly as in
  :meth:`Iterator.exec_block`.
* ``_incr_active`` is only set inside ``_loop_fixpoint_inner``, where
  ``alarms.checking`` is False, so skipping can never lose an alarm;
  the final checking pass over the invariant always executes in full.

Executors are cached per ``(sequence identity, byref bindings)`` and
hold a strong reference to their statement list so the id stays
valid.  The caches are
invalidated wholesale when the supervisor's degradation ladder mutates
the configuration (``AnalysisContext.config_generation``).

Cross-run extension (repro.serve.cache): when the iterator carries a
``cross_run`` cache, each skippable statement is additionally keyed by
a content fingerprint (statement text, transitively called bodies,
bindings, resolved footprint — repro.serve.fingerprints) and

* *journals* every record it makes or adopts from a donor, one entry
  per execution or donor splice, for the next run, and
* consults the *donor* journal of the previous run with the same
  compat fingerprint: after its own record, the donor records around a
  per-statement trajectory cursor are checked with the same agreement
  test, and the first that agrees is spliced with the same patch and
  becomes the statement's record.

A donor record being a true (pre, post) slice of the same transfer
function (content key + compat fingerprint) makes the splice exact by
the same argument as above — so a warm run is bit-identical to a cold
one even across daemon restarts.  Divergence is self-limiting: a
statement whose donor records stop agreeing (an edited slice, a shifted
trajectory) drops its donor after a few failed probes and falls back to
pure intra-run behavior.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..frontend import ir as I
from .iterator import Flow
from .state import AbstractState

__all__ = ["IncrementalSequenceExecutor", "frames_key", "slim_pair"]

# Donor trajectory probing: how many records past the cursor one
# occurrence may test, and how many consecutive occurrences may fail
# before the statement's donor is dropped for the rest of the run.
_DONOR_WINDOW = 8
_DONOR_MAX_FAILS = 4


class _DonorCursor:
    """Replay state of one statement's donor journal: the donor run's
    record sequence, a cursor tracking where the current run's
    trajectory last aligned, and a failure budget."""

    __slots__ = ("pairs", "pos", "fails")

    def __init__(self, pairs):
        self.pairs = pairs
        self.pos = 0
        self.fails = 0


def slim_pair(m: "_StmtMeta", pre: AbstractState,
              post: AbstractState) -> Tuple:
    """One statement record: the footprint slice of a (pre, post)
    execution.  The agreement check only ever reads the pre-state's
    footprint components and the patch only the post-state's write
    sets, so nothing else is kept; the component values (CellValue,
    Octagon, DecisionTree, floats) are context-free and pickle small,
    which is what lets cross-run journals store records as they are."""
    ep = pre.env
    return (
        ep.clock if m.clock_dep else None,
        tuple(map(ep.cells.find, m.cells)),
        tuple(map(pre.octagons.find, m.packs)),
        tuple(map(pre.dtrees.find, m.bpacks)),
        tuple(map(pre.ellipsoids.find, m.sites)),
        tuple(map(post.env.cells.find, m.write_cells)),
        tuple(map(post.octagons.find, m.write_packs)),
        tuple(map(post.dtrees.find, m.write_bpacks)),
        tuple(map(post.ellipsoids.find, m.sites)),
    )


def frames_key(frames) -> Tuple:
    """Hashable key of the call-by-reference binding stack (footprints
    are resolved against these bindings, so they are part of the cache
    identity)."""
    return tuple(
        tuple(sorted((uid, repr(lv)) for uid, lv in frame.items()))
        for frame in frames)


class _StmtMeta:
    """Per-statement footprint slice plus the record of its last
    execution."""

    __slots__ = ("stmt", "skippable", "clock_dep", "cells", "write_cells",
                 "packs", "write_packs", "bpacks", "write_bpacks", "sites",
                 "span", "record", "xkey", "donor")

    def __init__(self, stmt: I.Stmt, fp, ctx):
        self.stmt = stmt
        # Never memoize statements whose effects escape the normal
        # continuation or that the footprint analysis could not resolve.
        self.skippable = not fp.is_barrier
        self.cells = tuple(sorted(fp.reads | fp.writes))
        self.write_cells = tuple(sorted(fp.writes))
        # Clock dependence: only integer cells carry clocked components
        # (with_clock_tracking / read-time clock reduction), so a
        # statement whose slice is float-only never observes the clock —
        # its agreement check may ignore clock inequality.  The clock
        # itself only advances through waits (has_wait excludes those).
        table = ctx.table
        self.clock_dep = (ctx.config.enable_clock
                          and any(table.cell(cid).is_integer
                                  for cid in self.cells))
        self.packs = tuple(sorted(fp.read_packs | fp.write_packs))
        self.write_packs = tuple(sorted(fp.write_packs))
        self.bpacks = tuple(sorted(fp.read_bpacks | fp.write_bpacks))
        self.write_bpacks = tuple(sorted(fp.write_bpacks))
        self.sites = tuple(sorted(fp.sites))
        # Work estimate of one execution (footprint weight counts the
        # whole subtree, called bodies included, loop bodies scaled up);
        # credited to stmts_skipped when the statement is spliced.
        self.span = max(1, fp.weight)
        # The record (slim_pair) of the last execution or adopted donor
        # record, or None.
        self.record: Optional[Tuple] = None
        # Cross-run journal key and donor cursor (set by the executor
        # when a CrossRunCache is attached; None otherwise).
        self.xkey: Optional[str] = None
        self.donor: Optional[_DonorCursor] = None


class IncrementalSequenceExecutor:
    """Executes one statement sequence, skipping statements whose
    footprint slice of the state is unchanged since their last
    execution.  One instance per (sequence, bindings) pair, cached on
    the Iterator; records persist across fixpoint iterations."""

    __slots__ = ("stmts", "generation", "metas")

    def __init__(self, it, stmts):
        self.stmts = stmts  # strong ref: keeps id(stmts) valid
        self.generation = it.ctx.config_generation
        fa = it._footprint_analyzer()
        frames = tuple(it.tr.bindings)
        self.metas = [
            _StmtMeta(st, fa.stmt_footprint(st, frames), it.ctx)
            for st in stmts]
        cr = getattr(it, "cross_run", None)
        if cr is not None and cr.active_for(it):
            fr = frames_key(frames)
            for m in self.metas:
                if not m.skippable:
                    continue
                m.xkey = cr.stmt_key(m, fr)
                pairs = cr.donor_pairs(m.xkey)
                if pairs:
                    m.donor = _DonorCursor(pairs)
                    cr.seeded += 1

    def exec(self, it, state: AbstractState) -> Flow:
        # The plain sequential fold of Iterator.exec_block (this executor
        # is only active when trace/loop partitioning is off).
        flow = Flow(normal=state)
        for m in self.metas:
            if flow.normal.is_bottom:
                break
            flow = flow.then(self._exec_one(it, flow.normal, m))
        return flow

    def _exec_one(self, it, cur: AbstractState, m: _StmtMeta) -> Flow:
        rec = m.record
        if rec is not None and self._agrees(cur, rec, m):
            it.stmts_skipped += m.span
            return Flow(normal=self._patch(cur, rec, m))
        d = m.donor
        if d is not None:
            pairs = d.pairs
            for j in range(d.pos, min(d.pos + _DONOR_WINDOW, len(pairs))):
                rec = pairs[j]
                if self._agrees(cur, rec, m):
                    d.pos = j
                    d.fails = 0
                    it.stmts_skipped += m.span
                    it.cross_run_hits += 1
                    it.cross_run_spliced += m.span
                    self._adopt(it, m, rec)
                    return Flow(normal=self._patch(cur, rec, m))
            d.fails += 1
            if d.fails >= _DONOR_MAX_FAILS:
                m.donor = None
        sub = it.exec_stmt(cur, m.stmt)
        if (m.skippable and sub.brk is None and sub.cont is None
                and sub.ret is None and not sub.normal.is_bottom):
            # Bottom posts are excluded: to_bottom() keeps stale
            # relational maps that the splice must not resurrect.
            self._adopt(it, m, slim_pair(m, cur, sub.normal))
        else:
            m.record = None
        return sub

    @staticmethod
    def _adopt(it, m: _StmtMeta, rec: Tuple) -> None:
        """Make ``rec`` the statement's record and journal it: records
        change only here, so the journal gets one entry per execution
        or donor splice."""
        m.record = rec
        if m.xkey is not None:
            it.cross_run.record(m.xkey, rec)

    # -- the agreement check -----------------------------------------------------

    @staticmethod
    def _agrees(cur: AbstractState, rec: Tuple, m: _StmtMeta) -> bool:
        """True iff ``cur`` coincides with the record's pre values on the
        statement's footprint slice — cells, packs, tree packs, filter
        sites — and on the clock.  ``is`` fast paths first (they never
        fire for unpickled donor values); ``==`` decides the rest."""
        ec = cur.env
        if ec.bottom:
            return False
        if m.clock_dep and ec.clock != rec[0]:
            return False
        cfind = ec.cells.find
        for cid, b in zip(m.cells, rec[1]):
            a = cfind(cid)
            if a is b:
                continue
            if a is None or b is None or a != b:
                return False
        ofind = cur.octagons.find
        for pid, b in zip(m.packs, rec[2]):
            a = ofind(pid)
            if a is b:
                continue
            # raw_equal: representation equality without the cubic
            # closure .equal() would run — sufficient, so at worst the
            # skip is conservatively refused.
            if a is None or b is None or not a.raw_equal(b):
                return False
        tfind = cur.dtrees.find
        for pid, b in zip(m.bpacks, rec[3]):
            a = tfind(pid)
            if a is b:
                continue
            if a is None or b is None or not a.equal(b):
                return False
        efind = cur.ellipsoids.find
        for sid, b in zip(m.sites, rec[4]):
            a = efind(sid)
            if a is b:
                continue
            # Floats: inf == inf holds; NaN != NaN conservatively
            # refuses the skip.
            if a is None or b is None or a != b:
                return False
        return True

    # -- the splice --------------------------------------------------------------

    @staticmethod
    def _patch(cur: AbstractState, rec: Tuple,
               m: _StmtMeta) -> AbstractState:
        """Graft the record's write-set values onto ``cur``.  Equal
        values are left in place, so the incoming state's physical
        identity survives wherever possible (keeping the sharing
        shortcuts hot; a donor's unpickled copies are worth less)."""
        cells = cur.env.cells
        for cid, v in zip(m.write_cells, rec[5]):
            if v is None:
                cells = cells.remove(cid)
                continue
            old = cells.find(cid)
            if old is v or (old is not None and old == v):
                continue
            cells = cells.set(cid, v)
        env = cur.env
        if cells is not env.cells:
            env = type(env)(cells, env.clock)

        octs = cur.octagons
        for pid, v in zip(m.write_packs, rec[6]):
            if v is None:
                octs = octs.remove(pid)
                continue
            old = octs.find(pid)
            if old is v or (old is not None and old.raw_equal(v)):
                continue
            octs = octs.set(pid, v)

        trees = cur.dtrees
        for pid, v in zip(m.write_bpacks, rec[7]):
            if v is None:
                trees = trees.remove(pid)
                continue
            old = trees.find(pid)
            if old is v or (old is not None and old.equal(v)):
                continue
            trees = trees.set(pid, v)

        ells = cur.ellipsoids
        for sid, v in zip(m.sites, rec[8]):
            if v is None:
                ells = ells.remove(sid)
                continue
            old = ells.find(sid)
            if old is v or (old is not None and old == v):
                continue
            ells = ells.set(sid, v)

        if (env is cur.env and octs is cur.octagons
                and trees is cur.dtrees and ells is cur.ellipsoids):
            return cur
        return AbstractState(cur.ctx, env, octs, trees, ells)
