"""Incremental fixpoint iteration: dependency-sliced body re-execution.

Widening sequences converge cell-by-cell: after the first few iterations
of a loop fixpoint most of the abstract state is already stable, yet the
classical iterator re-executes the *whole* loop body on every iteration.
This module re-executes only the statements that can possibly produce a
different post-state than last time, splicing the memoized post-states
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
* A statement is *skipped* only when its incoming state agrees with the
  recorded pre-state of its last full execution on every cell, octagon
  pack, decision-tree pack and filter site of ``reads ∪ writes``, and on
  the clock.  Abstract transfer functions are functions of exactly that
  slice of the state, so the recorded post-state *is* the post-state the
  statement would recompute.
* The recorded post is spliced by patching the footprint's write sets
  onto the incoming state.  Because the write set over-approximates
  everything the statement may change, and the statement's effect on
  those components is fixed by the agreeing slice, patching is exact —
  not an approximation.
* Agreement compares abstract values with ``==`` (with ``is`` fast
  paths).  The analyzer already treats ``==``-equal values as
  interchangeable everywhere (cell-wise merges return ``a`` when
  ``a == b``), so substituting one for the other cannot change any
  downstream result.  ``NaN != NaN`` merely makes skips conservative.
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

* *journals* its deduplicated (pre, post) occurrence sequence for the
  next run, and
* consults the *donor* journal of the previous run with the same
  compat fingerprint: around a per-statement trajectory cursor, donor
  pres are checked with exactly the agreement test below, and on
  agreement the donor post is spliced exactly like an intra-run record.

The donor pair being a true (pre, post) pair of the same transfer
function (content key + compat fingerprint) makes the splice exact by
the same argument as above — so a warm run is bit-identical to a cold
one even across daemon restarts.  Divergence is self-limiting: a
statement whose donor pairs stop agreeing (an edited slice, a shifted
trajectory) drops its donor after a few failed probes and falls back to
pure intra-run behavior.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..frontend import ir as I
from .iterator import Flow, _join_opt, _join_opt_val
from .state import AbstractState

__all__ = ["IncrementalSequenceExecutor", "frames_key", "slim_pair"]

# Donor trajectory probing: how many pairs past the cursor one
# occurrence may test, and how many consecutive occurrences may fail
# before the statement's donor is dropped for the rest of the run.
_DONOR_WINDOW = 8
_DONOR_MAX_FAILS = 4


class _DonorCursor:
    """Replay state of one statement's donor journal: the deduplicated
    (pre, post) sequence of the donor run, a cursor tracking where the
    current run's trajectory last aligned, and a failure budget."""

    __slots__ = ("pairs", "pos", "fails")

    def __init__(self, pairs):
        self.pairs = pairs
        self.pos = 0
        self.fails = 0


def slim_pair(m: "_StmtMeta", pre: AbstractState,
              post: AbstractState) -> Tuple:
    """The footprint slice of one (pre, post) record — what cross-run
    journals store instead of whole states.  The agreement check only
    ever reads the pre-state's footprint components and the patch only
    the post-state's write sets, so nothing else needs to survive the
    round-trip; the component values (CellValue, Octagon, DecisionTree,
    floats) are context-free and pickle small."""
    ep = pre.env
    pf = ep.cells.find
    of, tf, ef = pre.octagons.find, pre.dtrees.find, pre.ellipsoids.find
    qf = post.env.cells.find
    og, tg, eg = post.octagons.find, post.dtrees.find, post.ellipsoids.find
    return (
        ep.clock if m.clock_dep else None,
        tuple(pf(c) for c in m.cells),
        tuple(of(p) for p in m.packs),
        tuple(tf(p) for p in m.bpacks),
        tuple(ef(s) for s in m.sites),
        tuple(qf(c) for c in m.write_cells),
        tuple(og(p) for p in m.write_packs),
        tuple(tg(p) for p in m.write_bpacks),
        tuple(eg(s) for s in m.sites),
    )


def frames_key(frames) -> Tuple:
    """Hashable key of the call-by-reference binding stack (footprints
    are resolved against these bindings, so they are part of the cache
    identity)."""
    return tuple(
        tuple(sorted((uid, repr(lv)) for uid, lv in frame.items()))
        for frame in frames)


class _StmtMeta:
    """Per-statement footprint slice plus the memoized last execution."""

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
        # (pre_state, post_state) of the last full execution, or None.
        self.record: Optional[Tuple[AbstractState, AbstractState]] = None
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
            sub = self._exec_one(it, flow.normal, m)
            flow = Flow(
                normal=sub.normal,
                brk=_join_opt(flow.brk, sub.brk),
                cont=_join_opt(flow.cont, sub.cont),
                ret=_join_opt(flow.ret, sub.ret),
                ret_val=_join_opt_val(flow.ret_val, sub.ret_val),
            )
        return flow

    def _exec_one(self, it, cur: AbstractState, m: _StmtMeta) -> Flow:
        rec = m.record
        if rec is not None and self._agrees(cur, rec[0], m):
            it.stmts_skipped += m.span
            if cur is rec[0]:
                self._journal(it, m, cur, rec[1])
                return Flow(normal=rec[1])
            post = self._patch(cur, rec[1], m)
            m.record = (cur, post)
            self._journal(it, m, cur, post)
            return Flow(normal=post)
        d = m.donor
        if d is not None:
            pairs = d.pairs
            end = min(d.pos + _DONOR_WINDOW, len(pairs))
            for j in range(d.pos, end):
                pair = pairs[j]
                if self._agrees_slim(cur, pair, m):
                    d.pos = j
                    d.fails = 0
                    it.stmts_skipped += m.span
                    it.cross_run_hits += 1
                    it.cross_run_spliced += m.span
                    post = self._patch_slim(cur, pair, m)
                    m.record = (cur, post)
                    self._journal(it, m, cur, post)
                    return Flow(normal=post)
            d.fails += 1
            if d.fails >= _DONOR_MAX_FAILS:
                m.donor = None
        sub = it.exec_stmt(cur, m.stmt)
        if (m.skippable and sub.brk is None and sub.cont is None
                and sub.ret is None and not sub.normal.is_bottom):
            # Bottom posts are excluded: to_bottom() keeps stale
            # relational maps that the splice must not resurrect.
            m.record = (cur, sub.normal)
            self._journal(it, m, cur, sub.normal)
        else:
            m.record = None
        return sub

    @staticmethod
    def _journal(it, m: _StmtMeta, pre: AbstractState,
                 post: AbstractState) -> None:
        cr = it.cross_run
        if cr is not None and m.xkey is not None:
            cr.record(m.xkey, m, pre, post)

    # -- the agreement check -----------------------------------------------------

    @staticmethod
    def _agrees(cur: AbstractState, pre: AbstractState,
                m: _StmtMeta) -> bool:
        """True iff ``cur`` and ``pre`` coincide on the statement's
        footprint slice — cells, packs, tree packs, filter sites — and on
        the clock.  ``is`` fast paths first; ``==`` decides the rest."""
        if cur is pre:
            return True
        ec, ep = cur.env, pre.env
        if ec.bottom or ep.bottom:
            return False
        if m.clock_dep and ec.clock != ep.clock:
            return False
        if ec.cells._root is not ep.cells._root:
            cfind, pfind = ec.cells.find, ep.cells.find
            for cid in m.cells:
                a, b = cfind(cid), pfind(cid)
                if a is b:
                    continue
                if a is None or b is None or a != b:
                    return False
        if cur.octagons._root is not pre.octagons._root:
            cfind, pfind = cur.octagons.find, pre.octagons.find
            for pid in m.packs:
                a, b = cfind(pid), pfind(pid)
                if a is b:
                    continue
                # raw_equal: representation equality without the cubic
                # closure .equal() would run — sufficient, so at worst
                # the skip is conservatively refused.
                if a is None or b is None or not a.raw_equal(b):
                    return False
        if cur.dtrees._root is not pre.dtrees._root:
            cfind, pfind = cur.dtrees.find, pre.dtrees.find
            for pid in m.bpacks:
                a, b = cfind(pid), pfind(pid)
                if a is b:
                    continue
                if a is None or b is None or not a.equal(b):
                    return False
        if cur.ellipsoids._root is not pre.ellipsoids._root:
            cfind, pfind = cur.ellipsoids.find, pre.ellipsoids.find
            for sid in m.sites:
                a, b = cfind(sid), pfind(sid)
                if a is b:
                    continue
                # Floats: inf == inf holds; NaN != NaN conservatively
                # refuses the skip.
                if a is None or b is None or a != b:
                    return False
        return True

    @staticmethod
    def _agrees_slim(cur: AbstractState, pair: Tuple,
                     m: _StmtMeta) -> bool:
        """The agreement check of :meth:`_agrees` against a slim donor
        pair (see :func:`slim_pair`) instead of a recorded pre-state.
        Same comparisons component-wise, so the same exactness argument
        applies; the ``is`` fast paths simply never fire for unpickled
        values."""
        clock, cells, packs, bpacks, sites = pair[0], pair[1], pair[2], \
            pair[3], pair[4]
        ec = cur.env
        if ec.bottom:
            return False
        if m.clock_dep and ec.clock != clock:
            return False
        cfind = ec.cells.find
        for cid, b in zip(m.cells, cells):
            a = cfind(cid)
            if a is b:
                continue
            if a is None or b is None or a != b:
                return False
        ofind = cur.octagons.find
        for pid, b in zip(m.packs, packs):
            a = ofind(pid)
            if a is b:
                continue
            if a is None or b is None or not a.raw_equal(b):
                return False
        tfind = cur.dtrees.find
        for pid, b in zip(m.bpacks, bpacks):
            a = tfind(pid)
            if a is b:
                continue
            if a is None or b is None or not a.equal(b):
                return False
        efind = cur.ellipsoids.find
        for sid, b in zip(m.sites, sites):
            a = efind(sid)
            if a is b:
                continue
            if a is None or b is None or a != b:
                return False
        return True

    # -- the splice --------------------------------------------------------------

    @staticmethod
    def _patch_slim(cur: AbstractState, pair: Tuple,
                    m: _StmtMeta) -> AbstractState:
        """:meth:`_patch` against a slim donor pair: graft the recorded
        write-set values onto ``cur``, leaving ``==``-equal components
        physically in place (the incoming run's sharing identities are
        worth more than the donor's unpickled copies)."""
        wcells, wpacks, wbpacks, wsites = pair[5], pair[6], pair[7], pair[8]
        cells = cur.env.cells
        for cid, v in zip(m.write_cells, wcells):
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
        for pid, v in zip(m.write_packs, wpacks):
            if v is None:
                octs = octs.remove(pid)
                continue
            old = octs.find(pid)
            if old is v or (old is not None and old.raw_equal(v)):
                continue
            octs = octs.set(pid, v)

        trees = cur.dtrees
        for pid, v in zip(m.write_bpacks, wbpacks):
            if v is None:
                trees = trees.remove(pid)
                continue
            old = trees.find(pid)
            if old is v or (old is not None and old.equal(v)):
                continue
            trees = trees.set(pid, v)

        ells = cur.ellipsoids
        for sid, v in zip(m.sites, wsites):
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

    @staticmethod
    def _patch(cur: AbstractState, post: AbstractState,
               m: _StmtMeta) -> AbstractState:
        """Graft the recorded post-state's writes onto ``cur``.  Equal
        values are left in place so the incoming state's physical
        identity survives wherever possible (keeping the sharing
        shortcuts and the lattice memo hot)."""
        cells = cur.env.cells
        pfind = post.env.cells.find
        for cid in m.write_cells:
            v = pfind(cid)
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
        if octs._root is not post.octagons._root:
            pfind = post.octagons.find
            for pid in m.write_packs:
                v = pfind(pid)
                if v is None:
                    octs = octs.remove(pid)
                    continue
                old = octs.find(pid)
                if old is v or (old is not None and old.raw_equal(v)):
                    continue
                octs = octs.set(pid, v)

        trees = cur.dtrees
        if trees._root is not post.dtrees._root:
            pfind = post.dtrees.find
            for pid in m.write_bpacks:
                v = pfind(pid)
                if v is None:
                    trees = trees.remove(pid)
                    continue
                old = trees.find(pid)
                if old is v or (old is not None and old.equal(v)):
                    continue
                trees = trees.set(pid, v)

        ells = cur.ellipsoids
        if ells._root is not post.ellipsoids._root:
            pfind = post.ellipsoids.find
            for sid in m.sites:
                v = pfind(sid)
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
