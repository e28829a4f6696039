"""Static read/write footprints of IR statements.

The incremental engine (:mod:`.incremental`) needs to know, for every
statement of a sequence, which parts of the abstract state its abstract
execution may read and which it may write: a statement is skipped only
when its incoming state agrees with its record's pre values on that
slice, and the recorded post values are spliced by patching the write
set.  The
footprint is deliberately coarse but must be *sound as an
over-approximation*: a missed dependence would let a stale record be
spliced and break the bit-exact equivalence with full re-execution.

The abstract state has four granularities:

* **environment cells** — note that *reading* a cell that belongs to an
  octagon pack or is a tracked numeric of a boolean pack is a
  read-modify-write: evaluation reduces the cell's interval from the
  relational domains in place (``Transfer.read_cell``);
* **octagon packs** — every update is a transform of the pack's previous
  octagon, so pack writes are RMW at pack granularity;
* **boolean packs** — likewise for decision trees;
* **filter sites** — the ellipsoid bound of a site is advanced by the
  rotate/commit statements and invalidated by outside writes to X/Y.

Guard refinement (``GuardEngine``) may tighten every cell of the
condition, inject constraints into the octagon packs of those cells, and
restrict the decision trees of boolean condition cells (feeding their
numeric refinements back into the intervals) — all of which the
condition footprint records as writes.

Function calls are folded in by abstract inlining, mirroring the
iterator: value parameters and locals are written-before-read scratch
cells, so the callee body's reads of them do not escape to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..frontend import ir as I
from ..frontend.c_types import PointerType
from ..memory.cells import (
    AtomicLayout, CellInfo, CellLayout, ExpandedArrayLayout, RecordLayout,
    ShrunkArrayLayout,
)

__all__ = ["Footprint", "FootprintAnalyzer"]


class _Unresolved(Exception):
    """An l-value or callee that cannot be resolved statically.

    The statement becomes a barrier: resolving it could mutate the cell
    table (``add_var``), which no static slice can account for.
    """


@dataclass
class Footprint:
    """Over-approximate effect of abstractly executing one statement."""

    reads: Set[int] = field(default_factory=set)
    writes: Set[int] = field(default_factory=set)
    read_packs: Set[int] = field(default_factory=set)
    write_packs: Set[int] = field(default_factory=set)
    read_bpacks: Set[int] = field(default_factory=set)
    write_bpacks: Set[int] = field(default_factory=set)
    sites: Set[int] = field(default_factory=set)
    may_break: bool = False
    may_continue: bool = False
    may_return: bool = False
    has_wait: bool = False
    unresolved: bool = False
    # Rough statement count (loop bodies scaled up): the work a skip of
    # this statement saves, credited to ``stmts_skipped``.
    weight: int = 0

    def merge(self, other: "Footprint") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.read_packs |= other.read_packs
        self.write_packs |= other.write_packs
        self.read_bpacks |= other.read_bpacks
        self.write_bpacks |= other.write_bpacks
        self.sites |= other.sites
        self.may_break |= other.may_break
        self.may_continue |= other.may_continue
        self.may_return |= other.may_return
        self.has_wait |= other.has_wait
        self.unresolved |= other.unresolved
        self.weight += other.weight

    @property
    def is_barrier(self) -> bool:
        """True when the statement's effect cannot be replayed from a
        recorded (pre, post) pair.

        Escaping statements are barriers because break/continue/return
        produce non-normal flows a splice cannot reproduce.  A clock tick
        writes every clocked cell at once.
        """
        return (self.unresolved or self.has_wait or self.may_break
                or self.may_continue or self.may_return)


class FootprintAnalyzer:
    """Computes and memoizes statement footprints for one analysis."""

    def __init__(self, ctx):
        self.ctx = ctx
        # (fn name, resolved byref bindings) -> body footprint.
        self._fn_memo: Dict[Tuple, Footprint] = {}
        self._visiting: Set[str] = set()

    def stmt_footprint(self, s: I.Stmt, frames: Sequence[Dict[int, I.LValue]]) -> Footprint:
        fp = Footprint()
        try:
            self._stmt(s, tuple(frames), fp)
        except _Unresolved:
            fp.unresolved = True
        return fp

    # -- statements ------------------------------------------------------------

    def _stmt(self, s: I.Stmt, frames, fp: Footprint) -> None:
        fp.weight += 1
        if isinstance(s, I.SAssign):
            self._assign(s, frames, fp)
        elif isinstance(s, I.SIf):
            self._cond(s.cond, frames, fp)
            for branch in (s.then, s.other):
                for st in branch:
                    self._stmt(st, frames, fp)
        elif isinstance(s, I.SWhile):
            self._cond(s.cond, frames, fp)
            body = Footprint()
            for st in list(s.body) + list(s.step):
                self._stmt(st, frames, body)
            # The loop absorbs break/continue of its body.
            body.may_break = False
            body.may_continue = False
            body.weight *= 4  # widening iterations make loops heavy
            fp.merge(body)
        elif isinstance(s, I.SSwitch):
            self._expr(s.scrutinee, frames, fp)
            if isinstance(s.scrutinee, I.Load):
                cells = self._lv_cells(s.scrutinee.lval, frames, fp)
                if len(cells) == 1 and cells[0][1] and not cells[0][0].is_summary:
                    # Case guards restrict the scrutinee cell in place.
                    fp.reads.add(cells[0][0].cid)
                    fp.writes.add(cells[0][0].cid)
            body = Footprint()
            for _, case_body in s.cases:
                for st in case_body:
                    self._stmt(st, frames, body)
            body.may_break = False  # the switch consumes breaks
            fp.merge(body)
        elif isinstance(s, I.SCall):
            self._call(s, frames, fp)
        elif isinstance(s, I.SReturn):
            if s.value is not None:
                self._expr(s.value, frames, fp)
            fp.may_return = True
        elif isinstance(s, I.SBreak):
            fp.may_break = True
        elif isinstance(s, I.SContinue):
            fp.may_continue = True
        elif isinstance(s, I.SWait):
            fp.has_wait = True
        elif isinstance(s, (I.SAssume, I.SCheck)):
            self._cond(s.cond, frames, fp)
        elif isinstance(s, I.SNop):
            pass
        else:  # pragma: no cover - future statement kinds
            raise _Unresolved

    def _assign(self, s: I.SAssign, frames, fp: Footprint) -> None:
        cfg = self.ctx.config
        self._expr(s.value, frames, fp)
        cells = self._lv_cells(s.target, frames, fp)
        if not cells:
            raise _Unresolved
        strong = len(cells) == 1 and cells[0][1] and not cells[0][0].is_summary
        for cell, exact in cells:
            self._write_cell(cell, exact and strong, fp)
        if strong:
            target = cells[0][0]
            if cfg.enable_octagons:
                ids = self.ctx.oct_packs.packs_of_cell(target.cid)
                fp.write_packs.update(ids)
                fp.read_packs.update(ids)
                if cfg.octagon_pivot_reduction and ids:
                    # Pivot propagation spills into neighbouring packs;
                    # modelling its reach is not worth it (off by default).
                    raise _Unresolved
            if cfg.enable_decision_trees:
                from ..packing.common import is_bool_cell

                if is_bool_cell(target):
                    ids = self.ctx.bool_packs.packs_of_bool(target.cid)
                else:
                    ids = self.ctx.bool_packs.packs_of_numeric(target.cid)
                fp.write_bpacks.update(ids)
                fp.read_bpacks.update(ids)
        if cfg.enable_ellipsoids and len(self.ctx.filter_sites):
            sites = self.ctx.filter_sites
            if s.sid in sites.member_sids:
                site = sites.by_sid.get(s.sid)
                if site is not None:
                    fp.sites.add(site.site_id)
                    # rotate/commit read X/Y/T and tighten them back.
                    for cid in (site.x_cid, site.y_cid, site.t_cid):
                        self._read_cell(self.ctx.table.cell(cid), fp)
                        fp.writes.add(cid)

    def _call(self, s: I.SCall, frames, fp: Footprint) -> None:
        fn = self.ctx.prog.functions.get(s.func)
        if fn is None or fn.body is None:
            raise _Unresolved
        child: Dict[int, I.LValue] = {}
        scratch: Set[int] = set()
        for param, arg in zip(fn.params, s.args):
            if isinstance(param.ctype, PointerType):
                if not isinstance(arg, I.LValue):
                    raise _Unresolved
                child[param.uid] = self._resolve_lv(arg, frames)
            else:
                self._expr(arg, frames, fp)
                if not self.ctx.table.has_var(param.uid):
                    raise _Unresolved
                cell = self.ctx.table.scalar_cell(param.uid)
                scratch.add(cell.cid)
        for local in fn.locals:
            if not self.ctx.table.has_var(local.uid):
                raise _Unresolved
            for cell in self.ctx.table.cells_of_var(local.uid):
                scratch.add(cell.cid)
        body = self._function_footprint(fn, child)
        # Value params and locals are written (raw set_cell) before the
        # body runs, so body reads of them never see the caller's state.
        fp.reads |= (body.reads - scratch)
        fp.writes |= body.writes | scratch
        fp.read_packs |= body.read_packs
        fp.write_packs |= body.write_packs
        fp.read_bpacks |= body.read_bpacks
        fp.write_bpacks |= body.write_bpacks
        fp.sites |= body.sites
        # The call absorbs returns but propagates break/continue.
        fp.may_break |= body.may_break
        fp.may_continue |= body.may_continue
        fp.has_wait |= body.has_wait
        fp.weight += body.weight
        if s.result is not None:
            cells = self._lv_cells(s.result, frames, fp)
            for cell, exact in cells:
                self._write_cell(cell, exact and len(cells) == 1, fp)
            if len(cells) == 1 and cells[0][1]:
                self._forget_cell(cells[0][0], fp)

    def _function_footprint(self, fn: I.IRFunction,
                            bindings: Dict[int, I.LValue]) -> Footprint:
        key = (fn.name,
               tuple(sorted((uid, repr(lv)) for uid, lv in bindings.items())))
        cached = self._fn_memo.get(key)
        if cached is not None:
            return cached
        if fn.name in self._visiting:
            raise _Unresolved  # recursion: outside the analyzed family
        self._visiting.add(fn.name)
        try:
            fp = Footprint()
            unresolved = False
            try:
                for st in fn.body:
                    self._stmt(st, (bindings,), fp)
            except _Unresolved:
                unresolved = True
            fp.unresolved = unresolved
        finally:
            self._visiting.discard(fn.name)
        self._fn_memo[key] = fp
        if unresolved:
            raise _Unresolved
        return fp

    # -- conditions --------------------------------------------------------------

    def _cond(self, cond: I.Expr, frames, fp: Footprint) -> None:
        """Footprint of guarding on a condition (either polarity)."""
        cfg = self.ctx.config
        sub = Footprint()
        self._expr(cond, frames, sub)
        fp.merge(sub)
        for cid in sub.reads:
            cell = self.ctx.table.cell(cid)
            if cell.volatile or cell.is_summary:
                continue
            # Interval / linear-form backward refinement writes the cell.
            fp.reads.add(cid)
            fp.writes.add(cid)
            if cfg.enable_octagons:
                ids = self.ctx.oct_packs.packs_of_cell(cid)
                fp.write_packs.update(ids)
                fp.read_packs.update(ids)
            if cfg.enable_decision_trees:
                bids = self.ctx.bool_packs.packs_of_bool(cid)
                fp.write_bpacks.update(bids)
                fp.read_bpacks.update(bids)
                for pid in bids:
                    # Tree restriction feeds numeric refinements back
                    # into the pack's tracked cells.
                    for ncid in self.ctx.bool_packs.pack(pid).numeric_cids:
                        fp.reads.add(ncid)
                        fp.writes.add(ncid)

    # -- expressions -------------------------------------------------------------

    def _expr(self, e: I.Expr, frames, fp: Footprint) -> None:
        if isinstance(e, I.Const):
            return
        if isinstance(e, I.Load):
            for cell, _ in self._lv_cells(e.lval, frames, fp):
                self._read_cell(cell, fp)
            return
        if isinstance(e, (I.UnaryOp, I.NotOp, I.Cast)):
            self._expr(e.arg, frames, fp)
            return
        if isinstance(e, (I.BinOp, I.BoolOp)):
            self._expr(e.left, frames, fp)
            self._expr(e.right, frames, fp)
            return
        raise _Unresolved  # pragma: no cover - future expression kinds

    def _read_cell(self, cell: CellInfo, fp: Footprint) -> None:
        fp.reads.add(cell.cid)
        if cell.volatile:
            return  # read from the environment spec, not the state
        cfg = self.ctx.config
        # Reading reduces the cell from its relational domains *in place*
        # (Transfer.read_cell), so a packed cell read is a cell write
        # plus a pack read.
        reduced = False
        if cfg.enable_octagons:
            ids = self.ctx.oct_packs.packs_of_cell(cell.cid)
            if ids:
                fp.read_packs.update(ids)
                reduced = True
        if cfg.enable_decision_trees:
            ids = self.ctx.bool_packs.packs_of_numeric(cell.cid)
            if ids:
                fp.read_bpacks.update(ids)
                reduced = True
        if reduced:
            fp.writes.add(cell.cid)

    def _write_cell(self, cell: CellInfo, strong: bool, fp: Footprint) -> None:
        fp.writes.add(cell.cid)
        weak = not strong or cell.is_summary
        if weak:
            # Weak update joins with the old value and drops relational
            # facts about the cell.
            fp.reads.add(cell.cid)
            self._forget_cell(cell, fp)
        elif cell.is_integer and self.ctx.config.enable_clock:
            # Clocked maintenance reads the old value (X := X + e keeps
            # the clock deltas).
            fp.reads.add(cell.cid)
        if self.ctx.config.enable_ellipsoids:
            fp.sites.update(self.ctx.filter_sites.sites_writing(cell.cid))

    def _forget_cell(self, cell: CellInfo, fp: Footprint) -> None:
        cfg = self.ctx.config
        if cfg.enable_octagons:
            fp.write_packs.update(self.ctx.oct_packs.packs_of_cell(cell.cid))
        if cfg.enable_decision_trees:
            fp.write_bpacks.update(
                self.ctx.bool_packs.packs_of_numeric(cell.cid))
            fp.write_bpacks.update(self.ctx.bool_packs.packs_of_bool(cell.cid))
        if cfg.enable_ellipsoids:
            fp.sites.update(self.ctx.filter_sites.sites_writing(cell.cid))

    # -- l-values ---------------------------------------------------------------

    def _resolve_lv(self, lv: I.LValue, frames) -> I.LValue:
        """Substitute by-reference bindings (bindings hold already-resolved
        l-values, mirroring Iterator._resolve_binding)."""
        if isinstance(lv, I.LDeref):
            for frame in reversed(frames):
                if lv.var.uid in frame:
                    return frame[lv.var.uid]
            raise _Unresolved
        if isinstance(lv, I.LIndex):
            return I.LIndex(self._resolve_lv(lv.base, frames), lv.index,
                            lv.element_type)
        if isinstance(lv, I.LField):
            return I.LField(self._resolve_lv(lv.base, frames), lv.fieldname,
                            lv.field_type)
        return lv

    def _lv_cells(self, lv: I.LValue, frames,
                  fp: Footprint) -> List[Tuple[CellInfo, bool]]:
        """Mirror of Transfer.resolve_lvalue: [(cell, exact)] pairs, with a
        dynamic index over-approximated by all elements (weak)."""
        layouts = self._lv_layouts(self._resolve_lv(lv, frames), frames, fp)
        cells: List[Tuple[CellInfo, bool]] = []
        for layout, exact in layouts:
            if isinstance(layout, AtomicLayout):
                cells.append((layout.cell, exact))
            elif isinstance(layout, ShrunkArrayLayout):
                cells.append((layout.cell, False))
            else:
                raise _Unresolved
        return cells

    def _lv_layouts(self, lv: I.LValue, frames,
                    fp: Footprint) -> List[Tuple[CellLayout, bool]]:
        if isinstance(lv, I.LVar):
            if not self.ctx.table.has_var(lv.var.uid):
                raise _Unresolved  # resolving would grow the cell table
            return [(self.ctx.table.layout(lv.var.uid), True)]
        if isinstance(lv, I.LField):
            out: List[Tuple[CellLayout, bool]] = []
            for base, exact in self._lv_layouts(lv.base, frames, fp):
                if isinstance(base, RecordLayout):
                    try:
                        out.append((base.field(lv.fieldname), exact))
                    except KeyError:
                        raise _Unresolved from None
                elif isinstance(base, ShrunkArrayLayout):
                    out.append((base, False))
                else:
                    raise _Unresolved
            return out
        if isinstance(lv, I.LIndex):
            bases = self._lv_layouts(lv.base, frames, fp)
            self._expr(lv.index, frames, fp)
            out = []
            for base, exact in bases:
                if isinstance(base, ExpandedArrayLayout):
                    if isinstance(lv.index, I.Const):
                        idx = int(lv.index.value)
                        if 0 <= idx < base.length:
                            out.append((base.elements[idx], exact))
                            continue
                    # Dynamic or out-of-range index: any element, weakly.
                    for el in base.elements:
                        out.append((el, False))
                elif isinstance(base, ShrunkArrayLayout):
                    out.append((base, False))
                else:
                    raise _Unresolved
            return out
        raise _Unresolved  # LDeref must have been substituted already
