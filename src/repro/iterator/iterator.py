"""The iterator: compositional abstract execution of IR programs (Sect. 5).

The iterator interprets each program construct by induction on the abstract
syntax, transforming C instructions into directives for the abstract
domains.  It operates in two modes (Sect. 5.3):

* **iteration mode** generates invariants; no warnings are emitted;
* **checking mode** issues a warning for each operator application that may
  err on the concrete level, and continues with the non-erroneous results.

Loops are analyzed by widening/narrowing iterations (Sect. 5.5) with the
parametrized strategies of Sect. 7.1: semantic loop unrolling, widening
with thresholds, delayed widening with a fairness condition, and the
floating iteration perturbation.  In checking mode, the loop invariant is
first computed in iteration mode, then one extra checking pass collects the
potential errors.

Function calls are interpreted by abstract execution of the body in the
calling context — a context-sensitive polyvariant analysis semantically
equivalent to inlining (the family has no recursion).  Call-by-reference
parameters are bound to the actual l-values for the duration of the call.

Trace partitioning (Sect. 7.1.5) delays the merge of if-branches in
user-selected functions by analyzing ``if (c) {S1} else {S2} rest`` as
``if (c) {S1; rest} else {S2; rest}`` up to a bounded split depth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..domains.ellipsoid import EllipsoidValue
from ..domains.values import CellValue, const_value, top_value
from ..frontend import ir as I
from ..frontend.c_types import EnumType, FloatType, IntType, PointerType
from ..memory.cells import CellInfo
from ..numeric import FloatInterval, IntInterval
from .alarms import AlarmCollector, AlarmKind
from .guards import GuardEngine
from .state import AbstractState, AnalysisContext
from .transfer import EvalResult, Transfer

__all__ = ["Iterator", "Flow"]


@dataclass
class Flow:
    """Outcome of executing a statement sequence: the normal continuation
    plus exceptional continuations (break/continue/return)."""

    normal: AbstractState
    brk: Optional[AbstractState] = None
    cont: Optional[AbstractState] = None
    ret: Optional[AbstractState] = None
    ret_val: Optional[CellValue] = None

    def join(self, other: "Flow") -> "Flow":
        return self._merged(self.normal.join(other.normal), other)

    def then(self, other: "Flow") -> "Flow":
        """Sequential composition: ``other`` ran from this flow's normal
        continuation, so the exceptional continuations of both escape."""
        return self._merged(other.normal, other)

    def _merged(self, normal: AbstractState, other: "Flow") -> "Flow":
        return Flow(
            normal=normal,
            brk=_join_opt(self.brk, other.brk),
            cont=_join_opt(self.cont, other.cont),
            ret=_join_opt(self.ret, other.ret),
            ret_val=_join_opt(self.ret_val, other.ret_val),
        )


def _join_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a.join(b)


class Iterator:
    """Abstract interpreter for one program + configuration."""

    def __init__(self, ctx: AnalysisContext, alarms: Optional[AlarmCollector] = None):
        self.ctx = ctx
        self.cfg = ctx.config
        self.alarms = alarms if alarms is not None else AlarmCollector()
        self.tr = Transfer(ctx, self.alarms)
        self.guards = GuardEngine(self.tr)
        self._fn_stack: List[str] = []
        self._partition_budget: int = ctx.config.max_partition_depth
        # loop_id -> joined loop-head invariant (when collecting).
        self.loop_invariants: Dict[int, AbstractState] = {}
        self.widening_iterations: int = 0
        # sid -> abstract visit count (when cfg.trace, Sect. 5.3 tracing).
        self.visit_counts: Dict[int, int] = {}
        # Optional supervisor (set by analyze_program when a budget is
        # configured); polled at statement and fixpoint-iteration
        # boundaries.
        self.supervisor = None
        # Wall time spent inside outermost loop fixpoints ("iteration"
        # phase); the rest of the run is the checking phase.  The lattice
        # share of it (join/widen/narrow/includes) is split out so
        # --stats can report transfer vs lattice time.
        self.fixpoint_seconds: float = 0.0
        self.fixpoint_lattice_seconds: float = 0.0
        self._fixpoint_depth: int = 0
        # Incremental fixpoint engine (repro.iterator.incremental):
        # statement execution/skip counters, the while-in-a-fixpoint-
        # body flag that routes exec_block through sequence executors,
        # and the per-(sequence, bindings) executor cache, rebuilt when
        # config_generation moves.
        self.stmts_executed: int = 0
        self.stmts_skipped: int = 0
        # Cross-run fixpoint cache (repro.serve.cache.CrossRunCache),
        # attached by the serving layer; None for standalone runs.
        self.cross_run = None
        self.cross_run_hits: int = 0
        self.cross_run_spliced: int = 0
        self._incr_active: bool = False
        self._footprints = None
        self._footprints_generation: int = -1
        self._seq_execs: Dict[Tuple, object] = {}
        # Certificate recording (repro.certify), on under cfg.certify:
        # one (statement id, pre-narrowing post-fixpoint, checking-pass
        # invariant) triple per loop occurrence of the checking-mode
        # traversal, in traversal order.  The emitter consumes the
        # stream in the same structural order.
        self.cert_invariants: List[Tuple[int, AbstractState,
                                         AbstractState]] = []
        self._last_pf: Optional[AbstractState] = None

    # -- top level -----------------------------------------------------------------

    def run(self, checking: bool = True) -> AbstractState:
        """Abstractly execute the whole program from the entry point."""
        state = self._initial_state()
        self.alarms.checking = checking
        fn = self.ctx.prog.functions[self.ctx.prog.entry]
        flow = self._exec_function(state, fn, args=[], result=None,
                                   loc=fn.loc, sid=-1)
        out = flow.normal
        if flow.ret is not None:
            out = out.join(flow.ret)
        return out

    def _initial_state(self) -> AbstractState:
        state = AbstractState.initial(self.ctx)
        prog, table = self.ctx.prog, self.ctx.table
        env = state.env
        for var in prog.globals:
            init = prog.initializers.get(var.uid)
            layout = table.layout(var.uid)
            for cell, value in _init_cells(layout, var.ctype, init):
                if cell.volatile:
                    env = env.set(cell.cid, self.tr.ctx_volatile_range(cell))
                    continue
                cv = value
                if (self.cfg.enable_clock and cell.is_integer
                        and not cell.volatile):
                    cv = cv.with_clock_tracking(env.clock)
                env = env.set(cell.cid, cv)
        return state._with(env=env)

    # -- statement sequences -----------------------------------------------------------

    def exec_block(self, state: AbstractState, stmts: Sequence[I.Stmt]) -> Flow:
        # Incremental re-execution (repro.iterator.incremental): inside
        # a fixpoint body run, every sequence — branch bodies and called
        # function bodies included — goes through a memoizing executor
        # that skips statements whose footprint slice is unchanged.
        if (self._incr_active and stmts and not state.is_bottom
                and not self._partitioning_active()):
            return self._sequence_executor(stmts).exec(self, state)
        flow = Flow(normal=state)
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if flow.normal.is_bottom:
                break
            # Loop partitioning (Sect. 7.1.5: "a similar technique holds
            # for the unrolled iterations of loops"): keep the zero-
            # iteration exit separate from the looped exits through the
            # rest of the sequence.
            if (isinstance(s, I.SWhile) and self._partitioning_active()
                    and i + 1 < len(stmts) and not s.run_body_first):
                rest = list(stmts[i + 1:])
                self._partition_budget -= 1
                try:
                    skip = self.guards.guard(flow.normal, s.cond, False,
                                             s.sid, s.loc)
                    enter = self.guards.guard(flow.normal, s.cond, True,
                                              s.sid, s.loc)
                    fl_skip = self.exec_block(skip, rest)
                    loop_fl = self._exec_loop(enter, s)
                    fl_loop = loop_fl.then(
                        self.exec_block(loop_fl.normal, rest))
                finally:
                    self._partition_budget += 1
                return flow.then(fl_skip.join(fl_loop))
            # Trace partitioning: delay the merge of this if's branches
            # until the end of the enclosing sequence (Sect. 7.1.5).
            if (isinstance(s, I.SIf) and self._partitioning_active()
                    and i + 1 < len(stmts)):
                rest = list(stmts[i + 1:])
                self._partition_budget -= 1
                try:
                    t_state = self.guards.guard(flow.normal, s.cond, True,
                                                s.sid, s.loc)
                    f_state = self.guards.guard(flow.normal, s.cond, False,
                                                s.sid, s.loc)
                    fl_t = self.exec_block(t_state, list(s.then) + rest)
                    fl_f = self.exec_block(f_state, list(s.other) + rest)
                finally:
                    self._partition_budget += 1
                return flow.then(fl_t.join(fl_f))
            flow = flow.then(self.exec_stmt(flow.normal, s))
            i += 1
        return flow

    def _partitioning_active(self) -> bool:
        return (self._partition_budget > 0 and self._fn_stack
                and self._fn_stack[-1] in self.cfg.partition_functions)

    # -- incremental fixpoint machinery ------------------------------------------

    def _footprint_analyzer(self):
        """One FootprintAnalyzer per configuration generation, shared by
        every incremental body executor of this iterator."""
        gen = self.ctx.config_generation
        if self._footprints is None or self._footprints_generation != gen:
            from .footprints import FootprintAnalyzer

            self._footprints = FootprintAnalyzer(self.ctx)
            self._footprints_generation = gen
        return self._footprints

    def _sequence_executor(self, stmts):
        """Cached sequence executor for this statement list under the
        current byref bindings; stale records are discarded whenever the
        supervisor's degradation ladder bumps config_generation.  The
        executor keeps a strong reference to ``stmts``, so keying on its
        id is safe for as long as the cache lives."""
        from .incremental import IncrementalSequenceExecutor, frames_key

        key = (id(stmts), frames_key(self.tr.bindings))
        ex = self._seq_execs.get(key)
        if ex is None or ex.generation != self.ctx.config_generation:
            ex = IncrementalSequenceExecutor(self, stmts)
            self._seq_execs[key] = ex
        return ex

    # -- single statements ----------------------------------------------------------------

    def exec_stmt(self, state: AbstractState, s: I.Stmt) -> Flow:
        if state.is_bottom:
            return Flow(normal=state)
        self.stmts_executed += 1
        if self.supervisor is not None:
            self.supervisor.poll_stmt(self, s)
        if self.cfg.trace:
            self.visit_counts[s.sid] = self.visit_counts.get(s.sid, 0) + 1
        if isinstance(s, I.SAssign):
            return Flow(normal=self._exec_assign(state, s))
        if isinstance(s, I.SIf):
            t_state = self.guards.guard(state, s.cond, True, s.sid, s.loc)
            f_state = self.guards.guard(state, s.cond, False, s.sid, s.loc)
            fl_t = self.exec_block(t_state, s.then)
            fl_f = self.exec_block(f_state, s.other)
            return fl_t.join(fl_f)
        if isinstance(s, I.SWhile):
            return self._exec_loop(state, s)
        if isinstance(s, I.SSwitch):
            return self._exec_switch(state, s)
        if isinstance(s, I.SCall):
            fn = self.ctx.prog.functions[s.func]
            return self._exec_function(state, fn, s.args, s.result, s.loc, s.sid)
        if isinstance(s, I.SReturn):
            val = None
            if s.value is not None:
                res = self.tr.eval(state, s.value, s.sid, s.loc)
                state = res.state
                val = res.value
            return Flow(normal=state.to_bottom(), ret=state, ret_val=val)
        if isinstance(s, I.SBreak):
            return Flow(normal=state.to_bottom(), brk=state)
        if isinstance(s, I.SContinue):
            return Flow(normal=state.to_bottom(), cont=state)
        if isinstance(s, I.SWait):
            return Flow(normal=state._with(env=state.env.tick()))
        if isinstance(s, I.SAssume):
            return Flow(normal=self.guards.guard(state, s.cond, True, s.sid, s.loc))
        if isinstance(s, I.SCheck):
            res = self.tr.eval(state, s.cond, s.sid, s.loc)
            state = res.state
            if Transfer.truth(res.value) is not True:
                self.alarms.report(AlarmKind.ASSERT_FAIL, s.sid, s.loc,
                                   "assertion may not hold")
            return Flow(normal=self.guards.guard(state, s.cond, True, s.sid, s.loc))
        if isinstance(s, I.SNop):
            return Flow(normal=state)
        raise TypeError(f"unknown statement {s!r}")  # pragma: no cover

    # -- assignment ---------------------------------------------------------------------------

    def _exec_assign(self, state: AbstractState, s: I.SAssign) -> AbstractState:
        res = self.tr.eval(state, s.value, s.sid, s.loc)
        state = res.state
        if res.value.is_bottom:
            return state.to_bottom()
        state, cells = self.tr.resolve_lvalue(state, s.target, s.sid, s.loc)
        if not cells:
            return state.to_bottom()
        value = self._coerce_value(res.value, s.target.ctype)
        strong = len(cells) == 1 and cells[0][1] and not cells[0][0].is_summary
        # Clocked-component maintenance (Sect. 6.2.1).
        for cell, exact in cells:
            cv = value
            if (self.cfg.enable_clock and cell.is_integer and not cell.volatile
                    and isinstance(cv.itv, IntInterval)):
                delta = self._self_increment_delta(s, cell, state)
                old = state.env.get(cell.cid)
                if delta is not None and old is not None and old.has_clock:
                    cv = CellValue(cv.itv, old.minus_clock, old.plus_clock)
                    cv = cv.shift_clocked(delta)
                else:
                    cv = cv.with_clock_tracking(state.env.clock)
            if strong:
                state = state.set_cell(cell.cid, cv)
            else:
                state = state.weak_set_cell(cell.cid, cv)
        # Relational domain updates (only meaningful for strong updates).
        target_cell = cells[0][0] if strong else None
        if target_cell is not None:
            state = self._update_octagons(state, target_cell, s, res)
            state = self._update_dtrees(state, target_cell, s, res)
        else:
            for cell, _ in cells:
                state = self._forget_relational(state, cell)
        state = self._update_ellipsoids(state, cells, s, res)
        if target_cell is not None and not state.is_bottom:
            state = state.reduce_cell_from_relational(target_cell.cid)
        return state

    def _coerce_value(self, value: CellValue, ctype) -> CellValue:
        if isinstance(ctype, FloatType) and isinstance(value.itv, IntInterval):
            return CellValue(value.itv.to_float_interval())
        if isinstance(ctype, (IntType, EnumType)) and not isinstance(value.itv, IntInterval):
            return CellValue(IntInterval.from_float_interval(value.float_range()))
        return value

    def _self_increment_delta(self, s: I.SAssign, cell: CellInfo,
                              state: AbstractState) -> Optional[IntInterval]:
        """Detect X := X + e (same cell on both sides); returns e's range."""
        e = s.value
        while isinstance(e, I.Cast):
            e = e.arg
        if not (isinstance(e, I.BinOp) and e.op in ("add", "sub")):
            return None
        def cell_of(x):
            while isinstance(x, I.Cast):
                x = x.arg
            if isinstance(x, I.Load):
                from ..packing.common import static_cell

                c = static_cell(x.lval, self.ctx.table)
                return c.cid if c is not None else None
            return None

        if cell_of(e.left) == cell.cid:
            other = e.right
            sign = 1 if e.op == "add" else -1
        elif e.op == "add" and cell_of(e.right) == cell.cid:
            other = e.left
            sign = 1
        else:
            return None
        res = self.tr.eval(state, other, s.sid, s.loc)
        delta = res.value.itv
        if not isinstance(delta, IntInterval) or not delta.is_bounded:
            return None
        return delta if sign > 0 else delta.neg()

    def _update_octagons(self, state: AbstractState, cell: CellInfo,
                         s: I.SAssign, res: EvalResult) -> AbstractState:
        if not self.cfg.enable_octagons or state.is_bottom:
            return state
        pack_ids = self.ctx.oct_packs.packs_of_cell(cell.cid)
        if not pack_ids:
            return state
        form = res.form
        if form is None:
            form = self.guards._form_of(state, s.value)
        lookup = self.tr.lookup_form_var(state)
        octs = state.octagons
        for pack_id in pack_ids:
            pack = self.ctx.oct_packs.pack(pack_id)
            index = pack.index
            oct_ = octs.get(pack_id)
            if oct_ is None:
                continue
            relational = form is not None and any(
                v in index and v != cell.cid for v in form.variables)
            if not relational and oct_.is_top:
                # The interval domain already carries unary-only facts;
                # keeping the octagon top avoids a useless cubic closure.
                continue
            pos = index[cell.cid]
            if form is not None:
                new_oct = oct_.assign_linear_form(pos, form, index, lookup)
            else:
                new_oct = oct_.assign_interval(pos, res.value.float_range())
            if new_oct.is_bottom:
                return state.to_bottom()
            octs = octs.set(pack_id, new_oct)
        state = state._with(octagons=octs)
        if self.cfg.octagon_pivot_reduction:
            for pack_id in pack_ids:
                state = state.propagate_octagon_pivots(pack_id)
                if state.is_bottom:
                    break
        return state

    def _update_dtrees(self, state: AbstractState, cell: CellInfo,
                       s: I.SAssign, res: EvalResult) -> AbstractState:
        if not self.cfg.enable_decision_trees or state.is_bottom:
            return state
        from ..packing.common import is_bool_cell

        trees = state.dtrees
        if is_bool_cell(cell):
            pack_ids = self.ctx.bool_packs.packs_of_bool(cell.cid)
            if not pack_ids:
                return state
            true_vals, false_vals = self._bool_outcome_facts(state, s)
            for pack_id in pack_ids:
                tree = trees.get(pack_id)
                if tree is None:
                    continue
                pack = self.ctx.bool_packs.pack(pack_id)
                tv = _restrict_facts(true_vals, pack.numeric_cids)
                fv = _restrict_facts(false_vals, pack.numeric_cids)
                trees = trees.set(pack_id, tree.assign_bool(cell.cid, tv, fv))
            return state._with(dtrees=trees)
        pack_ids = self.ctx.bool_packs.packs_of_numeric(cell.cid)
        for pack_id in pack_ids:
            tree = trees.get(pack_id)
            if tree is None:
                continue
            v = state.env.get(cell.cid)
            if v is not None:
                trees = trees.set(pack_id, tree.assign_numeric(cell.cid, v.itv))
        if pack_ids:
            state = state._with(dtrees=trees)
        return state

    def _bool_outcome_facts(self, state: AbstractState, s: I.SAssign):
        """For b := cond, the numeric facts under each outcome of cond."""
        cond = s.value
        while isinstance(cond, I.Cast):
            cond = cond.arg
        t = self.tr.eval(state, cond, s.sid, s.loc)
        truth = Transfer.truth(t.value)
        if truth is True:
            return {}, None
        if truth is False:
            return None, {}
        s_true = self.guards.guard(state, cond, True, s.sid, s.loc)
        s_false = self.guards.guard(state, cond, False, s.sid, s.loc)
        true_vals = None if s_true.is_bottom else _delta_facts(state, s_true)
        false_vals = None if s_false.is_bottom else _delta_facts(state, s_false)
        return true_vals, false_vals

    def _update_ellipsoids(self, state: AbstractState, cells, s: I.SAssign,
                           res: EvalResult) -> AbstractState:
        if not self.cfg.enable_ellipsoids or state.is_bottom:
            return state
        sites = self.ctx.filter_sites
        if not len(sites):
            return state
        ells = state.ellipsoids
        if s.sid in sites.member_sids:
            site = sites.by_sid.get(s.sid)
            if site is not None and s.sid == site.rotate_sid:
                # Pre-assignment reduction, then the delta rotation.
                k = ells.get(site.site_id, math.inf)
                x_iv = state.cell_float_range(site.x_cid)
                y_iv = state.cell_float_range(site.y_cid)
                t_max = self._t_magnitude(state, site, s)
                params = self.ctx.site_params(site.site_id, t_max)
                v = EllipsoidValue(params, k).reduce_from_intervals(
                    x_iv, y_iv, equal_vars=(site.x_cid == site.y_cid))
                rotated = v.rotate()
                ells = ells.set(site.site_id, rotated.k)
                # Use the ellipsoid to tighten the temporary X'.
                state = self._reduce_from_site(state, site, rotated,
                                               site.t_cid)
            elif site is not None and s.sid == site.commit_sid:
                k = ells.get(site.site_id, math.inf)
                t_max = 0.0
                params = self.ctx.site_params(site.site_id, t_max)
                v = EllipsoidValue(params, k)
                state = self._reduce_from_site(state, site, v, site.x_cid)
                state = self._reduce_from_site(state, site, v, site.y_cid,
                                               y_side=True)
            return state._with(ellipsoids=ells)
        # A non-member write to X or Y invalidates the site constraint.
        changed = False
        for cell, _ in cells:
            for site_id in sites.sites_writing(cell.cid):
                if not math.isinf(ells.get(site_id, math.inf)):
                    ells = ells.set(site_id, math.inf)
                    changed = True
        if changed:
            return state._with(ellipsoids=ells)
        return state

    def _t_magnitude(self, state: AbstractState, site, s: I.SAssign) -> float:
        acc = FloatInterval.const(0.0)
        for coeff, payload in site.t_terms:
            if isinstance(payload, int):
                iv = state.cell_float_range(payload)
            else:
                iv = self.tr.eval(state, payload, s.sid, s.loc).value.float_range()
            acc = acc.add(iv.mul(FloatInterval.const(coeff)))
        return acc.magnitude()

    def _reduce_from_site(self, state: AbstractState, site, v: EllipsoidValue,
                          cid: int, y_side: bool = False) -> AbstractState:
        if v.is_top:
            return state
        bound = v.y_bound() if y_side else v.x_bound()
        cur = state.env.get(cid)
        if cur is None or not cur.is_float:
            return state
        new_itv = cur.itv.meet(bound)
        if new_itv == cur.itv:
            return state
        if new_itv.is_empty:
            return state  # conservative: keep the interval
        return state.set_cell(cid, CellValue(new_itv))

    def _forget_relational(self, state: AbstractState, cell: CellInfo) -> AbstractState:
        """Weak update: relational facts about the cell must be dropped."""
        if self.cfg.enable_octagons:
            octs = state.octagons
            for pack_id in self.ctx.oct_packs.packs_of_cell(cell.cid):
                oct_ = octs.get(pack_id)
                if oct_ is None:
                    continue
                pack = self.ctx.oct_packs.pack(pack_id)
                octs = octs.set(pack_id, oct_.forget(pack.index[cell.cid]))
            state = state._with(octagons=octs)
        if self.cfg.enable_decision_trees:
            trees = state.dtrees
            for pack_id in self.ctx.bool_packs.packs_of_numeric(cell.cid):
                tree = trees.get(pack_id)
                if tree is not None:
                    trees = trees.set(pack_id,
                                      tree.assign_numeric(cell.cid,
                                                          IntInterval.top()))
            for pack_id in self.ctx.bool_packs.packs_of_bool(cell.cid):
                tree = trees.get(pack_id)
                if tree is not None:
                    trees = trees.set(pack_id, tree.forget_bool(cell.cid))
            state = state._with(dtrees=trees)
        if self.cfg.enable_ellipsoids:
            ells = state.ellipsoids
            for site_id in self.ctx.filter_sites.sites_writing(cell.cid):
                ells = ells.set(site_id, math.inf)
            state = state._with(ellipsoids=ells)
        return state

    # -- loops ----------------------------------------------------------------------------------

    def _run_body(self, body_in: AbstractState, s: I.SWhile) -> Flow:
        """One execution of the body and the for-step (on both the
        normal and the continue paths); ``normal`` is the state back at
        the loop head."""
        fl = self.exec_block(body_in, s.body)
        resume = fl.normal if fl.cont is None else fl.normal.join(fl.cont)
        fl = Flow(normal=resume, brk=fl.brk, ret=fl.ret, ret_val=fl.ret_val)
        if s.step and not resume.is_bottom:
            fl = fl.then(self.exec_block(resume, s.step))
        return fl

    def _loop_pass(self, head: AbstractState, s: I.SWhile,
                   acc: Optional[Flow] = None) -> Flow:
        """One pass through the loop from ``head``: the exit guard's
        state joins ``brk`` (the exits of the earlier passes in ``acc``),
        then the body runs from the entry guard's state."""
        fl = Flow(normal=head,
                  brk=self.guards.guard(head, s.cond, False, s.sid, s.loc))
        if acc is not None:
            fl = acc.then(fl)
        body_in = self.guards.guard(head, s.cond, True, s.sid, s.loc)
        return fl.then(Flow(normal=body_in) if body_in.is_bottom
                       else self._run_body(body_in, s))

    def _exec_loop(self, state: AbstractState, s: I.SWhile) -> Flow:
        # The do-while first run, then semantic loop unrolling
        # (Sect. 7.1.1); ``acc.normal`` is the state at the loop head and
        # ``acc.brk`` the exits so far.
        if s.run_body_first:
            acc = self._run_body(state, s)
        else:
            acc = Flow(normal=state)
        unroll = self.cfg.loop_unroll.get(s.loop_id, self.cfg.default_unroll)
        for _ in range(unroll):
            if acc.normal.is_bottom:
                break
            acc = self._loop_pass(acc.normal, s, acc)
        acc = self._invariant_pass(acc, s)
        normal = acc.brk if acc.brk is not None else state.to_bottom()
        return Flow(normal=normal, ret=acc.ret, ret_val=acc.ret_val)

    def _invariant_pass(self, acc: Flow, s: I.SWhile) -> Flow:
        """The widening/narrowing fixpoint from the loop-head state, then
        the final pass from the invariant (checking mode collects alarms
        here)."""
        inv = self._loop_fixpoint(acc.normal, s)
        if self.cfg.certify and self.alarms.checking:
            # _last_pf is the pre-narrowing post-fixpoint of exactly this
            # _loop_fixpoint call (assigned at its return boundary;
            # nested fixpoints during narrowing are overwritten again
            # before the call returns).
            pf = self._last_pf if self._last_pf is not None else inv
            self.cert_invariants.append((s.sid, pf, inv))
        if self.cfg.collect_invariants:
            prev = self.loop_invariants.get(s.loop_id)
            self.loop_invariants[s.loop_id] = \
                inv if prev is None else prev.join(inv)
        return self._loop_pass(inv, s, acc)

    def _loop_fixpoint(self, entry: AbstractState, s: I.SWhile) -> AbstractState:
        if entry.is_bottom:
            self._last_pf = entry
            return entry
        was_checking = self.alarms.checking
        self.alarms.checking = False
        self._fixpoint_depth += 1
        start = time.perf_counter() if self._fixpoint_depth == 1 else 0.0
        lat_start = self.ctx.lattice_seconds if self._fixpoint_depth == 1 else 0.0
        try:
            return self._loop_fixpoint_inner(entry, s)
        finally:
            if self._fixpoint_depth == 1:
                self.fixpoint_seconds += time.perf_counter() - start
                self.fixpoint_lattice_seconds += \
                    self.ctx.lattice_seconds - lat_start
            self._fixpoint_depth -= 1
            self.alarms.checking = was_checking

    def _loop_fixpoint_inner(self, entry: AbstractState, s: I.SWhile) -> AbstractState:
        inv = entry
        prev_unstable: Optional[Set[int]] = None
        fairness_left = self.cfg.delay_fairness_bound
        sup = self.supervisor
        # Incremental body re-execution (repro.iterator.incremental):
        # off under tracing (visit counts need every execution; a traced
        # run is the reference engine); partitioned regions are excluded
        # inside exec_block itself.  The flag is only raised here, where
        # alarms.checking is off, so a skipped statement can never lose
        # an alarm.
        use_incr = not self.cfg.trace

        def run_body(body_state):
            if not use_incr:
                return self._run_body(body_state, s).normal
            prev_active = self._incr_active
            self._incr_active = True
            try:
                return self._run_body(body_state, s).normal
            finally:
                self._incr_active = prev_active

        eps = self.cfg.iteration_epsilon
        for it in range(self.cfg.max_widening_iterations):
            if sup is not None:
                sup.on_fixpoint_iteration()
            self.widening_iterations += 1
            body_in = self.guards.guard(inv, s.cond, True, s.sid, s.loc)
            after = run_body(body_in)
            target = entry.join(after)
            if inv.includes(target):
                break  # post-fixpoint reached (exact check, Sect. 7.1.4)
            # Floating iteration perturbation: iterate with F-hat.  The
            # sharing-aware diff over-approximates the changed set (it is
            # based on physical identity), so value-equal cells are
            # filtered out: inflating them would perturb the fixpoint
            # based on incidental sharing rather than semantic change.
            changed = [cid for cid in inv.env.diff_cids(target.env)
                       if inv.env.get(cid) != target.env.get(cid)]
            target = target.inflate_floats(eps, changed)
            unstable = _unstable_cells(inv, target)
            newly_stable = (prev_unstable is not None
                            and bool(prev_unstable - unstable))
            if it < self.cfg.widening_delay or (newly_stable and fairness_left > 0):
                if newly_stable and it >= self.cfg.widening_delay:
                    fairness_left -= 1  # fairness: bounded extra joins
                inv = inv.join(target)
            else:
                inv = inv.widen(target)
            prev_unstable = unstable
        else:
            # Iteration budget exhausted: force convergence with
            # threshold-free widening.  Each unstable bound jumps straight
            # to infinity, so the rounds are bounded by the length of the
            # dependency chains; a genuine post-fixpoint is REQUIRED before
            # narrowing and checking may run (soundness).
            fallback_rounds = 64 + len(inv.env.cells)
            for _ in range(fallback_rounds):
                body_in = self.guards.guard(inv, s.cond, True, s.sid, s.loc)
                after = run_body(body_in)
                target = entry.join(after)
                if inv.includes(target):
                    break
                # Threshold-free widening bypasses the timed AbstractState
                # wrappers (it constructs the state directly), so book its
                # wall time to the lattice phase by hand — otherwise it
                # silently inflates iteration-transfer in --stats.
                t0 = time.perf_counter()
                inv = AbstractState(
                    inv.ctx,
                    inv.env.widen(target.env, None),
                    inv.octagons.merge(target.octagons,
                                       lambda k, a, b: a.widen(b)),
                    inv.dtrees.merge(target.dtrees,
                                     lambda k, a, b: a.widen(b)),
                    inv.ellipsoids.merge(target.ellipsoids,
                                         lambda k, a, b: a if b <= a else math.inf),
                )
                self.ctx.lattice_seconds += time.perf_counter() - t0
            else:
                from ..errors import AnalysisError

                raise AnalysisError(
                    f"loop {s.loop_id} did not reach a post-fixpoint even "
                    f"under threshold-free widening")
        # Narrowing (decreasing) iterations.  Because ``inv`` is a
        # post-fixpoint, ``entry ∪ F(inv)`` still over-approximates the
        # concrete least fixpoint, so replacing the invariant with it is a
        # sound decreasing step — and unlike classical narrowing it also
        # retracts finite threshold bounds, not just infinite ones.
        #
        # The pre-narrowing post-fixpoint is kept for certificate
        # emission: it passed the exact ``inv ⊒ entry ∪ F(inv)`` check
        # above, so a one-application checker can always re-verify it,
        # whereas the narrowed invariant below is only *usually* stable
        # under one more application.
        pf = inv
        for _ in range(self.cfg.narrowing_steps):
            body_in = self.guards.guard(inv, s.cond, True, s.sid, s.loc)
            after = run_body(body_in)
            target = entry.join(after)
            if inv.includes(target):
                if target.includes(inv):
                    break  # stable: no more refinement possible
                inv = target
            else:
                inv = inv.narrow(target)
                break
        # Assigned at the return boundary: nested fixpoints inside the
        # narrowing body runs above clobber _last_pf, so the caller must
        # see this call's value, written last.
        self._last_pf = pf
        return inv

    # -- switch -----------------------------------------------------------------------------------

    def _exec_switch(self, state: AbstractState, s: I.SSwitch) -> Flow:
        res = self.tr.eval(state, s.scrutinee, s.sid, s.loc)
        state = res.state
        scrutinee_cell = self.guards._single_cell(state, s.scrutinee, s.sid, s.loc)
        out: Optional[Flow] = None
        covered: List[int] = []
        for values, body in s.cases:
            if values is None:
                branch = self._restrict_scrutinee_not_in(state, scrutinee_cell,
                                                         covered)
            else:
                covered.extend(values)
                branch = self._restrict_scrutinee_in(state, scrutinee_cell,
                                                     values, res.value)
            if branch.is_bottom:
                continue
            fl = self.exec_block(branch, body)
            out = fl if out is None else out.join(fl)
        if not s.has_default:
            fallthrough = self._restrict_scrutinee_not_in(state, scrutinee_cell,
                                                          covered)
            fl = Flow(normal=fallthrough)
            out = fl if out is None else out.join(fl)
        if out is None:
            return Flow(normal=state.to_bottom())
        # break inside a switch exits the switch.
        normal = out.normal
        if out.brk is not None:
            normal = normal.join(out.brk)
        return Flow(normal=normal, ret=out.ret, ret_val=out.ret_val,
                    cont=out.cont)

    def _restrict_scrutinee_in(self, state: AbstractState, cell, values,
                               value: CellValue) -> AbstractState:
        allowed = IntInterval.empty()
        for v in values:
            allowed = allowed.join(IntInterval.const(v))
        itv = value.itv if isinstance(value.itv, IntInterval) else \
            IntInterval.from_float_interval(value.float_range())
        if itv.meet(allowed).is_empty:
            return state.to_bottom()
        if cell is not None:
            cur = state.env.get(cell.cid)
            if cur is not None:
                met = cur.itv.meet(allowed)
                if met.is_empty:
                    return state.to_bottom()
                state = state.set_cell(
                    cell.cid, CellValue(met, cur.minus_clock, cur.plus_clock))
        return state

    def _restrict_scrutinee_not_in(self, state: AbstractState, cell,
                                   covered) -> AbstractState:
        if cell is None:
            return state
        cur = state.env.get(cell.cid)
        if cur is None or not isinstance(cur.itv, IntInterval):
            return state
        itv = cur.itv
        for v in covered:
            itv = itv.restrict_ne(v)
        if itv.is_empty:
            return state.to_bottom()
        if itv != cur.itv:
            state = state.set_cell(cell.cid,
                                   CellValue(itv, cur.minus_clock, cur.plus_clock))
        return state

    # -- calls ------------------------------------------------------------------------------------

    def _exec_function(self, state: AbstractState, fn: I.IRFunction,
                       args, result, loc, sid: int) -> Flow:
        bindings: Dict[int, I.LValue] = {}
        for param, arg in zip(fn.params, args):
            if isinstance(param.ctype, PointerType):
                assert isinstance(arg, I.LValue)
                bindings[param.uid] = self._resolve_binding(arg)
            else:
                res = self.tr.eval(state, arg, sid, loc)
                state = res.state
                cell = self.ctx.table.scalar_cell(param.uid)
                state = state.set_cell(cell.cid,
                                       self._coerce_value(res.value, param.ctype))
        # Locals start uninitialized: any value of their type.
        for local in fn.locals:
            for cell in self.ctx.table.cells_of_var(local.uid):
                state = state.set_cell(cell.cid, top_value(cell.ctype))
        self.tr.bindings.append(bindings)
        self._fn_stack.append(fn.name)
        try:
            fl = self.exec_block(state, fn.body)
        finally:
            self._fn_stack.pop()
            self.tr.bindings.pop()
        out = fl.normal
        if fl.ret is not None:
            out = out.join(fl.ret)
        if result is not None and not out.is_bottom:
            val = fl.ret_val
            if val is None:
                val = top_value(fn.ret_type)
            out, cells = self.tr.resolve_lvalue(out, result, sid, loc)
            for cell, exact in cells:
                v = self._coerce_value(val, cell.ctype)
                if self.cfg.enable_clock and cell.is_integer and isinstance(v.itv, IntInterval):
                    v = v.with_clock_tracking(out.env.clock)
                if exact and not cell.is_summary:
                    out = out.set_cell(cell.cid, v)
                else:
                    out = out.weak_set_cell(cell.cid, v)
            if cells and len(cells) == 1 and cells[0][1]:
                # The result lands in a cell: relational facts are stale.
                out = self._forget_relational(out, cells[0][0])
        return Flow(normal=out, brk=fl.brk, cont=fl.cont)

    def _resolve_binding(self, lv: I.LValue) -> I.LValue:
        """Resolve caller-side derefs so the binding survives frame pops."""
        if isinstance(lv, I.LDeref):
            return self.tr.resolve_deref(lv.var)
        if isinstance(lv, I.LIndex):
            return I.LIndex(self._resolve_binding(lv.base), lv.index,
                            lv.element_type)
        if isinstance(lv, I.LField):
            return I.LField(self._resolve_binding(lv.base), lv.fieldname,
                            lv.field_type)
        return lv


def _unstable_cells(inv: AbstractState, target: AbstractState) -> Set[int]:
    out: Set[int] = set()
    for cid in inv.env.diff_cids(target.env):
        a = inv.env.get(cid)
        b = target.env.get(cid)
        if a is None or b is None:
            out.add(cid)
        elif not a.includes(b):
            out.add(cid)
    return out


def _delta_facts(before: AbstractState, after: AbstractState) -> Dict[int, object]:
    """Cells whose interval strictly tightened between two states."""
    out: Dict[int, object] = {}
    for cid in before.env.diff_cids(after.env):
        a = before.env.get(cid)
        b = after.env.get(cid)
        if a is None or b is None:
            continue
        if a.itv != b.itv and a.includes(b):
            out[cid] = b.itv
    return out


def _restrict_facts(facts, numeric_cids):
    if facts is None:
        return None
    allowed = set(numeric_cids)
    return {cid: iv for cid, iv in facts.items() if cid in allowed}


def _init_cells(layout, ctype, init):
    """Yield (cell, CellValue) pairs for a global's initializer."""
    from ..frontend.c_types import ArrayType, RecordType
    from ..memory.cells import (
        AtomicLayout, ExpandedArrayLayout, RecordLayout, ShrunkArrayLayout,
    )

    if isinstance(layout, AtomicLayout):
        value = init if init is not None else 0
        yield layout.cell, const_value(layout.cell.ctype, value)
    elif isinstance(layout, ShrunkArrayLayout):
        values = list(_flatten_scalars(init)) if init is not None else [0]
        cell = layout.cell
        acc = const_value(cell.ctype, values[0])
        for v in values[1:]:
            acc = acc.join(const_value(cell.ctype, v))
        yield cell, acc
    elif isinstance(layout, ExpandedArrayLayout):
        assert isinstance(ctype, ArrayType)
        items = init if init is not None else [None] * layout.length
        for sub_layout, sub_init in zip(layout.elements, items):
            yield from _init_cells(sub_layout, ctype.element, sub_init)
    elif isinstance(layout, RecordLayout):
        assert isinstance(ctype, RecordType)
        for fname, ftype in ctype.fields:
            sub_init = init.get(fname) if isinstance(init, dict) else None
            yield from _init_cells(layout.field(fname), ftype, sub_init)


def _flatten_scalars(init):
    if isinstance(init, list):
        for item in init:
            yield from _flatten_scalars(item)
    elif isinstance(init, dict):
        for item in init.values():
            yield from _flatten_scalars(item)
    else:
        yield init
