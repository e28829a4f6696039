"""Abstract transfer functions for IR expressions (Sect. 5.4, 6.3).

Expression evaluation computes, for every IR expression:

* a :class:`~repro.domains.values.CellValue` over-approximating the set of
  concrete results, with concrete float rounding applied per operation
  (``round_to``) and integer overflows wiped to the type range after an
  alarm is raised (Sect. 5.3);
* optionally an interval linear form (Sect. 6.3) over cell ids, sound over
  the reals with the concrete rounding absorbed into interval error terms —
  used both to refine the interval result (the ``X - 0.2*X`` precision fix)
  and as the input language of the relational domains;
* possible alarms, reported to the collector only in checking mode.

Reading a cell triggers the relational reduction of the state (octagon and
decision-tree bounds tighten the interval on demand), so evaluation
threads the state through and returns a possibly-refined state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..domains.values import CellValue, const_value, top_value
from ..frontend import ir as I
from ..frontend.ast_nodes import Location
from ..frontend.c_types import FLOAT, INT, EnumType, FloatType, IntType
from ..memory.cells import (
    AtomicLayout, CellInfo, CellLayout, ExpandedArrayLayout, RecordLayout,
    ShrunkArrayLayout,
)
from ..numeric import FloatInterval, IntInterval, LinearForm
from .alarms import AlarmCollector, AlarmKind
from .state import AbstractState, AnalysisContext

__all__ = ["Transfer", "EvalResult"]


@dataclass
class EvalResult:
    value: CellValue
    form: Optional[LinearForm]
    state: AbstractState

    @property
    def is_bottom(self) -> bool:
        return self.value.is_bottom


class Transfer:
    """Expression evaluation; one instance per analysis run."""

    def __init__(self, ctx: AnalysisContext, alarms: AlarmCollector):
        self.ctx = ctx
        self.alarms = alarms
        # Global var uid -> source name (volatile input ranges are keyed
        # by source name); the first global with a uid names it.
        self.source_names: Dict[int, str] = {}
        for v in ctx.prog.globals:
            self.source_names.setdefault(v.uid, v.name)
        # Call-by-reference bindings of the current call stack:
        # param var uid -> actual LValue (grows/shrinks with inlined calls).
        self.bindings: List[Dict[int, I.LValue]] = [{}]

    # -- deref resolution -------------------------------------------------------

    def resolve_deref(self, var: I.Var) -> I.LValue:
        for frame in reversed(self.bindings):
            if var.uid in frame:
                return frame[var.uid]
        raise KeyError(f"unbound by-reference parameter {var.name}")

    # -- l-value resolution ------------------------------------------------------

    def resolve_lvalue(self, state: AbstractState, lv: I.LValue, sid: int,
                       loc: Location) -> Tuple[AbstractState, List[Tuple[CellInfo, bool]]]:
        """Resolve to [(cell, exact)] pairs; ``exact`` allows strong update."""
        state, layouts = self._resolve_layouts(state, lv, sid, loc)
        cells: List[Tuple[CellInfo, bool]] = []
        for layout, exact in layouts:
            if isinstance(layout, AtomicLayout):
                cells.append((layout.cell, exact))
            elif isinstance(layout, ShrunkArrayLayout):
                cells.append((layout.cell, False))
            else:  # pragma: no cover - scalar lvalues only reach cells
                raise TypeError(f"non-scalar l-value resolution: {layout}")
        return state, cells

    def _resolve_layouts(self, state: AbstractState, lv: I.LValue, sid: int,
                         loc: Location) -> Tuple[AbstractState, List[Tuple[CellLayout, bool]]]:
        if isinstance(lv, I.LVar):
            if not self.ctx.table.has_var(lv.var.uid):
                self.ctx.table.add_var(lv.var)
            return state, [(self.ctx.table.layout(lv.var.uid), True)]
        if isinstance(lv, I.LDeref):
            actual = self.resolve_deref(lv.var)
            return self._resolve_layouts(state, actual, sid, loc)
        if isinstance(lv, I.LField):
            state, bases = self._resolve_layouts(state, lv.base, sid, loc)
            out: List[Tuple[CellLayout, bool]] = []
            for base, exact in bases:
                if isinstance(base, RecordLayout):
                    out.append((base.field(lv.fieldname), exact))
                elif isinstance(base, ShrunkArrayLayout):
                    out.append((base, False))  # summarized record array
            return state, out
        if isinstance(lv, I.LIndex):
            state, bases = self._resolve_layouts(state, lv.base, sid, loc)
            res = self.eval(state, lv.index, sid, loc)
            state = res.state
            idx = res.value.itv
            if not isinstance(idx, IntInterval):
                idx = IntInterval.from_float_interval(res.value.float_range())
            out = []
            for base, exact in bases:
                if isinstance(base, ExpandedArrayLayout):
                    legal = idx.meet(IntInterval.of(0, base.length - 1))
                    if not idx.includes(legal) or not legal.includes(idx):
                        if legal != idx:
                            self.alarms.report(
                                AlarmKind.ARRAY_OOB, sid, loc,
                                f"index {idx} outside [0, {base.length - 1}]")
                    if legal.is_empty:
                        continue
                    if legal.is_const and exact:
                        out.append((base.elements[legal.lo], True))
                    else:
                        for i in range(legal.lo, legal.hi + 1):
                            out.append((base.elements[i], False))
                elif isinstance(base, ShrunkArrayLayout):
                    legal = idx.meet(IntInterval.of(0, base.length - 1))
                    if legal != idx:
                        self.alarms.report(
                            AlarmKind.ARRAY_OOB, sid, loc,
                            f"index {idx} outside [0, {base.length - 1}]")
                    if not legal.is_empty:
                        out.append((base, False))
            return state, out
        raise TypeError(f"unknown l-value {lv!r}")  # pragma: no cover

    # -- cell reads -----------------------------------------------------------------

    def read_cell(self, state: AbstractState, cell: CellInfo) -> Tuple[AbstractState, CellValue]:
        if cell.volatile:
            rng = self.ctx_volatile_range(cell)
            return state, rng
        state = state.reduce_cell_from_relational(cell.cid)
        v = state.env.get(cell.cid)
        if v is None:
            v = top_value(cell.ctype)
        if self.ctx.config.enable_clock:
            v = v.reduce_with_clock(state.env.clock)
        return state, v

    def ctx_volatile_range(self, cell: CellInfo) -> CellValue:
        name = self.source_names.get(cell.var_uid, cell.name)
        rng = self.ctx.config.input_ranges.get(name)
        if rng is None:
            return top_value(cell.ctype)
        lo, hi = rng
        if isinstance(cell.ctype, FloatType):
            return CellValue(FloatInterval.of(float(lo), float(hi)))
        return CellValue(IntInterval.of(int(math.ceil(lo)), int(math.floor(hi))))

    # -- expression evaluation ---------------------------------------------------------

    def eval(self, state: AbstractState, expr: I.Expr, sid: int,
             loc: Location) -> EvalResult:
        if isinstance(expr, I.Const):
            v = const_value(expr.ctype, expr.value)
            form = None
            if isinstance(expr.ctype, FloatType):
                form = LinearForm.constant(FloatInterval.const(float(expr.value)))
            return EvalResult(v, form, state)
        if isinstance(expr, I.Load):
            state, cells = self.resolve_lvalue(state, expr.lval, sid, loc)
            if not cells:
                return EvalResult(CellValue(IntInterval.empty()), None, state)
            acc: Optional[CellValue] = None
            for cell, _ in cells:
                state, v = self.read_cell(state, cell)
                acc = v if acc is None else acc.join(v)
            form = None
            if len(cells) == 1 and not cells[0][0].volatile:
                cell = cells[0][0]
                # Both float and int cells may appear in (real-field) forms.
                form = LinearForm.var(cell.cid)
            return EvalResult(acc, form, state)
        if isinstance(expr, I.UnaryOp):
            return self._eval_unary(state, expr, sid, loc)
        if isinstance(expr, I.BinOp):
            return self._eval_binop(state, expr, sid, loc)
        if isinstance(expr, I.BoolOp):
            return self._eval_boolop(state, expr, sid, loc)
        if isinstance(expr, I.NotOp):
            inner = self.eval(state, expr.arg, sid, loc)
            t = self.truth(inner.value)
            if t is True:
                v = const_value(INT, 0)
            elif t is False:
                v = const_value(INT, 1)
            else:
                v = CellValue(IntInterval.of(0, 1))
            return EvalResult(v, None, inner.state)
        if isinstance(expr, I.Cast):
            return self._eval_cast(state, expr, sid, loc)
        raise TypeError(f"unknown expression {expr!r}")  # pragma: no cover

    def lookup_form_var(self, state: AbstractState):
        return lambda cid: state.cell_float_range(cid)

    # -- unary ---------------------------------------------------------------------------

    def _eval_unary(self, state: AbstractState, expr: I.UnaryOp, sid: int,
                    loc: Location) -> EvalResult:
        inner = self.eval(state, expr.arg, sid, loc)
        state = inner.state
        v = inner.value
        if v.is_bottom:
            return EvalResult(v, None, state)
        if expr.op == "neg":
            if isinstance(expr.ctype, FloatType):
                iv = v.float_range().neg()
                form = inner.form.neg() if inner.form is not None else None
                return self._float_result(state, iv, form, expr.ctype, sid, loc,
                                          rounded=False)
            out = v.itv.neg()
            out, _ = self._clamp_int(out, expr.ctype, sid, loc)
            return EvalResult(CellValue(out), None, state)
        if expr.op == "bnot":
            assert isinstance(expr.ctype, IntType)
            # ~x = -x - 1 on two's complement.
            out = v.itv.neg().sub(IntInterval.const(1))
            out, _ = self._clamp_int(out, expr.ctype, sid, loc)
            return EvalResult(CellValue(out), None, state)
        if expr.op == "fabs":
            iv = v.float_range().abs()
            return self._float_result(state, iv, None, expr.ctype, sid, loc,
                                      rounded=False)
        if expr.op == "sqrt":
            fr = v.float_range()
            if fr.lo < 0.0:
                self.alarms.report(AlarmKind.INVALID_OP, sid, loc,
                                   f"sqrt of possibly negative value {fr}")
            iv = fr.sqrt()
            return self._float_result(state, iv, None, expr.ctype, sid, loc,
                                      rounded=True)
        raise TypeError(f"unknown unary op {expr.op}")  # pragma: no cover

    # -- binary --------------------------------------------------------------------------

    def _eval_binop(self, state: AbstractState, expr: I.BinOp, sid: int,
                    loc: Location) -> EvalResult:
        left = self.eval(state, expr.left, sid, loc)
        right = self.eval(left.state, expr.right, sid, loc)
        state = right.state
        lv, rv = left.value, right.value
        if lv.is_bottom or rv.is_bottom:
            return EvalResult(CellValue(IntInterval.empty()), None, state)
        if expr.is_comparison:
            return self._eval_comparison(state, expr, lv, rv)
        if isinstance(expr.ctype, FloatType):
            return self._eval_float_arith(state, expr, left, right, sid, loc)
        return self._eval_int_arith(state, expr, lv, rv, sid, loc)

    def _eval_comparison(self, state: AbstractState, expr: I.BinOp,
                         lv: CellValue, rv: CellValue) -> EvalResult:
        result = _compare(expr.op, lv, rv, expr.operand_type)
        if result is True:
            v = const_value(INT, 1)
        elif result is False:
            v = const_value(INT, 0)
        else:
            v = CellValue(IntInterval.of(0, 1))
        return EvalResult(v, None, state)

    def _eval_int_arith(self, state: AbstractState, expr: I.BinOp,
                        lv: CellValue, rv: CellValue, sid: int,
                        loc: Location) -> EvalResult:
        a, b = lv.itv, rv.itv
        if not isinstance(a, IntInterval):
            a = IntInterval.from_float_interval(lv.float_range())
        if not isinstance(b, IntInterval):
            b = IntInterval.from_float_interval(rv.float_range())
        op = expr.op
        if op == "add":
            out = a.add(b)
        elif op == "sub":
            out = a.sub(b)
        elif op == "mul":
            out = a.mul(b)
        elif op == "div":
            if b.contains_zero():
                self.alarms.report(AlarmKind.DIV_BY_ZERO, sid, loc,
                                   f"integer division by zero, divisor in {b}")
            out = a.div_trunc(b)
        elif op == "mod":
            if b.contains_zero():
                self.alarms.report(AlarmKind.MOD_BY_ZERO, sid, loc,
                                   f"modulo by zero, divisor in {b}")
            out = a.mod_trunc(b)
        elif op in ("shl", "shr"):
            out = self._eval_shift(op, a, b, expr.ctype, sid, loc)
        elif op in ("band", "bor", "bxor"):
            out = _bitwise(op, a, b, expr.ctype)
        else:  # pragma: no cover
            raise TypeError(f"unknown int op {op}")
        out, _ = self._clamp_int(out, expr.ctype, sid, loc)
        return EvalResult(CellValue(out), None, state)

    def _eval_shift(self, op: str, a: IntInterval, b: IntInterval,
                    ctype: IntType, sid: int, loc: Location) -> IntInterval:
        bits = ctype.bits
        legal = b.meet(IntInterval.of(0, bits - 1))
        if legal != b:
            self.alarms.report(AlarmKind.SHIFT_RANGE, sid, loc,
                               f"shift amount {b} outside [0, {bits - 1}]")
        if legal.is_empty:
            return IntInterval.empty()
        if legal.is_const:
            k = legal.lo
            if op == "shl":
                return a.mul(IntInterval.const(1 << k))
            # Arithmetic shift right on the value range.
            lo = None if a.lo is None else a.lo >> k
            hi = None if a.hi is None else a.hi >> k
            return IntInterval.of(lo, hi)
        # Variable shift: bound by the extremes.
        if op == "shl":
            return a.mul(IntInterval.of(1 << legal.lo, 1 << legal.hi))
        lo_candidates = []
        hi_candidates = []
        for k in (legal.lo, legal.hi):
            lo_candidates.append(None if a.lo is None else a.lo >> k)
            hi_candidates.append(None if a.hi is None else a.hi >> k)
        lo = None if None in lo_candidates else min(lo_candidates)
        hi = None if None in hi_candidates else max(hi_candidates)
        return IntInterval.of(lo, hi)

    def _eval_float_arith(self, state: AbstractState, expr: I.BinOp,
                          left: EvalResult, right: EvalResult, sid: int,
                          loc: Location) -> EvalResult:
        fmt = expr.ctype.fmt
        a = left.value.float_range()
        b = right.value.float_range()
        op = expr.op
        form: Optional[LinearForm] = None
        lookup = self.lookup_form_var(state)
        lin_on = self.ctx.config.enable_linearization
        if op == "add":
            iv = a.add(b)
            if lin_on and left.form is not None and right.form is not None:
                form = left.form.add(right.form)
        elif op == "sub":
            iv = a.sub(b)
            if lin_on and left.form is not None and right.form is not None:
                form = left.form.sub(right.form)
        elif op == "mul":
            iv = a.mul(b)
            if lin_on and left.form is not None and right.form is not None:
                if left.form.is_constant:
                    form = right.form.scale(left.form.const)
                elif right.form.is_constant:
                    form = left.form.scale(right.form.const)
                else:
                    # Non-linear: intervalize the smaller-magnitude side.
                    form = left.form.scale(right.form.evaluate(lookup))
        elif op == "div":
            if b.contains_zero():
                self.alarms.report(AlarmKind.DIV_BY_ZERO, sid, loc,
                                   f"float division by zero, divisor in {b}")
            iv = a.div(b)
            if lin_on and left.form is not None and right.form is not None:
                denom = (right.form.const if right.form.is_constant
                         else right.form.evaluate(lookup))
                if not denom.contains_zero() and not denom.is_empty:
                    recip = FloatInterval.const(1.0).div(denom)
                    form = left.form.scale(recip)
        else:  # pragma: no cover
            raise TypeError(f"unknown float op {op}")
        if form is not None:
            form = form.with_float_rounding(fmt, lookup)
        return self._float_result(state, iv, form, expr.ctype, sid, loc,
                                  rounded=True)

    def _eval_boolop(self, state: AbstractState, expr: I.BoolOp, sid: int,
                     loc: Location) -> EvalResult:
        left = self.eval(state, expr.left, sid, loc)
        right = self.eval(left.state, expr.right, sid, loc)
        state = right.state
        lt = self.truth(left.value)
        rt = self.truth(right.value)
        if expr.op == "and":
            if lt is False or rt is False:
                v = const_value(INT, 0)
            elif lt is True and rt is True:
                v = const_value(INT, 1)
            else:
                v = CellValue(IntInterval.of(0, 1))
        else:
            if lt is True or rt is True:
                v = const_value(INT, 1)
            elif lt is False and rt is False:
                v = const_value(INT, 0)
            else:
                v = CellValue(IntInterval.of(0, 1))
        return EvalResult(v, None, state)

    def _eval_cast(self, state: AbstractState, expr: I.Cast, sid: int,
                   loc: Location) -> EvalResult:
        inner = self.eval(state, expr.arg, sid, loc)
        state = inner.state
        v = inner.value
        if v.is_bottom:
            return EvalResult(v, None, state)
        src = _expr_ctype(expr.arg)
        dst = expr.ctype
        if isinstance(dst, FloatType):
            iv = v.float_range()
            form = inner.form
            if isinstance(src, FloatType) and src.fmt.precision <= dst.fmt.precision:
                # Widening float cast is exact.
                return EvalResult(CellValue(iv), form, state)
            lookup = self.lookup_form_var(state)
            if form is not None:
                form = form.with_float_rounding(dst.fmt, lookup)
            return self._float_result(state, iv, form, dst, sid, loc, rounded=True)
        # Integer destination.
        assert isinstance(dst, (IntType, EnumType))
        if isinstance(src, FloatType):
            as_int = IntInterval.from_float_interval(v.float_range())
        else:
            as_int = v.itv if isinstance(v.itv, IntInterval) else \
                IntInterval.from_float_interval(v.float_range())
        rng = IntInterval.of(dst.min_value, dst.max_value)
        clipped = as_int.meet(rng)
        if clipped != as_int:
            self.alarms.report(
                AlarmKind.CAST_RANGE, sid, loc,
                f"conversion of {as_int} to {dst} may overflow")
        return EvalResult(CellValue(clipped), None, state)

    # -- helpers -----------------------------------------------------------------------

    def _float_result(self, state: AbstractState, iv: FloatInterval,
                      form: Optional[LinearForm], ctype: FloatType, sid: int,
                      loc: Location, rounded: bool) -> EvalResult:
        """Apply concrete rounding + overflow clamp; refine with the form."""
        if rounded:
            iv, may_overflow = iv.round_to(ctype.fmt)
            if may_overflow:
                self.alarms.report(AlarmKind.FLOAT_OVERFLOW, sid, loc,
                                   f"float result may overflow {ctype}")
        if form is not None:
            refined = form.evaluate(self.lookup_form_var(state))
            # The form is sound over the same concrete semantics; meet.
            met = iv.meet(refined)
            if not met.is_empty:
                iv = met
            # Octagonal refinement of ±x∓y-shaped forms (Sect. 6.2.2).
            oct_bound, pack_ids = state.octagon_eval(form)
            if not oct_bound.is_top:
                met = iv.meet(oct_bound)
                if not met.is_empty and met != iv:
                    iv = met
                    for pack_id in pack_ids:
                        state._mark_useful(pack_id, "oct")
        return EvalResult(CellValue(iv), form, state)

    def _clamp_int(self, out: IntInterval, ctype, sid: int,
                   loc: Location) -> Tuple[IntInterval, bool]:
        """Overflow check + wipe-out to the type range (Sect. 5.3)."""
        if isinstance(ctype, EnumType):
            ctype = INT
        rng = IntInterval.of(ctype.min_value, ctype.max_value)
        clipped = out.meet(rng)
        overflowed = clipped != out
        if overflowed:
            self.alarms.report(
                AlarmKind.INT_OVERFLOW, sid, loc,
                f"{ctype} arithmetic may overflow: result in {out}")
        return clipped, overflowed

    @staticmethod
    def truth(v: CellValue) -> Optional[bool]:
        """Definite truth value of a scalar abstract value, if any."""
        if v.is_bottom:
            return None
        itv = v.itv
        if isinstance(itv, IntInterval):
            if not itv.contains_zero():
                return True
            if itv.is_const:
                return False
            return None
        if not itv.contains(0.0):
            return True
        if itv.is_const:
            return False
        return None


def _compare(op: str, lv: CellValue, rv: CellValue, operand_type) -> Optional[bool]:
    """Three-valued comparison over abstract values."""
    if isinstance(operand_type, FloatType):
        a, b = lv.float_range(), rv.float_range()
        lo_a, hi_a, lo_b, hi_b = a.lo, a.hi, b.lo, b.hi
    else:
        ai = lv.itv if isinstance(lv.itv, IntInterval) else \
            IntInterval.from_float_interval(lv.float_range())
        bi = rv.itv if isinstance(rv.itv, IntInterval) else \
            IntInterval.from_float_interval(rv.float_range())
        lo_a = -math.inf if ai.lo is None else ai.lo
        hi_a = math.inf if ai.hi is None else ai.hi
        lo_b = -math.inf if bi.lo is None else bi.lo
        hi_b = math.inf if bi.hi is None else bi.hi
    if op == "lt":
        if hi_a < lo_b:
            return True
        if lo_a >= hi_b:
            return False
        return None
    if op == "le":
        if hi_a <= lo_b:
            return True
        if lo_a > hi_b:
            return False
        return None
    if op == "gt":
        return _compare("lt", rv, lv, operand_type)
    if op == "ge":
        return _compare("le", rv, lv, operand_type)
    if op == "eq":
        if lo_a == hi_a == lo_b == hi_b:
            return True
        if hi_a < lo_b or lo_a > hi_b:
            return False
        return None
    if op == "ne":
        r = _compare("eq", lv, rv, operand_type)
        return None if r is None else not r
    raise TypeError(f"unknown comparison {op}")  # pragma: no cover


def _bitwise(op: str, a: IntInterval, b: IntInterval, ctype: IntType) -> IntInterval:
    """Coarse but sound bitwise transfer functions."""
    if a.is_empty or b.is_empty:
        return IntInterval.empty()
    # Constant case is exact.
    if a.is_const and b.is_const:
        x, y = a.lo, b.lo
        if op == "band":
            return IntInterval.const(x & y)
        if op == "bor":
            return IntInterval.const(x | y)
        return IntInterval.const(x ^ y)
    nonneg = (a.lo is not None and a.lo >= 0 and b.lo is not None and b.lo >= 0)
    if nonneg and a.hi is not None and b.hi is not None:
        if op == "band":
            return IntInterval.of(0, min(a.hi, b.hi))
        # |x op y| < 2^(bits of max operand)
        bound = 1
        while bound <= max(a.hi, b.hi):
            bound <<= 1
        return IntInterval.of(0, bound - 1)
    # Fall back to the type range.
    return IntInterval.of(ctype.min_value, ctype.max_value)


def _expr_ctype(e: I.Expr):
    if isinstance(e, I.Const):
        return e.ctype
    if isinstance(e, I.Load):
        return e.lval.ctype
    return e.ctype
