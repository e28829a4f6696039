"""Guard transfer functions: abstract test refinement (Sect. 5.4).

``guard(state, c, positive)`` over-approximates the collecting semantics of
a condition: the subset of environments satisfying ``c`` (or ``!c``).
Compound conditions are handled by structural induction, atomic comparisons
by a combination of

* direct interval refinement of l-value operands,
* backward propagation through interval linear forms (each variable of a
  linear constraint is bounded by solving for it with the others
  intervalized),
* octagonal constraint injection for ±1-coefficient constraints over pack
  variables (Sect. 6.2.2),
* decision-tree restriction for boolean tests, feeding the recorded
  numeric refinements back into the intervals (Sect. 6.2.4).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..domains.values import CellValue
from ..frontend import ir as I
from ..frontend.ast_nodes import Location
from ..frontend.c_types import FloatType
from ..memory.cells import CellInfo
from ..numeric import FloatInterval, IntInterval, LinearForm
from .state import AbstractState
from .transfer import Transfer

__all__ = ["GuardEngine"]


class GuardEngine:
    def __init__(self, transfer: Transfer):
        self.tr = transfer
        self.ctx = transfer.ctx

    # -- entry point -----------------------------------------------------------

    def guard(self, state: AbstractState, cond: I.Expr, positive: bool,
              sid: int, loc: Location) -> AbstractState:
        if state.is_bottom:
            return state
        if isinstance(cond, I.Const):
            holds = (cond.value != 0) == positive
            return state if holds else state.to_bottom()
        if isinstance(cond, I.NotOp):
            return self.guard(state, cond.arg, not positive, sid, loc)
        if isinstance(cond, I.BoolOp):
            if (cond.op == "and") == positive:
                # Conjunction: refine sequentially.
                s = self.guard(state, cond.left, positive, sid, loc)
                return self.guard(s, cond.right, positive, sid, loc)
            # Disjunction: join of the two refinements.
            a = self.guard(state, cond.left, positive, sid, loc)
            b = self.guard(state, cond.right, positive, sid, loc)
            return a.join(b)
        if isinstance(cond, I.BinOp) and cond.is_comparison:
            op = cond.op if positive else _negate_cmp(cond.op)
            return self._atomic(state, op, cond.left, cond.right, sid, loc)
        # Scalar truth test: c != 0 (or == 0 for the negative branch).
        return self._truth_test(state, cond, positive, sid, loc)

    # -- truth tests on scalars ----------------------------------------------------

    def _truth_test(self, state: AbstractState, expr: I.Expr, positive: bool,
                    sid: int, loc: Location) -> AbstractState:
        res = self.tr.eval(state, expr, sid, loc)
        state = res.state
        t = Transfer.truth(res.value)
        if t is not None and t != positive:
            return state.to_bottom()
        cell = self._single_cell(state, expr, sid, loc)
        if cell is not None:
            state = self._refine_truth_cell(state, cell, positive, sid, loc)
        return state

    def _refine_truth_cell(self, state: AbstractState, cell: CellInfo,
                           positive: bool, sid: int, loc: Location) -> AbstractState:
        v = state.env.get(cell.cid)
        if v is not None and not cell.volatile and not cell.is_summary:
            itv = v.itv
            if isinstance(itv, IntInterval):
                new = itv.restrict_ne(0) if positive else itv.meet(IntInterval.const(0))
                if new != itv:
                    nv = CellValue(new, v.minus_clock, v.plus_clock)
                    if nv.is_bottom:
                        return state.to_bottom()
                    state = state.set_cell(cell.cid, nv)
            else:
                if not positive:
                    new = itv.meet(FloatInterval.const(0.0))
                    nv = CellValue(new, v.minus_clock, v.plus_clock)
                    if nv.is_bottom:
                        return state.to_bottom()
                    state = state.set_cell(cell.cid, nv)
        # Decision-tree restriction for boolean cells.
        state = self._guard_tree_bool(state, cell, positive)
        return state

    def _guard_tree_bool(self, state: AbstractState, cell: CellInfo,
                         positive: bool) -> AbstractState:
        if not self.ctx.config.enable_decision_trees:
            return state
        for pack_id in self.ctx.bool_packs.packs_of_bool(cell.cid):
            tree = state.dtrees.get(pack_id)
            if tree is None:
                continue
            restricted = tree.guard_bool(cell.cid, positive)
            if restricted.is_bottom:
                return state.to_bottom()
            if restricted is not tree:
                state = state._with(dtrees=state.dtrees.set(pack_id, restricted))
                # Feed the numeric refinement back into the intervals.
                for cid, bound in restricted.numeric_refinement().items():
                    state = state._meet_cell_interval(cid, bound, pack_id,
                                                      kind="tree")
                    if state.is_bottom:
                        return state
        return state

    # -- atomic comparisons -----------------------------------------------------------

    def _atomic(self, state: AbstractState, op: str, left: I.Expr,
                right: I.Expr, sid: int, loc: Location) -> AbstractState:
        lres = self.tr.eval(state, left, sid, loc)
        rres = self.tr.eval(lres.state, right, sid, loc)
        state = rres.state
        if lres.is_bottom or rres.is_bottom:
            return state.to_bottom()
        operand_float = isinstance(_op_type(left, right), FloatType)
        # Unsatisfiability check.
        from .transfer import _compare

        verdict = _compare(op, lres.value, rres.value,
                           _op_type(left, right))
        if verdict is False:
            return state.to_bottom()
        # Boolean-style equality tests drive the decision trees.
        state = self._maybe_bool_equality(state, op, left, right, sid, loc)
        if state.is_bottom:
            return state
        # Direct interval refinement of both operands.
        state = self._refine_operand(state, left, op, rres.value, sid, loc,
                                     swap=False)
        if state.is_bottom:
            return state
        state = self._refine_operand(state, right, _swap_cmp(op), lres.value,
                                     sid, loc, swap=True)
        if state.is_bottom:
            return state
        # Linear-form backward refinement + octagon injection.
        if self.ctx.config.enable_linearization or self.ctx.config.enable_octagons:
            lf, rf = lres.form, rres.form
            if lf is None:
                lf = self._form_of(state, left)
            if rf is None:
                rf = self._form_of(state, right)
            if lf is not None and rf is not None:
                state = self._guard_linear(state, op, lf, rf, sid, loc)
        return state

    def _maybe_bool_equality(self, state: AbstractState, op: str, left: I.Expr,
                             right: I.Expr, sid: int, loc: Location) -> AbstractState:
        """b == 0 / b != 0 / b == 1 style tests restrict decision trees."""
        if op not in ("eq", "ne"):
            return state
        for a, b in ((left, right), (right, left)):
            if isinstance(b, I.Const):
                cell = self._single_cell(state, a, sid, loc)
                if cell is not None:
                    want_true = (b.value != 0) == (op == "eq")
                    state = self._guard_tree_bool(state, cell, want_true)
                    return state
        return state

    def _single_cell(self, state: AbstractState, expr: I.Expr, sid: int,
                     loc: Location) -> Optional[CellInfo]:
        if not isinstance(expr, I.Load):
            return None
        _, cells = self.tr.resolve_lvalue(state, expr.lval, sid, loc)
        if len(cells) == 1 and cells[0][1]:
            return cells[0][0]
        return None

    def _refine_operand(self, state: AbstractState, expr: I.Expr, op: str,
                        other: CellValue, sid: int, loc: Location,
                        swap: bool) -> AbstractState:
        cell = self._single_cell(state, expr, sid, loc)
        if cell is None or cell.volatile or cell.is_summary:
            return state
        v = state.env.get(cell.cid)
        if v is None:
            return state
        new_itv = _refine_interval(v.itv, op, other)
        if new_itv == v.itv:
            return state
        nv = CellValue(new_itv, v.minus_clock, v.plus_clock)
        if nv.is_bottom:
            return state.to_bottom()
        return state.set_cell(cell.cid, nv)

    def _form_of(self, state: AbstractState, expr: I.Expr) -> Optional[LinearForm]:
        """Linear form of an integer expression (for octagon guards over
        integer counters); floats already carry forms from evaluation."""
        if isinstance(expr, I.Const):
            return LinearForm.constant(FloatInterval.const(float(expr.value)))
        if isinstance(expr, I.Load):
            _, cells = self.tr.resolve_lvalue(state, expr.lval, 0, _DUMMY_LOC)
            if len(cells) == 1 and cells[0][1] and not cells[0][0].volatile:
                return LinearForm.var(cells[0][0].cid)
            return None
        if isinstance(expr, I.Cast):
            return self._form_of(state, expr.arg)
        if isinstance(expr, I.UnaryOp) and expr.op == "neg":
            inner = self._form_of(state, expr.arg)
            return inner.neg() if inner is not None else None
        if isinstance(expr, I.BinOp) and expr.op in ("add", "sub"):
            a = self._form_of(state, expr.left)
            b = self._form_of(state, expr.right)
            if a is None or b is None:
                return None
            return a.add(b) if expr.op == "add" else a.sub(b)
        if isinstance(expr, I.BinOp) and expr.op == "mul":
            if isinstance(expr.left, I.Const):
                inner = self._form_of(state, expr.right)
                return inner.scale(FloatInterval.const(float(expr.left.value))) \
                    if inner is not None else None
            if isinstance(expr.right, I.Const):
                inner = self._form_of(state, expr.left)
                return inner.scale(FloatInterval.const(float(expr.right.value))) \
                    if inner is not None else None
        return None

    def _guard_linear(self, state: AbstractState, op: str, lf: LinearForm,
                      rf: LinearForm, sid: int, loc: Location) -> AbstractState:
        """Refine from ``lf op rf`` via the difference form."""
        if op == "ne":
            return state  # no interval information in general
        diff = lf.sub(rf)  # constraint: diff op 0
        if op in ("lt", "le"):
            state = self._apply_upper(state, diff, strict=(op == "lt"), sid=sid,
                                      loc=loc)
        elif op in ("gt", "ge"):
            state = self._apply_upper(state, diff.neg(), strict=(op == "gt"),
                                      sid=sid, loc=loc)
        elif op == "eq":
            state = self._apply_upper(state, diff, strict=False, sid=sid, loc=loc)
            if not state.is_bottom:
                state = self._apply_upper(state, diff.neg(), strict=False,
                                          sid=sid, loc=loc)
        return state

    def _apply_upper(self, state: AbstractState, form: LinearForm, strict: bool,
                     sid: int, loc: Location) -> AbstractState:
        """Constraint: form <= 0 (or < 0)."""
        lookup = self.tr.lookup_form_var(state)
        # Backward interval refinement: solve for each unit variable.
        for cid, coeff in form.coeffs:
            if not coeff.is_const or coeff.lo == 0.0:
                continue
            cell = self.ctx.table.cell(cid)
            if cell.volatile or cell.is_summary:
                continue
            rest = LinearForm(tuple((v, c) for v, c in form.coeffs if v != cid),
                              form.const)
            rest_iv = rest.evaluate(lookup)
            if rest_iv.is_empty:
                continue
            # coeff * v + rest <= 0  =>  v <= -rest/coeff (coeff > 0).
            c = coeff.lo
            bound_iv = rest_iv.neg().div(FloatInterval.const(c))
            v = state.env.get(cid)
            if v is None:
                continue
            if c > 0:
                new_itv = _upper_bound(v.itv, bound_iv.hi, strict)
            else:
                new_itv = _lower_bound(v.itv, bound_iv.lo, strict)
            if new_itv == v.itv:
                continue
            nv = CellValue(new_itv, v.minus_clock, v.plus_clock)
            if nv.is_bottom:
                return state.to_bottom()
            state = state.set_cell(cid, nv)
        # Octagon injection: need all-unit coefficients.
        if self.ctx.config.enable_octagons:
            state = self._inject_octagon(state, form, sid, loc)
        return state

    def _inject_octagon(self, state: AbstractState, form: LinearForm,
                        sid: int, loc: Location) -> AbstractState:
        signs: Dict[int, int] = {}
        for cid, coeff in form.coeffs:
            if coeff.is_const and coeff.lo in (1.0, -1.0):
                signs[cid] = int(coeff.lo)
            else:
                return state  # non-unit coefficient: not octagonal
        if not signs or len(signs) > 2:
            # Try pack-local projections: intervalize out-of-pack terms.
            pass
        involved = list(signs)
        lookup = self.tr.lookup_form_var(state)
        pack_ids = set()
        for cid in involved:
            pack_ids.update(self.ctx.oct_packs.packs_of_cell(cid))
        for pack_id in pack_ids:
            pack = self.ctx.oct_packs.pack(pack_id)
            index = pack.index
            in_pack = {cid: s for cid, s in signs.items() if cid in index}
            if not in_pack or len(in_pack) > 2:
                continue
            # Intervalize out-of-pack variables into the bound.
            residue = form.const
            for cid, coeff in form.coeffs:
                if cid not in in_pack:
                    residue = residue.add(coeff.mul(lookup(cid)))
            if residue.is_empty or residue.lo == -math.inf:
                continue
            bound = -residue.lo  # sum_in_pack <= -residue.lo
            oct_ = state.octagons.get(pack_id)
            if oct_ is None:
                continue
            coeffs = {index[cid]: s for cid, s in in_pack.items()}
            seed = {index[cid]: lookup(cid) for cid in in_pack}
            refined = oct_.guard_upper(coeffs, bound, seed_bounds=seed)
            if refined.is_bottom:
                return state.to_bottom()
            if refined is not oct_:
                state = state._with(octagons=state.octagons.set(pack_id, refined))
        return state


_DUMMY_LOC = Location("<guard>", 0, 0)


def _negate_cmp(op: str) -> str:
    return {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
            "eq": "ne", "ne": "eq"}[op]


def _swap_cmp(op: str) -> str:
    return {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le",
            "eq": "eq", "ne": "ne"}[op]


def _op_type(left: I.Expr, right: I.Expr):
    from .transfer import _expr_ctype

    lt = _expr_ctype(left)
    rt = _expr_ctype(right)
    if isinstance(lt, FloatType):
        return lt
    if isinstance(rt, FloatType):
        return rt
    return lt


def _refine_interval(itv, op: str, other: CellValue):
    """Refine ``itv`` knowing ``itv op other`` holds."""
    if isinstance(itv, IntInterval):
        o = other.itv if isinstance(other.itv, IntInterval) else \
            IntInterval.from_float_interval(other.float_range())
        if o.is_empty:
            return itv
        if op == "lt":
            return itv.restrict_lt(o.hi) if o.hi is not None else itv
        if op == "le":
            return itv.restrict_le(o.hi) if o.hi is not None else itv
        if op == "gt":
            return itv.restrict_gt(o.lo) if o.lo is not None else itv
        if op == "ge":
            return itv.restrict_ge(o.lo) if o.lo is not None else itv
        if op == "eq":
            return itv.meet(o)
        if op == "ne":
            return itv.restrict_ne(o.lo) if o.is_const else itv
        return itv
    o = other.float_range()
    if o.is_empty:
        return itv
    if op == "lt":
        return itv.restrict_lt(o.hi)
    if op == "le":
        return itv.restrict_le(o.hi)
    if op == "gt":
        return itv.restrict_gt(o.lo)
    if op == "ge":
        return itv.restrict_ge(o.lo)
    if op == "eq":
        return itv.meet(o)
    return itv  # ne: no refinement on floats


def _upper_bound(itv, hi: float, strict: bool):
    if isinstance(itv, IntInterval):
        if math.isinf(hi):
            return itv
        bound = math.floor(hi)
        if strict and bound == hi:
            bound -= 1
        return itv.restrict_le(bound)
    if strict:
        return itv.restrict_lt(hi)
    return itv.restrict_le(hi)


def _lower_bound(itv, lo: float, strict: bool):
    if isinstance(itv, IntInterval):
        if math.isinf(lo):
            return itv
        bound = math.ceil(lo)
        if strict and bound == lo:
            bound += 1
        return itv.restrict_ge(bound)
    if strict:
        return itv.restrict_gt(lo)
    return itv.restrict_ge(lo)
