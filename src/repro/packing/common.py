"""Shared syntactic helpers for the packing strategies (Sect. 7.2)."""

from __future__ import annotations

from typing import List, Optional, Set

from ..frontend import ir as I
from ..memory.cells import (
    AtomicLayout, CellInfo, CellTable, ExpandedArrayLayout, RecordLayout,
)

__all__ = ["static_cell", "linear_cells", "expr_cells", "is_bool_cell"]


def static_cell(lv: I.LValue, table: CellTable) -> Optional[CellInfo]:
    """Resolve an l-value to a single atomic cell when statically possible.

    Returns None for summary cells, dynamic indices and pointer derefs
    (those cannot participate in relational packs).
    """
    layout = _static_layout(lv, table)
    if isinstance(layout, AtomicLayout):
        return layout.cell
    return None


def _static_layout(lv: I.LValue, table: CellTable):
    if isinstance(lv, I.LVar):
        if not table.has_var(lv.var.uid):
            return None
        return table.layout(lv.var.uid)
    if isinstance(lv, I.LField):
        base = _static_layout(lv.base, table)
        if isinstance(base, RecordLayout):
            try:
                return base.field(lv.fieldname)
            except KeyError:
                return None
        return None
    if isinstance(lv, I.LIndex):
        base = _static_layout(lv.base, table)
        if isinstance(base, ExpandedArrayLayout) and isinstance(lv.index, I.Const):
            idx = int(lv.index.value)
            if 0 <= idx < base.length:
                return base.elements[idx]
        return None
    return None  # LDeref: resolved only at call time


def linear_cells(expr: I.Expr, table: CellTable) -> Optional[List[CellInfo]]:
    """Cells of a *syntactically linear* expression, or None when the
    expression is not linear (Sect. 7.2.1 considers only linear
    assignments and tests when building octagon packs)."""
    cells: List[CellInfo] = []
    if _collect_linear(expr, table, cells):
        return cells
    return None


def _collect_linear(expr: I.Expr, table: CellTable, out: List[CellInfo]) -> bool:
    if isinstance(expr, I.Const):
        return True
    if isinstance(expr, I.Load):
        cell = static_cell(expr.lval, table)
        if cell is None:
            return False
        out.append(cell)
        return True
    if isinstance(expr, I.Cast):
        return _collect_linear(expr.arg, table, out)
    if isinstance(expr, I.UnaryOp) and expr.op == "neg":
        return _collect_linear(expr.arg, table, out)
    if isinstance(expr, I.BinOp):
        if expr.op in ("add", "sub"):
            return (_collect_linear(expr.left, table, out)
                    and _collect_linear(expr.right, table, out))
        if expr.op == "mul":
            if isinstance(expr.left, I.Const):
                return _collect_linear(expr.right, table, out)
            if isinstance(expr.right, I.Const):
                return _collect_linear(expr.left, table, out)
            return False
        if expr.op == "div" and isinstance(expr.right, I.Const):
            return _collect_linear(expr.left, table, out)
        if expr.is_comparison:
            return (_collect_linear(expr.left, table, out)
                    and _collect_linear(expr.right, table, out))
    return False


def expr_cells(expr: I.Expr, table: CellTable) -> Set[int]:
    """All statically resolvable cells read by an expression."""
    out: Set[int] = set()

    def go(e: I.Expr) -> None:
        if isinstance(e, I.Load):
            cell = static_cell(e.lval, table)
            if cell is not None:
                out.add(cell.cid)
            if isinstance(e.lval, I.LIndex):
                go(e.lval.index)
        elif isinstance(e, I.UnaryOp):
            go(e.arg)
        elif isinstance(e, I.BinOp):
            go(e.left)
            go(e.right)
        elif isinstance(e, I.BoolOp):
            go(e.left)
            go(e.right)
        elif isinstance(e, I.NotOp):
            go(e.arg)
        elif isinstance(e, I.Cast):
            go(e.arg)

    go(expr)
    return out


def is_bool_cell(cell: CellInfo) -> bool:
    """Heuristic: _Bool cells and 8-bit integers are boolean-like.

    The family's generated code stores test results into variables declared
    with a boolean typedef (lowered to _Bool or unsigned char).
    """
    from ..frontend.c_types import IntType

    t = cell.ctype
    return isinstance(t, IntType) and t.bits == 8
