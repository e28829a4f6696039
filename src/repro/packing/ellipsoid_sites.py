"""Detection of second-order filter sites for the ellipsoid domain.

The code shape of Sect. 6.2.3 (after lowering) is the statement triple::

    T := a*X - b*Y + t;   (rotate)
    Y := X;               (delay shift)
    X := T;               (commit)

with float constants ``0 < b < 1`` and ``a^2 - 4b < 0``.  "We looked
manually for such an invariant on typical examples, identified the above
generic form ... then designed a generic abstract domain eps(a,b) ... and
finally let the analyzer automatically instantiate the specific analysis to
the code (in particular to parts that may not have been inspected)."  This
module is that automatic instantiation: a syntactic scan of the lowered IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..frontend import ir as I
from ..frontend.c_types import FloatType
from ..memory.cells import CellTable
from .common import static_cell

__all__ = ["FilterSite", "FilterSites", "find_filter_sites"]


@dataclass(frozen=True)
class FilterSite:
    site_id: int
    a: float
    b: float
    x_cid: int        # the filter state X
    y_cid: int        # the delayed state Y
    t_cid: int        # the temporary X'
    rotate_sid: int   # sid of T := a*X - b*Y + t
    shift_sid: int    # sid of Y := X
    commit_sid: int   # sid of X := T
    # Terms whose interval sum bounds |t| at rotation time: each is a
    # (coefficient, payload) pair where the payload is either an IR
    # expression or an int cell id (evaluated from the environment).
    t_terms: Tuple[Tuple[float, object], ...]
    fmt_name: str = "binary32"

    @property
    def member_sids(self) -> Tuple[int, int, int]:
        return (self.rotate_sid, self.shift_sid, self.commit_sid)


class FilterSites:
    def __init__(self, sites: Sequence[FilterSite]):
        self.sites: List[FilterSite] = list(sites)
        self.by_sid: Dict[int, FilterSite] = {}
        self.member_sids: Set[int] = set()
        self.by_written_cell: Dict[int, Tuple[int, ...]] = {}
        by_cell: Dict[int, List[int]] = {}
        for s in self.sites:
            self.by_sid[s.rotate_sid] = s
            self.by_sid[s.commit_sid] = s
            self.member_sids.update(s.member_sids)
            for cid in (s.x_cid, s.y_cid):
                by_cell.setdefault(cid, []).append(s.site_id)
        self.by_written_cell = {c: tuple(v) for c, v in by_cell.items()}
        self._by_id = {s.site_id: s for s in self.sites}

    def site(self, site_id: int) -> FilterSite:
        return self._by_id[site_id]

    def sites_writing(self, cid: int) -> Tuple[int, ...]:
        return self.by_written_cell.get(cid, ())

    def __len__(self) -> int:
        return len(self.sites)


def find_filter_sites(prog: I.IRProgram, table: CellTable) -> FilterSites:
    sites: List[FilterSite] = []
    counter = [0]

    def visit(stmts: Sequence[I.Stmt]) -> None:
        for idx, s in enumerate(stmts):
            if isinstance(s, I.SIf):
                visit(s.then)
                visit(s.other)
            elif isinstance(s, I.SWhile):
                visit(s.body)
                visit(s.step)
            elif isinstance(s, I.SSwitch):
                for _, body in s.cases:
                    visit(body)
            if not isinstance(s, I.SAssign):
                continue
            site = _match_triple(stmts, idx, table, counter)
            if site is not None:
                sites.append(site)

    for fn in prog.functions.values():
        if fn.body is not None:
            visit(fn.body)
    return FilterSites(sites)


def _match_triple(stmts: Sequence[I.Stmt], idx: int, table: CellTable,
                  counter) -> Optional[FilterSite]:
    if idx + 2 >= len(stmts):
        return None
    s1, s2, s3 = stmts[idx], stmts[idx + 1], stmts[idx + 2]
    if not (isinstance(s1, I.SAssign) and isinstance(s2, I.SAssign)
            and isinstance(s3, I.SAssign)):
        return None
    t_cell = static_cell(s1.target, table)
    y_cell = static_cell(s2.target, table)
    x_cell = static_cell(s3.target, table)
    if t_cell is None or y_cell is None or x_cell is None:
        return None
    if not (t_cell.is_float and y_cell.is_float and x_cell.is_float):
        return None
    # s2 must be Y := X and s3 must be X := T.
    if not _is_copy_of(s2.value, x_cell, table):
        return None
    if not _is_copy_of(s3.value, t_cell, table):
        return None
    if len({t_cell.cid, y_cell.cid, x_cell.cid}) != 3:
        return None
    decomp = _decompose_affine(s1.value, table)
    if decomp is None:
        return None
    coeffs, t_terms = decomp
    a = coeffs.get(x_cell.cid)
    minus_b = coeffs.get(y_cell.cid)
    if a is None or minus_b is None:
        return None
    b = -minus_b
    if not (0.0 < b < 1.0 and a * a - 4.0 * b < 0.0):
        return None
    # Remaining coefficient cells go to the t part as full expressions.
    t_all: List[Tuple[float, object]] = list(t_terms)
    for cid, c in coeffs.items():
        if cid not in (x_cell.cid, y_cell.cid):
            t_all.append((c, cid))  # evaluated from the cell's interval
    fmt = x_cell.ctype.fmt.name if isinstance(x_cell.ctype, FloatType) else "binary32"
    site = FilterSite(
        site_id=counter[0], a=float(a), b=float(b),
        x_cid=x_cell.cid, y_cid=y_cell.cid, t_cid=t_cell.cid,
        rotate_sid=s1.sid, shift_sid=s2.sid, commit_sid=s3.sid,
        t_terms=tuple(t_all), fmt_name=fmt,
    )
    counter[0] += 1
    return site


def _is_copy_of(expr: I.Expr, cell, table: CellTable) -> bool:
    while isinstance(expr, I.Cast):
        expr = expr.arg
    if isinstance(expr, I.Load):
        c = static_cell(expr.lval, table)
        return c is not None and c.cid == cell.cid
    return False


def _decompose_affine(expr: I.Expr, table: CellTable):
    """Decompose into (cell -> constant coefficient, extra terms).

    Returns None when the expression is not a sum of const*cell terms plus
    arbitrary extra terms.  Extra terms are kept as (sign, expr) pairs for
    run-time interval bounding of |t|.
    """
    coeffs: Dict[int, float] = {}
    extras: List[Tuple[float, I.Expr]] = []

    def go(e: I.Expr, sign: float) -> bool:
        while isinstance(e, I.Cast):
            e = e.arg
        if isinstance(e, I.BinOp) and e.op == "add":
            return go(e.left, sign) and go(e.right, sign)
        if isinstance(e, I.BinOp) and e.op == "sub":
            return go(e.left, sign) and go(e.right, -sign)
        if isinstance(e, I.UnaryOp) and e.op == "neg":
            return go(e.arg, -sign)
        if isinstance(e, I.BinOp) and e.op == "mul":
            lc = _const_of(e.left)
            rc = _const_of(e.right)
            if lc is not None and rc is None:
                inner = _cell_of(e.right, table)
                if inner is not None:
                    coeffs[inner] = coeffs.get(inner, 0.0) + sign * lc
                    return True
            if rc is not None and lc is None:
                inner = _cell_of(e.left, table)
                if inner is not None:
                    coeffs[inner] = coeffs.get(inner, 0.0) + sign * rc
                    return True
            extras.append((sign, e))
            return True
        cell = _cell_of(e, table)
        if cell is not None:
            coeffs[cell] = coeffs.get(cell, 0.0) + sign
            return True
        extras.append((sign, e))
        return True

    if not go(expr, 1.0):
        return None
    return coeffs, extras


def _const_of(e: I.Expr) -> Optional[float]:
    while isinstance(e, I.Cast):
        e = e.arg
    if isinstance(e, I.Const):
        return float(e.value)
    return None


def _cell_of(e: I.Expr, table: CellTable) -> Optional[int]:
    while isinstance(e, I.Cast):
        e = e.arg
    if isinstance(e, I.Load):
        c = static_cell(e.lval, table)
        if c is not None:
            return c.cid
    return None


