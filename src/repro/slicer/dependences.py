"""Data and control dependences over the lowered IR (Sect. 3.3 substrate).

Builds a program dependence graph at statement granularity:

* a **data dependence** edge s1 -> s2 when s2 may read a variable that s1
  may write (flow-insensitive def/use over cell ids, which is sound and
  sufficient for slicing);
* a **control dependence** edge c -> s when statement s executes under the
  test or loop condition c.

The graph is a :class:`networkx.DiGraph` whose nodes are statement ids;
node attributes carry the statement and location for reporting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from ..frontend import ir as I
from ..memory.cells import CellTable
from ..packing.common import expr_cells

__all__ = ["DependenceGraph", "build_dependence_graph"]


class DependenceGraph:
    """Statement-level PDG with def/use tables."""

    def __init__(self, graph: nx.DiGraph, defs: Dict[int, Set[int]],
                 uses: Dict[int, Set[int]]):
        self.graph = graph
        self.defs = defs  # sid -> cell ids possibly written
        self.uses = uses  # sid -> cell ids possibly read

    def statements(self) -> List[int]:
        return list(self.graph.nodes)

    def stmt(self, sid: int) -> I.Stmt:
        return self.graph.nodes[sid]["stmt"]

    def backward_reachable(self, sids) -> Set[int]:
        """All statements the given ones transitively depend on."""
        out: Set[int] = set()
        work = list(sids)
        while work:
            sid = work.pop()
            if sid in out or sid not in self.graph:
                continue
            out.add(sid)
            work.extend(self.graph.predecessors(sid))
        return out

    def defining_statements(self, cid: int) -> List[int]:
        return [sid for sid, cells in self.defs.items() if cid in cells]


def build_dependence_graph(prog: I.IRProgram, table: CellTable) -> DependenceGraph:
    g = nx.DiGraph()
    defs: Dict[int, Set[int]] = {}
    uses: Dict[int, Set[int]] = {}
    # Call-by-reference effects: function name -> (cells read, cells written)
    summaries = _function_summaries(prog, table)

    def lv_cells(lv: I.LValue) -> Set[int]:
        out: Set[int] = set()
        _collect_lvalue_cells(lv, table, out)
        return out

    def add_stmt(s: I.Stmt, d: Set[int], u: Set[int],
                 controls: Sequence[int]) -> None:
        g.add_node(s.sid, stmt=s, loc=s.loc)
        defs[s.sid] = d
        uses[s.sid] = u
        for c in controls:
            g.add_edge(c, s.sid, kind="control")

    def visit(stmts: Sequence[I.Stmt], controls: Tuple[int, ...]) -> None:
        for s in stmts:
            if isinstance(s, I.SAssign):
                add_stmt(s, lv_cells(s.target),
                         expr_cells(s.value, table) | _index_cells(s.target, table),
                         controls)
            elif isinstance(s, I.SIf):
                add_stmt(s, set(), expr_cells(s.cond, table), controls)
                visit(s.then, controls + (s.sid,))
                visit(s.other, controls + (s.sid,))
            elif isinstance(s, I.SWhile):
                add_stmt(s, set(), expr_cells(s.cond, table), controls)
                visit(s.body, controls + (s.sid,))
                visit(s.step, controls + (s.sid,))
            elif isinstance(s, I.SSwitch):
                add_stmt(s, set(), expr_cells(s.scrutinee, table), controls)
                for _, body in s.cases:
                    visit(body, controls + (s.sid,))
            elif isinstance(s, I.SCall):
                fn = prog.functions.get(s.func)
                reads, writes = summaries.get(s.func, (set(), set()))
                u: Set[int] = set(reads)
                d: Set[int] = set(writes)
                if fn is not None:
                    for param, arg in zip(fn.params, s.args):
                        if isinstance(arg, I.LValue):
                            cells = lv_cells(arg)
                            d |= cells
                            u |= cells
                        else:
                            u |= expr_cells(arg, table)
                            for cell in table.cells_of_var(param.uid):
                                d.add(cell.cid)
                if s.result is not None:
                    d |= lv_cells(s.result)
                add_stmt(s, d, u, controls)
            elif isinstance(s, (I.SReturn,)):
                u = expr_cells(s.value, table) if s.value is not None else set()
                add_stmt(s, set(), u, controls)
            elif isinstance(s, (I.SAssume, I.SCheck)):
                add_stmt(s, set(), expr_cells(s.cond, table), controls)
            elif isinstance(s, (I.SBreak, I.SContinue, I.SWait, I.SNop)):
                add_stmt(s, set(), set(), controls)

    for fn in prog.functions.values():
        if fn.body is not None:
            visit(fn.body, ())

    # Data dependence edges (flow-insensitive def-use).
    writers: Dict[int, List[int]] = {}
    for sid, cells in defs.items():
        for cid in cells:
            writers.setdefault(cid, []).append(sid)
    for sid, cells in uses.items():
        for cid in cells:
            for w in writers.get(cid, ()):
                if w != sid:
                    g.add_edge(w, sid, kind="data")
    return DependenceGraph(g, defs, uses)


def _collect_lvalue_cells(lv: I.LValue, table: CellTable, out: Set[int]) -> None:
    if isinstance(lv, I.LVar):
        if table.has_var(lv.var.uid):
            for cell in table.cells_of_var(lv.var.uid):
                out.add(cell.cid)
        return
    if isinstance(lv, I.LDeref):
        # Unknown referent at slicing time: conservatively, any cell of
        # variables the parameter could alias — approximated as no cells
        # here; the call-summary path adds actual-argument cells instead.
        return
    if isinstance(lv, (I.LIndex, I.LField)):
        _collect_lvalue_cells(lv.base, table, out)


def _index_cells(lv: I.LValue, table: CellTable) -> Set[int]:
    """Cells read to compute the indices inside an l-value."""
    out: Set[int] = set()
    while isinstance(lv, (I.LIndex, I.LField)):
        if isinstance(lv, I.LIndex):
            out |= expr_cells(lv.index, table)
        lv = lv.base
    return out


def _function_summaries(prog: I.IRProgram, table: CellTable):
    """Flow-insensitive read/write cell summaries per function."""
    out: Dict[str, Tuple[Set[int], Set[int]]] = {}
    for name, fn in prog.functions.items():
        if fn.body is None:
            continue
        reads: Set[int] = set()
        writes: Set[int] = set()
        for s in I.iter_stmts(fn.body):
            if isinstance(s, I.SAssign):
                _collect_lvalue_cells(s.target, table, writes)
                reads |= expr_cells(s.value, table)
            elif isinstance(s, (I.SIf, I.SWhile)):
                reads |= expr_cells(s.cond, table)
            elif isinstance(s, I.SSwitch):
                reads |= expr_cells(s.scrutinee, table)
            elif isinstance(s, I.SReturn) and s.value is not None:
                reads |= expr_cells(s.value, table)
            elif isinstance(s, (I.SAssume, I.SCheck)):
                reads |= expr_cells(s.cond, table)
        out[name] = (reads, writes)
    return out
