"""Backward program slicing for alarm inspection (Sect. 3.3).

"We implemented and used a slicer to help in the alarm inspection process.
If the slicing criterion is an alarm point, the extracted slice contains
the computations that led to the alarm.  However, the classical data and
control dependence-based backward slicing turned out to yield prohibitively
large slices."

Both flavours from the paper are provided:

* :func:`backward_slice` — the classical dependence-based slice from an
  alarm point;
* :func:`abstract_slice` — the paper's proposed restriction: keep only the
  computations of variables "we lack information about", i.e. whose
  invariant at the alarm point is too weak (unbounded or full-range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..frontend import ir as I
from ..frontend.ast_nodes import Location
from ..iterator.alarms import Alarm
from ..iterator.state import AbstractState
from ..memory.cells import CellTable
from ..numeric import IntInterval
from .dependences import DependenceGraph, build_dependence_graph

__all__ = ["Slice", "Slicer", "backward_slice", "abstract_slice"]


@dataclass
class Slice:
    """A set of statements relevant to a criterion."""

    criterion_sid: int
    sids: Set[int]
    graph: DependenceGraph

    def __len__(self) -> int:
        return len(self.sids)

    def _in_source_order(self) -> List[int]:
        """The slice's statements by (file, line, column), then id."""
        nodes = self.graph.graph.nodes

        def key(sid):
            loc = nodes[sid]["loc"]
            return (loc.filename, loc.line, loc.col, sid)

        return sorted((sid for sid in self.sids if sid in nodes), key=key)

    def locations(self) -> List[Location]:
        nodes = self.graph.graph.nodes
        return [nodes[sid]["loc"] for sid in self._in_source_order()]

    def statements(self) -> List[I.Stmt]:
        return [self.graph.stmt(sid) for sid in self._in_source_order()]

    def format(self) -> str:
        nodes = self.graph.graph.nodes
        return "\n".join(
            f"{nodes[sid]['loc']}: {type(self.graph.stmt(sid)).__name__}"
            for sid in self._in_source_order())


class Slicer:
    def __init__(self, prog: I.IRProgram, table: CellTable):
        self.prog = prog
        self.table = table
        self.graph = build_dependence_graph(prog, table)

    def backward_slice(self, sid: int) -> Slice:
        """Classical data+control dependence backward slice."""
        return Slice(sid, self.graph.backward_reachable([sid]), self.graph)

    def slice_for_alarm(self, alarm: Alarm) -> Slice:
        return self.backward_slice(alarm.sid)

    def abstract_slice(self, sid: int, state: AbstractState,
                       weak_only: bool = True) -> Slice:
        """The paper's refinement: restrict the slice to the computations
        of variables whose invariant is too weak at the alarm point
        (unbounded intervals, or booleans that may take any value)."""
        full = self.graph.backward_reachable([sid])
        if not weak_only:
            return Slice(sid, full, self.graph)
        weak_cells = self._weak_cells(state)
        keep: Set[int] = {sid}
        # Keep statements that define a weak cell, plus the control
        # statements they depend on.
        for s in full:
            if self.graph.defs.get(s, set()) & weak_cells:
                keep.add(s)
        # Close over control dependences so the slice stays executable.
        changed = True
        while changed:
            changed = False
            for s in list(keep):
                if s not in self.graph.graph:
                    continue
                for pred in self.graph.graph.predecessors(s):
                    edge = self.graph.graph.edges[pred, s]
                    if edge.get("kind") == "control" and pred not in keep:
                        keep.add(pred)
                        changed = True
        return Slice(sid, keep & (full | keep), self.graph)

    def _weak_cells(self, state: AbstractState) -> Set[int]:
        weak: Set[int] = set()
        if state.is_bottom:
            return weak
        for cid, v in state.env.cells.items():
            itv = v.itv
            if isinstance(itv, IntInterval):
                if not itv.is_bounded:
                    weak.add(cid)
                else:
                    cell = self.table.cell(cid)
                    from ..packing.common import is_bool_cell

                    if is_bool_cell(cell) and itv.lo == 0 and itv.hi == 1:
                        weak.add(cid)  # boolean that may take any value
                    elif (itv.magnitude() or 0) > 10**6:
                        weak.add(cid)  # "may contain large values"
            else:
                if not itv.is_bounded or itv.magnitude() > 1e18:
                    weak.add(cid)
        return weak


def backward_slice(prog: I.IRProgram, table: CellTable, sid: int) -> Slice:
    return Slicer(prog, table).backward_slice(sid)


def abstract_slice(prog: I.IRProgram, table: CellTable, sid: int,
                   state: AbstractState) -> Slice:
    return Slicer(prog, table).abstract_slice(sid, state)
