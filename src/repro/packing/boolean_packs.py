"""Packing for decision trees (Sect. 7.2.3).

"Each time a numerical variable assignment depends on a boolean, or a
boolean assignment depends on a numerical variable, we put both variables
in a tentative pack.  If, later, we find a program point where the
numerical variable is inside a branch depending on the boolean, we mark the
pack as confirmed. ... if we find an assignment b := expr where expr is a
boolean expression, we add b to all packs containing a variable in expr.
In the end, we just keep the confirmed packs."

The number of boolean variables per pack is capped (the parameter whose
value three "yields an efficient and precise analysis of boolean
behavior").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..config import AnalyzerConfig
from ..frontend import ir as I
from ..memory.cells import CellTable
from .common import expr_cells, is_bool_cell, static_cell

__all__ = ["BoolPack", "BoolPacking", "compute_bool_packs"]


@dataclass(frozen=True)
class BoolPack:
    pack_id: int
    bool_cids: Tuple[int, ...]     # BDD variable order (sorted)
    numeric_cids: Tuple[int, ...]  # tracked numeric cells


class BoolPacking:
    def __init__(self, packs: Sequence[BoolPack]):
        self.packs: List[BoolPack] = list(packs)
        by_bool: Dict[int, List[int]] = {}
        by_numeric: Dict[int, List[int]] = {}
        for p in self.packs:
            for cid in p.bool_cids:
                by_bool.setdefault(cid, []).append(p.pack_id)
            for cid in p.numeric_cids:
                by_numeric.setdefault(cid, []).append(p.pack_id)
        self.by_bool = {c: tuple(v) for c, v in by_bool.items()}
        self.by_numeric = {c: tuple(v) for c, v in by_numeric.items()}
        self._by_id = {p.pack_id: p for p in self.packs}

    def pack(self, pack_id: int) -> BoolPack:
        return self._by_id[pack_id]

    def packs_of_bool(self, cid: int) -> Tuple[int, ...]:
        return self.by_bool.get(cid, ())

    def packs_of_numeric(self, cid: int) -> Tuple[int, ...]:
        return self.by_numeric.get(cid, ())

    def __len__(self) -> int:
        return len(self.packs)


class _Tentative:
    """A tentative pack under construction."""

    def __init__(self) -> None:
        self.bools: Set[int] = set()
        self.numerics: Set[int] = set()
        self.confirmed = False


def compute_bool_packs(prog: I.IRProgram, table: CellTable,
                       config: AnalyzerConfig) -> BoolPacking:
    tentative: Dict[int, _Tentative] = {}  # keyed by a representative bool cid

    def pack_of(bool_cid: int) -> _Tentative:
        if bool_cid not in tentative:
            tentative[bool_cid] = _Tentative()
            tentative[bool_cid].bools.add(bool_cid)
        return tentative[bool_cid]

    def classify(cids: Set[int]) -> Tuple[Set[int], Set[int]]:
        bools, numerics = set(), set()
        for cid in cids:
            cell = table.cell(cid)
            if cell.is_summary:
                continue
            if is_bool_cell(cell):
                bools.add(cid)
            else:
                numerics.add(cid)
        return bools, numerics

    # Pass 1: tentative packs from data dependences.
    def scan(stmts: Sequence[I.Stmt], guard_bools: Tuple[int, ...]) -> None:
        for s in stmts:
            if isinstance(s, I.SAssign):
                target = static_cell(s.target, table)
                if target is None or target.is_summary:
                    continue
                rhs_bools, rhs_numerics = classify(expr_cells(s.value, table))
                if is_bool_cell(target):
                    # b := expr with numeric dependence -> tentative pack.
                    for num in rhs_numerics:
                        p = pack_of(target.cid)
                        p.numerics.add(num)
                    # b := boolean expr -> add b to packs containing them.
                    for b in rhs_bools:
                        p = pack_of(b)
                        p.bools.add(target.cid)
                else:
                    # numeric := expr depending on a boolean.
                    for b in rhs_bools:
                        p = pack_of(b)
                        p.numerics.add(target.cid)
                    # Confirmation: numeric assigned under a boolean guard.
                    for b in guard_bools:
                        p = pack_of(b)
                        if target.cid in p.numerics or rhs_numerics & p.numerics:
                            p.numerics.add(target.cid)
                            p.confirmed = True
            elif isinstance(s, I.SIf):
                cond_bools, cond_numerics = classify(expr_cells(s.cond, table))
                # A numeric read inside a bool-guarded branch confirms too
                # (the division guard pattern reads, not writes).
                inner_guards = guard_bools + tuple(cond_bools)
                for b in cond_bools:
                    p = pack_of(b)
                    if cond_numerics:
                        p.numerics |= cond_numerics
                scan(s.then, inner_guards)
                scan(s.other, inner_guards)
                # Confirm packs whose numerics are touched in the branches.
                touched = _cells_touched(s.then, table) | _cells_touched(s.other, table)
                for b in cond_bools:
                    p = pack_of(b)
                    if p.numerics & touched:
                        p.confirmed = True
            elif isinstance(s, I.SWhile):
                scan(s.body, guard_bools)
                scan(s.step, guard_bools)
            elif isinstance(s, I.SSwitch):
                for _, body in s.cases:
                    scan(body, guard_bools)

    for fn in prog.functions.values():
        if fn.body is not None:
            scan(fn.body, ())

    packs: List[BoolPack] = []
    seen: Set[Tuple[Tuple[int, ...], Tuple[int, ...]]] = set()
    next_id = 0
    for rep, t in sorted(tentative.items()):
        if not t.confirmed or not t.numerics:
            continue
        bools = tuple(sorted(t.bools))[: config.max_bool_pack_bools]
        numerics = tuple(sorted(t.numerics))[: config.max_bool_pack_numerics]
        key = (bools, numerics)
        if key in seen:
            continue
        seen.add(key)
        packs.append(BoolPack(next_id, bools, numerics))
        next_id += 1
    return BoolPacking(packs)


def _cells_touched(stmts: Sequence[I.Stmt], table: CellTable) -> Set[int]:
    out: Set[int] = set()
    for s in I.iter_stmts(stmts):
        if isinstance(s, I.SAssign):
            cell = static_cell(s.target, table)
            if cell is not None:
                out.add(cell.cid)
            out |= expr_cells(s.value, table)
        elif isinstance(s, (I.SIf, I.SWhile)):
            out |= expr_cells(s.cond, table)
    return out
