"""Syntactic determination of octagon packs (Sect. 7.2.1).

"Our current strategy is to create one pack for each syntactic block in the
source code and put in the pack all variables that appear in a linear
assignment or test within the associated block, ignoring what happens in
sub-blocks of the block."

Packs are computed once, before the analysis starts.  The strategy yields a
linear number of constant-size octagons for the family, and the analyzer
reports per-pack usefulness so a subsequent run can restrict to useful
packs only (the packing optimization of Sect. 7.2.2, implemented by the
``restrict_octagon_packs`` configuration field).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

from ..config import AnalyzerConfig
from ..frontend import ir as I
from ..memory.cells import CellTable
from .common import linear_cells, static_cell

__all__ = ["OctagonPack", "OctagonPacking", "compute_octagon_packs"]


@dataclass(frozen=True)
class OctagonPack:
    """One pack: an ordered tuple of distinct atomic cell ids."""

    pack_id: int
    cids: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.cids)

    @cached_property
    def index(self) -> Dict[int, int]:
        """Each cell id's position in the pack, built once per pack
        (shared by every caller, so never mutated)."""
        return {cid: i for i, cid in enumerate(self.cids)}

    @property
    def key(self) -> Tuple[int, ...]:
        return self.cids


class OctagonPacking:
    """All octagon packs of a program plus reverse indexes."""

    def __init__(self, packs: Sequence[OctagonPack]):
        self.packs: List[OctagonPack] = list(packs)
        self.by_cell: Dict[int, Tuple[int, ...]] = {}
        by_cell: Dict[int, List[int]] = {}
        for p in self.packs:
            for cid in p.cids:
                by_cell.setdefault(cid, []).append(p.pack_id)
        self.by_cell = {cid: tuple(ids) for cid, ids in by_cell.items()}
        self._by_id = {p.pack_id: p for p in self.packs}

    def pack(self, pack_id: int) -> OctagonPack:
        return self._by_id[pack_id]

    def packs_of_cell(self, cid: int) -> Tuple[int, ...]:
        return self.by_cell.get(cid, ())

    def __len__(self) -> int:
        return len(self.packs)

    def average_size(self) -> float:
        if not self.packs:
            return 0.0
        return sum(p.size for p in self.packs) / len(self.packs)


def compute_octagon_packs(prog: I.IRProgram, table: CellTable,
                          config: AnalyzerConfig) -> OctagonPacking:
    """Block-level pack computation over the lowered IR."""
    # block id -> ordered cell ids (insertion order preserved for stability)
    blocks: Dict[int, Dict[int, None]] = {}

    def add_cells(block_id: int, cells) -> None:
        if cells is None:
            return
        bucket = blocks.setdefault(block_id, {})
        for c in cells:
            if c.is_summary or c.volatile:
                continue
            bucket.setdefault(c.cid, None)

    def visit(stmts: Sequence[I.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, I.SAssign):
                cells = linear_cells(s.value, table)
                if cells is not None and cells:
                    target = static_cell(s.target, table)
                    if target is not None:
                        cells = cells + [target]
                    # Per Sect. 7.2.1 the pack takes ALL variables that
                    # appear in a linear assignment within the block —
                    # including single-variable ones; a pack materializes
                    # only if the block accumulates >= 2 variables, and
                    # most such packs turn out useless (the premise of
                    # the Sect. 7.2.2 optimization).
                    add_cells(s.block_id, cells)
            elif isinstance(s, I.SIf):
                add_cells(s.block_id, _test_cells(s.cond, table))
                visit(s.then)
                visit(s.other)
            elif isinstance(s, I.SWhile):
                add_cells(s.block_id, _test_cells(s.cond, table))
                visit(s.body)
                visit(s.step)
            elif isinstance(s, I.SSwitch):
                for _, body in s.cases:
                    visit(body)
            elif isinstance(s, (I.SAssume, I.SCheck)):
                add_cells(s.block_id, _test_cells(s.cond, table))

    for fn in prog.functions.values():
        if fn.body is not None:
            visit(fn.body)

    packs: List[OctagonPack] = []
    seen: Set[Tuple[int, ...]] = set()
    next_id = 0
    for block_id in sorted(blocks):
        cids = tuple(blocks[block_id])
        if len(cids) < 2:
            continue
        if len(cids) > config.max_octagon_pack_size:
            cids = cids[: config.max_octagon_pack_size]
        if cids in seen:
            continue
        if (config.restrict_octagon_packs is not None
                and cids not in config.restrict_octagon_packs):
            continue
        seen.add(cids)
        packs.append(OctagonPack(next_id, cids))
        next_id += 1
    return OctagonPacking(packs)


def _test_cells(cond: I.Expr, table: CellTable):
    """Cells of a linear comparison test (compound conditions visited
    structurally)."""
    if isinstance(cond, I.BinOp) and cond.is_comparison:
        cells = linear_cells(cond, table)
        if cells and len({c.cid for c in cells}) >= 2:
            return cells
        return None
    if isinstance(cond, I.BoolOp):
        left = _test_cells(cond.left, table) or []
        right = _test_cells(cond.right, table) or []
        combined = list(left) + list(right)
        return combined or None
    if isinstance(cond, I.NotOp):
        return _test_cells(cond.arg, table)
    return None
