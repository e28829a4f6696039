"""Abstract environments over functional maps (Sect. 6.1).

A :class:`MemoryEnv` maps cell ids to :class:`~repro.domains.values.
CellValue` using the persistent :class:`~repro.memory.fmap.PMap`, plus the
hidden clock of the clocked domain.  All lattice operations are cell-wise
with sharing shortcuts, so joining two environments that differ on a few
cells costs time proportional to the difference (Sect. 6.1.2).

The bottom environment (``is_bottom``) abstracts the empty set of concrete
environments, i.e. unreachable code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..domains.values import CellValue, ClockInfo
from . import interning
from .fmap import PMap

__all__ = ["MemoryEnv"]


@dataclass(frozen=True)
class MemoryEnv:
    """Immutable non-relational abstract environment."""

    cells: PMap  # cid -> CellValue
    clock: ClockInfo
    bottom: bool = False

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def make_bottom(max_clock: Optional[int] = None) -> "MemoryEnv":
        return MemoryEnv(PMap.empty(), ClockInfo.initial(max_clock), bottom=True)

    @staticmethod
    def initial(max_clock: Optional[int] = None) -> "MemoryEnv":
        return MemoryEnv(PMap.empty(), ClockInfo.initial(max_clock))

    @property
    def is_bottom(self) -> bool:
        return self.bottom

    # -- cell access ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of constrained cells — O(1), from the map's root size."""
        return len(self.cells)

    def get(self, cid: int) -> Optional[CellValue]:
        return self.cells.find(cid)

    def set(self, cid: int, value: CellValue) -> "MemoryEnv":
        """Strong update.

        A write of an ``==``-equal value returns ``self`` unchanged:
        re-executed statements that recompute last iteration's value
        leave the environment physically identical, so every downstream
        sharing shortcut (merge, diff, includes) sees no change at all.
        New values are interned so equal values computed at different
        times or cells collapse to one representative.
        """
        if self.bottom:
            return self
        if value.is_bottom:
            return self.to_bottom()
        old = self.cells.find(cid)
        if old is not None and (old is value or old == value):
            return self
        return MemoryEnv(self.cells.set(cid, interning.intern_value(value)),
                         self.clock)

    def weak_set(self, cid: int, value: CellValue) -> "MemoryEnv":
        """Weak update: the cell may keep its old value (Sect. 6.1.3)."""
        if self.bottom:
            return self
        old = self.cells.find(cid)
        joined = value if old is None else old.join(value)
        if old is not None and (joined is old or joined == old):
            return self
        return MemoryEnv(self.cells.set(cid, interning.intern_value(joined)),
                         self.clock)

    def remove(self, cid: int) -> "MemoryEnv":
        if self.bottom:
            return self
        return MemoryEnv(self.cells.remove(cid), self.clock)

    def remove_many(self, cids) -> "MemoryEnv":
        if self.bottom:
            return self
        cells = self.cells
        for cid in cids:
            cells = cells.remove(cid)
        return MemoryEnv(cells, self.clock)

    def to_bottom(self) -> "MemoryEnv":
        return MemoryEnv(PMap.empty(), self.clock, bottom=True)

    def with_clock(self, clock: ClockInfo) -> "MemoryEnv":
        return MemoryEnv(self.cells, clock, self.bottom)

    # -- the clock tick (the synchronous 'wait') ----------------------------------

    def tick(self) -> "MemoryEnv":
        """Advance the hidden clock; adjust all clocked cell components."""
        if self.bottom:
            return self
        new_cells = self.cells.map_values(
            lambda cid, v: interning.intern_value(v.on_clock_tick())
            if v.has_clock else v
        )
        return MemoryEnv(new_cells, self.clock.tick())

    # -- lattice ------------------------------------------------------------------

    def join(self, other: "MemoryEnv") -> "MemoryEnv":
        if self.bottom:
            return other
        if other.bottom:
            return self
        cells = self.cells.merge(
            other.cells,
            lambda cid, a, b: a if a == b else a.join(b),
            missing_self=lambda cid, b: b,
            missing_other=lambda cid, a: a,
        )
        return MemoryEnv(cells, self.clock.join(other.clock))

    def widen(self, other: "MemoryEnv",
              thresholds: Optional[Sequence[float]] = None,
              frozen_cids: Optional[set] = None) -> "MemoryEnv":
        """Cell-wise widening with thresholds (Sect. 7.1.2).

        ``frozen_cids`` supports delayed widening (Sect. 7.1.3): cells in the
        set are joined instead of widened this iteration.
        """
        if self.bottom:
            return other
        if other.bottom:
            return self

        def combine(cid, a: CellValue, b: CellValue) -> CellValue:
            if a == b:
                return a
            if frozen_cids is not None and cid in frozen_cids:
                return a.join(b)
            return a.widen(b, thresholds)

        cells = self.cells.merge(
            other.cells,
            combine,
            missing_self=lambda cid, b: b,
            missing_other=lambda cid, a: a,
        )
        return MemoryEnv(cells, self.clock.widen(other.clock))

    def narrow(self, other: "MemoryEnv") -> "MemoryEnv":
        if self.bottom or other.bottom:
            return other
        cells = self.cells.merge(
            other.cells,
            lambda cid, a, b: a if a == b else a.narrow(b),
            missing_self=lambda cid, b: b,
            missing_other=lambda cid, a: a,
        )
        return MemoryEnv(cells, self.clock)

    def meet(self, other: "MemoryEnv") -> "MemoryEnv":
        if self.bottom or other.bottom:
            return self.to_bottom()
        saw_empty = False

        def combine(cid, a: CellValue, b: CellValue) -> CellValue:
            nonlocal saw_empty
            if a == b:
                return a
            m = a.meet(b)
            if m.is_bottom:
                saw_empty = True
            return m

        cells = self.cells.merge(
            other.cells,
            combine,
            missing_self=lambda cid, b: b,
            missing_other=lambda cid, a: a,
        )
        if saw_empty:
            return self.to_bottom()
        return MemoryEnv(cells, self.clock)

    def includes(self, other: "MemoryEnv") -> bool:
        """Abstract inclusion check (the stabilization test of Sect. 5.5)."""
        if other.bottom:
            return True
        if self.bottom:
            return False
        if not self.clock.range.includes(other.clock.range):
            return False
        if self.cells._root is other.cells._root:  # physical shortcut
            return True
        for cid in self.cells.diff_keys(other.cells):
            mine = self.cells.get(cid)
            theirs = other.cells.get(cid)
            if theirs is None:
                continue
            if mine is None:
                return False
            if mine is not theirs and not mine.includes(theirs):
                return False
        # Keys only in other:
        for cid in other.cells.diff_keys(self.cells):
            if cid not in self.cells:
                return False
        return True

    def equal(self, other: "MemoryEnv") -> bool:
        if self.bottom or other.bottom:
            return self.bottom == other.bottom
        return (self.clock.range == other.clock.range
                and self.cells.equal(other.cells, lambda a, b: a == b))

    def diff_cids(self, other: "MemoryEnv"):
        """Cell ids whose values may differ (sharing-aware)."""
        return self.cells.diff_keys(other.cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.bottom:
            return "MemoryEnv(bottom)"
        inner = ", ".join(f"c{cid}={v!r}" for cid, v in self.cells.items())
        return f"MemoryEnv({inner})"
