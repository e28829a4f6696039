"""Alarm reporting for checking mode (Sect. 5.3).

"When in checking mode, the iterator issues a warning for each operator
application that may give an error on the concrete level."  Alarms are
deduplicated by (statement id, kind): one program point raising the same
potential error in many abstract iterations is a single alarm for the
human reviewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..frontend.ast_nodes import Location

__all__ = ["Alarm", "AlarmKind", "AlarmCollector"]


class AlarmKind:
    INT_OVERFLOW = "integer-overflow"
    FLOAT_OVERFLOW = "float-overflow"
    DIV_BY_ZERO = "division-by-zero"
    MOD_BY_ZERO = "modulo-by-zero"
    ARRAY_OOB = "array-index-out-of-bounds"
    SHIFT_RANGE = "shift-out-of-range"
    INVALID_OP = "invalid-float-operation"
    CAST_RANGE = "cast-out-of-range"
    ASSERT_FAIL = "user-assertion"

    ALL = (INT_OVERFLOW, FLOAT_OVERFLOW, DIV_BY_ZERO, MOD_BY_ZERO, ARRAY_OOB,
           SHIFT_RANGE, INVALID_OP, CAST_RANGE, ASSERT_FAIL)


@dataclass(frozen=True)
class Alarm:
    kind: str
    sid: int
    loc: Location
    message: str

    def __str__(self) -> str:
        return f"{self.loc}: [{self.kind}] {self.message}"


class AlarmCollector:
    """Deduplicating alarm sink; inert unless checking mode is active."""

    def __init__(self) -> None:
        self._alarms: List[Alarm] = []
        self._seen: Set[Tuple[int, str]] = set()
        self.checking: bool = False

    def report(self, kind: str, sid: int, loc: Location, message: str) -> None:
        if not self.checking:
            return
        key = (sid, kind)
        if key in self._seen:
            return
        self._seen.add(key)
        self._alarms.append(Alarm(kind, sid, loc, message))

    @property
    def alarms(self) -> List[Alarm]:
        return sorted(self._alarms, key=lambda a: (a.loc.filename, a.loc.line,
                                                   a.loc.col, a.kind))

    def count(self) -> int:
        return len(self._alarms)

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for a in self._alarms:
            out[a.kind] = out.get(a.kind, 0) + 1
        return out
