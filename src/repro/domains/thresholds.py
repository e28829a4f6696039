"""Widening thresholds (Sect. 7.1.2).

The widening with thresholds does not jump straight to ±infinity but passes
through a finite ladder of values.  "In practice we have chosen T to be
(±alpha * lambda^k) for 0 <= k <= N" — as long as some threshold exceeds the
smallest invariant bound M of a stable assignment ``X := a*X + b`` (with
0 <= a < 1), the interval analysis proves X bounded.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["ThresholdSet", "default_thresholds"]


class ThresholdSet:
    """A finite, sorted set of widening thresholds containing ±infinity."""

    def __init__(self, values: Sequence[float]):
        vs = {float(v) for v in values}
        vs.add(math.inf)
        vs.add(-math.inf)
        vs.add(0.0)
        self.values: List[float] = sorted(vs)

    @staticmethod
    def geometric(alpha: float = 1.0, lam: float = 4.0, count: int = 40) -> "ThresholdSet":
        """The paper's (±alpha*lambda^k) ladder."""
        ladder = [alpha * lam**k for k in range(count)]
        return ThresholdSet([*ladder, *(-x for x in ladder)])

    def with_extra(self, values: Sequence[float]) -> "ThresholdSet":
        return ThresholdSet([*self.values, *values])

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, x: float) -> bool:
        return float(x) in self.values


def default_thresholds() -> ThresholdSet:
    """Default ladder: alpha=1, lambda=4, 40 rungs (covers ~1e24), plus the
    integer type bounds so counters stabilize at type range when needed."""
    base = ThresholdSet.geometric(1.0, 4.0, 40)
    type_bounds = [2.0**7, 2.0**8, 2.0**15, 2.0**16, 2.0**31, 2.0**32, 2.0**63]
    return base.with_extra([*type_bounds, *(-x for x in type_bounds)])
