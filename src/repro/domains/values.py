"""Per-cell abstract values: reduced product of intervals and clock triples.

"An abstract value in an abstract cell is therefore the reduction of the
abstract values provided by each different basic abstract domain" (Sect.
6.1).  A :class:`CellValue` carries:

* an interval component (:class:`~repro.numeric.intervals.IntInterval` for
  integer cells, :class:`~repro.numeric.intervals.FloatInterval` for float
  cells) — the interval domain of Sect. 6.2.1;
* optionally a *clocked* component (Sect. 6.2.1): intervals for
  ``v - clock`` and ``v + clock`` where ``clock`` is the hidden counter of
  elapsed synchronous cycles.  With the bound on continuous operating time
  (``max_clock``), the reduction ``v <= (v - clock) + max_clock`` bounds
  event counters that would otherwise appear to overflow.

The module also defines :class:`ClockInfo`, the abstract value of the
hidden clock itself.

The domain layer — this module, the relational domains, and their
``transfer``/``includes``/``join``/guard operations — is the trusted
computing base of result certification (``repro.certify``): the
independent checker re-derives every claimed invariant through these
operations alone, so a fixpoint-engine bug cannot forge a certificate,
but a containment bug *here* could.  These operations are pinned
independently by the hypothesis property tests
(``tests/test_domain_properties.py``, ``tests/test_intervals.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..numeric import FloatInterval, IntInterval
from ..numeric.records import record

__all__ = ["CellValue", "ClockInfo", "interval_for_type", "top_value",
           "bottom_value", "const_value"]

Interval = Union[IntInterval, FloatInterval]


@record
class ClockInfo:
    """Abstract value of the hidden clock variable."""

    range: IntInterval  # current clock value range
    max_clock: Optional[int]  # bound on total ticks (None when unbounded)

    @staticmethod
    def initial(max_clock: Optional[int]) -> "ClockInfo":
        return ClockInfo(IntInterval.const(0), max_clock)

    def tick(self) -> "ClockInfo":
        advanced = self.range.add(IntInterval.const(1))
        if self.max_clock is not None:
            advanced = advanced.meet(IntInterval.of(0, self.max_clock))
        return ClockInfo(advanced, self.max_clock)

    def join(self, other: "ClockInfo") -> "ClockInfo":
        return ClockInfo(self.range.join(other.range), self.max_clock)

    def widen(self, other: "ClockInfo") -> "ClockInfo":
        widened = self.range.widen(other.range)
        if self.max_clock is not None:
            widened = widened.meet(IntInterval.of(0, self.max_clock))
        return ClockInfo(widened, self.max_clock)


@record
class CellValue:
    """The reduced-product abstract value of one cell.

    ``itv`` is never None; ``minus_clock``/``plus_clock`` are None when the
    clocked domain is disabled or the cell is not clock-tracked.
    For float cells the clocked components are unused (counters are
    integers in the family).
    """

    itv: Interval
    minus_clock: Optional[IntInterval] = None  # abstraction of v - clock
    plus_clock: Optional[IntInterval] = None   # abstraction of v + clock

    # -- predicates -------------------------------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.itv.is_empty

    @property
    def is_float(self) -> bool:
        return isinstance(self.itv, FloatInterval)

    @property
    def has_clock(self) -> bool:
        return self.minus_clock is not None

    def float_range(self) -> FloatInterval:
        """The value range as a float interval (sound for int cells)."""
        if isinstance(self.itv, FloatInterval):
            return self.itv
        return self.itv.to_float_interval()

    # -- lattice ----------------------------------------------------------------

    def join(self, other: "CellValue") -> "CellValue":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return CellValue(
            self.itv.join(other.itv),
            _join_opt(self.minus_clock, other.minus_clock),
            _join_opt(self.plus_clock, other.plus_clock),
        )

    def meet(self, other: "CellValue") -> "CellValue":
        return CellValue(
            self.itv.meet(other.itv),
            _meet_opt(self.minus_clock, other.minus_clock),
            _meet_opt(self.plus_clock, other.plus_clock),
        )

    def widen(self, other: "CellValue",
              thresholds: Optional[Sequence[float]] = None) -> "CellValue":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        # The clocked components drift by one per tick when unstable, so a
        # threshold ladder would be climbed rung by rung: widen them
        # straight to infinity (their useful bounds — e.g. v - clock <= 0
        # for a once-per-cycle counter — are the stable ones anyway).
        return CellValue(
            self.itv.widen(other.itv, thresholds),
            _widen_opt(self.minus_clock, other.minus_clock, None),
            _widen_opt(self.plus_clock, other.plus_clock, None),
        )

    def narrow(self, other: "CellValue") -> "CellValue":
        if self.is_bottom or other.is_bottom:
            return other
        return CellValue(
            self.itv.narrow(other.itv),
            _narrow_opt(self.minus_clock, other.minus_clock),
            _narrow_opt(self.plus_clock, other.plus_clock),
        )

    def includes(self, other: "CellValue") -> bool:
        if other.is_bottom:
            return True
        if self.is_bottom:
            return False
        if not self.itv.includes(other.itv):
            return False
        if self.minus_clock is not None:
            if other.minus_clock is None or not self.minus_clock.includes(other.minus_clock):
                return False
        if self.plus_clock is not None:
            if other.plus_clock is None or not self.plus_clock.includes(other.plus_clock):
                return False
        return True

    # -- clocked-domain operations ------------------------------------------------

    def with_clock_tracking(self, clock: ClockInfo) -> "CellValue":
        """Start tracking v-clock and v+clock for this (integer) value."""
        if not isinstance(self.itv, IntInterval):
            return self
        c = clock.range
        return CellValue(
            self.itv,
            self.itv.sub(c),
            self.itv.add(c),
        )

    def on_clock_tick(self) -> "CellValue":
        """Adjust the clocked components when the hidden clock increments.

        ``v`` is unchanged, so ``v - clock`` decreases by 1 and
        ``v + clock`` increases by 1.
        """
        if self.minus_clock is None:
            return self
        one = IntInterval.const(1)
        return CellValue(self.itv, self.minus_clock.sub(one),
                         self.plus_clock.add(one))

    def shift_clocked(self, delta: IntInterval) -> "CellValue":
        """The cell was incremented by ``delta`` (clock unchanged)."""
        if self.minus_clock is None:
            return self
        return CellValue(self.itv, self.minus_clock.add(delta),
                         self.plus_clock.add(delta))

    def reduce_with_clock(self, clock: ClockInfo) -> "CellValue":
        """Reduction step: intersect v with (v-clock)+clock and (v+clock)-clock.

        This is where a counter incremented at most once per cycle gets
        bounded by the maximal operating time (Sect. 6.2.1).
        """
        if self.minus_clock is None or not isinstance(self.itv, IntInterval):
            return self
        c = clock.range
        if clock.max_clock is not None:
            c = c.meet(IntInterval.of(0, clock.max_clock))
        candidates = self.itv
        candidates = candidates.meet(self.minus_clock.add(c))
        candidates = candidates.meet(self.plus_clock.sub(c))
        if candidates.is_empty:
            # The clocked components were approximated independently of the
            # interval; an empty meet means the reduction over-constrained —
            # fall back to the plain interval (sound, less precise).
            return CellValue(self.itv, self.minus_clock, self.plus_clock)
        return CellValue(candidates, self.minus_clock, self.plus_clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [repr(self.itv)]
        if self.minus_clock is not None:
            parts.append(f"-clk:{self.minus_clock!r}")
            parts.append(f"+clk:{self.plus_clock!r}")
        return f"CellValue({', '.join(parts)})"


def _join_opt(a, b):
    if a is None or b is None:
        return None
    return a.join(b)


def _meet_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a.meet(b)


def _widen_opt(a, b, thresholds):
    if a is None or b is None:
        return None
    return a.widen(b, thresholds)


def _narrow_opt(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a.narrow(b)


def interval_for_type(ctype) -> Interval:
    """Top interval appropriate for a cell's C type (type-range aware)."""
    from ..frontend.c_types import EnumType, FloatType, IntType

    if isinstance(ctype, FloatType):
        return FloatInterval.of(-ctype.fmt.max_value, ctype.fmt.max_value)
    if isinstance(ctype, (IntType, EnumType)):
        return IntInterval.of(ctype.min_value, ctype.max_value)
    raise TypeError(f"no interval for type {ctype}")


def top_value(ctype) -> CellValue:
    return CellValue(interval_for_type(ctype))


def bottom_value(ctype) -> CellValue:
    from ..frontend.c_types import FloatType

    if isinstance(ctype, FloatType):
        return CellValue(FloatInterval.empty())
    return CellValue(IntInterval.empty())


def const_value(ctype, value) -> CellValue:
    from ..frontend.c_types import FloatType

    if isinstance(ctype, FloatType):
        return CellValue(FloatInterval.const(float(value)))
    return CellValue(IntInterval.const(int(value)))
