"""Interval arithmetic with sound outward rounding (Sect. 6.2.1).

Two interval types back the analyzer's non-relational layer:

* :class:`FloatInterval` — a set of *real* numbers bounded by binary64
  floats.  All bound computations round outward (see
  :mod:`repro.numeric.float_utils`), so every operation over-approximates the
  corresponding operation on real numbers.  The concrete program's
  floating-point rounding is accounted for separately, either by
  :meth:`FloatInterval.round_to` (direct interval evaluation) or by the
  error terms of the linear forms (Sect. 6.3).

* :class:`IntInterval` — a set of integers with arbitrary-precision bounds
  (``None`` encodes an infinite bound), exact arithmetic, and C-style
  truncated division.

Both support the lattice operations required by the iterator: join, meet,
inclusion, widening (plain and with thresholds, Sect. 7.1.2) and narrowing.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

from .float_utils import (
    add_down,
    add_up,
    div_down,
    div_up,
    mul_bounds,
    mul_up,
    next_down,
    next_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
    FloatFormat,
)
from .records import record

__all__ = ["FloatInterval", "IntInterval"]

_INF = math.inf


@record
class FloatInterval:
    """A closed interval of real numbers, or the empty set.

    The canonical empty interval is ``FloatInterval(inf, -inf)``.
    NaN never appears in bounds: operations that could produce NaN on the
    concrete level (inf - inf, 0 * inf) widen to the relevant infinity,
    which is sound for a set-of-reals semantics.
    """

    lo: float
    hi: float

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "FloatInterval":
        return _FLOAT_EMPTY

    @staticmethod
    def top() -> "FloatInterval":
        return _FLOAT_TOP

    @staticmethod
    def const(x: float) -> "FloatInterval":
        if math.isnan(x):
            return _FLOAT_TOP
        return FloatInterval(x, x)

    @staticmethod
    def of(lo: float, hi: float) -> "FloatInterval":
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            return _FLOAT_EMPTY
        return FloatInterval(lo, hi)

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return not self.is_empty and self.lo > -_INF and self.hi < _INF

    def contains(self, x: float) -> bool:
        return not self.is_empty and self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    def includes(self, other: "FloatInterval") -> bool:
        """Whether ``other`` is a subset of ``self``."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.lo <= other.lo and other.hi <= self.hi

    def magnitude(self) -> float:
        """Upper bound on ``|x|`` for x in the interval (0 for empty)."""
        if self.is_empty:
            return 0.0
        return max(abs(self.lo), abs(self.hi))

    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return sub_up(self.hi, self.lo)

    # -- lattice -----------------------------------------------------------

    def join(self, other: "FloatInterval") -> "FloatInterval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return FloatInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "FloatInterval") -> "FloatInterval":
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        return FloatInterval.of(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(
        self, other: "FloatInterval", thresholds: Optional[Sequence[float]] = None
    ) -> "FloatInterval":
        """Widening with thresholds (Sect. 7.1.2).

        ``thresholds`` must be sorted ascending and contain -inf and +inf.
        Without thresholds the unstable bound jumps straight to infinity
        (classical interval widening, [10, Sect. 2.1.2]).
        """
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo, hi = self.lo, self.hi
        if other.lo < lo:
            if thresholds is None:
                lo = -_INF
            else:
                lo = _largest_leq(thresholds, other.lo)
        if other.hi > hi:
            if thresholds is None:
                hi = _INF
            else:
                hi = _smallest_geq(thresholds, other.hi)
        return FloatInterval(lo, hi)

    def narrow(self, other: "FloatInterval") -> "FloatInterval":
        """Standard interval narrowing: refine only infinite bounds."""
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        lo = other.lo if self.lo == -_INF else self.lo
        hi = other.hi if self.hi == _INF else self.hi
        return FloatInterval.of(lo, hi)

    # -- arithmetic over the reals (outward rounded) -----------------------

    def neg(self) -> "FloatInterval":
        if self.is_empty:
            return self
        return FloatInterval(-self.hi, -self.lo)

    def add(self, other: "FloatInterval") -> "FloatInterval":
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        return FloatInterval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def sub(self, other: "FloatInterval") -> "FloatInterval":
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        return FloatInterval(sub_down(self.lo, other.hi), sub_up(self.hi, other.lo))

    def mul(self, other: "FloatInterval") -> "FloatInterval":
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        ll_lo, ll_hi = mul_bounds(self.lo, other.lo)
        lh_lo, lh_hi = mul_bounds(self.lo, other.hi)
        hl_lo, hl_hi = mul_bounds(self.hi, other.lo)
        hh_lo, hh_hi = mul_bounds(self.hi, other.hi)
        return FloatInterval(min(ll_lo, lh_lo, hl_lo, hh_lo),
                             max(ll_hi, lh_hi, hl_hi, hh_hi))

    def div(self, other: "FloatInterval") -> "FloatInterval":
        """Quotient over the reals, assuming the divisor avoids zero.

        Callers in checking mode must report a division-by-zero alarm when
        ``other.contains_zero()``; the returned interval is the sound result
        for the *non-erroneous* executions (Sect. 5.3), i.e. the divisor
        restricted to its nonzero part.  If the divisor is exactly {0} the
        result is empty (no non-erroneous execution).
        """
        if self.is_empty or other.is_empty:
            return _FLOAT_EMPTY
        lo, hi = other.lo, other.hi
        if lo == 0.0 and hi == 0.0:
            return _FLOAT_EMPTY
        if lo < 0.0 < hi:
            # Split at zero; the quotient may reach any magnitude.
            neg_part = self.div(FloatInterval(lo, -0.0))
            pos_part = self.div(FloatInterval(0.0, hi))
            return neg_part.join(pos_part)
        # Divisor has constant sign; zero endpoints give infinite quotients.
        def qd(a: float, b: float) -> float:
            if b == 0.0:
                if a == 0.0:
                    return 0.0
                # sign of quotient determined by a and the side of zero
                return -_INF
            return div_down(a, b)

        def qu(a: float, b: float) -> float:
            if b == 0.0:
                if a == 0.0:
                    return 0.0
                return _INF
            return div_up(a, b)

        if hi == 0.0 or lo == 0.0:
            # One endpoint touches zero: compute with open-end semantics.
            # Conservative: bound by dividing by the far (nonzero) endpoint,
            # the near-zero side contributes +/- infinity unless numerator
            # straddles accordingly.
            far = lo if hi == 0.0 else hi
            cands_lo = [qd(self.lo, far), qd(self.hi, far)]
            cands_hi = [qu(self.lo, far), qu(self.hi, far)]
            if self.lo <= 0.0 <= self.hi:
                cands_lo.append(0.0)
                cands_hi.append(0.0)
            if self.hi > 0.0:
                if hi == 0.0:  # positive / tiny-negative -> -inf
                    cands_lo.append(-_INF)
                else:
                    cands_hi.append(_INF)
            if self.lo < 0.0:
                if hi == 0.0:
                    cands_hi.append(_INF)
                else:
                    cands_lo.append(-_INF)
            return FloatInterval(min(cands_lo), max(cands_hi))
        candidates_lo = (qd(self.lo, lo), qd(self.lo, hi), qd(self.hi, lo), qd(self.hi, hi))
        candidates_hi = (qu(self.lo, lo), qu(self.lo, hi), qu(self.hi, lo), qu(self.hi, hi))
        return FloatInterval(min(candidates_lo), max(candidates_hi))

    def abs(self) -> "FloatInterval":
        if self.is_empty:
            return self
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return self.neg()
        return FloatInterval(0.0, max(-self.lo, self.hi))

    def sqrt(self) -> "FloatInterval":
        """Square root of the nonnegative part (callers alarm on negatives)."""
        nonneg = self.meet(FloatInterval(0.0, _INF))
        if nonneg.is_empty:
            return _FLOAT_EMPTY
        return FloatInterval(sqrt_down(nonneg.lo), sqrt_up(nonneg.hi))

    # -- concrete float rounding model --------------------------------------

    def round_to(self, fmt: FloatFormat) -> tuple["FloatInterval", bool]:
        """Model storing a real from this interval into format ``fmt``.

        Returns ``(interval, may_overflow)``: the interval of representable
        results of round-to-nearest for the non-overflowing executions, and
        a flag telling checking mode to raise an overflow alarm.  Following
        Sect. 5.3, overflowing values are "wiped out": the returned interval
        clamps to the format's finite range.
        """
        if self.is_empty:
            return self, False
        err_lo = _rounding_slack(fmt, self.lo)
        err_hi = _rounding_slack(fmt, self.hi)
        lo = sub_down(self.lo, err_lo)
        hi = add_up(self.hi, err_hi)
        may_overflow = hi > fmt.max_value or lo < -fmt.max_value
        lo = max(lo, -fmt.max_value)
        hi = min(hi, fmt.max_value)
        return FloatInterval.of(lo, hi), may_overflow

    # -- guards --------------------------------------------------------------

    def restrict_le(self, bound: float) -> "FloatInterval":
        return self.meet(FloatInterval(-_INF, bound))

    def restrict_ge(self, bound: float) -> "FloatInterval":
        return self.meet(FloatInterval(bound, _INF))

    def restrict_lt(self, bound: float) -> "FloatInterval":
        # Over the reals there is no "previous" value; for float-valued
        # program variables the predecessor float is a sound tightening.
        return self.meet(FloatInterval(-_INF, next_down(bound)))

    def restrict_gt(self, bound: float) -> "FloatInterval":
        return self.meet(FloatInterval(next_up(bound), _INF))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "FloatInterval.empty()"
        return f"[{self.lo!r}, {self.hi!r}]"


_FLOAT_EMPTY = FloatInterval(_INF, -_INF)
_FLOAT_TOP = FloatInterval(-_INF, _INF)


def _rounding_slack(fmt: FloatFormat, x: float) -> float:
    """Absolute round-to-nearest error bound for a real near ``x``."""
    if math.isinf(x):
        return 0.0
    return add_up(mul_up(fmt.rel_err, abs(x)), fmt.abs_err)


def _largest_leq(thresholds: Sequence[float], x: float) -> float:
    """Largest threshold <= x.

    ``thresholds`` is the shared widening ladder: sorted ascending (see
    ``FloatInterval.widen``), so the lookup is a ``bisect`` instead of a
    linear scan.  Degenerate inputs keep the scan's exact semantics: an
    empty ladder or a NaN ``x`` (which no threshold compares against)
    yield -inf.
    """
    if not thresholds or x != x:
        return -_INF
    idx = bisect.bisect_right(thresholds, x)
    if idx == 0:
        return -_INF
    return thresholds[idx - 1]


def _smallest_geq(thresholds: Sequence[float], x: float) -> float:
    """Smallest threshold >= x over the sorted ladder; +inf when none
    qualifies (empty ladder, NaN ``x``, or x above every rung)."""
    if not thresholds or x != x:
        return _INF
    idx = bisect.bisect_left(thresholds, x)
    if idx == len(thresholds):
        return _INF
    return thresholds[idx]


# ---------------------------------------------------------------------------


@record
class IntInterval:
    """A closed interval of integers; ``None`` bounds encode infinities.

    ``lo is None`` means -infinity, ``hi is None`` means +infinity.  The
    canonical empty interval is ``IntInterval(1, 0)``... represented by the
    dedicated :meth:`empty` singleton (``lo=1, hi=0``).
    """

    lo: Optional[int]
    hi: Optional[int]

    @staticmethod
    def empty() -> "IntInterval":
        return _INT_EMPTY

    @staticmethod
    def top() -> "IntInterval":
        return _INT_TOP

    @staticmethod
    def const(x: int) -> "IntInterval":
        return IntInterval(x, x)

    @staticmethod
    def of(lo: Optional[int], hi: Optional[int]) -> "IntInterval":
        if lo is not None and hi is not None and lo > hi:
            return _INT_EMPTY
        return IntInterval(lo, hi)

    # -- predicates --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo > self.hi

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return not self.is_empty and self.lo is not None and self.hi is not None

    def contains(self, x: int) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True

    def contains_zero(self) -> bool:
        return self.contains(0)

    def includes(self, other: "IntInterval") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        lo_ok = self.lo is None or (other.lo is not None and other.lo >= self.lo)
        hi_ok = self.hi is None or (other.hi is not None and other.hi <= self.hi)
        return lo_ok and hi_ok

    def magnitude(self) -> Optional[int]:
        """Max |x| over the interval; ``None`` when unbounded, 0 when empty."""
        if self.is_empty:
            return 0
        if self.lo is None or self.hi is None:
            return None
        return max(abs(self.lo), abs(self.hi))

    # -- lattice -----------------------------------------------------------

    def join(self, other: "IntInterval") -> "IntInterval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return IntInterval(lo, hi)

    def meet(self, other: "IntInterval") -> "IntInterval":
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        lo = _max_opt_lo(self.lo, other.lo)
        hi = _min_opt_hi(self.hi, other.hi)
        return IntInterval.of(lo, hi)

    def widen(
        self, other: "IntInterval", thresholds: Optional[Sequence[float]] = None
    ) -> "IntInterval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        lo: Optional[int] = self.lo
        hi: Optional[int] = self.hi
        if _lt_opt_lo(other.lo, self.lo):
            lo = None
            if thresholds is not None and other.lo is not None:
                t = _largest_leq(thresholds, float(other.lo))
                lo = None if t == -_INF else math.floor(t)
        if _gt_opt_hi(other.hi, self.hi):
            hi = None
            if thresholds is not None and other.hi is not None:
                t = _smallest_geq(thresholds, float(other.hi))
                hi = None if t == _INF else math.ceil(t)
        return IntInterval(lo, hi)

    def narrow(self, other: "IntInterval") -> "IntInterval":
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        lo = other.lo if self.lo is None else self.lo
        hi = other.hi if self.hi is None else self.hi
        return IntInterval.of(lo, hi)

    # -- arithmetic (exact over the integers) --------------------------------

    def neg(self) -> "IntInterval":
        if self.is_empty:
            return self
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return IntInterval(lo, hi)

    def add(self, other: "IntInterval") -> "IntInterval":
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return IntInterval(lo, hi)

    def sub(self, other: "IntInterval") -> "IntInterval":
        return self.add(other.neg())

    def mul(self, other: "IntInterval") -> "IntInterval":
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        prods = [
            _mul_opt(a, b)
            for a in (("lo", self.lo), ("hi", self.hi))
            for b in (("lo", other.lo), ("hi", other.hi))
        ]
        # _mul_opt returns (value, is_neg_inf, is_pos_inf) triples.
        lo: Optional[int] = 0
        hi: Optional[int] = 0
        finite = [p for p in prods if isinstance(p, int)]
        has_neg_inf = any(p == "-inf" for p in prods)
        has_pos_inf = any(p == "+inf" for p in prods)
        if has_neg_inf:
            lo = None
        elif finite:
            lo = min(finite)
        if has_pos_inf:
            hi = None
        elif finite:
            hi = max(finite)
        if not finite and not has_neg_inf and not has_pos_inf:
            return _INT_EMPTY  # unreachable in practice
        return IntInterval(lo, hi)

    def div_trunc(self, other: "IntInterval") -> "IntInterval":
        """C99 truncated integer division, divisor restricted to nonzero."""
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        neg = other.meet(IntInterval(None, -1))
        pos = other.meet(IntInterval(1, None))
        out = _INT_EMPTY
        for d in (neg, pos):
            if d.is_empty:
                continue
            out = out.join(self._div_const_sign(d))
        return out

    def _div_const_sign(self, d: "IntInterval") -> "IntInterval":
        """Division by a divisor interval of constant nonzero sign."""
        cands: list[Optional[int]] = []
        unbounded_hi = False
        unbounded_lo = False
        for a, a_inf in ((self.lo, "-"), (self.hi, "+")):
            for b, b_inf in ((d.lo, "-"), (d.hi, "+")):
                if a is None and b is None:
                    # inf / inf: quotient can be anything of the combined sign;
                    # conservatively unbounded both ways is not needed — the
                    # magnitude can be arbitrarily large.
                    unbounded_lo = unbounded_hi = True
                elif a is None:
                    assert b is not None
                    if (a_inf == "+") == (b > 0):
                        unbounded_hi = True
                    else:
                        unbounded_lo = True
                elif b is None:
                    cands.append(0)  # finite / inf tends to 0 (trunc)
                else:
                    cands.append(_c_div(a, b))
        # Quotient range also includes values for interior points; with
        # monotonicity per sign region the endpoint candidates plus 0-crossing
        # suffice. Add 0 if numerator spans it.
        if self.contains(0):
            cands.append(0)
        finite = [c for c in cands if c is not None]
        lo = None if unbounded_lo else (min(finite) if finite else None)
        hi = None if unbounded_hi else (max(finite) if finite else None)
        if lo is None and hi is None and not (unbounded_lo or unbounded_hi):
            return _INT_EMPTY
        return IntInterval(lo, hi)

    def mod_trunc(self, other: "IntInterval") -> "IntInterval":
        """C99 ``%`` (sign follows dividend), divisor nonzero part."""
        if self.is_empty or other.is_empty:
            return _INT_EMPTY
        mags = [abs(b) for b in (other.lo, other.hi) if b is not None and b != 0]
        if other.lo is None or other.hi is None:
            max_mag = None
        else:
            if other.lo <= -1:
                mags.append(abs(other.lo))
            if other.hi >= 1:
                mags.append(other.hi)
            max_mag = max(mags) if mags else 0
        if max_mag == 0:
            return _INT_EMPTY
        bound = None if max_mag is None else max_mag - 1
        lo = 0 if self.lo is not None and self.lo >= 0 else (None if bound is None else -bound)
        hi = 0 if self.hi is not None and self.hi <= 0 else bound
        res = IntInterval(lo, hi)
        # |a % b| <= |a| as well.
        m = self.magnitude()
        if m is not None:
            res = res.meet(IntInterval(-m, m))
        return res

    # -- conversions --------------------------------------------------------

    def to_float_interval(self) -> FloatInterval:
        lo = -_INF if self.lo is None else next_down(float(self.lo))
        hi = _INF if self.hi is None else next_up(float(self.hi))
        if self.is_empty:
            return FloatInterval.empty()
        # Exactly representable small ints need no nudge.
        if self.lo is not None and abs(self.lo) <= 2**53:
            lo = float(self.lo)
        if self.hi is not None and abs(self.hi) <= 2**53:
            hi = float(self.hi)
        return FloatInterval(lo, hi)

    @staticmethod
    def from_float_interval(iv: FloatInterval) -> "IntInterval":
        """Integers obtained by C truncation of reals in ``iv``."""
        if iv.is_empty:
            return _INT_EMPTY
        lo = None if iv.lo == -_INF else math.trunc(iv.lo)
        hi = None if iv.hi == _INF else math.trunc(iv.hi)
        # trunc rounds toward zero, matching C float->int conversion.
        return IntInterval.of(lo, hi)

    # -- guards --------------------------------------------------------------

    def restrict_le(self, bound: int) -> "IntInterval":
        return self.meet(IntInterval(None, bound))

    def restrict_ge(self, bound: int) -> "IntInterval":
        return self.meet(IntInterval(bound, None))

    def restrict_lt(self, bound: int) -> "IntInterval":
        return self.meet(IntInterval(None, bound - 1))

    def restrict_gt(self, bound: int) -> "IntInterval":
        return self.meet(IntInterval(bound + 1, None))

    def restrict_ne(self, value: int) -> "IntInterval":
        """Remove ``value`` when it is an endpoint (interval-representable)."""
        if self.is_empty:
            return self
        if self.lo == value and self.hi == value:
            return _INT_EMPTY
        if self.lo == value:
            return IntInterval(value + 1, self.hi)
        if self.hi == value:
            return IntInterval(self.lo, value - 1)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_empty:
            return "IntInterval.empty()"
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


_INT_EMPTY = IntInterval(1, 0)
_INT_TOP = IntInterval(None, None)


def _c_div(a: int, b: int) -> int:
    """C99 truncated division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mul_opt(a: tuple[str, Optional[int]], b: tuple[str, Optional[int]]):
    """Multiply possibly-infinite endpoints; returns int, '+inf' or '-inf'."""
    a_kind, a_val = a
    b_kind, b_val = b
    if a_val is not None and b_val is not None:
        return a_val * b_val
    # Determine signs of the infinite endpoint(s).
    def sign_of(kind: str, val: Optional[int]) -> int:
        if val is not None:
            return (val > 0) - (val < 0)
        return 1 if kind == "hi" else -1

    sa = sign_of(a_kind, a_val)
    sb = sign_of(b_kind, b_val)
    if (a_val == 0) or (b_val == 0):
        return 0
    return "+inf" if sa * sb > 0 else "-inf"


def _max_opt_lo(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_opt_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _lt_opt_lo(a: Optional[int], b: Optional[int]) -> bool:
    """a < b where None means -inf (for lower bounds)."""
    if a is None:
        return b is not None
    if b is None:
        return False
    return a < b


def _gt_opt_hi(a: Optional[int], b: Optional[int]) -> bool:
    """a > b where None means +inf (for upper bounds)."""
    if a is None:
        return b is not None
    if b is None:
        return False
    return a > b
