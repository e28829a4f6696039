"""Sound directed-rounding primitives on IEEE-754 floats.

The analyzer must over-approximate concrete floating-point semantics
(Sect. 6.2.1 of the paper: "Special care has to be taken in the case of
floating-point values and operations to always perform rounding in the right
direction and to handle special IEEE values such as infinities and NaNs").

CPython floats are IEEE-754 binary64 evaluated with round-to-nearest-even.
We cannot switch the hardware rounding mode from pure Python, so we obtain
*sound* directed rounding by nudging the round-to-nearest result one ulp
outward with :func:`math.nextafter`.  For any exact real ``r`` and its
round-to-nearest image ``n``, the true round-down (resp. round-up) image lies
in ``[nextafter(n, -inf), n]`` (resp. ``[n, nextafter(n, +inf)]``), so the
nudged value is always a sound lower (resp. upper) bound.  The cost is at
most one ulp of precision per abstract operation, which the paper's interval
framework absorbs by construction.

The analyzed programs themselves compute in binary32 or binary64
(round-to-nearest); per-type parameters live in :class:`FloatFormat`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BINARY32",
    "BINARY64",
    "FloatFormat",
    "add_down",
    "add_up",
    "div_down",
    "div_up",
    "is_finite",
    "mul_bounds",
    "mul_down",
    "mul_up",
    "next_down",
    "next_up",
    "sqrt_down",
    "sqrt_up",
    "sub_down",
    "sub_up",
    "ulp_error_bound",
]

_INF = math.inf


@dataclass(frozen=True)
class FloatFormat:
    """Parameters of an IEEE-754 binary interchange format.

    ``rel_err`` is the greatest relative error of a rounded operation with
    respect to the exact real result (the ``f`` of Sect. 6.2.3's delta
    function): ``2**-precision`` for round-to-nearest.
    ``abs_err`` bounds the absolute error in the subnormal range (half the
    smallest subnormal for round-to-nearest).
    """

    name: str
    precision: int  # significand bits, including the implicit bit
    emax: int
    max_value: float
    min_normal: float
    min_subnormal: float

    @property
    def rel_err(self) -> float:
        return math.ldexp(1.0, -self.precision)

    @property
    def abs_err(self) -> float:
        return self.min_subnormal / 2.0

    def contains(self, x: float) -> bool:
        """Whether finite ``x`` is representable in magnitude (ignoring precision)."""
        return abs(x) <= self.max_value


BINARY32 = FloatFormat(
    name="binary32",
    precision=24,
    emax=127,
    max_value=(2.0 - math.ldexp(1.0, -23)) * math.ldexp(1.0, 127),
    min_normal=math.ldexp(1.0, -126),
    min_subnormal=math.ldexp(1.0, -149),
)

BINARY64 = FloatFormat(
    name="binary64",
    precision=53,
    emax=1023,
    max_value=math.ldexp(1.0, 1023) * (2.0 - math.ldexp(1.0, -52)),
    min_normal=math.ldexp(1.0, -1022),
    min_subnormal=math.ldexp(1.0, -1074),
)


is_finite = math.isfinite
_nextafter = math.nextafter


def next_up(x: float) -> float:
    """Smallest binary64 float strictly greater than ``x`` (inf maps to inf)."""
    if math.isnan(x) or x == _INF:
        return x
    return _nextafter(x, _INF)


def next_down(x: float) -> float:
    """Greatest binary64 float strictly less than ``x`` (-inf maps to -inf)."""
    if math.isnan(x) or x == -_INF:
        return x
    return _nextafter(x, -_INF)


# Below, ``_nextafter(r, -inf)`` stands for ``next_down(r)`` and
# ``_nextafter(r, inf)`` for ``next_up(r)``: they agree on every
# non-NaN ``r`` (``nextafter`` maps an infinity equal to its direction
# to itself), and each caller has already handled a NaN ``r``.


def _exact_sum(a: float, b: float, s: float) -> bool:
    """True when ``s = a + b`` is exact in binary64 (via the TwoSum
    residual); ``s`` is finite."""
    bb = s - a
    return (a - (s - bb)) + (b - bb) == 0.0


def add_down(a: float, b: float) -> float:
    """Sound lower bound of the real sum ``a + b``."""
    s = a + b
    if s != s:
        # inf + -inf: the real sum is unconstrained by these abstract bounds.
        return -_INF
    if is_finite(s) and _exact_sum(a, b, s):
        return s
    return _nextafter(s, -_INF)


def add_up(a: float, b: float) -> float:
    """Sound upper bound of the real sum ``a + b``."""
    s = a + b
    if s != s:
        return _INF
    if is_finite(s) and _exact_sum(a, b, s):
        return s
    return _nextafter(s, _INF)


def sub_down(a: float, b: float) -> float:
    return add_down(a, -b)


def sub_up(a: float, b: float) -> float:
    return add_up(a, -b)


_HAS_FMA = hasattr(math, "fma")


def _exact_product(a: float, b: float, p: float) -> bool:
    """True when ``p = a * b`` is exact in binary64.

    A conservative (may return False for some exact products) but cheap
    test: returning False merely costs one ulp of outward slack, never
    soundness.  ``a`` and ``b`` may be Python ints.
    """
    if a == 0.0 or b == 0.0:
        return True
    # With both operands nonzero, an infinite or NaN operand makes the
    # product infinite or NaN: one finiteness test covers all three.
    if not is_finite(p):
        return False
    if _HAS_FMA:  # pragma: no cover - Python >= 3.13 only
        return math.fma(a, b, -p) == 0.0
    # Fast conservative path: exact when both operands are integers below
    # 2**26 in magnitude (covers the common const*const and 2**k
    # scalings), whose product is an integer below 2**52.
    return (-67108864.0 < a < 67108864.0 and -67108864.0 < b < 67108864.0
            and a % 1.0 == 0.0 and b % 1.0 == 0.0)


def mul_down(a: float, b: float) -> float:
    """Sound lower bound of the real product ``a * b``."""
    p = a * b
    if p != p:
        # 0 * inf. A finite-times-unbounded product is unconstrained below.
        return -_INF
    if _exact_product(a, b, p):
        return p
    return _nextafter(p, -_INF)


def mul_up(a: float, b: float) -> float:
    """Sound upper bound of the real product ``a * b``."""
    p = a * b
    if p != p:
        return _INF
    if _exact_product(a, b, p):
        return p
    return _nextafter(p, _INF)


def mul_bounds(a: float, b: float) -> tuple:
    """``(mul_down(a, b), mul_up(a, b))`` from one product and one
    exactness test."""
    p = a * b
    if p != p:
        return -_INF, _INF
    if _exact_product(a, b, p):
        return p, p
    return _nextafter(p, -_INF), _nextafter(p, _INF)


def div_down(a: float, b: float) -> float:
    """Sound lower bound of the real quotient ``a / b`` (``b`` nonzero)."""
    if b == 0.0:
        raise ZeroDivisionError("div_down with zero divisor")
    try:
        q = a / b
    except OverflowError:  # pragma: no cover - cannot happen with floats
        q = math.copysign(_INF, a) * math.copysign(1.0, b)
    if q != q:
        return -_INF
    # Division is exact only in special cases; detect with a multiply-back.
    if is_finite(q):
        p = q * b
        if _exact_product(q, b, p) and p == a:
            return q
    return _nextafter(q, -_INF)


def div_up(a: float, b: float) -> float:
    """Sound upper bound of the real quotient ``a / b`` (``b`` nonzero)."""
    if b == 0.0:
        raise ZeroDivisionError("div_up with zero divisor")
    q = a / b
    if q != q:
        return _INF
    if is_finite(q):
        p = q * b
        if _exact_product(q, b, p) and p == a:
            return q
    return _nextafter(q, _INF)


def sqrt_down(x: float) -> float:
    """Sound lower bound of the real square root of ``x >= 0``."""
    if x < 0.0:
        raise ValueError("sqrt_down of negative value")
    r = math.sqrt(x)
    if r * r == x and is_finite(r):
        return r
    return next_down(r)


def sqrt_up(x: float) -> float:
    """Sound upper bound of the real square root of ``x >= 0``."""
    if x < 0.0:
        raise ValueError("sqrt_up of negative value")
    r = math.sqrt(x)
    if r * r == x and is_finite(r):
        return r
    return next_up(r)


def ulp_error_bound(fmt: FloatFormat, magnitude: float) -> float:
    """Absolute rounding-error bound for one round-to-nearest operation.

    For a result of magnitude at most ``magnitude`` in format ``fmt``, the
    absolute error of round-to-nearest is at most
    ``rel_err * magnitude + abs_err`` (the linear-form error model of
    Sect. 6.3, absolute-error variant).
    """
    if math.isinf(magnitude):
        return _INF
    return add_up(mul_up(fmt.rel_err, abs(magnitude)), fmt.abs_err)
