"""Tests for directed-rounding primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.numeric.float_utils import (
    BINARY32,
    BINARY64,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_bounds,
    mul_down,
    mul_up,
    next_down,
    next_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
    ulp_error_bound,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: x != 0.0)


class TestNextUpDown:
    def test_next_up_strictly_increases(self):
        assert next_up(1.0) > 1.0

    def test_next_down_strictly_decreases(self):
        assert next_down(1.0) < 1.0

    def test_next_up_of_inf(self):
        assert next_up(math.inf) == math.inf

    def test_next_down_of_neg_inf(self):
        assert next_down(-math.inf) == -math.inf

    def test_next_up_zero(self):
        assert next_up(0.0) > 0.0

    def test_adjacent(self):
        x = 1.5
        assert next_down(next_up(x)) == x


class TestDirectedAdd:
    @given(finite, finite)
    def test_add_brackets_true_sum(self, a, b):
        lo, hi = add_down(a, b), add_up(a, b)
        assert lo <= hi
        # The rounded-to-nearest sum is within the bracket.
        s = a + b
        if not math.isnan(s):
            assert lo <= s <= hi

    def test_exact_add_not_widened(self):
        assert add_down(1.0, 2.0) == 3.0
        assert add_up(1.0, 2.0) == 3.0

    def test_inexact_add_widened(self):
        # 0.1 + 0.2 is inexact in binary64.
        assert add_down(0.1, 0.2) < 0.1 + 0.2 < add_up(0.1, 0.2)

    def test_overflow_add_up(self):
        big = 1.7e308
        assert add_up(big, big) == math.inf

    def test_inf_minus_inf_is_unconstrained(self):
        assert add_down(math.inf, -math.inf) == -math.inf
        assert add_up(math.inf, -math.inf) == math.inf

    @given(finite, finite)
    def test_sub_matches_add_of_negation(self, a, b):
        assert sub_down(a, b) == add_down(a, -b)
        assert sub_up(a, b) == add_up(a, -b)


class TestDirectedMul:
    @given(finite, finite)
    def test_mul_brackets_nearest(self, a, b):
        lo, hi = mul_down(a, b), mul_up(a, b)
        p = a * b
        assert lo <= hi
        if not math.isnan(p):
            assert lo <= p <= hi

    def test_exact_mul_not_widened(self):
        assert mul_down(3.0, 4.0) == 12.0
        assert mul_up(3.0, 4.0) == 12.0

    def test_mul_by_zero(self):
        assert mul_down(0.0, 5.0) == 0.0
        assert mul_up(0.0, 5.0) == 0.0

    def test_zero_times_inf(self):
        assert mul_down(0.0, math.inf) == -math.inf
        assert mul_up(0.0, math.inf) == math.inf

    def test_inexact_mul_widened(self):
        assert mul_down(0.1, 0.1) < 0.1 * 0.1 < mul_up(0.1, 0.1)


class TestDirectedDiv:
    @given(finite, nonzero)
    def test_div_brackets_nearest(self, a, b):
        lo, hi = div_down(a, b), div_up(a, b)
        q = a / b
        assert lo <= hi
        if not math.isnan(q):
            assert lo <= q <= hi

    def test_exact_div(self):
        assert div_down(6.0, 2.0) == 3.0
        assert div_up(6.0, 2.0) == 3.0

    def test_inexact_div_widened(self):
        assert div_down(1.0, 3.0) < div_up(1.0, 3.0)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            div_down(1.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            div_up(1.0, 0.0)


class TestSqrt:
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_sqrt_brackets(self, x):
        lo, hi = sqrt_down(x), sqrt_up(x)
        assert lo <= math.sqrt(x) <= hi

    def test_exact_square(self):
        assert sqrt_down(4.0) == 2.0
        assert sqrt_up(4.0) == 2.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            sqrt_down(-1.0)


class TestFormats:
    def test_binary32_max(self):
        import numpy as np

        assert BINARY32.max_value == float(np.finfo(np.float32).max)

    def test_binary64_max(self):
        assert BINARY64.max_value == math.ldexp(1.0, 1023) * (2.0 - math.ldexp(1.0, -52))

    def test_rel_err(self):
        assert BINARY32.rel_err == 2.0**-24
        assert BINARY64.rel_err == 2.0**-53

    def test_min_subnormal(self):
        import numpy as np

        assert BINARY32.min_subnormal == float(np.finfo(np.float32).smallest_subnormal)

    def test_ulp_error_bound_monotone(self):
        assert ulp_error_bound(BINARY32, 1.0) <= ulp_error_bound(BINARY32, 2.0)

    def test_ulp_error_bound_infinite_magnitude(self):
        assert ulp_error_bound(BINARY32, math.inf) == math.inf

    def test_binary32_roundtrip_error(self):
        """Rounding any real near 1.0 to binary32 errs <= the bound."""
        import numpy as np

        x = 1.0000000123
        err = abs(float(np.float32(x)) - x)
        assert err <= ulp_error_bound(BINARY32, abs(x))


# -- bit-for-bit agreement with the two-call reference ----------------------
#
# The helpers above are trusted-base code.  Their fused forms (one
# product per bound pair, one finiteness test) must return exactly what
# these straightforward definitions return, special values and Python
# ints included.


def _ref_is_finite(x):
    return not (math.isinf(x) or math.isnan(x))


def _ref_exact_add(a, b):
    s = a + b
    if not _ref_is_finite(s):
        return False
    bb = s - a
    return (a - (s - bb)) + (b - bb) == 0.0


def _ref_exact_mul(a, b):
    if a == 0.0 or b == 0.0:
        return True
    p = a * b
    if not (_ref_is_finite(p) and _ref_is_finite(a) and _ref_is_finite(b)):
        return False
    if (a == int(a) and b == int(b)
            and abs(a) < 67108864.0 and abs(b) < 67108864.0):
        return abs(p) < 9007199254740992.0
    return False


def _ref_add(a, b, up):
    s = a + b
    if math.isnan(s):
        return math.inf if up else -math.inf
    if _ref_is_finite(s) and _ref_exact_add(a, b):
        return s
    return next_up(s) if up else next_down(s)


def _ref_mul(a, b, up):
    p = a * b
    if math.isnan(p):
        return math.inf if up else -math.inf
    if _ref_exact_mul(a, b):
        return p
    return next_up(p) if up else next_down(p)


def _ref_div(a, b, up):
    q = a / b
    if math.isnan(q):
        return math.inf if up else -math.inf
    if _ref_is_finite(q) and _ref_exact_mul(q, b) and q * b == a:
        return q
    return next_up(q) if up else next_down(q)


def _bits(x):
    """Type and exact bits: ``-0.0`` differs from ``0.0``, ``6`` from
    ``6.0``."""
    return type(x).__name__, x.hex() if isinstance(x, float) else x


_TINY = 5e-324
_SPECIAL = [0.0, -0.0, _TINY, -_TINY, 2.2250738585072014e-308,
            -2.2250738585072009e-308, 1.0, -1.0, 0.1, -0.75, 3.0,
            math.inf, -math.inf, math.nan, 1.7976931348623157e308,
            -1.7976931348623157e308,
            2.0 ** 26, -(2.0 ** 26), 2.0 ** 26 - 1.0, 2.0 ** 26 + 1.0,
            2.0 ** 53, 2.0 ** 53 - 1.0, 2.0 ** 53 + 2.0, -(2.0 ** 53),
            2.0 ** 27 + 1.0, 0, 1, -3, 7, 2 ** 26, 2 ** 26 - 1,
            -(2 ** 26) + 1, 2 ** 53, 2 ** 53 + 1]
_PAIRS = [(a, b) for a in _SPECIAL for b in _SPECIAL]
anything = st.one_of(st.floats(), st.integers(-2 ** 60, 2 ** 60))


class TestFusedRoundingMatchesReference:
    def test_mul_bounds_is_the_pair_of_directed_products(self):
        for a, b in _PAIRS:
            lo, hi = mul_bounds(a, b)
            assert _bits(lo) == _bits(mul_down(a, b)), (a, b)
            assert _bits(hi) == _bits(mul_up(a, b)), (a, b)

    @given(anything, anything)
    def test_mul_bounds_random(self, a, b):
        assert [_bits(x) for x in mul_bounds(a, b)] == [
            _bits(mul_down(a, b)), _bits(mul_up(a, b))]

    def test_directed_ops_match_reference(self):
        for a, b in _PAIRS:
            for up, add, mul in ((False, add_down, mul_down),
                                 (True, add_up, mul_up)):
                assert _bits(add(a, b)) == _bits(_ref_add(a, b, up)), (a, b)
                assert _bits(mul(a, b)) == _bits(_ref_mul(a, b, up)), (a, b)
            if b != 0:
                assert _bits(div_down(a, b)) == _bits(_ref_div(a, b, False))
                assert _bits(div_up(a, b)) == _bits(_ref_div(a, b, True))

    @given(anything, anything)
    def test_directed_ops_match_reference_random(self, a, b):
        assert _bits(add_down(a, b)) == _bits(_ref_add(a, b, False))
        assert _bits(add_up(a, b)) == _bits(_ref_add(a, b, True))
        assert _bits(mul_down(a, b)) == _bits(_ref_mul(a, b, False))
        assert _bits(mul_up(a, b)) == _bits(_ref_mul(a, b, True))
        if b != 0:
            assert _bits(div_down(a, b)) == _bits(_ref_div(a, b, False))
            assert _bits(div_up(a, b)) == _bits(_ref_div(a, b, True))
