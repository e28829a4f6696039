"""Interval linear forms and expression linearization (Sect. 6.3).

A linear form is ``sum_i [a_i, b_i] * v_i + [a, b]`` over program variables
``v_i`` with interval coefficients.  Linearizing expressions before feeding
them to the abstract domains recovers correlations lost by bottom-up interval
evaluation (the paper's ``X - 0.2 * X`` example evaluates to ``0.8 * X``),
and is also the channel through which concrete floating-point rounding is
soundly over-approximated: each float operator contributes an absolute error
interval to the constant term (the paper's chosen error model).

The linear forms are correct *over the reals*; the octagon and ellipsoid
domains consume them directly (Sect. 6.2.2's two-step recipe for
floating-point relational domains).
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping, Tuple

from .float_utils import FloatFormat, add_up, mul_up
from .intervals import FloatInterval
from .records import record

__all__ = ["LinearForm"]

VarId = Hashable


@record
class LinearForm:
    """``sum coeffs[v] * v + const`` with :class:`FloatInterval` coefficients.

    Immutable; all operations return new forms.  Coefficients never store a
    zero-constant interval (those are dropped to keep forms sparse).
    """

    coeffs: Tuple[Tuple[VarId, FloatInterval], ...]
    const: FloatInterval

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(iv: FloatInterval) -> "LinearForm":
        return LinearForm((), iv)

    @staticmethod
    def of_const(x: float) -> "LinearForm":
        return LinearForm((), FloatInterval.const(x))

    @staticmethod
    def var(v: VarId) -> "LinearForm":
        return LinearForm(((v, FloatInterval.const(1.0)),), FloatInterval.const(0.0))

    @staticmethod
    def make(coeffs: Mapping[VarId, FloatInterval], const: FloatInterval) -> "LinearForm":
        items = tuple(
            sorted(
                ((v, c) for v, c in coeffs.items() if not (c.is_const and c.lo == 0.0)),
                key=lambda it: repr(it[0]),
            )
        )
        return LinearForm(items, const)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def variables(self) -> Tuple[VarId, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coeff(self, v: VarId) -> FloatInterval:
        for w, c in self.coeffs:
            if w == v:
                return c
        return FloatInterval.const(0.0)

    # -- linear operations (sound over the reals) ---------------------------

    def neg(self) -> "LinearForm":
        return LinearForm(
            tuple((v, c.neg()) for v, c in self.coeffs), self.const.neg()
        )

    def add(self, other: "LinearForm") -> "LinearForm":
        merged = dict(self.coeffs)
        for v, c in other.coeffs:
            if v in merged:
                merged[v] = merged[v].add(c)
            else:
                merged[v] = c
        return LinearForm.make(merged, self.const.add(other.const))

    def sub(self, other: "LinearForm") -> "LinearForm":
        return self.add(other.neg())

    def scale(self, k: FloatInterval) -> "LinearForm":
        """Multiply by a constant interval."""
        return LinearForm.make(
            {v: c.mul(k) for v, c in self.coeffs}, self.const.mul(k)
        )

    def add_error(self, err: FloatInterval) -> "LinearForm":
        """Absorb an absolute error interval into the constant term."""
        return LinearForm(self.coeffs, self.const.add(err))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, lookup: Callable[[VarId], FloatInterval]) -> FloatInterval:
        """Interval evaluation under a variable-range environment."""
        acc = self.const
        for v, c in self.coeffs:
            acc = acc.add(c.mul(lookup(v)))
        return acc

    def intervalize(self, lookup: Callable[[VarId], FloatInterval]) -> FloatInterval:
        return self.evaluate(lookup)

    # -- float rounding model (Sect. 6.3) ------------------------------------

    def with_float_rounding(
        self, fmt: FloatFormat, lookup: Callable[[VarId], FloatInterval]
    ) -> "LinearForm":
        """Over-approximate one round-to-nearest of this form's value.

        The rounded value ``rnd(x)`` satisfies
        ``|rnd(x) - x| <= rel_err * |x| + abs_err``; we bound ``|x|`` by the
        interval evaluation of the form and add the corresponding absolute
        error interval to the constant (the absolute-error model the paper
        reports as "more easily implemented and precise enough").
        """
        mag = self.evaluate(lookup).magnitude()
        if math.isinf(mag):
            return LinearForm(self.coeffs, FloatInterval.top())
        e = add_up(mul_up(fmt.rel_err, mag), fmt.abs_err)
        return self.add_error(FloatInterval(-e, e))

    # -- substitution and solving ---------------------------------------------

    def substitute(self, v: VarId, replacement: "LinearForm") -> "LinearForm":
        """Replace variable ``v`` by a linear form (for assignment transfer)."""
        c = self.coeff(v)
        if c.is_const and c.lo == 0.0:
            return self
        rest = LinearForm(
            tuple((w, k) for w, k in self.coeffs if w != v), self.const
        )
        return rest.add(replacement.scale(c))

    def drop_to_interval(
        self, keep: Iterable[VarId], lookup: Callable[[VarId], FloatInterval]
    ) -> "LinearForm":
        """Intervalize every variable not in ``keep`` into the constant."""
        keep_set = set(keep)
        const = self.const
        kept = []
        for v, c in self.coeffs:
            if v in keep_set:
                kept.append((v, c))
            else:
                const = const.add(c.mul(lookup(v)))
        return LinearForm(tuple(kept), const)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c!r}*{v}" for v, c in self.coeffs]
        parts.append(repr(self.const))
        return " + ".join(parts)
