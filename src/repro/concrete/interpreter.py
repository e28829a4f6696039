"""A concrete interpreter for the analyzed C subset.

This is testing infrastructure for the reproduction (not part of the
paper's analyzer): it executes lowered IR programs with the *concrete*
semantics the abstract interpreter claims to over-approximate —

* 32-bit two's-complement integers (wrap-around on overflow),
* IEEE-754 binary32/binary64 floats with round-to-nearest
  (via ``numpy.float32`` / Python floats),
* volatile reads drawn fresh from an input provider on every read,
* run-time errors (division by zero, out-of-bounds access, invalid
  operations) recorded as :class:`ConcreteError` events.

Its purpose is differential validation: every state reached by a concrete
run must be contained in the analyzer's invariants, and every concrete
error must be covered by an alarm.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..frontend import ir as I
from ..frontend.c_types import (
    ArrayType, CType, EnumType, FLOAT, FloatType, IntType, PointerType,
    RecordType,
)

__all__ = ["ConcreteError", "ConcreteInterpreter", "RandomInputs",
           "TraceEntry", "derive_seed"]


def derive_seed(*parts) -> int:
    """A stable 63-bit seed derived from heterogeneous parts.

    Every differential/fuzz run draws its volatile inputs from a
    :class:`RandomInputs` seeded through this function, so a whole
    campaign is reproducible from a single root seed:
    ``derive_seed(campaign_seed, case_index, "stream", k)`` names the
    k-th input stream of one case, independent of Python's hash
    randomization and of any module-level ``random`` state.
    """
    h = hashlib.sha256(repr(parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


class ConcreteError(Exception):
    """A genuine run-time error encountered during concrete execution."""

    def __init__(self, kind: str, loc, message: str):
        self.kind = kind
        self.loc = loc
        super().__init__(f"{loc}: [{kind}] {message}")


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _OutOfFuel(Exception):
    pass


class RandomInputs:
    """Volatile input provider: fresh uniform draw per read.

    The seed is *explicit* (no default): every consumer must say which
    stream it is drawing, so differential and fuzzing runs replay
    bit-identically from a single campaign seed (see :func:`derive_seed`).
    The provider owns its own :class:`random.Random` — it never touches
    module-level ``random`` state.
    """

    def __init__(self, ranges: Dict[str, Tuple[float, float]], seed: int):
        self.ranges = ranges
        self.seed = seed
        self.rng = random.Random(seed)

    def fork(self, stream: int) -> "RandomInputs":
        """An independent, reproducible substream over the same ranges."""
        return RandomInputs(self.ranges, derive_seed(self.seed, "fork", stream))

    def read(self, var: I.Var):
        lo, hi = self.ranges.get(var.name, (0, 0))
        if isinstance(var.ctype, FloatType):
            v = self.rng.uniform(float(lo), float(hi))
            return float(np.float32(v)) if var.ctype is FLOAT else v
        return self.rng.randint(int(math.ceil(lo)), int(math.floor(hi)))


@dataclass
class TraceEntry:
    """Snapshot of scalar global values at one loop-head visit."""

    tick: int
    values: Dict[str, Union[int, float]]


class ConcreteInterpreter:
    """Executes an IR program concretely for a bounded number of ticks."""

    def __init__(self, prog: I.IRProgram, inputs: RandomInputs,
                 max_ticks: int = 100, max_steps: int = 2_000_000):
        self.prog = prog
        self.inputs = inputs
        self.max_ticks = max_ticks
        self.max_steps = max_steps
        self.memory: Dict[int, object] = {}
        self.ticks = 0
        self.steps = 0
        self.trace: List[TraceEntry] = []
        self.errors: List[ConcreteError] = []
        self._bindings: List[Dict[int, I.LValue]] = [{}]

    # -- top level -------------------------------------------------------------

    def run(self) -> List[TraceEntry]:
        """Execute from the entry point until the tick budget is exhausted."""
        for var in self.prog.globals:
            init = self.prog.initializers.get(var.uid)
            self.memory[var.uid] = _materialize(var.ctype, init)
        fn = self.prog.functions[self.prog.entry]
        try:
            self._exec_call(fn, [])
        except _OutOfFuel:
            pass
        except _Return:
            pass
        return self.trace

    def snapshot(self) -> Dict[str, Union[int, float]]:
        out: Dict[str, Union[int, float]] = {}
        for var in self.prog.globals:
            value = self.memory.get(var.uid)
            if isinstance(value, (int, float)):
                out[var.name] = value
        return out

    # -- statements ---------------------------------------------------------------

    def _exec_block(self, stmts) -> None:
        for s in stmts:
            self._exec_stmt(s)

    def _exec_stmt(self, s: I.Stmt) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _OutOfFuel()
        if isinstance(s, I.SAssign):
            value = self._eval(s.value, s)
            self._store(s.target, value, s)
        elif isinstance(s, I.SIf):
            if _truthy(self._eval(s.cond, s)):
                self._exec_block(s.then)
            else:
                self._exec_block(s.other)
        elif isinstance(s, I.SWhile):
            first = s.run_body_first
            while True:
                if not first and not _truthy(self._eval(s.cond, s)):
                    break
                first = False
                try:
                    self._exec_block(s.body)
                except _Break:
                    break
                except _Continue:
                    pass
                self._exec_block(s.step)
        elif isinstance(s, I.SSwitch):
            scrutinee = self._eval(s.scrutinee, s)
            chosen = None
            default = None
            for values, body in s.cases:
                if values is None:
                    default = body
                elif scrutinee in values:
                    chosen = body
                    break
            body = chosen if chosen is not None else default
            if body is not None:
                try:
                    self._exec_block(body)
                except _Break:
                    pass
        elif isinstance(s, I.SCall):
            fn = self.prog.functions[s.func]
            result = self._exec_call(fn, s.args, s)
            if s.result is not None:
                self._store(s.result, _convert(result, s.result.ctype), s)
        elif isinstance(s, I.SReturn):
            raise _Return(self._eval(s.value, s) if s.value is not None else None)
        elif isinstance(s, I.SBreak):
            raise _Break()
        elif isinstance(s, I.SContinue):
            raise _Continue()
        elif isinstance(s, I.SWait):
            self.trace.append(TraceEntry(self.ticks, self.snapshot()))
            self.ticks += 1
            if self.ticks >= self.max_ticks:
                raise _OutOfFuel()
        elif isinstance(s, I.SAssume):
            pass  # trusted environment facts hold by construction
        elif isinstance(s, I.SCheck):
            if not _truthy(self._eval(s.cond, s)):
                self._error("user-assertion", s, "assertion failed")
        elif isinstance(s, I.SNop):
            pass
        else:  # pragma: no cover
            raise TypeError(f"unknown statement {s!r}")

    def _exec_call(self, fn: I.IRFunction, args, site: Optional[I.Stmt] = None):
        bindings: Dict[int, I.LValue] = {}
        local_values: List[Tuple[int, object]] = []
        for param, arg in zip(fn.params, args):
            if isinstance(param.ctype, PointerType):
                bindings[param.uid] = self._resolve_binding(arg)
            else:
                local_values.append((param.uid, self._eval(arg, site)))
        for uid, value in local_values:
            self.memory[uid] = value
        for local in fn.locals:
            self.memory[local.uid] = _materialize(local.ctype, None)
        self._bindings.append(bindings)
        try:
            self._exec_block(fn.body)
            return None
        except _Return as r:
            return r.value
        finally:
            self._bindings.pop()

    def _resolve_binding(self, lv: I.LValue) -> I.LValue:
        if isinstance(lv, I.LDeref):
            return self._lookup_binding(lv.var)
        if isinstance(lv, I.LIndex):
            # Freeze the index now (caller context evaluation).
            idx = self._eval(lv.index, None)
            return I.LIndex(self._resolve_binding(lv.base),
                            I.Const(idx, lv.index.ctype if hasattr(lv.index, "ctype") else None),
                            lv.element_type)
        if isinstance(lv, I.LField):
            return I.LField(self._resolve_binding(lv.base), lv.fieldname,
                            lv.field_type)
        return lv

    def _lookup_binding(self, var: I.Var) -> I.LValue:
        for frame in reversed(self._bindings):
            if var.uid in frame:
                return frame[var.uid]
        raise KeyError(var.name)

    # -- l-values --------------------------------------------------------------------

    def _store(self, lv: I.LValue, value, site) -> None:
        container, key = self._locate(lv, site)
        container[key] = _convert(value, lv.ctype)

    def _load(self, lv: I.LValue, site):
        container, key = self._locate(lv, site)
        return container[key]

    def _locate(self, lv: I.LValue, site):
        """Resolve to (container, key) for reading/writing."""
        if isinstance(lv, I.LVar):
            if lv.var.volatile:
                # Reads handled in _eval; writes land in memory normally.
                pass
            return self.memory, lv.var.uid
        if isinstance(lv, I.LDeref):
            return self._locate(self._lookup_binding(lv.var), site)
        if isinstance(lv, I.LField):
            container, key = self._locate(lv.base, site)
            record = container[key]
            return record, lv.fieldname
        if isinstance(lv, I.LIndex):
            container, key = self._locate(lv.base, site)
            array = container[key]
            idx = self._eval(lv.index, site)
            if not isinstance(array, list) or not (0 <= idx < len(array)):
                self._error("array-index-out-of-bounds", site,
                            f"index {idx} outside [0, {len(array) - 1 if isinstance(array, list) else '?'}]")
                idx = max(0, min(idx, len(array) - 1))
            return array, idx
        raise TypeError(f"unknown lvalue {lv!r}")  # pragma: no cover

    # -- expressions --------------------------------------------------------------------

    def _eval(self, e: I.Expr, site):
        if isinstance(e, I.Const):
            return e.value
        if isinstance(e, I.Load):
            root = I.lvalue_root(e.lval)
            if isinstance(e.lval, I.LVar) and root.volatile:
                return self.inputs.read(root)
            return self._load(e.lval, site)
        if isinstance(e, I.UnaryOp):
            v = self._eval(e.arg, site)
            if e.op == "neg":
                return _convert(-v, e.ctype)
            if e.op == "bnot":
                return _wrap_int(~int(v), e.ctype)
            if e.op == "fabs":
                return _convert(abs(v), e.ctype)
            if e.op == "sqrt":
                if v < 0:
                    self._error("invalid-float-operation", site, "sqrt(<0)")
                    return 0.0
                return _convert(math.sqrt(v), e.ctype)
        if isinstance(e, I.BinOp):
            a = self._eval(e.left, site)
            b = self._eval(e.right, site)
            return self._binop(e, a, b, site)
        if isinstance(e, I.BoolOp):
            a = _truthy(self._eval(e.left, site))
            b = _truthy(self._eval(e.right, site))
            return int(a and b) if e.op == "and" else int(a or b)
        if isinstance(e, I.NotOp):
            return int(not _truthy(self._eval(e.arg, site)))
        if isinstance(e, I.Cast):
            v = self._eval(e.arg, site)
            if isinstance(v, float) and isinstance(e.ctype, (IntType, EnumType)):
                # C leaves out-of-range float->int casts undefined; the
                # analyzer alarms cast-out-of-range and wipes.  Mirror it:
                # record the error and saturate so execution stays total.
                bits, signed = _int_layout(e.ctype)
                lo = -(1 << (bits - 1)) if signed else 0
                hi = (1 << (bits - 1 if signed else bits)) - 1
                if math.isnan(v):
                    self._error("cast-out-of-range", site,
                                "NaN cast to integer")
                    return 0
                if not (lo - 1.0 < v < hi + 1.0):
                    self._error("cast-out-of-range", site,
                                f"{v!r} outside [{lo}, {hi}]")
                    return lo if v < 0 else hi
            out = _convert(v, e.ctype)
            if (isinstance(out, float) and not math.isfinite(out)
                    and isinstance(v, (int, float))
                    and math.isfinite(float(v))):
                self._error("float-overflow", site,
                            f"{v!r} overflows {e.ctype}")
            return out
        raise TypeError(f"unknown expression {e!r}")  # pragma: no cover

    def _binop(self, e: I.BinOp, a, b, site):
        op = e.op
        if e.is_comparison:
            return {
                "lt": int(a < b), "le": int(a <= b), "gt": int(a > b),
                "ge": int(a >= b), "eq": int(a == b), "ne": int(a != b),
            }[op]
        if isinstance(e.ctype, FloatType):
            if op == "div" and b == 0.0:
                self._error("division-by-zero", site, "float division by 0")
                return 0.0
            raw = {"add": a + b, "sub": a - b, "mul": a * b,
                   "div": a / b if b != 0.0 else 0.0}[op]
            out = _convert(raw, e.ctype)
            if (not math.isfinite(out) and math.isfinite(a)
                    and math.isfinite(b)):
                # Overflow past the format's range (the analyzer's
                # FLOAT_OVERFLOW alarm wipes these executions).
                self._error("float-overflow" if math.isinf(out)
                            else "invalid-float-operation", site,
                            f"{op} produced {out!r}")
            return out
        ia, ib = int(a), int(b)
        if op in ("div", "mod") and ib == 0:
            self._error("division-by-zero" if op == "div" else "modulo-by-zero",
                        site, "by zero")
            return 0
        if op == "add":
            raw = ia + ib
        elif op == "sub":
            raw = ia - ib
        elif op == "mul":
            raw = ia * ib
        elif op == "div":
            q = abs(ia) // abs(ib)
            raw = q if (ia >= 0) == (ib >= 0) else -q
        elif op == "mod":
            r = abs(ia) % abs(ib)
            raw = r if ia >= 0 else -r
        elif op == "shl":
            if not (0 <= ib < 32):
                self._error("shift-out-of-range", site, f"shift by {ib}")
                ib = max(0, min(ib, 31))
            raw = ia << ib
        elif op == "shr":
            if not (0 <= ib < 32):
                self._error("shift-out-of-range", site, f"shift by {ib}")
                ib = max(0, min(ib, 31))
            raw = ia >> ib
        elif op == "band":
            raw = ia & ib
        elif op == "bor":
            raw = ia | ib
        elif op == "bxor":
            raw = ia ^ ib
        else:  # pragma: no cover
            raise TypeError(op)
        wrapped = _wrap_int(raw, e.ctype)
        if wrapped != raw:
            self._error("integer-overflow", site,
                        f"{raw} wraps to {wrapped}")
        return wrapped

    def _error(self, kind: str, site, message: str) -> None:
        loc = site.loc if site is not None else None
        self.errors.append(ConcreteError(kind, loc, message))


# ---------------------------------------------------------------------------


def _materialize(ctype: CType, init):
    if isinstance(ctype, ArrayType):
        items = init if init is not None else [None] * ctype.length
        return [_materialize(ctype.element, item) for item in items]
    if isinstance(ctype, RecordType):
        src = init if isinstance(init, dict) else {}
        return {fname: _materialize(ftype, src.get(fname))
                for fname, ftype in ctype.fields}
    if isinstance(ctype, FloatType):
        return float(init) if init is not None else 0.0
    if init is None:
        return 0
    return int(init)


def _truthy(v) -> bool:
    return v != 0


def _int_layout(ctype) -> Tuple[int, bool]:
    if isinstance(ctype, IntType):
        return ctype.bits, ctype.signed
    return 32, True


def _wrap_int(value: int, ctype) -> int:
    bits, signed = _int_layout(ctype)
    mask = (1 << bits) - 1
    value &= mask
    if signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _convert(value, ctype):
    if value is None:
        return None
    if isinstance(ctype, FloatType):
        if ctype is FLOAT:
            return float(np.float32(value))
        return float(value)
    if isinstance(ctype, (IntType, EnumType)):
        if isinstance(value, float) and not math.isfinite(value):
            # Backstop for conversions without an explicit Cast node;
            # the Cast path records the error before reaching here.
            return 0
        return _wrap_int(int(value), ctype)
    return value
