"""The C type system of the supported subset (Sect. 5.1, 5.3).

Machine-dependent aspects (sizes of arithmetic types, signedness of plain
``char``) follow a fixed 32-bit target description, as the paper's analyzer
takes "some information about the target environment (... the sizes of the
arithmetic types, etc.)" as an input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..numeric import BINARY32, BINARY64, FloatFormat

__all__ = [
    "CType",
    "IntType",
    "FloatType",
    "VoidType",
    "ArrayType",
    "RecordType",
    "PointerType",
    "FunctionType",
    "EnumType",
    "BOOL",
    "CHAR",
    "SCHAR",
    "UCHAR",
    "SHORT",
    "USHORT",
    "INT",
    "UINT",
    "LONG",
    "ULONG",
    "FLOAT",
    "DOUBLE",
    "VOID",
    "usual_arithmetic_conversion",
    "integer_promotion",
]


class CType:
    """Base class of all C types."""

    def is_scalar(self) -> bool:
        return isinstance(self, (IntType, FloatType, EnumType, PointerType))

    def is_arithmetic(self) -> bool:
        return isinstance(self, (IntType, FloatType, EnumType))

    def is_integer(self) -> bool:
        return isinstance(self, (IntType, EnumType))

    def is_float(self) -> bool:
        return isinstance(self, FloatType)


@dataclass(frozen=True)
class IntType(CType):
    """An integer type with explicit width and signedness."""

    name: str
    bits: int
    signed: bool

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @property
    def rank(self) -> int:
        return self.bits

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FloatType(CType):
    """A floating-point type backed by an IEEE format."""

    name: str
    fmt: FloatFormat

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VoidType(CType):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class EnumType(CType):
    """An enumeration; values behave as ``int`` (Sect. 6.1.1)."""

    tag: str
    members: Tuple[Tuple[str, int], ...] = ()

    @property
    def min_value(self) -> int:
        return INT.min_value

    @property
    def max_value(self) -> int:
        return INT.max_value

    @property
    def bits(self) -> int:
        return INT.bits

    @property
    def signed(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"enum {self.tag}"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


@dataclass(frozen=True)
class RecordType(CType):
    """A struct; field order is significant."""

    tag: str
    fields: Tuple[Tuple[str, CType], ...]

    def field_type(self, name: str) -> Optional[CType]:
        for fname, ftype in self.fields:
            if fname == name:
                return ftype
        return None

    def __str__(self) -> str:
        return f"struct {self.tag}"


@dataclass(frozen=True)
class PointerType(CType):
    """Only used for call-by-reference parameters (Sect. 4)."""

    pointee: CType

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class FunctionType(CType):
    ret: CType
    params: Tuple[CType, ...]

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"{self.ret}({ps})"


BOOL = IntType("_Bool", 8, False)
CHAR = IntType("char", 8, True)  # plain char is signed on the target
SCHAR = IntType("signed char", 8, True)
UCHAR = IntType("unsigned char", 8, False)
SHORT = IntType("short", 16, True)
USHORT = IntType("unsigned short", 16, False)
INT = IntType("int", 32, True)
UINT = IntType("unsigned int", 32, False)
LONG = IntType("long", 32, True)  # 32-bit target: long is 32 bits
ULONG = IntType("unsigned long", 32, False)
FLOAT = FloatType("float", BINARY32)
DOUBLE = FloatType("double", BINARY64)
VOID = VoidType()


def integer_promotion(t: CType) -> CType:
    """C99 6.3.1.1: small integer types promote to ``int``."""
    if isinstance(t, EnumType):
        return INT
    if isinstance(t, IntType) and t.rank < INT.rank:
        # int can represent all values of the smaller types on this target.
        return INT
    return t


def usual_arithmetic_conversion(a: CType, b: CType) -> CType:
    """C99 6.3.1.8 usual arithmetic conversions for the supported types."""
    if isinstance(a, FloatType) or isinstance(b, FloatType):
        fa = a if isinstance(a, FloatType) else None
        fb = b if isinstance(b, FloatType) else None
        if fa is DOUBLE or fb is DOUBLE:
            return DOUBLE
        return FLOAT
    a = integer_promotion(a)
    b = integer_promotion(b)
    assert isinstance(a, IntType) and isinstance(b, IntType)
    if a == b:
        return a
    if a.signed == b.signed:
        return a if a.rank >= b.rank else b
    unsigned, signed = (a, b) if not a.signed else (b, a)
    if unsigned.rank >= signed.rank:
        return unsigned
    # Signed type can represent all unsigned values (not on this 32-bit
    # target for equal ranks, handled above).
    return signed
