"""Abstract syntax tree produced by the parser (untyped).

The type checker decorates expressions with types; :mod:`repro.frontend.
lowering` then compiles the AST into the simplified intermediate
representation of :mod:`repro.frontend.ir` (Sect. 5.1: "a simplified version
of the abstract syntax tree with all types explicit and variables given
unique identifiers").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "Location",
    # expressions
    "Expr", "IntLit", "FloatLit", "Ident", "Unary", "Binary", "Assign",
    "Conditional", "Call", "Index", "Member", "Cast", "SizeOf", "Comma",
    # statements
    "Stmt", "ExprStmt", "CompoundStmt", "IfStmt", "WhileStmt", "DoWhileStmt",
    "ForStmt", "ReturnStmt", "BreakStmt", "ContinueStmt", "EmptyStmt",
    "DeclStmt", "SwitchStmt", "CaseLabel",
    # declarations
    "TypeSpec", "NamedType", "StructSpec", "EnumSpec", "Declarator",
    "InitItem", "VarDecl", "ParamDecl", "FuncDef", "TypedefDecl",
    "TranslationUnit",
]


@dataclass(frozen=True)
class Location:
    filename: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}"


UNKNOWN_LOC = Location("<unknown>", 0, 0)


# --------------------------------------------------------------------------
# Expressions


@dataclass
class Expr:
    loc: Location = field(default=UNKNOWN_LOC, kw_only=True)
    ctype: object = field(default=None, kw_only=True)  # set by the typechecker


@dataclass
class IntLit(Expr):
    value: int = 0
    suffix: str = ""


@dataclass
class FloatLit(Expr):
    value: float = 0.0
    suffix: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    op: str = ""  # -, +, !, ~, &, *, ++pre, --pre, post++, post--
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Assign(Expr):
    op: str = "="  # =, +=, -=, ...
    target: Expr = None
    value: Expr = None


@dataclass
class Conditional(Expr):
    cond: Expr = None
    then: Expr = None
    other: Expr = None


@dataclass
class Call(Expr):
    func: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Member(Expr):
    base: Expr = None
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    target_type: "TypeSpec" = None
    operand: Expr = None


@dataclass
class SizeOf(Expr):
    target_type: Optional["TypeSpec"] = None
    operand: Optional[Expr] = None


@dataclass
class Comma(Expr):
    parts: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Type specifiers (syntactic)


@dataclass
class TypeSpec:
    loc: Location = field(default=UNKNOWN_LOC, kw_only=True)


@dataclass
class NamedType(TypeSpec):
    """Builtin combination ('unsigned int') or a typedef name."""

    name: str = ""
    pointer_depth: int = 0


@dataclass
class StructSpec(TypeSpec):
    tag: str = ""
    # None for a reference to a previously declared struct.
    fields: Optional[List["VarDecl"]] = None
    pointer_depth: int = 0


@dataclass
class EnumSpec(TypeSpec):
    tag: str = ""
    # (name, explicit value or None)
    members: Optional[List[Tuple[str, Optional[Expr]]]] = None
    pointer_depth: int = 0


# --------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    loc: Location = field(default=UNKNOWN_LOC, kw_only=True)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class CompoundStmt(Stmt):
    items: List[Stmt] = field(default_factory=list)
    block_id: int = -1  # filled by the parser; used by packing (Sect. 7.2.1)


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then: Stmt = None
    other: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhileStmt(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class EmptyStmt(Stmt):
    pass


@dataclass
class CaseLabel:
    value: Optional[Expr]  # None for default:
    body: List[Stmt] = field(default_factory=list)
    falls_through: bool = False


@dataclass
class SwitchStmt(Stmt):
    scrutinee: Expr = None
    cases: List[CaseLabel] = field(default_factory=list)


@dataclass
class DeclStmt(Stmt):
    decls: List["VarDecl"] = field(default_factory=list)


# --------------------------------------------------------------------------
# Declarations


@dataclass
class Declarator:
    name: str = ""
    # Array dimensions, outermost first; empty for scalars.
    array_dims: List[Expr] = field(default_factory=list)
    pointer_depth: int = 0


@dataclass
class InitItem:
    """An initializer: a single expression or a brace list."""

    expr: Optional[Expr] = None
    items: Optional[List["InitItem"]] = None


@dataclass
class VarDecl:
    name: str = ""
    type_spec: TypeSpec = None
    declarator: Declarator = None
    init: Optional[InitItem] = None
    is_volatile: bool = False
    is_const: bool = False
    is_static: bool = False
    is_extern: bool = False
    loc: Location = UNKNOWN_LOC


@dataclass
class ParamDecl:
    name: str = ""
    type_spec: TypeSpec = None
    declarator: Declarator = None
    loc: Location = UNKNOWN_LOC


@dataclass
class FuncDef:
    name: str = ""
    ret_type: TypeSpec = None
    params: List[ParamDecl] = field(default_factory=list)
    body: Optional[CompoundStmt] = None  # None for prototypes
    is_static: bool = False
    loc: Location = UNKNOWN_LOC


@dataclass
class TypedefDecl:
    name: str = ""
    type_spec: TypeSpec = None
    declarator: Declarator = None
    loc: Location = UNKNOWN_LOC


@dataclass
class TranslationUnit:
    filename: str = "<input>"
    decls: List[object] = field(default_factory=list)  # VarDecl | FuncDef | TypedefDecl
