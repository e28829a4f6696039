"""Typed intermediate representation (Sect. 5.1).

"The program is then type-checked and compiled to an intermediate
representation, a simplified version of the abstract syntax tree with all
types explicit and variables given unique identifiers."

The IR is what the iterator (Sect. 5.3) executes abstractly:

* Variables carry unique integer ids, an explicit :class:`~repro.frontend.
  c_types.CType` and a storage kind; volatile inputs are distinguished so
  reads consult the environment specification (Sect. 4).
* Expressions are side-effect free; lowering hoists assignments, calls and
  ``++``/``--`` out of conditions ("both of which can be handled by first
  performing a program transformation", Sect. 5.4).
* Control structure is retained (tests, loops, sequences), matching the
  compositional, by-induction-on-syntax abstract interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .ast_nodes import Location, UNKNOWN_LOC
from .c_types import CType, FunctionType

__all__ = [
    "Var", "VarKind",
    "LValue", "LVar", "LIndex", "LField", "LDeref",
    "Expr", "Const", "Load", "UnaryOp", "BinOp", "BoolOp", "NotOp", "Cast",
    "Stmt", "SAssign", "SIf", "SWhile", "SCall", "SReturn", "SBreak",
    "SContinue", "SWait", "SAssume", "SCheck", "SNop", "SSwitch",
    "IRFunction", "IRProgram",
]


class VarKind:
    GLOBAL = "global"
    STATIC = "static"
    LOCAL = "local"
    PARAM = "param"
    RETURN = "return"
    TEMP = "temp"


@dataclass(frozen=True)
class Var:
    """A program variable with a unique identifier."""

    uid: int
    name: str
    ctype: CType
    kind: str = VarKind.GLOBAL
    volatile: bool = False

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var({self.uid}, {self.name})"


# --------------------------------------------------------------------------
# L-values


@dataclass(frozen=True)
class LValue:
    pass


@dataclass(frozen=True)
class LVar(LValue):
    var: Var

    @property
    def ctype(self) -> CType:
        return self.var.ctype

    def __str__(self) -> str:
        return self.var.name


@dataclass(frozen=True)
class LIndex(LValue):
    base: LValue
    index: "Expr"
    element_type: CType

    @property
    def ctype(self) -> CType:
        return self.element_type

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class LField(LValue):
    base: LValue
    fieldname: str
    field_type: CType

    @property
    def ctype(self) -> CType:
        return self.field_type

    def __str__(self) -> str:
        return f"{self.base}.{self.fieldname}"


@dataclass(frozen=True)
class LDeref(LValue):
    """Dereference of a call-by-reference pointer parameter (Sect. 4).

    At a call, the iterator binds the parameter to the actual l-value, so a
    deref never escapes the callee's abstract execution.
    """

    var: Var
    pointee_type: CType

    @property
    def ctype(self) -> CType:
        return self.pointee_type

    def __str__(self) -> str:
        return f"*{self.var.name}"


def lvalue_root(lv: LValue) -> Var:
    while not isinstance(lv, (LVar, LDeref)):
        lv = lv.base  # type: ignore[union-attr]
    return lv.var


# --------------------------------------------------------------------------
# Expressions (side-effect free)


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: Union[int, float]
    ctype: CType

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Load(Expr):
    lval: LValue

    @property
    def ctype(self) -> CType:
        return self.lval.ctype

    def __str__(self) -> str:
        return str(self.lval)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """op in {'neg', 'bnot', 'fabs', 'sqrt'}; applied after promotion."""

    op: str
    arg: Expr
    ctype: CType

    def __str__(self) -> str:
        sym = {"neg": "-", "bnot": "~"}.get(self.op, self.op)
        return f"{sym}({self.arg})"


_ARITH_OPS = ("add", "sub", "mul", "div", "mod", "shl", "shr", "band", "bor", "bxor")
_CMP_OPS = ("lt", "le", "gt", "ge", "eq", "ne")


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic or comparison; operands already share a common type.

    ``ctype`` is the result type; for comparisons it is ``int`` while the
    operands' common type is ``operand_type``.
    """

    op: str
    left: Expr
    right: Expr
    ctype: CType
    operand_type: CType = None

    def __str__(self) -> str:
        sym = {
            "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
            "shl": "<<", "shr": ">>", "band": "&", "bor": "|", "bxor": "^",
            "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
        }[self.op]
        return f"({self.left} {sym} {self.right})"

    @property
    def is_comparison(self) -> bool:
        return self.op in _CMP_OPS


@dataclass(frozen=True)
class BoolOp(Expr):
    """Logical '&&'/'||' over side-effect-free operands (set semantics)."""

    op: str  # 'and' | 'or'
    left: Expr
    right: Expr
    ctype: CType

    def __str__(self) -> str:
        sym = {"and": "&&", "or": "||"}[self.op]
        return f"({self.left} {sym} {self.right})"


@dataclass(frozen=True)
class NotOp(Expr):
    arg: Expr
    ctype: CType

    def __str__(self) -> str:
        return f"!({self.arg})"


@dataclass(frozen=True)
class Cast(Expr):
    arg: Expr
    ctype: CType

    def __str__(self) -> str:
        return f"({self.ctype})({self.arg})"


# --------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    loc: Location = field(default=UNKNOWN_LOC, kw_only=True)
    # The statement's id: its depth-first position over the functions in
    # sorted name order, assigned by Lowerer.finish, so every compilation
    # of one program numbers it alike.  -1 names no statement (the entry
    # pseudo-call).
    sid: int = field(default=-1, kw_only=True)
    block_id: int = field(default=-1, kw_only=True)


@dataclass
class SAssign(Stmt):
    target: LValue = None
    value: Expr = None


@dataclass
class SIf(Stmt):
    cond: Expr = None
    then: List[Stmt] = field(default_factory=list)
    other: List[Stmt] = field(default_factory=list)


@dataclass
class SWhile(Stmt):
    cond: Expr = None
    body: List[Stmt] = field(default_factory=list)
    loop_id: int = -1
    # True when lowering produced this from a do-while (body runs once first).
    run_body_first: bool = False
    # For-loop step statements: executed after the body on both the normal
    # and the continue paths (C semantics of 'continue' inside 'for').
    step: List[Stmt] = field(default_factory=list)


@dataclass
class SSwitch(Stmt):
    scrutinee: Expr = None
    # (match values or None for default, body)
    cases: List[Tuple[Optional[List[int]], List[Stmt]]] = field(default_factory=list)
    has_default: bool = False


@dataclass
class SCall(Stmt):
    func: str = ""
    # Value arguments are Exprs; by-reference arguments are LValues.
    args: List[Union[Expr, LValue]] = field(default_factory=list)
    result: Optional[LValue] = None
    call_id: int = -1


@dataclass
class SReturn(Stmt):
    value: Optional[Expr] = None


@dataclass
class SBreak(Stmt):
    pass


@dataclass
class SContinue(Stmt):
    pass


@dataclass
class SWait(Stmt):
    """The 'wait for next clock tick' of the periodic synchronous loop."""


@dataclass
class SAssume(Stmt):
    """A trusted environment fact (``__ASTREE_known_fact``)."""

    cond: Expr = None


@dataclass
class SCheck(Stmt):
    """A user assertion checked in checking mode (``__ASTREE_assert``)."""

    cond: Expr = None
    message: str = ""


@dataclass
class SNop(Stmt):
    pass


# --------------------------------------------------------------------------
# Functions and programs


@dataclass
class IRFunction:
    name: str
    params: List[Var]
    ret_type: CType
    body: List[Stmt]
    locals: List[Var] = field(default_factory=list)
    loc: Location = UNKNOWN_LOC
    ftype: Optional[FunctionType] = None
    # Parameters of pointer type are call-by-reference (Sect. 4).
    byref_params: Tuple[int, ...] = ()


@dataclass
class IRProgram:
    """A linked, lowered program ready for abstract execution."""

    globals: List[Var] = field(default_factory=list)
    # Initial values: var uid -> scalar const, or dict path -> const for
    # aggregates (flattened index tuples).
    initializers: Dict[int, object] = field(default_factory=dict)
    functions: Dict[str, IRFunction] = field(default_factory=dict)
    entry: str = "main"
    # Volatile input variables, by uid (ranges supplied by the config).
    volatile_inputs: List[Var] = field(default_factory=list)

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def global_by_name(self, name: str) -> Optional[Var]:
        for v in self.globals:
            if v.name == name:
                return v
        return None


def iter_stmts(stmts: Sequence[Stmt]):
    """Depth-first iteration over all statements, including nested ones."""
    for s in stmts:
        yield s
        if isinstance(s, SIf):
            yield from iter_stmts(s.then)
            yield from iter_stmts(s.other)
        elif isinstance(s, SWhile):
            yield from iter_stmts(s.body)
            yield from iter_stmts(s.step)
        elif isinstance(s, SSwitch):
            for _, body in s.cases:
                yield from iter_stmts(body)
