"""Type checking and lowering of the AST to the typed IR (Sect. 5.1).

This pass performs, in order:

* name resolution (typedefs, struct/enum tags, enum constants, variables,
  functions) with unique identifiers per variable;
* type checking with C99 usual arithmetic conversions and explicit
  :class:`~repro.frontend.ir.Cast` nodes at every implicit conversion;
* side-effect hoisting: assignments, ``++``/``--`` and function calls inside
  expressions are pulled out into prefix statements so IR expressions are
  pure (the program transformation assumed in Sect. 5.4);
* evaluation of syntactically constant expressions (constant folding),
  including reads of ``const`` scalars and of ``const`` arrays at constant
  subscripts — which is what lets the large constant hardware-description
  arrays be optimized away (Sect. 5.1);
* deletion of unused global variables.

Intrinsics understood by the analyzer:

* ``__ASTREE_wait_for_clock()`` — the periodic synchronous wait;
* ``__ASTREE_known_fact(cond)`` — a trusted environment fact (assume);
* ``__ASTREE_assert(cond)`` — a user assertion checked in checking mode;
* ``fabs/fabsf/sqrt/sqrtf`` — pure math builtins with precise transfer
  functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import TypeError_, UnsupportedConstructError
from . import ast_nodes as A
from . import ir as I
from .c_types import (
    BOOL, CHAR, DOUBLE, FLOAT, INT, LONG, SCHAR, SHORT, UCHAR, UINT, ULONG,
    USHORT, VOID, ArrayType, CType, EnumType, FloatType, FunctionType,
    IntType, PointerType, RecordType, VoidType, integer_promotion,
    usual_arithmetic_conversion,
)

__all__ = ["Lowerer"]

WAIT_INTRINSICS = frozenset({"__ASTREE_wait_for_clock", "wait_for_clock_tick"})
ASSUME_INTRINSIC = "__ASTREE_known_fact"
ASSERT_INTRINSIC = "__ASTREE_assert"
MATH_BUILTINS = {"fabs": "fabs", "fabsf": "fabs", "sqrt": "sqrt", "sqrtf": "sqrt"}

_BUILTIN_TYPES: Dict[str, CType] = {
    "void": VOID,
    "char": CHAR,
    "signed char": SCHAR,
    "unsigned char": UCHAR,
    "short": SHORT, "short int": SHORT, "signed short": SHORT, "signed short int": SHORT,
    "unsigned short": USHORT, "unsigned short int": USHORT,
    "int": INT, "signed": INT, "signed int": INT,
    "unsigned": UINT, "unsigned int": UINT,
    "long": LONG, "long int": LONG, "signed long": LONG, "signed long int": LONG,
    "unsigned long": ULONG, "unsigned long int": ULONG,
    "float": FLOAT,
    "double": DOUBLE,
    "long double": DOUBLE,  # target maps long double to binary64
    "_Bool": BOOL,
}


@dataclass
class _VarInfo:
    var: I.Var
    is_const: bool = False
    const_value: object = None  # folded initializer for const scalars
    const_array: Optional[Dict[Tuple[int, ...], object]] = None


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, _VarInfo] = {}

    def lookup(self, name: str) -> Optional[_VarInfo]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, info: _VarInfo) -> None:
        self.names[name] = info


class Lowerer:
    """Stateful AST-to-IR compiler for one or more translation units."""

    def __init__(self) -> None:
        self._uid_counter = itertools.count(1)
        self._typedefs: Dict[str, CType] = {}
        self._structs: Dict[str, RecordType] = {}
        self._enums: Dict[str, EnumType] = {}
        self._enum_constants: Dict[str, int] = {}
        self._globals_scope = _Scope()
        self._functions: Dict[str, I.IRFunction] = {}
        self._func_defs: Dict[str, A.FuncDef] = {}
        self._program = I.IRProgram()
        self._anon_counter = itertools.count(1)
        # Per-function state:
        self._scope: _Scope = self._globals_scope
        self._current_fn: Optional[I.IRFunction] = None
        self._temp_counter = itertools.count(1)
        self._call_counter = itertools.count(1)
        self._loop_counter = itertools.count(1)

    # -- public API ----------------------------------------------------------

    def add_unit(self, unit: A.TranslationUnit) -> None:
        """Add one translation unit (the linker calls this repeatedly)."""
        for decl in unit.decls:
            if isinstance(decl, A.TypedefDecl):
                self._handle_typedef(decl)
            elif isinstance(decl, A.VarDecl):
                self._handle_global(decl)
            elif isinstance(decl, A.FuncDef):
                self._handle_function_decl(decl)
            else:  # pragma: no cover - parser produces only the above
                raise TypeError_(f"unexpected declaration {decl!r}")

    def finish(self, entry: str = "main") -> I.IRProgram:
        # Lower function bodies (two-phase so forward calls type-check).
        for name, fdef in self._func_defs.items():
            if fdef.body is not None:
                self._lower_function_body(name, fdef)
        for name, fn in self._functions.items():
            if fn.body is None and any(
                self._calls_in_program(name)
            ):
                raise TypeError_(f"function {name!r} declared but never defined")
        self._program.entry = entry
        if entry not in self._functions or self._functions[entry].body is None:
            raise TypeError_(f"entry function {entry!r} is not defined")
        self._program.functions = self._functions
        self._reject_recursion()
        self._delete_unused_globals()
        sids = itertools.count()
        for name in sorted(self._functions):
            for s in I.iter_stmts(self._functions[name].body or ()):
                s.sid = next(sids)
        return self._program

    def _reject_recursion(self) -> None:
        """The family does not use recursion (Sect. 4); the analyzer's
        inlining semantics (Sect. 5.4) requires its absence."""
        edges: Dict[str, Set[str]] = {}
        for name, fn in self._functions.items():
            if fn.body is None:
                continue
            callees: Set[str] = set()
            for s in I.iter_stmts(fn.body):
                if isinstance(s, I.SCall):
                    callees.add(s.func)
            edges[name] = callees
        # Iterative DFS cycle detection.
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {name: WHITE for name in edges}
        for root in edges:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[str, List[str]]] = [(root, sorted(edges[root]))]
            color[root] = GRAY
            while stack:
                node, todo = stack[-1]
                if not todo:
                    color[node] = BLACK
                    stack.pop()
                    continue
                nxt = todo.pop()
                if nxt not in color:
                    continue
                if color[nxt] == GRAY:
                    fn = self._functions[nxt]
                    raise UnsupportedConstructError(
                        f"recursion through function {nxt!r} is outside "
                        f"the supported subset",
                        fn.loc.filename, fn.loc.line, fn.loc.col)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, sorted(edges.get(nxt, set()))))

    # -- declarations ----------------------------------------------------------

    def _handle_typedef(self, decl: A.TypedefDecl) -> None:
        base = self._resolve_type_spec(decl.type_spec)
        ctype = self._apply_declarator(base, decl.declarator, decl.loc)
        self._typedefs[decl.name] = ctype

    def _handle_global(self, decl: A.VarDecl) -> None:
        # Side-effect-only declarations (struct/enum definitions).
        self._resolve_type_spec(decl.type_spec)
        if not decl.name:
            return
        base = self._resolve_type_spec(decl.type_spec)
        ctype = self._apply_declarator(base, decl.declarator, decl.loc)
        if isinstance(ctype, PointerType):
            raise UnsupportedConstructError(
                "global pointers are outside the supported subset "
                "(pointers are restricted to call-by-reference)",
                decl.loc.filename, decl.loc.line, decl.loc.col)
        existing = self._globals_scope.lookup(decl.name)
        if existing is not None:
            if existing.var.ctype != ctype:
                raise TypeError_(
                    f"conflicting types for global {decl.name!r}",
                    decl.loc.filename, decl.loc.line, decl.loc.col)
            if decl.is_extern or decl.init is None:
                return  # re-declaration
        var = I.Var(next(self._uid_counter), decl.name, ctype,
                    kind=I.VarKind.GLOBAL, volatile=decl.is_volatile)
        info = _VarInfo(var, is_const=decl.is_const)
        self._globals_scope.declare(decl.name, info)
        if decl.is_extern and decl.init is None:
            # Tentative definition; keep the variable, value from linker/init.
            pass
        self._program.globals.append(var)
        if decl.is_volatile:
            self._program.volatile_inputs.append(var)
        if decl.init is not None:
            init_value = self._fold_initializer(ctype, decl.init, decl.loc)
            self._program.initializers[var.uid] = init_value
            if decl.is_const:
                if isinstance(ctype, (ArrayType,)):
                    info.const_array = _flatten_array_init(ctype, init_value)
                elif ctype.is_scalar():
                    info.const_value = init_value
        elif not decl.is_extern:
            # C semantics: globals without initializer are zero-initialized.
            self._program.initializers[var.uid] = _zero_init(ctype)

    def _handle_function_decl(self, fdef: A.FuncDef) -> None:
        ret = self._resolve_type_spec(fdef.ret_type)
        params: List[I.Var] = []
        byref: List[int] = []
        for idx, p in enumerate(fdef.params):
            base = self._resolve_type_spec(p.type_spec)
            ptype = self._apply_declarator(base, p.declarator, p.loc)
            if isinstance(ptype, ArrayType):
                raise UnsupportedConstructError(
                    "array parameters are outside the supported subset",
                    p.loc.filename, p.loc.line, p.loc.col)
            if isinstance(ptype, PointerType):
                byref.append(idx)
            params.append(I.Var(next(self._uid_counter), p.name, ptype,
                                kind=I.VarKind.PARAM))
        ftype = FunctionType(ret, tuple(p.ctype for p in params))
        if fdef.name in self._functions:
            old = self._functions[fdef.name]
            if old.ftype != ftype:
                raise TypeError_(f"conflicting types for function {fdef.name!r}",
                                 fdef.loc.filename, fdef.loc.line, fdef.loc.col)
            if fdef.body is None:
                return
            if old.body is not None:
                raise TypeError_(f"redefinition of function {fdef.name!r}",
                                 fdef.loc.filename, fdef.loc.line, fdef.loc.col)
        fn = I.IRFunction(name=fdef.name, params=params, ret_type=ret, body=None,
                          loc=fdef.loc, ftype=ftype, byref_params=tuple(byref))
        self._functions[fdef.name] = fn
        if fdef.body is not None:
            self._func_defs[fdef.name] = fdef

    def _lower_function_body(self, name: str, fdef: A.FuncDef) -> None:
        fn = self._functions[name]
        self._current_fn = fn
        self._scope = _Scope(self._globals_scope)
        for p in fn.params:
            self._scope.declare(p.name, _VarInfo(p))
        body = self._lower_block(fdef.body)
        fn.body = body
        self._scope = self._globals_scope
        self._current_fn = None

    # -- type resolution ---------------------------------------------------------

    def _resolve_type_spec(self, spec: A.TypeSpec) -> CType:
        if isinstance(spec, A.NamedType):
            if spec.name in self._typedefs:
                base = self._typedefs[spec.name]
            elif spec.name in _BUILTIN_TYPES:
                base = _BUILTIN_TYPES[spec.name]
            else:
                raise TypeError_(f"unknown type name {spec.name!r}",
                                 spec.loc.filename, spec.loc.line, spec.loc.col)
            for _ in range(spec.pointer_depth):
                base = PointerType(base)
            return base
        if isinstance(spec, A.StructSpec):
            tag = spec.tag or f"<anon{next(self._anon_counter)}>"
            if spec.fields is not None:
                fields: List[Tuple[str, CType]] = []
                for f in spec.fields:
                    fbase = self._resolve_type_spec(f.type_spec)
                    ftype = self._apply_declarator(fbase, f.declarator, f.loc)
                    if isinstance(ftype, PointerType):
                        raise UnsupportedConstructError(
                            "pointer struct fields are outside the supported subset",
                            f.loc.filename, f.loc.line, f.loc.col)
                    fields.append((f.name, ftype))
                rec = RecordType(tag, tuple(fields))
                self._structs[tag] = rec
            else:
                rec = self._structs.get(tag)
                if rec is None:
                    raise TypeError_(f"unknown struct tag {tag!r}",
                                     spec.loc.filename, spec.loc.line, spec.loc.col)
            base: CType = rec
            for _ in range(spec.pointer_depth):
                base = PointerType(base)
            return base
        if isinstance(spec, A.EnumSpec):
            tag = spec.tag or f"<anon{next(self._anon_counter)}>"
            if spec.members is not None:
                members: List[Tuple[str, int]] = []
                next_value = 0
                for mname, mexpr in spec.members:
                    if mexpr is not None:
                        value = self._const_int(mexpr)
                        next_value = value
                    members.append((mname, next_value))
                    self._enum_constants[mname] = next_value
                    next_value += 1
                en = EnumType(tag, tuple(members))
                self._enums[tag] = en
            else:
                en = self._enums.get(tag)
                if en is None:
                    raise TypeError_(f"unknown enum tag {tag!r}",
                                     spec.loc.filename, spec.loc.line, spec.loc.col)
            return en
        raise TypeError_(f"unresolvable type spec {spec!r}")

    def _apply_declarator(self, base: CType, decl: A.Declarator, loc: A.Location) -> CType:
        ctype = base
        for _ in range(decl.pointer_depth):
            ctype = PointerType(ctype)
        if decl.pointer_depth > 1:
            raise UnsupportedConstructError(
                "multi-level pointers are outside the supported subset",
                loc.filename, loc.line, loc.col)
        # Array dims apply outermost-first: int a[2][3] is array 2 of array 3.
        for dim in reversed(decl.array_dims):
            size = self._const_int(dim)
            if size <= 0:
                raise TypeError_("array size must be positive",
                                 loc.filename, loc.line, loc.col)
            ctype = ArrayType(ctype, size)
        return ctype

    # -- constant expressions -----------------------------------------------------

    def _const_int(self, expr: A.Expr) -> int:
        value = self._const_eval(expr)
        if not isinstance(value, int):
            raise TypeError_("expected integer constant expression",
                             expr.loc.filename, expr.loc.line, expr.loc.col)
        return value

    def _const_eval(self, expr: A.Expr):
        """Evaluate a syntactically constant expression, or raise."""

        def err() -> TypeError_:
            return TypeError_("expected constant expression",
                              expr.loc.filename, expr.loc.line, expr.loc.col)

        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.FloatLit):
            return expr.value
        if isinstance(expr, A.Ident):
            if expr.name in self._enum_constants:
                return self._enum_constants[expr.name]
            info = self._scope.lookup(expr.name)
            if info is not None and info.is_const and info.const_value is not None:
                return info.const_value
            raise err()
        if isinstance(expr, A.Unary):
            v = self._const_eval(expr.operand)
            if expr.op == "-":
                return -v
            if expr.op == "+":
                return v
            if expr.op == "!":
                return int(not v)
            if expr.op == "~" and isinstance(v, int):
                return ~v
            raise err()
        if isinstance(expr, A.Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            return _fold_binary(expr.op, left, right, expr.loc)
        if isinstance(expr, A.Conditional):
            return (self._const_eval(expr.then) if self._const_eval(expr.cond)
                    else self._const_eval(expr.other))
        if isinstance(expr, A.Cast):
            v = self._const_eval(expr.operand)
            target = self._resolve_type_spec(expr.target_type)
            if isinstance(target, IntType):
                return _wrap_int(int(v), target)
            if isinstance(target, FloatType):
                return float(v)
            raise err()
        if isinstance(expr, A.SizeOf):
            return self._sizeof(expr)
        raise err()

    def _sizeof(self, expr: A.SizeOf) -> int:
        if expr.target_type is not None:
            ctype = self._resolve_type_spec(expr.target_type)
        else:
            _, e = self._lower_expr(expr.operand, [])
            ctype = _expr_type(e)
        return _type_size(ctype)

    def _fold_initializer(self, ctype: CType, init: A.InitItem, loc: A.Location):
        if isinstance(ctype, ArrayType):
            if init.items is None:
                raise TypeError_("array initializer must be a brace list",
                                 loc.filename, loc.line, loc.col)
            values = [self._fold_initializer(ctype.element, item, loc)
                      for item in init.items]
            if len(values) > ctype.length:
                raise TypeError_("too many array initializer elements",
                                 loc.filename, loc.line, loc.col)
            while len(values) < ctype.length:
                values.append(_zero_init(ctype.element))
            return values
        if isinstance(ctype, RecordType):
            if init.items is None:
                raise TypeError_("struct initializer must be a brace list",
                                 loc.filename, loc.line, loc.col)
            out = {}
            for (fname, ftype), item in zip(ctype.fields, init.items):
                out[fname] = self._fold_initializer(ftype, item, loc)
            for fname, ftype in ctype.fields[len(init.items):]:
                out[fname] = _zero_init(ftype)
            return out
        if init.expr is None:
            raise TypeError_("scalar initializer must be an expression",
                             loc.filename, loc.line, loc.col)
        value = self._const_eval(init.expr)
        if isinstance(ctype, IntType):
            return _wrap_int(int(value), ctype)
        if isinstance(ctype, EnumType):
            return int(value)
        if isinstance(ctype, FloatType):
            import numpy as np
            return float(np.float32(value)) if ctype is FLOAT else float(value)
        raise TypeError_(f"cannot initialize type {ctype}",
                         loc.filename, loc.line, loc.col)

    # -- statements ------------------------------------------------------------

    def _lower_block(self, block: A.CompoundStmt) -> List[I.Stmt]:
        outer = self._scope
        self._scope = _Scope(outer)
        stmts: List[I.Stmt] = []
        for item in block.items:
            stmts.extend(self._lower_stmt(item, block.block_id))
        self._scope = outer
        return stmts

    def _lower_stmt(self, stmt: A.Stmt, block_id: int) -> List[I.Stmt]:
        if isinstance(stmt, A.CompoundStmt):
            return self._lower_block(stmt)
        if isinstance(stmt, A.EmptyStmt):
            return []
        if isinstance(stmt, A.DeclStmt):
            return self._lower_decl_stmt(stmt, block_id)
        if isinstance(stmt, A.ExprStmt):
            prefix: List[I.Stmt] = []
            self._lower_expr_for_effect(stmt.expr, prefix, block_id)
            return prefix
        if isinstance(stmt, A.IfStmt):
            prefix = []
            cond = self._lower_condition(stmt.cond, prefix, block_id)
            then = self._lower_stmt(stmt.then, block_id)
            other = self._lower_stmt(stmt.other, block_id) if stmt.other else []
            prefix.append(I.SIf(cond=cond, then=then, other=other,
                                loc=stmt.loc, block_id=block_id))
            return prefix
        if isinstance(stmt, A.WhileStmt):
            return self._lower_loop(stmt.cond, stmt.body, None, None,
                                    stmt.loc, block_id, run_body_first=False)
        if isinstance(stmt, A.DoWhileStmt):
            return self._lower_loop(stmt.cond, stmt.body, None, None,
                                    stmt.loc, block_id, run_body_first=True)
        if isinstance(stmt, A.ForStmt):
            out: List[I.Stmt] = []
            outer = self._scope
            self._scope = _Scope(outer)
            if stmt.init is not None:
                out.extend(self._lower_stmt(stmt.init, block_id))
            cond = stmt.cond if stmt.cond is not None else A.IntLit(value=1, loc=stmt.loc)
            out.extend(self._lower_loop(cond, stmt.body, stmt.step, None,
                                        stmt.loc, block_id, run_body_first=False))
            self._scope = outer
            return out
        if isinstance(stmt, A.ReturnStmt):
            prefix = []
            value = None
            if stmt.value is not None:
                _, e = self._lower_expr(stmt.value, prefix, block_id)
                value = self._coerce(e, self._current_fn.ret_type, stmt.loc)
            elif not isinstance(self._current_fn.ret_type, VoidType):
                raise TypeError_("return without value in non-void function",
                                 stmt.loc.filename, stmt.loc.line, stmt.loc.col)
            prefix.append(I.SReturn(value=value, loc=stmt.loc, block_id=block_id))
            return prefix
        if isinstance(stmt, A.BreakStmt):
            return [I.SBreak(loc=stmt.loc, block_id=block_id)]
        if isinstance(stmt, A.ContinueStmt):
            return [I.SContinue(loc=stmt.loc, block_id=block_id)]
        if isinstance(stmt, A.SwitchStmt):
            return self._lower_switch(stmt, block_id)
        raise UnsupportedConstructError(
            f"unsupported statement {type(stmt).__name__}",
            stmt.loc.filename, stmt.loc.line, stmt.loc.col)

    def _lower_loop(self, cond: A.Expr, body: A.Stmt, step: Optional[A.Expr],
                    init: None, loc: A.Location, block_id: int,
                    run_body_first: bool) -> List[I.Stmt]:
        prefix: List[I.Stmt] = []
        ir_cond = self._lower_condition(cond, prefix, block_id)
        if prefix:
            raise UnsupportedConstructError(
                "side effects in loop conditions are outside the supported subset",
                loc.filename, loc.line, loc.col)
        ir_body = self._lower_stmt(body, block_id)
        step_stmts: List[I.Stmt] = []
        if step is not None:
            self._lower_expr_for_effect(step, step_stmts, block_id)
        loop = I.SWhile(cond=ir_cond, body=ir_body, step=step_stmts,
                        loop_id=next(self._loop_counter),
                        run_body_first=run_body_first, loc=loc, block_id=block_id)
        return [loop]

    def _lower_switch(self, stmt: A.SwitchStmt, block_id: int) -> List[I.Stmt]:
        prefix: List[I.Stmt] = []
        _, scrutinee = self._lower_expr(stmt.scrutinee, prefix, block_id)
        if not _expr_type(scrutinee).is_integer():
            raise TypeError_("switch scrutinee must have integer type",
                             stmt.loc.filename, stmt.loc.line, stmt.loc.col)
        cases: List[Tuple[Optional[List[int]], List[I.Stmt]]] = []
        pending_values: List[int] = []
        has_default = False
        for case in stmt.cases:
            if case.value is not None:
                pending_values.append(self._const_int(case.value))
            if not case.body:
                if case.value is None:
                    has_default = True
                    if not case.falls_through:
                        cases.append((None, []))
                        pending_values = []
                continue
            body: List[I.Stmt] = []
            for s in case.body:
                if isinstance(s, A.BreakStmt):
                    continue
                body.extend(self._lower_stmt(s, block_id))
            if case.value is None:
                has_default = True
                cases.append((None, body))
            else:
                cases.append((pending_values or [self._const_int(case.value)], body))
            pending_values = []
        prefix.append(I.SSwitch(scrutinee=scrutinee, cases=cases,
                                has_default=has_default, loc=stmt.loc,
                                block_id=block_id))
        return prefix

    def _lower_decl_stmt(self, stmt: A.DeclStmt, block_id: int) -> List[I.Stmt]:
        out: List[I.Stmt] = []
        for decl in stmt.decls:
            self._resolve_type_spec(decl.type_spec)
            if not decl.name:
                continue
            base = self._resolve_type_spec(decl.type_spec)
            ctype = self._apply_declarator(base, decl.declarator, decl.loc)
            if isinstance(ctype, PointerType):
                raise UnsupportedConstructError(
                    "local pointers are outside the supported subset",
                    decl.loc.filename, decl.loc.line, decl.loc.col)
            kind = I.VarKind.STATIC if decl.is_static else I.VarKind.LOCAL
            var = I.Var(next(self._uid_counter),
                        f"{self._current_fn.name}::{decl.name}", ctype, kind=kind,
                        volatile=decl.is_volatile)
            info = _VarInfo(var, is_const=decl.is_const)
            self._scope.declare(decl.name, info)
            if decl.is_static:
                # Semantically a global with a fresh name (Sect. 4, fn. 2).
                self._program.globals.append(var)
                if decl.init is not None:
                    self._program.initializers[var.uid] = \
                        self._fold_initializer(ctype, decl.init, decl.loc)
                else:
                    self._program.initializers[var.uid] = _zero_init(ctype)
                continue
            self._current_fn.locals.append(var)
            if decl.init is not None:
                out.extend(self._lower_local_init(var, ctype, decl.init,
                                                  decl.loc, block_id, info,
                                                  decl.is_const))
        return out

    def _lower_local_init(self, var: I.Var, ctype: CType, init: A.InitItem,
                          loc: A.Location, block_id: int, info: _VarInfo,
                          is_const: bool) -> List[I.Stmt]:
        out: List[I.Stmt] = []
        if isinstance(ctype, (ArrayType, RecordType)):
            folded = self._fold_initializer(ctype, init, loc)
            for path, value in _iter_scalar_paths(ctype, folded):
                lval: I.LValue = I.LVar(var)
                ct = ctype
                for step in path:
                    if isinstance(ct, ArrayType):
                        lval = I.LIndex(lval, I.Const(step, INT), ct.element)
                        ct = ct.element
                    else:
                        assert isinstance(ct, RecordType)
                        ft = ct.field_type(step)
                        lval = I.LField(lval, step, ft)
                        ct = ft
                out.append(I.SAssign(target=lval,
                                     value=I.Const(value, _scalar_ctype(ct)),
                                     loc=loc, block_id=block_id))
            if is_const and isinstance(ctype, ArrayType):
                info.const_array = _flatten_array_init(ctype, folded)
            return out
        if init.expr is None:
            raise TypeError_("scalar initializer must be an expression",
                             loc.filename, loc.line, loc.col)
        prefix: List[I.Stmt] = []
        _, e = self._lower_expr(init.expr, prefix, block_id)
        e = self._coerce(e, ctype, loc)
        out.extend(prefix)
        out.append(I.SAssign(target=I.LVar(var), value=e, loc=loc,
                             block_id=block_id))
        if is_const and isinstance(e, I.Const):
            info.const_value = e.value
        return out

    # -- expressions -------------------------------------------------------------

    def _lower_expr_for_effect(self, expr: A.Expr, prefix: List[I.Stmt],
                               block_id: int = -1) -> None:
        """Lower an expression evaluated only for side effects."""
        if isinstance(expr, A.Comma):
            for part in expr.parts:
                self._lower_expr_for_effect(part, prefix, block_id)
            return
        if isinstance(expr, A.Assign):
            self._lower_assign(expr, prefix, block_id)
            return
        if isinstance(expr, A.Unary) and expr.op in ("++pre", "--pre", "post++", "post--"):
            self._lower_incdec(expr, prefix, block_id)
            return
        if isinstance(expr, A.Call):
            self._lower_call(expr, prefix, block_id, want_result=False)
            return
        # Pure expression as a statement: evaluate (for checking) and drop.
        _, e = self._lower_expr(expr, prefix, block_id)
        _ = e

    def _lower_assign(self, expr: A.Assign, prefix: List[I.Stmt],
                      block_id: int) -> I.LValue:
        target = self._lower_lvalue(expr.target, prefix, block_id)
        tt = target.ctype
        if isinstance(tt, (ArrayType, RecordType)):
            raise UnsupportedConstructError(
                "aggregate assignment is outside the supported subset",
                expr.loc.filename, expr.loc.line, expr.loc.col)
        _, value = self._lower_expr(expr.value, prefix, block_id)
        if expr.op != "=":
            binop = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                     "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}[expr.op]
            value = self._make_binop(binop, I.Load(target), value, expr.loc)
        value = self._coerce(value, tt, expr.loc)
        prefix.append(I.SAssign(target=target, value=value, loc=expr.loc,
                                block_id=block_id))
        return target

    def _lower_incdec(self, expr: A.Unary, prefix: List[I.Stmt],
                      block_id: int) -> Tuple[Optional[I.Var], I.LValue]:
        target = self._lower_lvalue(expr.operand, prefix, block_id)
        if not target.ctype.is_integer():
            raise UnsupportedConstructError(
                "++/-- on non-integer types is outside the supported subset",
                expr.loc.filename, expr.loc.line, expr.loc.col)
        delta = 1 if "++" in expr.op else -1
        old_temp: Optional[I.Var] = None
        if expr.op.startswith("post"):
            old_temp = self._fresh_temp(target.ctype)
            prefix.append(I.SAssign(target=I.LVar(old_temp),
                                    value=I.Load(target), loc=expr.loc,
                                    block_id=block_id))
        one = I.Const(delta, INT)
        new_value = self._make_binop("+", I.Load(target), one, expr.loc)
        new_value = self._coerce(new_value, target.ctype, expr.loc)
        prefix.append(I.SAssign(target=target, value=new_value, loc=expr.loc,
                                block_id=block_id))
        return old_temp, target

    def _lower_call(self, expr: A.Call, prefix: List[I.Stmt], block_id: int,
                    want_result: bool) -> Optional[I.Expr]:
        name = expr.func
        loc = expr.loc
        if name in WAIT_INTRINSICS:
            prefix.append(I.SWait(loc=loc, block_id=block_id))
            return None
        if name == ASSUME_INTRINSIC or name == ASSERT_INTRINSIC:
            if len(expr.args) != 1:
                raise TypeError_(f"{name} takes exactly one argument",
                                 loc.filename, loc.line, loc.col)
            cond = self._lower_condition(expr.args[0], prefix, block_id)
            if name == ASSUME_INTRINSIC:
                prefix.append(I.SAssume(cond=cond, loc=loc, block_id=block_id))
            else:
                prefix.append(I.SCheck(cond=cond, message=str(loc), loc=loc,
                                       block_id=block_id))
            return None
        if name in MATH_BUILTINS:
            if len(expr.args) != 1:
                raise TypeError_(f"{name} takes exactly one argument",
                                 loc.filename, loc.line, loc.col)
            _, arg = self._lower_expr(expr.args[0], prefix, block_id)
            ftype = FLOAT if name.endswith("f") else DOUBLE
            arg = self._coerce(arg, ftype, loc)
            return I.UnaryOp(MATH_BUILTINS[name], arg, ftype)
        fn = self._functions.get(name)
        if fn is None:
            raise TypeError_(f"call to undeclared function {name!r}",
                             loc.filename, loc.line, loc.col)
        if len(expr.args) != len(fn.params):
            raise TypeError_(
                f"function {name!r} expects {len(fn.params)} arguments, "
                f"got {len(expr.args)}", loc.filename, loc.line, loc.col)
        args: List[Union[I.Expr, I.LValue]] = []
        for idx, (arg_expr, param) in enumerate(zip(expr.args, fn.params)):
            if isinstance(param.ctype, PointerType):
                lv = self._lower_byref_arg(arg_expr, param.ctype, prefix, block_id)
                args.append(lv)
            else:
                _, e = self._lower_expr(arg_expr, prefix, block_id)
                args.append(self._coerce(e, param.ctype, loc))
        result: Optional[I.LValue] = None
        if want_result:
            if isinstance(fn.ret_type, VoidType):
                raise TypeError_(f"void function {name!r} used as a value",
                                 loc.filename, loc.line, loc.col)
            temp = self._fresh_temp(fn.ret_type)
            result = I.LVar(temp)
        prefix.append(I.SCall(func=name, args=args, result=result,
                              call_id=next(self._call_counter), loc=loc,
                              block_id=block_id))
        return I.Load(result) if result is not None else None

    def _lower_byref_arg(self, expr: A.Expr, ptype: PointerType,
                         prefix: List[I.Stmt], block_id: int) -> I.LValue:
        if isinstance(expr, A.Unary) and expr.op == "&":
            lv = self._lower_lvalue(expr.operand, prefix, block_id)
            if lv.ctype != ptype.pointee:
                raise TypeError_(
                    f"by-reference argument has type {lv.ctype}, expected "
                    f"{ptype.pointee}", expr.loc.filename, expr.loc.line,
                    expr.loc.col)
            return lv
        # Forwarding a pointer parameter.
        if isinstance(expr, A.Ident):
            info = self._scope.lookup(expr.name)
            if info is not None and isinstance(info.var.ctype, PointerType):
                if info.var.ctype != ptype:
                    raise TypeError_("pointer parameter type mismatch",
                                     expr.loc.filename, expr.loc.line, expr.loc.col)
                return I.LDeref(info.var, ptype.pointee)
        raise UnsupportedConstructError(
            "pointer arguments must be '&lvalue' or a forwarded parameter",
            expr.loc.filename, expr.loc.line, expr.loc.col)

    def _lower_lvalue(self, expr: A.Expr, prefix: List[I.Stmt],
                      block_id: int) -> I.LValue:
        if isinstance(expr, A.Ident):
            info = self._scope.lookup(expr.name)
            if info is None:
                raise TypeError_(f"undeclared identifier {expr.name!r}",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            if info.is_const:
                raise TypeError_(f"assignment to const {expr.name!r}",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            return I.LVar(info.var)
        if isinstance(expr, A.Unary) and expr.op == "*":
            if isinstance(expr.operand, A.Ident):
                info = self._scope.lookup(expr.operand.name)
                if info is not None and isinstance(info.var.ctype, PointerType):
                    return I.LDeref(info.var, info.var.ctype.pointee)
            raise UnsupportedConstructError(
                "dereference of a non-parameter pointer",
                expr.loc.filename, expr.loc.line, expr.loc.col)
        if isinstance(expr, A.Index):
            base = self._lower_lvalue_nonconst(expr.base, prefix, block_id)
            bt = base.ctype
            if not isinstance(bt, ArrayType):
                raise TypeError_(f"subscripted value has type {bt}, not array",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            _, idx = self._lower_expr(expr.index, prefix, block_id)
            if not _expr_type(idx).is_integer():
                raise TypeError_("array subscript must have integer type",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            return I.LIndex(base, idx, bt.element)
        if isinstance(expr, A.Member):
            if expr.arrow:
                if not isinstance(expr.base, A.Ident):
                    raise UnsupportedConstructError(
                        "'->' is only supported on pointer parameters",
                        expr.loc.filename, expr.loc.line, expr.loc.col)
                info = self._scope.lookup(expr.base.name)
                if info is None or not isinstance(info.var.ctype, PointerType):
                    raise TypeError_("'->' applied to a non-pointer",
                                     expr.loc.filename, expr.loc.line, expr.loc.col)
                base: I.LValue = I.LDeref(info.var, info.var.ctype.pointee)
            else:
                base = self._lower_lvalue_nonconst(expr.base, prefix, block_id)
            bt = base.ctype
            if not isinstance(bt, RecordType):
                raise TypeError_(f"member access on non-struct type {bt}",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            ft = bt.field_type(expr.name)
            if ft is None:
                raise TypeError_(f"no field {expr.name!r} in {bt}",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            return I.LField(base, expr.name, ft)
        raise TypeError_("expression is not an l-value",
                         expr.loc.filename, expr.loc.line, expr.loc.col)

    def _lower_lvalue_nonconst(self, expr: A.Expr, prefix: List[I.Stmt],
                               block_id: int) -> I.LValue:
        """L-value lowering for bases (const allowed: reading a const array)."""
        if isinstance(expr, A.Ident):
            info = self._scope.lookup(expr.name)
            if info is None:
                raise TypeError_(f"undeclared identifier {expr.name!r}",
                                 expr.loc.filename, expr.loc.line, expr.loc.col)
            return I.LVar(info.var)
        return self._lower_lvalue(expr, prefix, block_id)

    def _lower_condition(self, expr: A.Expr, prefix: List[I.Stmt],
                         block_id: int) -> I.Expr:
        _, e = self._lower_expr(expr, prefix, block_id)
        t = _expr_type(e)
        if not t.is_scalar():
            raise TypeError_("condition must have scalar type",
                             expr.loc.filename, expr.loc.line, expr.loc.col)
        return e

    def _lower_expr(self, expr: A.Expr, prefix: List[I.Stmt],
                    block_id: int = -1) -> Tuple[List[I.Stmt], I.Expr]:
        """Lower to a pure IR expression, hoisting side effects to prefix."""
        e = self._lower_expr_inner(expr, prefix, block_id)
        return prefix, e

    def _lower_expr_inner(self, expr: A.Expr, prefix: List[I.Stmt],
                          block_id: int) -> I.Expr:
        loc = expr.loc
        if isinstance(expr, A.IntLit):
            ctype = UINT if "u" in expr.suffix else INT
            if not (ctype.min_value <= expr.value <= ctype.max_value):
                ctype = ULONG if "u" in expr.suffix else LONG
            return I.Const(_wrap_int(expr.value, ctype), ctype)
        if isinstance(expr, A.FloatLit):
            if "f" in expr.suffix:
                import numpy as np
                return I.Const(float(np.float32(expr.value)), FLOAT)
            return I.Const(expr.value, DOUBLE)
        if isinstance(expr, A.Ident):
            if expr.name in self._enum_constants:
                return I.Const(self._enum_constants[expr.name], INT)
            info = self._scope.lookup(expr.name)
            if info is None:
                raise TypeError_(f"undeclared identifier {expr.name!r}",
                                 loc.filename, loc.line, loc.col)
            # Constant folding of const scalars (Sect. 5.1).
            if info.is_const and info.const_value is not None:
                return I.Const(info.const_value, _scalar_ctype(info.var.ctype))
            if isinstance(info.var.ctype, PointerType):
                raise UnsupportedConstructError(
                    "pointer-valued expressions are outside the supported subset",
                    loc.filename, loc.line, loc.col)
            return I.Load(I.LVar(info.var))
        if isinstance(expr, A.Index):
            # Const array at constant subscript folds to its value.
            folded = self._try_fold_const_array(expr)
            if folded is not None:
                return folded
            lv = self._lower_lvalue_nonconst(expr, prefix, block_id)
            return I.Load(lv)
        if isinstance(expr, A.Member):
            lv = self._lower_lvalue_nonconst(expr, prefix, block_id)
            return I.Load(lv)
        if isinstance(expr, A.Unary):
            return self._lower_unary(expr, prefix, block_id)
        if isinstance(expr, A.Binary):
            left = self._lower_expr_inner(expr.left, prefix, block_id)
            right = self._lower_expr_inner(expr.right, prefix, block_id)
            return self._make_binop(expr.op, left, right, loc)
        if isinstance(expr, A.Assign):
            target = self._lower_assign(expr, prefix, block_id)
            return I.Load(target)
        if isinstance(expr, A.Conditional):
            cond = self._lower_condition(expr.cond, prefix, block_id)
            then_prefix: List[I.Stmt] = []
            other_prefix: List[I.Stmt] = []
            then_e = self._lower_expr_inner(expr.then, then_prefix, block_id)
            other_e = self._lower_expr_inner(expr.other, other_prefix, block_id)
            common = usual_arithmetic_conversion(_expr_type(then_e), _expr_type(other_e))
            temp = self._fresh_temp(common)
            then_prefix.append(I.SAssign(target=I.LVar(temp),
                                         value=self._coerce(then_e, common, loc),
                                         loc=loc, block_id=block_id))
            other_prefix.append(I.SAssign(target=I.LVar(temp),
                                          value=self._coerce(other_e, common, loc),
                                          loc=loc, block_id=block_id))
            prefix.append(I.SIf(cond=cond, then=then_prefix, other=other_prefix,
                                loc=loc, block_id=block_id))
            return I.Load(I.LVar(temp))
        if isinstance(expr, A.Call):
            result = self._lower_call(expr, prefix, block_id, want_result=True)
            assert result is not None
            return result
        if isinstance(expr, A.Cast):
            target = self._resolve_type_spec(expr.target_type)
            operand = self._lower_expr_inner(expr.operand, prefix, block_id)
            if not target.is_scalar() or isinstance(target, PointerType):
                raise UnsupportedConstructError(
                    f"cast to {target} is outside the supported subset",
                    loc.filename, loc.line, loc.col)
            return self._coerce(operand, target, loc, explicit=True)
        if isinstance(expr, A.SizeOf):
            return I.Const(self._sizeof(expr), UINT)
        if isinstance(expr, A.Comma):
            for part in expr.parts[:-1]:
                self._lower_expr_for_effect(part, prefix, block_id)
            return self._lower_expr_inner(expr.parts[-1], prefix, block_id)
        raise UnsupportedConstructError(
            f"unsupported expression {type(expr).__name__}",
            loc.filename, loc.line, loc.col)

    def _try_fold_const_array(self, expr: A.Index) -> Optional[I.Expr]:
        path: List[int] = []
        node: A.Expr = expr
        while isinstance(node, A.Index):
            try:
                path.append(self._const_int(node.index))
            except TypeError_:
                return None
            node = node.base
        if not isinstance(node, A.Ident):
            return None
        info = self._scope.lookup(node.name)
        if info is None or info.const_array is None:
            return None
        key = tuple(reversed(path))
        if key not in info.const_array:
            return None
        value = info.const_array[key]
        ct: CType = info.var.ctype
        for _ in key:
            assert isinstance(ct, ArrayType)
            ct = ct.element
        return I.Const(value, _scalar_ctype(ct))

    def _lower_unary(self, expr: A.Unary, prefix: List[I.Stmt],
                     block_id: int) -> I.Expr:
        loc = expr.loc
        if expr.op in ("++pre", "--pre"):
            _, target = self._lower_incdec(expr, prefix, block_id)
            return I.Load(target)
        if expr.op in ("post++", "post--"):
            old_temp, _ = self._lower_incdec(expr, prefix, block_id)
            assert old_temp is not None
            return I.Load(I.LVar(old_temp))
        if expr.op == "&":
            raise UnsupportedConstructError(
                "'&' is only supported for call-by-reference arguments",
                loc.filename, loc.line, loc.col)
        if expr.op == "*":
            lv = self._lower_lvalue(expr, prefix, block_id)
            return I.Load(lv)
        arg = self._lower_expr_inner(expr.operand, prefix, block_id)
        t = _expr_type(arg)
        if expr.op == "+":
            if not t.is_arithmetic():
                raise TypeError_("unary '+' on non-arithmetic type",
                                 loc.filename, loc.line, loc.col)
            return self._promote(arg)
        if expr.op == "-":
            if not t.is_arithmetic():
                raise TypeError_("unary '-' on non-arithmetic type",
                                 loc.filename, loc.line, loc.col)
            arg = self._promote(arg)
            if isinstance(arg, I.Const):
                return I.Const(-arg.value if not isinstance(_expr_type(arg), IntType)
                               else _wrap_int(-arg.value, _expr_type(arg)),
                               _expr_type(arg))
            return I.UnaryOp("neg", arg, _expr_type(arg))
        if expr.op == "~":
            if not t.is_integer():
                raise TypeError_("'~' on non-integer type",
                                 loc.filename, loc.line, loc.col)
            arg = self._promote(arg)
            if isinstance(arg, I.Const):
                return I.Const(_wrap_int(~arg.value, _expr_type(arg)), _expr_type(arg))
            return I.UnaryOp("bnot", arg, _expr_type(arg))
        if expr.op == "!":
            if not t.is_scalar():
                raise TypeError_("'!' on non-scalar type",
                                 loc.filename, loc.line, loc.col)
            if isinstance(arg, I.Const):
                return I.Const(int(arg.value == 0), INT)
            return I.NotOp(arg, INT)
        raise UnsupportedConstructError(f"unsupported unary operator {expr.op!r}",
                                        loc.filename, loc.line, loc.col)

    def _make_binop(self, op: str, left: I.Expr, right: I.Expr,
                    loc: A.Location) -> I.Expr:
        lt, rt = _expr_type(left), _expr_type(right)
        if op in ("&&", "||"):
            if not (lt.is_scalar() and rt.is_scalar()):
                raise TypeError_(f"{op!r} on non-scalar operands",
                                 loc.filename, loc.line, loc.col)
            if isinstance(left, I.Const) and isinstance(right, I.Const):
                lv = left.value != 0
                rv = right.value != 0
                return I.Const(int(lv and rv if op == "&&" else lv or rv), INT)
            return I.BoolOp("and" if op == "&&" else "or", left, right, INT)
        if not (lt.is_arithmetic() and rt.is_arithmetic()):
            raise TypeError_(f"operator {op!r} on non-arithmetic operands "
                             f"({lt} and {rt})", loc.filename, loc.line, loc.col)
        ir_op = {
            "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
            "<<": "shl", ">>": "shr", "&": "band", "|": "bor", "^": "bxor",
            "<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne",
        }[op]
        if ir_op in ("mod", "shl", "shr", "band", "bor", "bxor") and not (
            lt.is_integer() and rt.is_integer()
        ):
            raise TypeError_(f"operator {op!r} requires integer operands",
                             loc.filename, loc.line, loc.col)
        if ir_op in ("shl", "shr"):
            left = self._promote(left)
            right = self._promote(right)
            common = _expr_type(left)
        else:
            common = usual_arithmetic_conversion(lt, rt)
            left = self._coerce(left, common, loc)
            right = self._coerce(right, common, loc)
        result_type = INT if ir_op in I._CMP_OPS else common
        if isinstance(left, I.Const) and isinstance(right, I.Const):
            folded = _fold_ir_binop(ir_op, left.value, right.value, common, loc)
            if folded is not None:
                return I.Const(folded, result_type)
        return I.BinOp(ir_op, left, right, result_type, operand_type=common)

    def _promote(self, e: I.Expr) -> I.Expr:
        t = _expr_type(e)
        promoted = integer_promotion(t) if t.is_integer() else t
        if promoted != t:
            if isinstance(e, I.Const):
                return I.Const(_wrap_int(e.value, promoted), promoted)
            return I.Cast(e, promoted)
        return e

    def _coerce(self, e: I.Expr, target: CType, loc: A.Location,
                explicit: bool = False) -> I.Expr:
        t = _expr_type(e)
        if isinstance(target, EnumType):
            target = INT
        if isinstance(t, EnumType):
            t = INT
            if isinstance(e, I.Const):
                e = I.Const(e.value, INT)
        if t == target:
            return e
        if not (t.is_arithmetic() and target.is_arithmetic()):
            raise TypeError_(f"cannot convert {t} to {target}",
                             loc.filename, loc.line, loc.col)
        if isinstance(e, I.Const):
            if isinstance(target, IntType):
                return I.Const(_wrap_int(int(e.value), target), target)
            import numpy as np
            value = float(np.float32(e.value)) if target is FLOAT else float(e.value)
            return I.Const(value, target)
        return I.Cast(e, target)

    def _fresh_temp(self, ctype: CType) -> I.Var:
        var = I.Var(next(self._uid_counter),
                    f"$t{next(self._temp_counter)}", ctype, kind=I.VarKind.TEMP)
        if self._current_fn is not None:
            self._current_fn.locals.append(var)
        return var

    # -- unused-global deletion -----------------------------------------------

    def _calls_in_program(self, name: str):
        for fn in self._functions.values():
            if fn.body is None:
                continue
            for s in I.iter_stmts(fn.body):
                if isinstance(s, I.SCall) and s.func == name:
                    yield s

    def _delete_unused_globals(self) -> None:
        used: Set[int] = set()

        def mark_expr(e: I.Expr) -> None:
            if isinstance(e, I.Load):
                mark_lvalue(e.lval)
            elif isinstance(e, I.UnaryOp):
                mark_expr(e.arg)
            elif isinstance(e, I.BinOp):
                mark_expr(e.left)
                mark_expr(e.right)
            elif isinstance(e, I.BoolOp):
                mark_expr(e.left)
                mark_expr(e.right)
            elif isinstance(e, I.NotOp):
                mark_expr(e.arg)
            elif isinstance(e, I.Cast):
                mark_expr(e.arg)

        def mark_lvalue(lv: I.LValue) -> None:
            if isinstance(lv, I.LVar):
                used.add(lv.var.uid)
            elif isinstance(lv, I.LDeref):
                used.add(lv.var.uid)
            elif isinstance(lv, I.LIndex):
                mark_lvalue(lv.base)
                mark_expr(lv.index)
            elif isinstance(lv, I.LField):
                mark_lvalue(lv.base)

        for fn in self._functions.values():
            if fn.body is None:
                continue
            for s in I.iter_stmts(fn.body):
                if isinstance(s, I.SAssign):
                    mark_lvalue(s.target)
                    mark_expr(s.value)
                elif isinstance(s, (I.SIf, I.SWhile)):
                    mark_expr(s.cond)
                elif isinstance(s, I.SSwitch):
                    mark_expr(s.scrutinee)
                elif isinstance(s, I.SCall):
                    for a in s.args:
                        if isinstance(a, I.LValue):
                            mark_lvalue(a)
                        else:
                            mark_expr(a)
                    if s.result is not None:
                        mark_lvalue(s.result)
                elif isinstance(s, I.SReturn) and s.value is not None:
                    mark_expr(s.value)
                elif isinstance(s, (I.SAssume, I.SCheck)):
                    mark_expr(s.cond)

        kept = [v for v in self._program.globals if v.uid in used]
        self._program.globals = kept
        self._program.initializers = {
            uid: init for uid, init in self._program.initializers.items()
            if uid in used
        }
        self._program.volatile_inputs = [
            v for v in self._program.volatile_inputs if v.uid in used
        ]


# --------------------------------------------------------------------------
# Helpers


def _type_size(ctype: CType) -> int:
    """sizeof on the 32-bit target, in bytes."""
    if isinstance(ctype, IntType):
        return ctype.bits // 8
    if isinstance(ctype, EnumType):
        return INT.bits // 8
    if isinstance(ctype, FloatType):
        return 4 if ctype is FLOAT else 8
    if isinstance(ctype, ArrayType):
        return ctype.length * _type_size(ctype.element)
    if isinstance(ctype, RecordType):
        return sum(_type_size(ft) for _, ft in ctype.fields)
    if isinstance(ctype, PointerType):
        return 4
    raise TypeError_(f"sizeof({ctype}) is not defined")


def _expr_type(e: I.Expr) -> CType:
    if isinstance(e, I.Const):
        return e.ctype
    if isinstance(e, I.Load):
        return e.lval.ctype
    if isinstance(e, (I.UnaryOp, I.BinOp, I.BoolOp, I.NotOp, I.Cast)):
        return e.ctype
    raise TypeError_(f"untyped expression {e!r}")


def _scalar_ctype(t: CType) -> CType:
    return INT if isinstance(t, EnumType) else t


def _wrap_int(value: int, t: IntType) -> int:
    """Wrap a Python int into the representable range of ``t`` (modular)."""
    if isinstance(t, EnumType):
        t = INT
    mask = (1 << t.bits) - 1
    value &= mask
    if t.signed and value > t.max_value:
        value -= 1 << t.bits
    return value


def _zero_init(ctype: CType):
    if isinstance(ctype, ArrayType):
        return [_zero_init(ctype.element) for _ in range(ctype.length)]
    if isinstance(ctype, RecordType):
        return {fname: _zero_init(ftype) for fname, ftype in ctype.fields}
    if isinstance(ctype, FloatType):
        return 0.0
    return 0


def _flatten_array_init(ctype: ArrayType, values) -> Dict[Tuple[int, ...], object]:
    out: Dict[Tuple[int, ...], object] = {}
    for path, value in _iter_scalar_paths(ctype, values):
        if all(isinstance(p, int) for p in path):
            out[tuple(path)] = value
    return out


def _iter_scalar_paths(ctype: CType, value):
    """Yield (path, scalar) pairs over a folded aggregate initializer."""
    if isinstance(ctype, ArrayType):
        for i, v in enumerate(value):
            for path, s in _iter_scalar_paths(ctype.element, v):
                yield [i] + path, s
    elif isinstance(ctype, RecordType):
        for fname, ftype in ctype.fields:
            for path, s in _iter_scalar_paths(ftype, value[fname]):
                yield [fname] + path, s
    else:
        yield [], value


def _fold_binary(op: str, left, right, loc: A.Location):
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                q = abs(left) // abs(right)
                return q if (left >= 0) == (right >= 0) else -q
            return left / right
        if op == "%":
            q = abs(left) % abs(right)
            return q if left >= 0 else -q
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "&&":
            return int(bool(left) and bool(right))
        if op == "||":
            return int(bool(left) or bool(right))
    except (ZeroDivisionError, TypeError) as exc:
        raise TypeError_(f"invalid constant expression: {exc}",
                         loc.filename, loc.line, loc.col)
    raise TypeError_(f"unknown operator {op!r} in constant expression",
                     loc.filename, loc.line, loc.col)


def _fold_ir_binop(op: str, left, right, common: CType, loc: A.Location):
    """Fold a binop over constants; None when folding must not happen
    (e.g. division by zero must surface as an alarm, not a crash)."""
    if op in ("div", "mod") and right == 0:
        return None
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
           "shl": "<<", "shr": ">>", "band": "&", "bor": "|", "bxor": "^",
           "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}[op]
    if op in ("shl", "shr") and (right < 0 or right >= 64):
        return None
    value = _fold_binary(sym, left, right, loc)
    if op in I._CMP_OPS:
        return value
    if isinstance(common, IntType):
        return _wrap_int(int(value), common)
    if common is FLOAT:
        import numpy as np
        return float(np.float32(value))
    return float(value)
