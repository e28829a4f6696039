"""Recursive-descent parser for the supported C subset.

Grammar coverage follows the program family of Sect. 4: declarations of
scalar/array/struct/enum globals and locals, functions without recursion,
``if``/``while``/``do``/``for``/``switch`` statements, the full C expression
grammar over arithmetic and boolean operators, and pointers restricted to
call-by-reference parameters.  Anything else is rejected with an
:class:`~repro.errors.UnsupportedConstructError` (Sect. 5.1: "Unsupported
constructs are rejected at this point with an error message").
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Set, Tuple

from ..errors import ParseError, UnsupportedConstructError
from . import ast_nodes as A
from .lexer import Token, TokenKind, tokenize

__all__ = ["Parser", "parse"]

_TYPE_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double", "signed",
     "unsigned", "_Bool", "struct", "enum", "union"}
)
_QUALIFIERS = frozenset({"const", "volatile", "static", "extern", "register", "inline", "restrict", "auto"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})


def parse(source: str, filename: str = "<input>",
          block_ids: Optional[Iterator[int]] = None) -> A.TranslationUnit:
    """Parse preprocessed C source into a translation unit.  Blocks take
    their ids from ``block_ids`` (default: from 1), which the linker
    shares between units so blocks of different files never share an
    id (and so never an octagon pack, Sect. 7.2.1)."""
    return Parser(tokenize(source, filename), filename,
                  block_ids).parse_translation_unit()


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<input>",
                 block_ids: Optional[Iterator[int]] = None):
        self._tokens = tokens
        self._pos = 0
        self._filename = filename
        self._typedef_names: Set[str] = set()
        self._block_ids = (itertools.count(1) if block_ids is None
                           else block_ids)

    # -- token helpers -------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != TokenKind.EOF:
            self._pos += 1
        return tok

    def _loc(self, tok: Optional[Token] = None) -> A.Location:
        tok = tok or self._peek()
        return A.Location(tok.filename, tok.line, tok.col)

    def _error(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(msg, tok.filename, tok.line, tok.col)

    def _unsupported(self, msg: str, tok: Optional[Token] = None) -> UnsupportedConstructError:
        tok = tok or self._peek()
        return UnsupportedConstructError(msg, tok.filename, tok.line, tok.col)

    def _expect_punct(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}, found {tok.text!r}")
        return self._advance()

    def _expect_keyword(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(text):
            raise self._error(f"expected {text!r}, found {tok.text!r}")
        return self._advance()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind != TokenKind.IDENT:
            raise self._error(f"expected identifier, found {tok.text!r}")
        return self._advance()

    def _accept_punct(self, text: str) -> Optional[Token]:
        if self._peek().is_punct(text):
            return self._advance()
        return None

    def _accept_keyword(self, text: str) -> Optional[Token]:
        if self._peek().is_keyword(text):
            return self._advance()
        return None

    # -- translation unit ------------------------------------------------------

    def parse_translation_unit(self) -> A.TranslationUnit:
        unit = A.TranslationUnit(filename=self._filename)
        while self._peek().kind != TokenKind.EOF:
            unit.decls.extend(self._parse_external_declaration())
        return unit

    def _parse_external_declaration(self) -> List[object]:
        if self._peek().is_keyword("typedef"):
            return [self._parse_typedef()]
        quals = self._parse_qualifiers()
        spec = self._parse_type_spec()
        # A lone "struct S { ... };" or "enum E { ... };" declaration.
        if self._accept_punct(";"):
            return [A.VarDecl(name="", type_spec=spec, declarator=A.Declarator(),
                              loc=spec.loc, **quals)]
        decl = self._parse_declarator()
        if self._peek().is_punct("("):
            return [self._parse_function(spec, decl, quals)]
        return self._parse_var_decl_list(spec, decl, quals)

    def _parse_qualifiers(self) -> dict:
        quals = {"is_volatile": False, "is_const": False, "is_static": False,
                 "is_extern": False}
        while True:
            tok = self._peek()
            if tok.is_keyword("volatile"):
                quals["is_volatile"] = True
            elif tok.is_keyword("const"):
                quals["is_const"] = True
            elif tok.is_keyword("static"):
                quals["is_static"] = True
            elif tok.is_keyword("extern"):
                quals["is_extern"] = True
            elif tok.kind == TokenKind.KEYWORD and tok.text in ("register", "inline", "auto", "restrict"):
                pass  # accepted and ignored
            else:
                return quals
            self._advance()

    def _starts_type(self, tok: Token) -> bool:
        if tok.kind == TokenKind.KEYWORD and (tok.text in _TYPE_KEYWORDS or tok.text in _QUALIFIERS or tok.text == "typedef"):
            return True
        return tok.kind == TokenKind.IDENT and tok.text in self._typedef_names

    def _parse_type_spec(self) -> A.TypeSpec:
        tok = self._peek()
        loc = self._loc(tok)
        if tok.is_keyword("union"):
            raise self._unsupported("unions are outside the supported subset")
        if tok.is_keyword("struct"):
            self._advance()
            tag = ""
            if self._peek().kind == TokenKind.IDENT:
                tag = self._advance().text
            fields = None
            if self._accept_punct("{"):
                fields = []
                while not self._peek().is_punct("}"):
                    fquals = self._parse_qualifiers()
                    fspec = self._parse_type_spec()
                    while True:
                        fdecl = self._parse_declarator()
                        fields.append(
                            A.VarDecl(name=fdecl.name, type_spec=fspec,
                                      declarator=fdecl, loc=loc, **fquals)
                        )
                        if not self._accept_punct(","):
                            break
                    self._expect_punct(";")
                self._expect_punct("}")
            return A.StructSpec(tag=tag, fields=fields, loc=loc)
        if tok.is_keyword("enum"):
            self._advance()
            tag = ""
            if self._peek().kind == TokenKind.IDENT:
                tag = self._advance().text
            members = None
            if self._accept_punct("{"):
                members = []
                while not self._peek().is_punct("}"):
                    name = self._expect_ident().text
                    value = None
                    if self._accept_punct("="):
                        value = self._parse_conditional()
                    members.append((name, value))
                    if not self._accept_punct(","):
                        break
                self._expect_punct("}")
            return A.EnumSpec(tag=tag, members=members, loc=loc)
        if tok.kind == TokenKind.IDENT and tok.text in self._typedef_names:
            self._advance()
            return A.NamedType(name=tok.text, loc=loc)
        # Builtin type: a sequence of type keywords.
        words = []
        while self._peek().kind == TokenKind.KEYWORD and self._peek().text in (
            "void", "char", "short", "int", "long", "float", "double",
            "signed", "unsigned", "_Bool",
        ):
            words.append(self._advance().text)
        if not words:
            raise self._error(f"expected type, found {tok.text!r}")
        return A.NamedType(name=" ".join(words), loc=loc)

    def _parse_declarator(self) -> A.Declarator:
        depth = 0
        while self._accept_punct("*"):
            depth += 1
        name_tok = self._expect_ident()
        dims: List[A.Expr] = []
        while self._accept_punct("["):
            if self._peek().is_punct("]"):
                raise self._unsupported("arrays must have explicit constant size")
            dims.append(self._parse_conditional())
            self._expect_punct("]")
        return A.Declarator(name=name_tok.text, array_dims=dims, pointer_depth=depth)

    def _parse_initializer(self) -> A.InitItem:
        if self._accept_punct("{"):
            items = []
            while not self._peek().is_punct("}"):
                items.append(self._parse_initializer())
                if not self._accept_punct(","):
                    break
            self._expect_punct("}")
            return A.InitItem(items=items)
        return A.InitItem(expr=self._parse_assignment_expr())

    def _parse_var_decl_list(self, spec: A.TypeSpec, first: A.Declarator, quals: dict) -> List[A.VarDecl]:
        decls = []
        decl = first
        while True:
            init = None
            if self._accept_punct("="):
                init = self._parse_initializer()
            decls.append(
                A.VarDecl(name=decl.name, type_spec=spec, declarator=decl,
                          init=init, loc=spec.loc, **quals)
            )
            if not self._accept_punct(","):
                break
            decl = self._parse_declarator()
        self._expect_punct(";")
        return decls

    def _parse_typedef(self) -> A.TypedefDecl:
        loc = self._loc()
        self._expect_keyword("typedef")
        self._parse_qualifiers()
        spec = self._parse_type_spec()
        decl = self._parse_declarator()
        self._expect_punct(";")
        self._typedef_names.add(decl.name)
        return A.TypedefDecl(name=decl.name, type_spec=spec, declarator=decl, loc=loc)

    def _parse_function(self, ret_spec: A.TypeSpec, decl: A.Declarator, quals: dict) -> A.FuncDef:
        loc = ret_spec.loc
        if decl.array_dims:
            raise self._error("function returning array")
        self._expect_punct("(")
        params: List[A.ParamDecl] = []
        if self._accept_keyword("void") and self._peek().is_punct(")"):
            pass
        elif not self._peek().is_punct(")"):
            while True:
                self._parse_qualifiers()
                pspec = self._parse_type_spec()
                pdecl = self._parse_declarator()
                params.append(A.ParamDecl(name=pdecl.name, type_spec=pspec,
                                          declarator=pdecl, loc=self._loc()))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        if self._accept_punct(";"):
            return A.FuncDef(name=decl.name, ret_type=ret_spec, params=params,
                             body=None, is_static=quals["is_static"], loc=loc)
        body = self._parse_compound()
        return A.FuncDef(name=decl.name, ret_type=ret_spec, params=params,
                         body=body, is_static=quals["is_static"], loc=loc)

    # -- statements -------------------------------------------------------------

    def _parse_compound(self) -> A.CompoundStmt:
        loc = self._loc()
        self._expect_punct("{")
        block = A.CompoundStmt(items=[], block_id=next(self._block_ids),
                               loc=loc)
        while not self._peek().is_punct("}"):
            block.items.append(self._parse_statement())
        self._expect_punct("}")
        return block

    def _parse_statement(self) -> A.Stmt:
        tok = self._peek()
        loc = self._loc(tok)
        if tok.is_punct("{"):
            return self._parse_compound()
        if tok.is_punct(";"):
            self._advance()
            return A.EmptyStmt(loc=loc)
        if tok.is_keyword("if"):
            self._advance()
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            then = self._parse_statement()
            other = None
            if self._accept_keyword("else"):
                other = self._parse_statement()
            return A.IfStmt(cond=cond, then=then, other=other, loc=loc)
        if tok.is_keyword("while"):
            self._advance()
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.WhileStmt(cond=cond, body=body, loc=loc)
        if tok.is_keyword("do"):
            self._advance()
            body = self._parse_statement()
            self._expect_keyword("while")
            self._expect_punct("(")
            cond = self._parse_expr()
            self._expect_punct(")")
            self._expect_punct(";")
            return A.DoWhileStmt(body=body, cond=cond, loc=loc)
        if tok.is_keyword("for"):
            self._advance()
            self._expect_punct("(")
            init: Optional[A.Stmt] = None
            if not self._peek().is_punct(";"):
                if self._starts_type(self._peek()):
                    init = self._parse_decl_stmt()
                else:
                    init = A.ExprStmt(expr=self._parse_expr(), loc=loc)
                    self._expect_punct(";")
            else:
                self._advance()
            cond = None
            if not self._peek().is_punct(";"):
                cond = self._parse_expr()
            self._expect_punct(";")
            step = None
            if not self._peek().is_punct(")"):
                step = self._parse_expr()
            self._expect_punct(")")
            body = self._parse_statement()
            return A.ForStmt(init=init, cond=cond, step=step, body=body, loc=loc)
        if tok.is_keyword("return"):
            self._advance()
            value = None
            if not self._peek().is_punct(";"):
                value = self._parse_expr()
            self._expect_punct(";")
            return A.ReturnStmt(value=value, loc=loc)
        if tok.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return A.BreakStmt(loc=loc)
        if tok.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return A.ContinueStmt(loc=loc)
        if tok.is_keyword("switch"):
            return self._parse_switch()
        if tok.is_keyword("goto"):
            raise self._unsupported("goto is outside the supported subset")
        if tok.kind == TokenKind.KEYWORD and tok.text in ("case", "default"):
            raise self._error("case label outside switch")
        if self._starts_type(tok):
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect_punct(";")
        return A.ExprStmt(expr=expr, loc=loc)

    def _parse_decl_stmt(self) -> A.DeclStmt:
        loc = self._loc()
        quals = self._parse_qualifiers()
        spec = self._parse_type_spec()
        decl = self._parse_declarator()
        decls = self._parse_var_decl_list(spec, decl, quals)
        return A.DeclStmt(decls=decls, loc=loc)

    def _parse_switch(self) -> A.SwitchStmt:
        loc = self._loc()
        self._expect_keyword("switch")
        self._expect_punct("(")
        scrutinee = self._parse_expr()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[A.CaseLabel] = []
        current: Optional[A.CaseLabel] = None
        while not self._peek().is_punct("}"):
            if self._accept_keyword("case"):
                value = self._parse_conditional()
                self._expect_punct(":")
                if current is not None and not current.body:
                    current.falls_through = True
                current = A.CaseLabel(value=value)
                cases.append(current)
                continue
            if self._accept_keyword("default"):
                self._expect_punct(":")
                if current is not None and not current.body:
                    current.falls_through = True
                current = A.CaseLabel(value=None)
                cases.append(current)
                continue
            if current is None:
                raise self._error("statement before first case label")
            stmt = self._parse_statement()
            current.body.append(stmt)
            if isinstance(stmt, A.BreakStmt):
                current = None  # subsequent statements need a new label
        self._expect_punct("}")
        # Reject fall-through between non-empty cases (rare in the family and
        # hard to analyze precisely; empty-body stacked labels are fine).
        for c in cases:
            if c.body and not any(isinstance(s, A.BreakStmt) for s in c.body) and c is not cases[-1]:
                raise self._unsupported("switch fall-through from a non-empty case", None)
        # Strip trailing breaks.
        for c in cases:
            while c.body and isinstance(c.body[-1], A.BreakStmt):
                c.body.pop()
        return A.SwitchStmt(scrutinee=scrutinee, cases=cases, loc=loc)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> A.Expr:
        first = self._parse_assignment_expr()
        if not self._peek().is_punct(","):
            return first
        parts = [first]
        while self._accept_punct(","):
            parts.append(self._parse_assignment_expr())
        return A.Comma(parts=parts, loc=first.loc)

    def _parse_assignment_expr(self) -> A.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind == TokenKind.PUNCT and tok.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment_expr()
            return A.Assign(op=tok.text, target=left, value=value, loc=left.loc)
        return left

    def _parse_conditional(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self._accept_punct("?"):
            then = self._parse_expr()
            self._expect_punct(":")
            other = self._parse_conditional()
            return A.Conditional(cond=cond, then=then, other=other, loc=cond.loc)
        return cond

    _BINARY_LEVELS: List[Tuple[str, ...]] = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_cast()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            tok = self._peek()
            if tok.kind == TokenKind.PUNCT and tok.text in ops:
                self._advance()
                right = self._parse_binary(level + 1)
                left = A.Binary(op=tok.text, left=left, right=right, loc=left.loc)
            else:
                return left

    def _parse_cast(self) -> A.Expr:
        tok = self._peek()
        if tok.is_punct("(") and self._starts_type(self._peek(1)):
            loc = self._loc(tok)
            self._advance()
            self._parse_qualifiers()
            spec = self._parse_type_spec()
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            if depth:
                if isinstance(spec, A.NamedType):
                    spec.pointer_depth = depth
                elif isinstance(spec, A.StructSpec):
                    spec.pointer_depth = depth
                else:
                    raise self._unsupported("pointer cast to enum")
            self._expect_punct(")")
            operand = self._parse_cast()
            return A.Cast(target_type=spec, operand=operand, loc=loc)
        return self._parse_unary()

    def _parse_unary(self) -> A.Expr:
        tok = self._peek()
        loc = self._loc(tok)
        if tok.kind == TokenKind.PUNCT and tok.text in ("-", "+", "!", "~", "&", "*"):
            self._advance()
            operand = self._parse_cast()
            return A.Unary(op=tok.text, operand=operand, loc=loc)
        if tok.is_punct("++") or tok.is_punct("--"):
            self._advance()
            operand = self._parse_unary()
            return A.Unary(op=tok.text + "pre", operand=operand, loc=loc)
        if tok.is_keyword("sizeof"):
            self._advance()
            if self._peek().is_punct("(") and self._starts_type(self._peek(1)):
                self._advance()
                self._parse_qualifiers()
                spec = self._parse_type_spec()
                while self._accept_punct("*"):
                    pass
                self._expect_punct(")")
                return A.SizeOf(target_type=spec, loc=loc)
            operand = self._parse_unary()
            return A.SizeOf(operand=operand, loc=loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> A.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_punct("["):
                self._advance()
                index = self._parse_expr()
                self._expect_punct("]")
                expr = A.Index(base=expr, index=index, loc=expr.loc)
            elif tok.is_punct("."):
                self._advance()
                name = self._expect_ident().text
                expr = A.Member(base=expr, name=name, arrow=False, loc=expr.loc)
            elif tok.is_punct("->"):
                self._advance()
                name = self._expect_ident().text
                expr = A.Member(base=expr, name=name, arrow=True, loc=expr.loc)
            elif tok.is_punct("++") or tok.is_punct("--"):
                self._advance()
                expr = A.Unary(op="post" + tok.text, operand=expr, loc=expr.loc)
            else:
                return expr

    def _parse_primary(self) -> A.Expr:
        tok = self._peek()
        loc = self._loc(tok)
        if tok.kind == TokenKind.INT_LIT:
            self._advance()
            return A.IntLit(value=tok.value, suffix=tok.suffix, loc=loc)
        if tok.kind == TokenKind.FLOAT_LIT:
            self._advance()
            return A.FloatLit(value=tok.value, suffix=tok.suffix, loc=loc)
        if tok.kind == TokenKind.CHAR_LIT:
            self._advance()
            return A.IntLit(value=tok.value, loc=loc)
        if tok.kind == TokenKind.STRING_LIT:
            raise self._unsupported("string literals are outside the supported subset", tok)
        if tok.kind == TokenKind.IDENT:
            self._advance()
            if self._peek().is_punct("("):
                self._advance()
                args: List[A.Expr] = []
                if not self._peek().is_punct(")"):
                    while True:
                        args.append(self._parse_assignment_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")")
                return A.Call(func=tok.text, args=args, loc=loc)
            return A.Ident(name=tok.text, loc=loc)
        if tok.is_punct("("):
            self._advance()
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token {tok.text!r} in expression")
