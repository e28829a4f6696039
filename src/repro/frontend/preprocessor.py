"""A standard-C preprocessor sufficient for the program family (Sect. 5.1).

Supports object-like and function-like ``#define`` (with rescanning),
``#undef``, ``#include "file"`` with include directories, conditional
compilation (``#ifdef``, ``#ifndef``, ``#if``, ``#elif``, ``#else``,
``#endif`` with ``defined`` and integer constant expressions), line
continuations and comment stripping.  Every input line yields exactly one
output line — a dropped line (a directive, an inactive ``#if`` branch, a
line joined to the previous one by a backslash) yields an empty one — and
line markers (``# <n> "file"``) re-sync after a quoted ``#include``, so
downstream diagnostics point at original source locations.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PreprocessorError

__all__ = ["preprocess", "Preprocessor", "MacroDef", "decode_source",
           "check_source_text", "read_source_file"]

_UTF8_BOM = b"\xef\xbb\xbf"


def decode_source(data: bytes, filename: str = "<input>") -> str:
    """Decode raw source bytes, rejecting malformed encodings up front.

    A production frontend must never die with a ``UnicodeDecodeError`` on
    user input: a UTF-8 BOM, CRLF/CR line endings, NUL bytes and
    non-UTF-8 bytes are all rejected with a located
    :class:`PreprocessorError` (CLI exit 3 under the contract).
    """
    if data.startswith(_UTF8_BOM):
        raise PreprocessorError(
            "file starts with a UTF-8 byte-order mark; save it as plain "
            "UTF-8 without BOM", filename, 1, 1)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise PreprocessorError(
            f"file is not valid UTF-8 (byte 0x{data[exc.start]:02x} at "
            f"offset {exc.start}: {exc.reason})", filename, line, 0)
    check_source_text(text, filename)
    return text


def check_source_text(text: str, filename: str = "<input>") -> None:
    """Reject source *text* the lexer must never see: BOM characters,
    CRLF (or bare CR) line endings and embedded NUL characters."""
    if text.startswith("\ufeff"):
        raise PreprocessorError(
            "file starts with a UTF-8 byte-order mark; save it as plain "
            "UTF-8 without BOM", filename, 1, 1)
    for ch, what in (("\r", "CRLF (or bare CR) line endings; convert the "
                            "file to LF line endings"),
                     ("\x00", "an embedded NUL character")):
        pos = text.find(ch)
        if pos >= 0:
            line = text.count("\n", 0, pos) + 1
            raise PreprocessorError(f"file contains {what}",
                                    filename, line, 0)


def read_source_file(path: str) -> str:
    """Read and decode one source file with the checks above applied."""
    with open(path, "rb") as f:
        return decode_source(f.read(), path)

_TOKEN_RE = re.compile(
    r"""
    (?P<ident>[A-Za-z_]\w*)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*|0[xX][0-9a-fA-F]+[uUlL]*)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<punct><<=|>>=|\.\.\.|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\+\+|--|->|\#\#|[-+*/%<>=!&|^~?:;,.(){}\[\]\#])
  | (?P<space>\s+)
    """,
    re.VERBOSE,
)


def _split_tokens(text: str) -> List[str]:
    """Split a line into preprocessor tokens (whitespace collapsed out)."""
    out: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            out.append(text[pos])
            pos += 1
            continue
        if not m.lastgroup == "space":
            out.append(m.group())
        pos = m.end()
    return out


@dataclass
class MacroDef:
    name: str
    params: Optional[List[str]]  # None for object-like macros
    body: List[str]  # token list
    variadic: bool = False


def preprocess(
    source: str,
    filename: str = "<input>",
    include_dirs: Sequence[str] = (),
    predefined: Optional[Dict[str, str]] = None,
    file_reader: Optional[Callable[[str], str]] = None,
) -> str:
    """Preprocess C source text, returning text with line markers."""
    pp = Preprocessor(include_dirs=include_dirs, file_reader=file_reader)
    if predefined:
        for name, body in predefined.items():
            pp.define(name, body)
    return pp.run(source, filename)


class Preprocessor:
    def __init__(
        self,
        include_dirs: Sequence[str] = (),
        file_reader: Optional[Callable[[str], str]] = None,
    ):
        self._include_dirs = list(include_dirs)
        self._macros: Dict[str, MacroDef] = {}
        self._file_reader = file_reader or _default_reader
        self._include_depth = 0

    def define(self, name: str, body: str = "1") -> None:
        m = re.match(r"([A-Za-z_]\w*)\((.*?)\)$", name)
        if m:
            params = [p.strip() for p in m.group(2).split(",") if p.strip()]
            self._macros[m.group(1)] = MacroDef(m.group(1), params, _split_tokens(body))
        else:
            self._macros[name] = MacroDef(name, None, _split_tokens(body))

    def undef(self, name: str) -> None:
        self._macros.pop(name, None)

    def run(self, source: str, filename: str) -> str:
        check_source_text(source, filename)
        out: List[str] = []
        self._process(source, filename, out)
        return "\n".join(out) + "\n"

    # -- main loop -----------------------------------------------------------

    def _process(self, source: str, filename: str, out: List[str]) -> None:
        source = _strip_comments(_splice_lines(source))
        lines = source.split("\n")
        out.append(f'# {1} "{filename}"')
        # Conditional-compilation stack: (taken_now, any_branch_taken, parent_active)
        stack: List[List[bool]] = []

        def active() -> bool:
            return all(frame[0] for frame in stack)

        lineno = 0
        for raw in lines:
            lineno += 1
            stripped = raw.strip()
            if stripped.startswith("#"):
                directive = stripped[1:].strip()
                emitted = len(out)
                self._handle_directive(directive, filename, lineno, out, stack, active)
                if len(out) == emitted:  # only a quoted #include emits lines
                    out.append("")
                continue
            if not active():
                out.append("")
                continue
            expanded = self._expand_tokens(_split_tokens(raw), set())
            out.append(_join_tokens(expanded))
        if stack:
            raise PreprocessorError("unterminated #if", filename, lineno, 0)

    def _handle_directive(
        self,
        directive: str,
        filename: str,
        lineno: int,
        out: List[str],
        stack: List[List[bool]],
        active: Callable[[], bool],
    ) -> None:
        def err(msg: str) -> PreprocessorError:
            return PreprocessorError(msg, filename, lineno, 0)

        name, _, rest = directive.partition(" ")
        rest = rest.strip()
        if name == "ifdef":
            taken = active() and rest.split()[0] in self._macros if rest else False
            stack.append([taken, taken])
            return
        if name == "ifndef":
            taken = active() and (not rest or rest.split()[0] not in self._macros)
            if not rest:
                raise err("#ifndef without a macro name")
            stack.append([taken, taken])
            return
        if name == "if":
            taken = active() and bool(self._eval_condition(rest, filename, lineno))
            stack.append([taken, taken])
            return
        if name == "elif":
            if not stack:
                raise err("#elif without #if")
            frame = stack[-1]
            parent_ok = all(f[0] for f in stack[:-1])
            if frame[1] or not parent_ok:
                frame[0] = False
            else:
                frame[0] = bool(self._eval_condition(rest, filename, lineno))
                frame[1] = frame[0]
            return
        if name == "else":
            if not stack:
                raise err("#else without #if")
            frame = stack[-1]
            parent_ok = all(f[0] for f in stack[:-1])
            frame[0] = parent_ok and not frame[1]
            frame[1] = True
            return
        if name == "endif":
            if not stack:
                raise err("#endif without #if")
            stack.pop()
            return
        if not active():
            return
        if name == "define":
            self._parse_define(rest, filename, lineno)
            return
        if name == "undef":
            self.undef(rest.split()[0]) if rest else None
            return
        if name == "include":
            self._handle_include(rest, filename, lineno, out)
            return
        if name in ("pragma", "warning"):
            return  # ignored
        if name == "error":
            raise err(f"#error {rest}")
        if name == "line" or name.isdigit():
            return  # line markers pass through untouched conceptually
        raise err(f"unknown preprocessor directive #{name}")

    def _parse_define(self, rest: str, filename: str, lineno: int) -> None:
        m = re.match(r"([A-Za-z_]\w*)", rest)
        if not m:
            raise PreprocessorError("malformed #define", filename, lineno, 0)
        name = m.group(1)
        after = rest[m.end():]
        if after.startswith("("):
            close = after.find(")")
            if close < 0:
                raise PreprocessorError("malformed macro parameter list", filename, lineno, 0)
            params_text = after[1:close]
            params = [p.strip() for p in params_text.split(",") if p.strip()]
            body = _split_tokens(after[close + 1:])
            self._macros[name] = MacroDef(name, params, body)
        else:
            self._macros[name] = MacroDef(name, None, _split_tokens(after))

    def _handle_include(self, rest: str, filename: str, lineno: int, out: List[str]) -> None:
        if self._include_depth > 50:
            raise PreprocessorError("#include nesting too deep", filename, lineno, 0)
        m = re.match(r'"([^"]+)"', rest)
        if not m:
            if re.match(r"<[^>]+>", rest):
                # System headers: the family's code is freestanding; ignore.
                return
            raise PreprocessorError(f"malformed #include: {rest}", filename, lineno, 0)
        target = m.group(1)
        search = [os.path.dirname(filename) or "."] + self._include_dirs
        for d in search:
            path = os.path.join(d, target)
            try:
                text = self._file_reader(path)
            except FileNotFoundError:
                continue
            self._include_depth += 1
            try:
                self._process(text, path, out)
            finally:
                self._include_depth -= 1
            out.append(f'# {lineno + 1} "{filename}"')
            return
        raise PreprocessorError(f"include file not found: {target}", filename, lineno, 0)

    # -- macro expansion -------------------------------------------------------

    def _expand_tokens(self, tokens: List[str], hide: set) -> List[str]:
        out: List[str] = []
        i = 0
        n = len(tokens)
        while i < n:
            tok = tokens[i]
            macro = self._macros.get(tok)
            if macro is None or tok in hide:
                out.append(tok)
                i += 1
                continue
            if macro.params is None:
                body = self._expand_tokens(list(macro.body), hide | {tok})
                out.extend(body)
                i += 1
                continue
            # Function-like: require '('.
            if i + 1 >= n or tokens[i + 1] != "(":
                out.append(tok)
                i += 1
                continue
            args, next_i = _collect_args(tokens, i + 2)
            if next_i is None:
                out.append(tok)
                i += 1
                continue
            if len(args) != len(macro.params) and not (len(macro.params) == 0 and args == [[]]):
                # Arity mismatch: leave unexpanded (an error surfaces later).
                out.append(tok)
                i += 1
                continue
            expanded_args = [self._expand_tokens(a, hide) for a in args]
            body: List[str] = []
            for btok in macro.body:
                if btok in macro.params:
                    body.extend(expanded_args[macro.params.index(btok)])
                else:
                    body.append(btok)
            out.extend(self._expand_tokens(body, hide | {tok}))
            i = next_i
        return out

    def _eval_condition(self, text: str, filename: str, lineno: int) -> int:
        tokens = _split_tokens(text)
        # Resolve defined(X) / defined X before macro expansion.
        resolved: List[str] = []
        i = 0
        while i < len(tokens):
            if tokens[i] == "defined":
                if i + 1 < len(tokens) and tokens[i + 1] == "(":
                    name = tokens[i + 2] if i + 2 < len(tokens) else ""
                    resolved.append("1" if name in self._macros else "0")
                    i += 4  # defined ( name )
                else:
                    name = tokens[i + 1] if i + 1 < len(tokens) else ""
                    resolved.append("1" if name in self._macros else "0")
                    i += 2
            else:
                resolved.append(tokens[i])
                i += 1
        expanded = self._expand_tokens(resolved, set())
        # Remaining identifiers evaluate to 0 (C semantics).
        pythonized: List[str] = []
        for tok in expanded:
            if re.match(r"[A-Za-z_]\w*$", tok):
                pythonized.append("0")
            elif tok == "&&":
                pythonized.append(" and ")
            elif tok == "||":
                pythonized.append(" or ")
            elif tok == "!":
                pythonized.append(" not ")
            elif tok == "/":
                pythonized.append("//")
            else:
                m = re.match(r"(0[xX][0-9a-fA-F]+|\d+)[uUlL]*$", tok)
                pythonized.append(m.group(1) if m else tok)
        try:
            value = eval("".join(pythonized) or "0", {"__builtins__": {}}, {})  # noqa: S307
        except Exception as exc:
            raise PreprocessorError(f"cannot evaluate #if condition: {text} ({exc})",
                                    filename, lineno, 0)
        return int(bool(value)) if isinstance(value, bool) else int(value)


def _collect_args(tokens: List[str], start: int) -> Tuple[List[List[str]], Optional[int]]:
    """Collect macro call arguments from ``tokens[start:]`` (after '(')."""
    args: List[List[str]] = [[]]
    depth = 0
    i = start
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            depth += 1
            args[-1].append(tok)
        elif tok == ")":
            if depth == 0:
                return args, i + 1
            depth -= 1
            args[-1].append(tok)
        elif tok == "," and depth == 0:
            args.append([])
        else:
            args[-1].append(tok)
        i += 1
    return args, None


def _splice_lines(source: str) -> str:
    """Join backslash-continued lines.  Each joined line is followed by
    one empty line per continuation, so later lines keep their numbers."""
    parts = source.replace("\\\r\n", "\\\n").split("\\\n")
    out = [parts[0]]
    joined = 0
    for part in parts[1:]:
        joined += 1
        end = part.find("\n")
        if end < 0:
            out.append(part)
            continue
        out.append(part[:end] + "\n" * joined + part[end:])
        joined = 0
    return "".join(out) + "\n" * joined


def _strip_comments(source: str) -> str:
    """Remove comments, preserving newlines for line numbering."""
    out: List[str] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                j = n - 2
            out.append(" ")
            out.extend("\n" for ch in source[i:j + 2] if ch == "\n")
            i = j + 2
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\\":
                    j += 1
                j += 1
            out.append(source[i : j + 1])
            i = j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def _join_tokens(tokens: List[str]) -> str:
    """Rejoin tokens with spaces, avoiding accidental pasting."""
    return " ".join(tokens)


def _default_reader(path: str) -> str:
    return read_source_file(path)
