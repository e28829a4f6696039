"""Tokenizer for the supported C subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import LexerError

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]


class TokenKind:
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int"
    FLOAT_LIT = "float"
    CHAR_LIT = "char"
    STRING_LIT = "string"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default", "do",
        "double", "else", "enum", "extern", "float", "for", "goto", "if",
        "inline", "int", "long", "register", "restrict", "return", "short",
        "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while", "_Bool",
    }
)

# Longest-match punctuation, ordered by length.
_PUNCTS3 = ("<<=", ">>=", "...")
_PUNCTS2 = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", "++", "--", "->",
)
_PUNCTS1 = "+-*/%<>=!&|^~?:;,.(){}[]"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    filename: str
    line: int
    col: int
    # For numeric literals, the parsed value and a suffix summary.
    value: object = None
    suffix: str = ""

    def is_punct(self, text: str) -> bool:
        return self.kind == TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize preprocessed C source (comments already stripped)."""
    tokens: List[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> LexerError:
        return LexerError(msg, filename, line, col)

    while i < n:
        c = source[i]
        # Line markers from the preprocessor: "# <line> "file"" — honor them.
        if c == "#" and (i == 0 or source[i - 1] == "\n"):
            j = source.find("\n", i)
            if j < 0:
                j = n
            directive = source[i:j]
            parts = directive.split()
            if len(parts) >= 2 and parts[1].isdigit():
                line = int(parts[1]) - 1
                if len(parts) >= 3 and parts[2].startswith('"'):
                    filename = parts[2].strip('"')
            i = j
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                raise error("unterminated comment")
            skipped = source[i : j + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, text, filename, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            tok, j = _lex_number(source, i, filename, line, start_col)
            tokens.append(tok)
            col += j - i
            i = j
            continue
        if c == "'":
            tok, j = _lex_char(source, i, filename, line, start_col)
            tokens.append(tok)
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise error("unterminated string literal")
            tokens.append(
                Token(TokenKind.STRING_LIT, source[i : j + 1], filename, line, start_col,
                      value=source[i + 1 : j])
            )
            col += j + 1 - i
            i = j + 1
            continue
        matched = None
        for p in _PUNCTS3:
            if source.startswith(p, i):
                matched = p
                break
        if matched is None:
            for p in _PUNCTS2:
                if source.startswith(p, i):
                    matched = p
                    break
        if matched is None and c in _PUNCTS1:
            matched = c
        if matched is None:
            raise error(f"unexpected character {c!r}")
        tokens.append(Token(TokenKind.PUNCT, matched, filename, line, start_col))
        col += len(matched)
        i += len(matched)
    tokens.append(Token(TokenKind.EOF, "", filename, line, col))
    return tokens


def _lex_number(source: str, i: int, filename: str, line: int, col: int):
    n = len(source)
    j = i
    is_float = False
    if source.startswith(("0x", "0X"), i):
        j = i + 2
        while j < n and (source[j] in "0123456789abcdefABCDEF"):
            j += 1
        digits = source[i:j]
        value: object = int(digits, 16)
    else:
        while j < n and source[j].isdigit():
            j += 1
        if j < n and source[j] == ".":
            is_float = True
            j += 1
            while j < n and source[j].isdigit():
                j += 1
        if j < n and source[j] in "eE":
            k = j + 1
            if k < n and source[k] in "+-":
                k += 1
            if k < n and source[k].isdigit():
                is_float = True
                j = k
                while j < n and source[j].isdigit():
                    j += 1
        digits = source[i:j]
        if is_float:
            value = float(digits)
        elif digits.startswith("0") and len(digits) > 1:
            if digits.strip("01234567"):
                raise LexerError(f"invalid octal literal '{digits}'",
                                 filename, line, col)
            value = int(digits, 8)
        else:
            value = int(digits)
    suffix = ""
    while j < n and source[j] in "uUlLfF":
        suffix += source[j].lower()
        j += 1
    if "f" in suffix and not is_float:
        # 1f is invalid C; but 1.0f handled above. Treat "f" on an int
        # literal as a float suffix only after a decimal point.
        if isinstance(value, int):
            is_float = True
            value = float(value)
    kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
    return Token(kind, source[i:j], filename, line, col, value=value, suffix=suffix), j


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", "'": "'",
    '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def _lex_char(source: str, i: int, filename: str, line: int, col: int):
    n = len(source)
    j = i + 1
    if j >= n:
        raise LexerError("unterminated character literal", filename, line, col)
    if source[j] == "\\":
        if j + 1 >= n:
            raise LexerError("unterminated escape", filename, line, col)
        ch = _ESCAPES.get(source[j + 1])
        if ch is None:
            raise LexerError(f"unknown escape \\{source[j+1]}", filename, line, col)
        j += 2
    else:
        ch = source[j]
        j += 1
    if j >= n or source[j] != "'":
        raise LexerError("unterminated character literal", filename, line, col)
    return (
        Token(TokenKind.CHAR_LIT, source[i : j + 1], filename, line, col, value=ord(ch)),
        j + 1,
    )
