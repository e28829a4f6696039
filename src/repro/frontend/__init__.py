"""C frontend: preprocessing, parsing, type checking, lowering, linking."""

from .linker import compile_source, link_sources, source_digest
from .parser import parse
from .preprocessor import (
    check_source_text, decode_source, preprocess, read_source_file,
)

__all__ = [
    "check_source_text",
    "compile_source",
    "decode_source",
    "link_sources",
    "parse",
    "preprocess",
    "read_source_file",
    "source_digest",
]
