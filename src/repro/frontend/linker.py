"""A simple linker for multi-file programs (Sect. 5.1).

"Optionally, a simple linker allows programs consisting of several source
files to be processed."  Each file is preprocessed and parsed separately;
all translation units are then lowered through a single :class:`~repro.
frontend.lowering.Lowerer`, which resolves cross-unit references to globals
and functions (``extern`` declarations match definitions by name and type).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Sequence, Tuple

from ..errors import LinkError, TypeError_, UnsupportedConstructError
from .ir import IRProgram
from .lowering import Lowerer
from .parser import parse
from .preprocessor import preprocess

__all__ = ["link_sources", "compile_source", "source_digest"]


def compile_source(source: str, filename: str = "<input>",
                   entry: str = "main") -> IRProgram:
    """Preprocess, parse, type-check and lower a single source text."""
    return link_sources([(filename, source)], entry=entry)


def link_sources(sources: Sequence[tuple],
                 entry: str = "main") -> IRProgram:
    """Link several (filename, source-text) units into one IR program."""
    if not sources:
        raise LinkError("no source files provided")
    lowerer = Lowerer()
    block_ids = itertools.count(1)
    for filename, text in sources:
        preprocessed = preprocess(text, filename)
        try:
            unit = parse(preprocessed, filename, block_ids)
            lowerer.add_unit(unit)
        except TypeError_ as exc:
            raise LinkError(f"while linking {filename}: {exc}") from exc
        except RecursionError as exc:
            raise UnsupportedConstructError(
                "construct nested too deeply for the frontend",
                filename, 0, 0) from exc
    try:
        return lowerer.finish(entry)
    except RecursionError as exc:
        raise UnsupportedConstructError(
            "construct nested too deeply for the frontend") from exc


def source_digest(sources: Sequence[Tuple[str, str]]) -> str:
    """Digest of a list of (filename, text) translation units."""
    h = hashlib.sha256()
    for name, text in sources:
        h.update(name.encode())
        h.update(b"\x00")
        h.update(text.encode())
        h.update(b"\x00")
    return h.hexdigest()
