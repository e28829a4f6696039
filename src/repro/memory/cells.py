"""The cell model of the memory abstract domain (Sect. 6.1.1).

An abstract environment is a collection of *abstract cells*:

* an **atomic cell** represents a scalar variable;
* an **expanded array cell** represents an array with one cell per element
  (field-sensitive, element-wise abstraction);
* a **shrunk array cell** represents a large array with a single cell
  abstracting the union of all elements;
* a **record cell** represents a struct with one cell per field.

This module computes the cell layout of a program: a mapping from variable
uids to :class:`CellLayout` trees, assigning a unique integer *cell id* to
every atomic slot.  The expansion threshold (how large an array may be
before it is shrunk) is an analysis parameter (Sect. 7.2 spirit: a
space/precision trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..frontend.c_types import (
    ArrayType, CType, EnumType, FloatType, IntType, PointerType, RecordType,
)
from ..frontend.ir import IRProgram, Var

__all__ = ["CellInfo", "CellLayout", "AtomicLayout", "ExpandedArrayLayout",
           "ShrunkArrayLayout", "RecordLayout", "CellTable"]


@dataclass(frozen=True)
class CellInfo:
    """One atomic abstract cell."""

    cid: int
    name: str  # human-readable path, e.g. "st.x" or "buf[3]"
    ctype: CType  # scalar type of the cell
    var_uid: int
    volatile: bool = False
    # For shrunk array cells: number of concrete elements summarized.
    summarized: int = 1

    @property
    def is_summary(self) -> bool:
        """Summary cells (shrunk arrays) only admit weak updates."""
        return self.summarized > 1

    @property
    def is_float(self) -> bool:
        return isinstance(self.ctype, FloatType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self.ctype, (IntType, EnumType))


class CellLayout:
    """Layout tree of a variable's cells."""


@dataclass(frozen=True)
class AtomicLayout(CellLayout):
    cell: CellInfo


@dataclass(frozen=True)
class ExpandedArrayLayout(CellLayout):
    length: int
    elements: Tuple[CellLayout, ...]


@dataclass(frozen=True)
class ShrunkArrayLayout(CellLayout):
    length: int
    cell: CellInfo


@dataclass(frozen=True)
class RecordLayout(CellLayout):
    fields: Tuple[Tuple[str, CellLayout], ...]

    def field(self, name: str) -> CellLayout:
        for fname, layout in self.fields:
            if fname == name:
                return layout
        raise KeyError(name)


class CellTable:
    """Assigns cell ids to every variable of a program.

    Stack-allocated variables are created and destroyed on the fly
    (Sect. 5.2); their layouts are still precomputed here so each function
    invocation reuses stable cell ids (the analysis inlines calls, and the
    absence of recursion guarantees one live instance per variable).
    """

    def __init__(self, expand_threshold: int = 256):
        self.expand_threshold = expand_threshold
        self._next_cid = 0
        self._layouts: Dict[int, CellLayout] = {}
        self._cells: List[CellInfo] = []

    # -- construction ----------------------------------------------------------

    @staticmethod
    def for_program(prog: IRProgram, expand_threshold: int = 256) -> "CellTable":
        table = CellTable(expand_threshold)
        for v in prog.globals:
            table.add_var(v)
        for fn in prog.functions.values():
            for v in fn.params:
                if not isinstance(v.ctype, PointerType):
                    table.add_var(v)
            for v in fn.locals:
                table.add_var(v)
        return table

    def add_var(self, var: Var) -> CellLayout:
        if var.uid in self._layouts:
            return self._layouts[var.uid]
        layout = self._build(var, var.ctype, var.name)
        self._layouts[var.uid] = layout
        return layout

    def _build(self, var: Var, ctype: CType, path: str) -> CellLayout:
        if isinstance(ctype, ArrayType):
            total = _flat_length(ctype)
            if total > self.expand_threshold:
                cell = self._new_cell(var, _array_scalar_type(ctype),
                                      f"{path}[*]", summarized=total)
                return ShrunkArrayLayout(ctype.length, cell)
            elements = tuple(
                self._build(var, ctype.element, f"{path}[{i}]")
                for i in range(ctype.length)
            )
            return ExpandedArrayLayout(ctype.length, elements)
        if isinstance(ctype, RecordType):
            fields = tuple(
                (fname, self._build(var, ftype, f"{path}.{fname}"))
                for fname, ftype in ctype.fields
            )
            return RecordLayout(fields)
        cell = self._new_cell(var, ctype, path)
        return AtomicLayout(cell)

    def _new_cell(self, var: Var, ctype: CType, name: str,
                  summarized: int = 1) -> CellInfo:
        cell = CellInfo(self._next_cid, name, ctype, var.uid,
                        volatile=var.volatile, summarized=summarized)
        self._next_cid += 1
        self._cells.append(cell)
        return cell

    # -- queries ---------------------------------------------------------------

    def layout(self, var_uid: int) -> CellLayout:
        return self._layouts[var_uid]

    def has_var(self, var_uid: int) -> bool:
        return var_uid in self._layouts

    def cell(self, cid: int) -> CellInfo:
        return self._cells[cid]

    def all_cells(self) -> Iterator[CellInfo]:
        return iter(self._cells)

    def cells_of_var(self, var_uid: int) -> List[CellInfo]:
        return list(iter_layout_cells(self._layouts[var_uid]))

    def scalar_cell(self, var_uid: int) -> CellInfo:
        """The unique cell of a scalar variable."""
        layout = self._layouts[var_uid]
        assert isinstance(layout, AtomicLayout), layout
        return layout.cell


def iter_layout_cells(layout: CellLayout) -> Iterator[CellInfo]:
    if isinstance(layout, AtomicLayout):
        yield layout.cell
    elif isinstance(layout, ShrunkArrayLayout):
        yield layout.cell
    elif isinstance(layout, ExpandedArrayLayout):
        for el in layout.elements:
            yield from iter_layout_cells(el)
    elif isinstance(layout, RecordLayout):
        for _, fl in layout.fields:
            yield from iter_layout_cells(fl)


def _flat_length(ctype: ArrayType) -> int:
    total = ctype.length
    el = ctype.element
    while isinstance(el, ArrayType):
        total *= el.length
        el = el.element
    if isinstance(el, RecordType):
        total *= max(1, len(el.fields))
    return total


def _array_scalar_type(ctype: CType) -> CType:
    """The scalar element type of a (possibly nested) array.

    Shrinking requires a homogeneous scalar element type; arrays of structs
    with mixed field types are shrunk per-scalar-kind only when uniform —
    otherwise the caller should have expanded them.
    """
    while isinstance(ctype, ArrayType):
        ctype = ctype.element
    if isinstance(ctype, RecordType):
        types = {ftype for _, ftype in ctype.fields}
        if len(types) == 1:
            return next(iter(types))
        # Mixed record arrays: abstract everything as the widest float.
        from ..frontend.c_types import DOUBLE
        return DOUBLE
    return ctype
