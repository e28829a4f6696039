"""Persistent functional maps with sharing (Sect. 6.1.2).

"We chose to implement abstract environments using functional maps
implemented as sharable balanced binary trees, with short-cut evaluation
when computing the abstract union, abstract intersection, widening or
narrowing of physically identical subtrees."

This module provides :class:`PMap`, an immutable map from non-negative
integers (the analyzer's cell, pack and filter-site ids) held as a
persistent 32-way array trie: every node is a 32-tuple indexed by five
bits of the key, leaves hold the values, and ``None`` marks an empty
slot.  The trie's depth grows with the largest key, never with the
update order, so maps over equal key sets have equal shapes and nothing
ever rebalances.  An update copies one tuple per level and shares every
other node with the old map; the binary operations (:meth:`PMap.merge`,
:meth:`PMap.diff_keys`) zip two nodes and skip the children that are
physically the same object (``a is b``), which makes joining two
environments that differ in a few cells cost time proportional to the
number of *differing* cells, not the total number of cells — the
property that removes the quadratic-time behaviour described in the
paper.

A map pickles as its tuple DAG: the pickler memoizes tuples, so a node
shared by several maps in one pickle stream is written once and comes
back shared by the same maps.
"""

from __future__ import annotations

from itertools import compress
from operator import is_not
from typing import Any, Callable, Iterator, List, Optional, Tuple

__all__ = ["PMap"]

# Key bits per trie level; a node has 2**_BITS slots.
_BITS = 5
_MASK = (1 << _BITS) - 1
_HIGH = ~_MASK
_SLOTS = range(1 << _BITS)
# The root of every empty map, and never a node of a non-empty one.
_EMPTY_NODE = (None,) * (1 << _BITS)


def _filled(node: tuple) -> Iterator[int]:
    """Indexes of the node's non-empty slots, ascending."""
    return compress(_SLOTS, map(is_not, node, _EMPTY_NODE))


def _lift(node: tuple) -> tuple:
    """The node one level up whose slot 0 holds ``node``."""
    return (node,) + _EMPTY_NODE[1:]


def _remove(node: tuple, shift: int, key: int) -> Optional[tuple]:
    """``node`` without the (present) ``key``; None once it is empty."""
    i = key >> shift & _MASK
    out = list(node)
    out[i] = _remove(node[i], shift - _BITS, key) if shift else None
    return tuple(out) if any(map(is_not, out, _EMPTY_NODE)) else None


def _map_values(node: tuple, shift: int, base: int,
                f: Callable[[Any, Any], Any]) -> tuple:
    out = None
    for i in _filled(node):
        old = node[i]
        new = (_map_values(old, shift - _BITS, base | i << shift, f)
               if shift else f(base | i, old))
        if new is not old:
            if out is None:
                out = list(node)
            out[i] = new
    return node if out is None else tuple(out)


def _merge(a: tuple, b: tuple, shift: int, base: int,
           combine: Callable[[Any, Any, Any], Any],
           missing_b: Optional[Callable[[Any, Any], Any]]) -> tuple:
    """Zip two nodes of one level.  A slot whose children are the same
    object, or that is filled in one node only, is kept as it is without
    being walked; ``missing_b`` (when given) maps the entries of the
    slots filled in ``a`` only."""
    out = None
    for i in compress(_SLOTS, map(is_not, a, b)):
        ca, cb = a[i], b[i]
        if cb is None:
            if missing_b is None:
                continue
            new = (_map_values(ca, shift - _BITS, base | i << shift,
                               missing_b) if shift
                   else missing_b(base | i, ca))
        elif ca is None:
            new = cb
        elif shift:
            new = _merge(ca, cb, shift - _BITS, base | i << shift,
                         combine, missing_b)
        else:
            new = combine(base | i, ca, cb)
        if new is not ca:
            if out is None:
                out = list(a)
            out[i] = new
    return a if out is None else tuple(out)


def _items(node: tuple, shift: int, base: int, out: list) -> None:
    for i in _filled(node):
        if shift:
            _items(node[i], shift - _BITS, base | i << shift, out)
        else:
            out.append((base | i, node[i]))


def _keys(node: tuple, shift: int, base: int, out: List[int]) -> None:
    for i in _filled(node):
        if shift:
            _keys(node[i], shift - _BITS, base | i << shift, out)
        else:
            out.append(base | i)


def _diff(a: tuple, b: tuple, shift: int, base: int, out: List[int]) -> None:
    """Append, in ascending order, the keys whose entries are not the
    same object in the two nodes (keys of one node included)."""
    for i in compress(_SLOTS, map(is_not, a, b)):
        if not shift:
            out.append(base | i)
            continue
        ca, cb = a[i], b[i]
        k = base | i << shift
        if ca is None:
            _keys(cb, shift - _BITS, k, out)
        elif cb is None:
            _keys(ca, shift - _BITS, k, out)
        else:
            _diff(ca, cb, shift - _BITS, k, out)


class PMap:
    """An immutable map over non-negative integer keys with O(depth)
    update and a sharing-aware merge.  ``None`` is not a storable value:
    it marks an absent key."""

    __slots__ = ("_root", "_shift", "_len")

    def __init__(self, root: tuple = _EMPTY_NODE, shift: int = 0,
                 size: int = -1):
        self._root = root    # the top node; keys < 2**(shift + _BITS)
        self._shift = shift  # key bits below the root's slot index
        self._len = size     # entry count; -1 until first asked for

    @staticmethod
    def empty() -> "PMap":
        return _EMPTY

    @staticmethod
    def from_items(items) -> "PMap":
        m = _EMPTY
        for k, v in items:
            m = m.set(k, v)
        return m

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        if self._len < 0:
            keys: List[int] = []
            _keys(self._root, self._shift, 0, keys)
            self._len = len(keys)
        return self._len

    def __bool__(self) -> bool:
        return self._root is not _EMPTY_NODE

    def find(self, key):
        """The value at ``key``, or None when the key is absent: one
        subscript per trie level."""
        shift = self._shift
        if key >> shift & _HIGH:  # beyond the trie's depth, or negative
            return None
        node = self._root
        while shift:
            node = node[key >> shift & _MASK]
            if node is None:
                return None
            shift -= _BITS
        return node[key & _MASK]

    def get(self, key, default=None):
        v = self.find(key)
        return default if v is None else v

    def __contains__(self, key) -> bool:
        return self.find(key) is not None

    def __getitem__(self, key):
        v = self.find(key)
        if v is None:
            raise KeyError(key)
        return v

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Entries in ascending key order."""
        out: list = []
        _items(self._root, self._shift, 0, out)
        return iter(out)

    # -- updates -------------------------------------------------------------

    def set(self, key: int, value) -> "PMap":
        if key < 0:
            raise KeyError(f"PMap keys are non-negative integers: {key}")
        root, shift = self._root, self._shift
        if key >> shift > _MASK:
            lift = root is not _EMPTY_NODE
            while key >> shift > _MASK:
                if lift:
                    root = _lift(root)
                shift += _BITS
        # Descend, remembering the path, then copy one tuple per level.
        path = []
        node = root
        s = shift
        while s:
            path.append(node)
            child = node[key >> s & _MASK]
            node = _EMPTY_NODE if child is None else child
            s -= _BITS
        i = key & _MASK
        old = node[i]
        if old is value:
            return self
        new = list(node)
        new[i] = value
        new = tuple(new)
        while path:
            s += _BITS
            parent = list(path.pop())
            parent[key >> s & _MASK] = new
            new = tuple(parent)
        size = self._len
        if size >= 0 and old is None:
            size += 1
        return PMap(new, shift, size)

    def remove(self, key: int) -> "PMap":
        if self.find(key) is None:
            return self
        root = _remove(self._root, self._shift, key)
        if root is None:
            return _EMPTY
        # Keep the depth the smallest that holds the largest key, so
        # equal key sets keep equal shapes.
        shift = self._shift
        while shift and not any(map(is_not, root[1:], _EMPTY_NODE[1:])):
            root, shift = root[0], shift - _BITS
        return PMap(root, shift, self._len - 1 if self._len > 0 else -1)

    def map_values(self, f: Callable[[Any, Any], Any]) -> "PMap":
        """Apply ``f(key, value)`` to every entry."""
        root = _map_values(self._root, self._shift, 0, f)
        if root is self._root:
            return self
        return PMap(root, self._shift, self._len)

    # -- binary operations with sharing shortcut ---------------------------------

    def _aligned(self, other: "PMap") -> Tuple[tuple, tuple, int]:
        """Both roots at the depth of the deeper map."""
        a, b = self._root, other._root
        sa, sb = self._shift, other._shift
        while sa < sb:
            a, sa = _lift(a), sa + _BITS
        while sb < sa:
            b, sb = _lift(b), sb + _BITS
        return a, b, sa

    def merge(
        self,
        other: "PMap",
        combine: Callable[[Any, Any, Any], Any],
        missing_other: Optional[Callable[[Any, Any], Any]] = None,
    ) -> "PMap":
        """Combine two maps key-wise with physical-identity shortcuts.

        ``combine(key, self_value, other_value)`` handles shared keys.
        A key present on one side only keeps its value, unless it is in
        ``self`` only and ``missing_other(key, self_value)`` is given.

        The shortcut assumes ``combine`` would map identical values to the
        same value (true of lattice join/meet/widen/narrow), so physically
        identical subtrees are returned unchanged without visiting them,
        as are subtrees present in one map only.
        """
        if self._root is other._root:
            return self
        if other._root is _EMPTY_NODE:
            return (self if missing_other is None
                    else self.map_values(missing_other))
        if self._root is _EMPTY_NODE:
            return other
        a, b, shift = self._aligned(other)
        root = _merge(a, b, shift, 0, combine, missing_other)
        return self if root is a else PMap(root, shift)

    def diff_keys(self, other: "PMap") -> Iterator[int]:
        """Keys, in ascending order, whose values are not physically
        shared between the maps (keys of one map only included)."""
        out: List[int] = []
        if self._root is not other._root:
            a, b, shift = self._aligned(other)
            _diff(a, b, shift, 0, out)
        return iter(out)

    def ptr_equal(self, other: "PMap") -> bool:
        """Physical identity of the underlying tries (constant time)."""
        return self._root is other._root

    def __reduce__(self):
        # The root carries the whole tuple DAG; the pickler memoizes
        # tuples, so maps pickled in one stream keep the nodes they share.
        # An empty map loads onto the shared empty root.
        if self._root is _EMPTY_NODE:
            return (PMap, ())
        return (PMap, (self._root, self._shift, self._len))

    def equal(self, other: "PMap", value_eq: Callable[[Any, Any], bool]) -> bool:
        """Equality with physical-identity shortcut on shared subtrees."""
        for key in self.diff_keys(other):
            mine, theirs = self.find(key), other.find(key)
            if mine is None or theirs is None or not value_eq(mine, theirs):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"PMap({{{inner}}})"


_EMPTY = PMap(size=0)
