"""Persistent functional maps with sharing (Sect. 6.1.2).

"We chose to implement abstract environments using functional maps
implemented as sharable balanced binary trees, with short-cut evaluation
when computing the abstract union, abstract intersection, widening or
narrowing of physically identical subtrees."

This module provides :class:`PMap`, an immutable weight-balanced binary
search tree keyed by totally ordered keys (the analyzer uses integer cell
ids).  Updates return new maps sharing almost all structure with the old
one; the binary combination operations (:meth:`PMap.merge`) shortcut on
physically identical subtrees (``a is b``), which makes joining two
environments that differ in a few cells cost time proportional to the
number of *differing* cells, not the total number of cells — the property
that removes the quadratic-time behaviour described in the paper.

A map pickles as its node DAG, so maps written in one pickle stream come
back sharing exactly the subtrees they shared when written.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional, Tuple

__all__ = ["PMap"]

# Weight-balanced tree parameters (as in Haskell's Data.Map).
_DELTA = 3
_RATIO = 2


class _Node:
    __slots__ = ("key", "value", "left", "right", "size")

    def __init__(self, key, value, left: Optional["_Node"], right: Optional["_Node"]):
        self.key = key
        self.value = value
        self.left = left
        self.right = right
        self.size = 1 + _size(left) + _size(right)

    def __reduce__(self):
        # Pickled as the node DAG: the pickler's memo writes a node that
        # several maps share once per stream, and loading rebuilds this
        # exact balanced shape with one constructor call per node.
        return (_Node, (self.key, self.value, self.left, self.right))


def _size(node: Optional[_Node]) -> int:
    return node.size if node is not None else 0


def _balance(key, value, left: Optional[_Node], right: Optional[_Node]) -> _Node:
    ln, rn = _size(left), _size(right)
    if ln + rn <= 1:
        return _Node(key, value, left, right)
    if rn > _DELTA * ln:
        assert right is not None
        rl, rr = right.left, right.right
        if _size(rl) < _RATIO * _size(rr):
            # single left rotation
            return _Node(right.key, right.value,
                         _Node(key, value, left, rl), rr)
        # double rotation
        assert rl is not None
        return _Node(rl.key, rl.value,
                     _Node(key, value, left, rl.left),
                     _Node(right.key, right.value, rl.right, rr))
    if ln > _DELTA * rn:
        assert left is not None
        ll, lr = left.left, left.right
        if _size(lr) < _RATIO * _size(ll):
            return _Node(left.key, left.value, ll,
                         _Node(key, value, lr, right))
        assert lr is not None
        return _Node(lr.key, lr.value,
                     _Node(left.key, left.value, ll, lr.left),
                     _Node(key, value, lr.right, right))
    return _Node(key, value, left, right)


def _insert(node: Optional[_Node], key, value) -> _Node:
    if node is None:
        return _Node(key, value, None, None)
    if key < node.key:
        new_left = _insert(node.left, key, value)
        if new_left is node.left:
            return node
        return _balance(node.key, node.value, new_left, node.right)
    if key > node.key:
        new_right = _insert(node.right, key, value)
        if new_right is node.right:
            return node
        return _balance(node.key, node.value, node.left, new_right)
    if value is node.value:
        return node
    return _Node(key, value, node.left, node.right)


def _get(node: Optional[_Node], key):
    while node is not None:
        if key < node.key:
            node = node.left
        elif key > node.key:
            node = node.right
        else:
            return node.value
    return None


def _contains(node: Optional[_Node], key) -> bool:
    while node is not None:
        if key < node.key:
            node = node.left
        elif key > node.key:
            node = node.right
        else:
            return True
    return False


def _min_node(node: _Node) -> _Node:
    while node.left is not None:
        node = node.left
    return node


def _remove(node: Optional[_Node], key) -> Optional[_Node]:
    if node is None:
        return None
    if key < node.key:
        new_left = _remove(node.left, key)
        if new_left is node.left:
            return node
        return _balance(node.key, node.value, new_left, node.right)
    if key > node.key:
        new_right = _remove(node.right, key)
        if new_right is node.right:
            return node
        return _balance(node.key, node.value, node.left, new_right)
    # Found: splice out.
    if node.left is None:
        return node.right
    if node.right is None:
        return node.left
    succ = _min_node(node.right)
    new_right = _remove(node.right, succ.key)
    return _balance(succ.key, succ.value, node.left, new_right)


def _join(key, value, left: Optional[_Node], right: Optional[_Node]) -> _Node:
    """Concatenate left < key < right, rebalancing as needed."""
    ln, rn = _size(left), _size(right)
    if rn > _DELTA * ln and right is not None:
        return _balance(right.key, right.value,
                        _join(key, value, left, right.left), right.right)
    if ln > _DELTA * rn and left is not None:
        return _balance(left.key, left.value, left.left,
                        _join(key, value, left.right, right))
    return _Node(key, value, left, right)


def _split(node: Optional[_Node], key) -> Tuple[Optional[_Node], Any, bool, Optional[_Node]]:
    """Split into (keys < key, value-at-key, found, keys > key)."""
    if node is None:
        return None, None, False, None
    if key < node.key:
        ll, v, found, lr = _split(node.left, key)
        return ll, v, found, _join(node.key, node.value, lr, node.right)
    if key > node.key:
        rl, v, found, rr = _split(node.right, key)
        return _join(node.key, node.value, node.left, rl), v, found, rr
    return node.left, node.value, True, node.right


def _merge(a: Optional[_Node], b: Optional[_Node],
           combine: Callable[[Any, Any, Any], Any],
           missing_b: Optional[Callable[[Any, Any], Any]]) -> Optional[_Node]:
    """Merge two trees with per-key combination and sharing shortcut.

    ``combine(key, va, vb)`` for keys in both; ``missing_b(key, va)`` for
    keys only in ``a`` (None keeps them).  Keys only in ``b`` are kept,
    and a subtree only in ``b`` is returned without being walked.  The
    ``a is b`` shortcut requires combine(k, v, v) == v semantics from
    the caller (true of join/widen/narrow/meet on identical values).
    """
    if a is b:
        return a
    if a is None:
        return b
    if b is None:
        return a if missing_b is None else _map_values_opt(a, missing_b)
    if b.key == a.key:
        # Equal roots: recurse on the original subtrees.  Splitting here
        # would rebuild ``b``'s children and destroy the physical identity
        # the recursive ``a is b`` shortcut depends on; trees derived from
        # one another by ``set`` (the common case during iteration) share
        # their whole shape, so this path keeps the merge proportional to
        # the number of differing cells (Sect. 6.1.2).
        bl, bv, found, br = b.left, b.value, True, b.right
    else:
        bl, bv, found, br = _split(b, a.key)
    new_left = _merge(a.left, bl, combine, missing_b)
    new_right = _merge(a.right, br, combine, missing_b)
    if found:
        new_value = a.value if a.value is bv else combine(a.key, a.value, bv)
    elif missing_b is not None:
        new_value = missing_b(a.key, a.value)
    else:
        new_value = a.value
    if (new_left is a.left and new_right is a.right
            and new_value is a.value):
        return a
    return _join(a.key, new_value, new_left, new_right)


def _map_values_opt(node: Optional[_Node],
                    f: Callable[[Any, Any], Any]) -> Optional[_Node]:
    if node is None:
        return None
    new_left = _map_values_opt(node.left, f)
    new_right = _map_values_opt(node.right, f)
    new_value = f(node.key, node.value)
    if new_left is node.left and new_right is node.right and new_value is node.value:
        return node
    return _join(node.key, new_value, new_left, new_right)


def _iter_items(node: Optional[_Node]) -> Iterator[Tuple[Any, Any]]:
    stack = []
    while node is not None or stack:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        yield node.key, node.value
        node = node.right


def _diff_keys(a: Optional[_Node], b: Optional[_Node]) -> Iterator[Any]:
    """Keys whose values differ (physically) between the two maps."""
    if a is b:
        return
    if a is None:
        for k, _ in _iter_items(b):
            yield k
        return
    if b is None:
        for k, _ in _iter_items(a):
            yield k
        return
    if b.key == a.key:
        bl, bv, found, br = b.left, b.value, True, b.right
    else:
        bl, bv, found, br = _split(b, a.key)
    yield from _diff_keys(a.left, bl)
    if not found or bv is not a.value:
        yield a.key
    yield from _diff_keys(a.right, br)


class PMap:
    """An immutable map with O(log n) update and sharing-aware merge."""

    __slots__ = ("_root",)

    def __init__(self, _root: Optional[_Node] = None):
        self._root = _root

    @staticmethod
    def empty() -> "PMap":
        return _EMPTY

    @staticmethod
    def from_items(items) -> "PMap":
        root: Optional[_Node] = None
        for k, v in items:
            root = _insert(root, k, v)
        return PMap(root) if root is not None else _EMPTY

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return _size(self._root)

    def __bool__(self) -> bool:
        return self._root is not None

    def __contains__(self, key) -> bool:
        return _contains(self._root, key)

    def get(self, key, default=None):
        if _contains(self._root, key):
            return _get(self._root, key)
        return default

    def find(self, key):
        """Single-traversal lookup returning None when the key is absent.

        Only valid for maps that never store None values — true of every
        map in the analyzer (cell values, octagons, trees, ellipsoid
        bounds).  ``get`` needs two traversals to distinguish an absent
        key from a stored default; on the hot paths that distinction
        never arises.
        """
        return _get(self._root, key)

    def __getitem__(self, key):
        if not _contains(self._root, key):
            raise KeyError(key)
        return _get(self._root, key)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return _iter_items(self._root)

    def keys(self) -> Iterator[Any]:
        return (k for k, _ in self.items())

    def values(self) -> Iterator[Any]:
        return (v for _, v in self.items())

    # -- updates -------------------------------------------------------------

    def set(self, key, value) -> "PMap":
        new_root = _insert(self._root, key, value)
        if new_root is self._root:
            return self
        return PMap(new_root)

    def remove(self, key) -> "PMap":
        new_root = _remove(self._root, key)
        if new_root is self._root:
            return self
        return PMap(new_root) if new_root is not None else _EMPTY

    def map_values(self, f: Callable[[Any, Any], Any]) -> "PMap":
        """Apply ``f(key, value)`` to every entry."""
        new_root = _map_values_opt(self._root, f)
        if new_root is self._root:
            return self
        return PMap(new_root) if new_root is not None else _EMPTY

    # -- binary operations with sharing shortcut ---------------------------------

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
        new_root = _merge(self._root, other._root, combine, missing_other)
        if new_root is self._root:
            return self
        return PMap(new_root) if new_root is not None else _EMPTY

    def diff_keys(self, other: "PMap") -> Iterator[Any]:
        """Keys whose values are not physically shared between the maps."""
        return _diff_keys(self._root, other._root)

    def ptr_equal(self, other: "PMap") -> bool:
        """Physical identity of the underlying trees (constant time)."""
        return self._root is other._root

    def __reduce__(self):
        # The root carries the whole node DAG (see ``_Node.__reduce__``),
        # so maps pickled in one stream keep the subtrees they share.
        # Pickles of the older ``(PMap.from_items, (items,))`` form
        # still load through ``from_items``.
        return (PMap, (self._root,))

    def equal(self, other: "PMap", value_eq: Callable[[Any, Any], bool]) -> bool:
        """Equality with physical-identity shortcut on shared subtrees."""
        if self._root is other._root:
            return True
        if len(self) != len(other):
            return False
        for key in self.diff_keys(other):
            if key not in other or key not in self:
                return False
            if not value_eq(self[key], other[key]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"PMap({{{inner}}})"


_EMPTY = PMap(None)
