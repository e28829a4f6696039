"""The decision tree abstract domain (Sect. 6.2.4).

Relates boolean variables to numeric variables: "we implemented a simple
relational domain consisting in a decision tree with leaf an arithmetic
abstract domain.  The decision trees are reduced by ordering boolean
variables (as in [BDDs]) and by performing some opportunistic sharing of
subtrees."

A tree over a *pack* (an ordered tuple of boolean cell ids plus a set of
tracked numeric cell ids) maps each boolean valuation to interval
information about the numeric cells.  Leaves are small dicts
``cid -> interval`` where a missing cid means "no information" (top);
an explicitly-``None`` leaf denotes an unreachable boolean valuation
(bottom).

The motivating pattern::

    B := (X == 0);
    if (!B) { Y := 1 / X; }

is handled by :meth:`DecisionTree.assign_bool` — which splits on the two
outcomes of the condition, recording the numeric refinement under each —
and :meth:`DecisionTree.guard_bool` — which prunes valuations and returns
the join of the surviving numeric refinements for interval reduction
(here: ``X != 0`` on the ``!B`` branch, killing the division alarm).

The size cap on boolean pack membership (Sect. 7.2.3: "setting this
parameter to three yields an efficient and precise analysis") lives in the
packing strategy, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..numeric import FloatInterval, IntInterval

__all__ = ["DecisionTree", "Leaf", "Node"]

Interval = Union[IntInterval, FloatInterval]
LeafValues = Optional[Dict[int, Interval]]  # None = unreachable valuation


@dataclass(frozen=True)
class Leaf:
    """Numeric information valid under one set of boolean valuations.

    ``values`` maps numeric cell ids to intervals; missing = top.
    ``values is None`` marks the valuation unreachable.
    """

    values: LeafValues

    @property
    def is_bottom(self) -> bool:
        return self.values is None


@dataclass(frozen=True)
class Node:
    """Split on a boolean cell: ``low`` when 0, ``high`` when nonzero."""

    var: int
    low: "Tree"
    high: "Tree"


Tree = Union[Leaf, Node]

_TOP_LEAF = Leaf({})
_BOTTOM_LEAF = Leaf(None)


def _mk_node(var: int, low: Tree, high: Tree) -> Tree:
    """Opportunistic sharing: collapse identical branches."""
    if low is high:
        return low
    if isinstance(low, Leaf) and isinstance(high, Leaf) and low.values == high.values:
        return low
    return Node(var, low, high)


def _apply(a: Tree, b: Tree, f: Callable[[LeafValues, LeafValues], LeafValues],
           order: Sequence[int]) -> Tree:
    """BDD-style apply over two ordered trees."""
    if a is b and isinstance(a, Leaf):
        return a
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        out = f(a.values, b.values)
        if out is None:
            return _BOTTOM_LEAF
        if not out:
            return _TOP_LEAF
        return Leaf(out)
    pos = {v: i for i, v in enumerate(order)}
    av = pos[a.var] if isinstance(a, Node) else len(order)
    bv = pos[b.var] if isinstance(b, Node) else len(order)
    if av < bv:
        assert isinstance(a, Node)
        return _mk_node(a.var, _apply(a.low, b, f, order), _apply(a.high, b, f, order))
    if bv < av:
        assert isinstance(b, Node)
        return _mk_node(b.var, _apply(a, b.low, f, order), _apply(a, b.high, f, order))
    assert isinstance(a, Node) and isinstance(b, Node)
    return _mk_node(a.var, _apply(a.low, b.low, f, order),
                    _apply(a.high, b.high, f, order))


def _map_leaves(t: Tree, f: Callable[[LeafValues], LeafValues]) -> Tree:
    if isinstance(t, Leaf):
        out = f(t.values)
        if out is None:
            return _BOTTOM_LEAF
        if not out:
            return _TOP_LEAF
        return Leaf(out)
    return _mk_node(t.var, _map_leaves(t.low, f), _map_leaves(t.high, f))


def _join_values(a: LeafValues, b: LeafValues) -> LeafValues:
    if a is None:
        return b
    if b is None:
        return a
    out: Dict[int, Interval] = {}
    for cid, iv in a.items():
        if cid in b:
            out[cid] = iv.join(b[cid])
    return out


def _widen_values(a: LeafValues, b: LeafValues, thresholds) -> LeafValues:
    if a is None:
        return b
    if b is None:
        return a
    out: Dict[int, Interval] = {}
    for cid, iv in a.items():
        if cid in b:
            w = iv.widen(b[cid], thresholds)
            if not _is_top(w):
                out[cid] = w
    return out


def _meet_values(a: LeafValues, b: LeafValues) -> LeafValues:
    if a is None or b is None:
        return None
    out: Dict[int, Interval] = dict(a)
    for cid, iv in b.items():
        cur = out.get(cid)
        m = iv if cur is None else cur.meet(iv)
        if m.is_empty:
            return None
        out[cid] = m
    return out


def _is_top(iv: Interval) -> bool:
    return iv.is_top


class DecisionTree:
    """A decision tree over one boolean pack.

    ``bool_order`` fixes the BDD variable order (the pack's boolean cell
    ids, sorted).  ``numeric_cids`` is the set of numeric cells tracked at
    the leaves.
    """

    __slots__ = ("bool_order", "numeric_cids", "root")

    def __init__(self, bool_order: Tuple[int, ...],
                 numeric_cids: Tuple[int, ...], root: Tree = _TOP_LEAF):
        self.bool_order = tuple(bool_order)
        self.numeric_cids = tuple(numeric_cids)
        self.root = root

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def top(bool_order: Sequence[int], numeric_cids: Sequence[int]) -> "DecisionTree":
        return DecisionTree(tuple(bool_order), tuple(numeric_cids))

    def _with(self, root: Tree) -> "DecisionTree":
        if root is self.root:
            return self
        return DecisionTree(self.bool_order, self.numeric_cids, root)

    @property
    def is_top(self) -> bool:
        return isinstance(self.root, Leaf) and self.root.values == {}

    @property
    def is_bottom(self) -> bool:
        return isinstance(self.root, Leaf) and self.root.is_bottom

    # -- transfer functions --------------------------------------------------------

    def assign_bool(self, b: int, true_values: LeafValues,
                    false_values: LeafValues) -> "DecisionTree":
        """``b := cond``: record the numeric facts under each outcome.

        ``true_values``/``false_values`` are the numeric refinements valid
        when the condition is true/false (None = outcome impossible).
        Existing information about other booleans is preserved; existing
        numeric info on this pack's leaves is kept (met with the new facts).
        """
        if b not in self.bool_order:
            return self
        # Forget previous facts conditioned on b, then re-split.
        merged = self._forget_bool_tree(b)
        return self._with(_insert_bool(merged, b, false_values, true_values,
                                       self.bool_order))

    def guard_bool(self, b: int, value: bool) -> "DecisionTree":
        """Restrict to valuations where boolean ``b`` is ``value``."""
        if b not in self.bool_order:
            return self
        return self._with(_restrict(self.root, b, value, self.bool_order))

    def numeric_refinement(self) -> Dict[int, Interval]:
        """Join of leaf facts over all reachable valuations — interval
        reduction payload."""
        reachable = False
        facts: LeafValues = None
        first = True

        def walk2(t: Tree):
            nonlocal facts, first, reachable
            if isinstance(t, Leaf):
                if t.is_bottom:
                    return
                reachable = True
                if first:
                    facts = dict(t.values)
                    first = False
                else:
                    facts = _join_values(facts, t.values)
                return
            walk2(t.low)
            walk2(t.high)

        walk2(self.root)
        if not reachable or facts is None:
            return {}
        return facts

    def bool_value(self, b: int) -> Optional[bool]:
        """Definite value of boolean ``b`` if all reachable leaves agree."""
        if b not in self.bool_order:
            return None
        lo_reachable = not _all_bottom(_restrict(self.root, b, False, self.bool_order))
        hi_reachable = not _all_bottom(_restrict(self.root, b, True, self.bool_order))
        if lo_reachable and not hi_reachable:
            return False
        if hi_reachable and not lo_reachable:
            return True
        return None

    def assign_numeric(self, cid: int, interval: Interval) -> "DecisionTree":
        """Numeric cell assigned a fresh value: update every leaf."""
        if cid not in self.numeric_cids:
            return self

        def f(values: LeafValues) -> LeafValues:
            if values is None:
                return None
            out = dict(values)
            if _is_top(interval):
                out.pop(cid, None)
            else:
                out[cid] = interval
            return out

        return self._with(_map_leaves(self.root, f))

    def forget_bool(self, b: int) -> "DecisionTree":
        return self._with(self._forget_bool_tree(b))

    def _forget_bool_tree(self, b: int) -> Tree:
        def go(t: Tree) -> Tree:
            if isinstance(t, Leaf):
                return t
            if t.var == b:
                lo = go(t.low)
                hi = go(t.high)
                return _apply(lo, hi, _join_values, self.bool_order)
            return _mk_node(t.var, go(t.low), go(t.high))

        return go(self.root)

    # -- lattice --------------------------------------------------------------------

    def join(self, other: "DecisionTree") -> "DecisionTree":
        return self._with(_apply(self.root, other.root, _join_values,
                                 self.bool_order))

    def meet(self, other: "DecisionTree") -> "DecisionTree":
        return self._with(_apply(self.root, other.root, _meet_values,
                                 self.bool_order))

    def widen(self, other: "DecisionTree", thresholds=None) -> "DecisionTree":
        return self._with(
            _apply(self.root, other.root,
                   lambda a, b: _widen_values(a, b, thresholds),
                   self.bool_order))

    def narrow(self, other: "DecisionTree") -> "DecisionTree":
        # Narrowing refines only missing (top) information: meet is sound
        # here because other is a post-fixpoint refinement of self.
        return self.meet(other)

    def includes(self, other: "DecisionTree") -> bool:
        result = True

        def chk(a: LeafValues, b: LeafValues) -> LeafValues:
            nonlocal result
            if b is None:
                return None
            if a is None:
                result = False
                return None
            for cid, iv in a.items():
                if cid not in b or not iv.includes(b[cid]):
                    result = False
            return b

        _apply(self.root, other.root, chk, self.bool_order)
        return result

    def equal(self, other: "DecisionTree") -> bool:
        return self.includes(other) and other.includes(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def go(t: Tree, depth: int) -> str:
            pad = "  " * depth
            if isinstance(t, Leaf):
                if t.is_bottom:
                    return f"{pad}BOT"
                return f"{pad}{t.values!r}"
            return (f"{pad}b{t.var}?\n{go(t.high, depth + 1)}\n"
                    f"{go(t.low, depth + 1)}")

        return f"DecisionTree(\n{go(self.root, 1)}\n)"


def _restrict(t: Tree, b: int, value: bool, order: Sequence[int]) -> Tree:
    """Kill the valuations where ``b != value``; the node is kept with the
    dead branch at bottom so the boolean fact itself is remembered."""
    if isinstance(t, Leaf):
        return t
    if t.var == b:
        if value:
            return _mk_node(t.var, _BOTTOM_LEAF, t.high)
        return _mk_node(t.var, t.low, _BOTTOM_LEAF)
    return _mk_node(t.var, _restrict(t.low, b, value, order),
                    _restrict(t.high, b, value, order))


def _insert_bool(t: Tree, b: int, false_values: LeafValues,
                 true_values: LeafValues, order: Sequence[int]) -> Tree:
    """Split every leaf of ``t`` (which must not mention b) on ``b``."""
    pos = {v: i for i, v in enumerate(order)}
    bi = pos[b]

    def go(t: Tree) -> Tree:
        if isinstance(t, Leaf):
            if t.is_bottom:
                return t
            lo_vals = _meet_values(t.values, false_values)
            hi_vals = _meet_values(t.values, true_values)
            lo: Tree = Leaf(lo_vals) if lo_vals is not None else _BOTTOM_LEAF
            hi: Tree = Leaf(hi_vals) if hi_vals is not None else _BOTTOM_LEAF
            if isinstance(lo, Leaf) and lo.values == {}:
                lo = _TOP_LEAF
            if isinstance(hi, Leaf) and hi.values == {}:
                hi = _TOP_LEAF
            return _mk_node(b, lo, hi)
        if pos[t.var] < bi:
            return _mk_node(t.var, go(t.low), go(t.high))
        # b comes before this node in the order: insert above.
        lo_sub = _meet_tree(t, false_values, order)
        hi_sub = _meet_tree(t, true_values, order)
        return _mk_node(b, lo_sub, hi_sub)

    return go(t)


def _meet_tree(t: Tree, values: LeafValues, order: Sequence[int]) -> Tree:
    if values is None:
        return _BOTTOM_LEAF

    def f(leaf_values: LeafValues) -> LeafValues:
        return _meet_values(leaf_values, values)

    return _map_leaves(t, f)


def _all_bottom(t: Tree) -> bool:
    if isinstance(t, Leaf):
        return t.is_bottom
    return _all_bottom(t.low) and _all_bottom(t.high)
