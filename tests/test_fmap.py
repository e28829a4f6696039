"""Tests for the persistent functional map with sharing."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.memory.fmap import PMap

keys = st.integers(min_value=0, max_value=1000)
kv_lists = st.lists(st.tuples(keys, st.integers()), max_size=60)


class TestBasics:
    def test_empty(self):
        m = PMap.empty()
        assert len(m) == 0 and not m
        assert m.get(1) is None

    def test_set_get(self):
        m = PMap.empty().set(1, "a").set(2, "b")
        assert m[1] == "a" and m[2] == "b"
        assert len(m) == 2

    def test_overwrite(self):
        m = PMap.empty().set(1, "a").set(1, "b")
        assert m[1] == "b" and len(m) == 1

    def test_persistence(self):
        m1 = PMap.empty().set(1, "a")
        m2 = m1.set(1, "b")
        assert m1[1] == "a" and m2[1] == "b"

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            PMap.empty()[42]

    def test_remove(self):
        m = PMap.from_items([(i, i) for i in range(10)])
        m2 = m.remove(5)
        assert 5 not in m2 and 5 in m
        assert len(m2) == 9

    def test_remove_absent_is_noop(self):
        m = PMap.empty().set(1, "a")
        assert m.remove(99) is m

    def test_set_same_value_is_noop(self):
        v = object()
        m = PMap.empty().set(1, v)
        assert m.set(1, v) is m

    @given(kv_lists)
    def test_matches_dict_semantics(self, items):
        m = PMap.from_items(items)
        d = dict(items)
        assert len(m) == len(d)
        assert dict(m.items()) == d

    @given(kv_lists)
    def test_items_sorted_by_key(self, items):
        m = PMap.from_items(items)
        ks = [k for k, _ in m.items()]
        assert ks == sorted(ks)

    @given(kv_lists, keys)
    def test_remove_matches_dict(self, items, victim):
        m = PMap.from_items(items).remove(victim)
        d = dict(items)
        d.pop(victim, None)
        assert dict(m.items()) == d


class TestBalance:
    def _depth(self, m):
        def go(node):
            if node is None:
                return 0
            return 1 + max(go(node.left), go(node.right))
        return go(m._root)

    def test_sequential_inserts_balanced(self):
        m = PMap.from_items([(i, i) for i in range(1024)])
        assert self._depth(m) <= 25  # well below linear

    def test_reverse_inserts_balanced(self):
        m = PMap.from_items([(i, i) for i in reversed(range(1024))])
        assert self._depth(m) <= 25


class TestMerge:
    def test_identical_maps_share(self):
        m = PMap.from_items([(i, i) for i in range(100)])
        out = m.merge(m, lambda k, a, b: a + b)
        assert out is m  # shortcut: never visits any node

    def test_join_semantics(self):
        a = PMap.from_items([(1, 10), (2, 20)])
        b = PMap.from_items([(2, 22), (3, 33)])
        out = a.merge(b, lambda k, x, y: max(x, y),
                      missing_self=lambda k, y: y,
                      missing_other=lambda k, x: x)
        assert dict(out.items()) == {1: 10, 2: 22, 3: 33}

    def test_missing_default_drops(self):
        a = PMap.from_items([(1, 10), (2, 20)])
        b = PMap.from_items([(2, 22), (3, 33)])
        out = a.merge(b, lambda k, x, y: x + y)
        assert dict(out.items()) == {2: 42}

    def test_drop_sentinel(self):
        a = PMap.from_items([(1, 1), (2, 2)])
        b = PMap.from_items([(1, 1), (2, 3)])
        out = a.merge(b, lambda k, x, y: PMap.DROP if x != y else x,
                      missing_self=lambda k, y: y,
                      missing_other=lambda k, x: x)
        assert dict(out.items()) == {1: 1}

    def test_mostly_shared_maps_merge_cheaply(self):
        """Merging maps differing in one key must not call combine on all."""
        base = PMap.from_items([(i, i) for i in range(1000)])
        modified = base.set(500, -1)
        calls = []

        def combine(k, a, b):
            calls.append(k)
            return max(a, b)

        out = base.merge(modified, combine,
                         missing_self=lambda k, y: y,
                         missing_other=lambda k, x: x)
        assert out[500] == 500  # max(500, -1)
        # Only keys on the path that lost sharing are visited: far fewer
        # than the map size.
        assert len(calls) < 50

    @given(kv_lists, kv_lists)
    def test_merge_union_matches_dict(self, items_a, items_b):
        """Union with an idempotent combine (max), as the lattice ops are."""
        a = PMap.from_items(items_a)
        b = PMap.from_items(items_b)
        out = a.merge(b, lambda k, x, y: max(x, y),
                      missing_self=lambda k, y: y,
                      missing_other=lambda k, x: x)
        db = dict(b.items())
        expected = dict(db)
        for k, v in a.items():
            expected[k] = max(v, db[k]) if k in db else v
        assert dict(out.items()) == expected


class TestDiffAndEqual:
    def test_diff_keys_of_identical_is_empty(self):
        m = PMap.from_items([(i, i) for i in range(50)])
        assert list(m.diff_keys(m)) == []

    def test_diff_keys_finds_changed(self):
        m = PMap.from_items([(i, i) for i in range(50)])
        m2 = m.set(25, -1)
        diff = set(m.diff_keys(m2))
        assert 25 in diff
        assert len(diff) < 20

    def test_diff_keys_finds_added(self):
        m = PMap.from_items([(1, 1)])
        m2 = m.set(2, 2)
        assert 2 in set(m.diff_keys(m2))

    def test_equal_identical(self):
        m = PMap.from_items([(i, i) for i in range(10)])
        assert m.equal(m, lambda a, b: a == b)

    def test_equal_structurally(self):
        a = PMap.from_items([(1, [1]), (2, [2])])
        b = PMap.from_items([(2, [2]), (1, [1])])
        assert a.equal(b, lambda x, y: x == y)

    def test_not_equal_different_value(self):
        a = PMap.from_items([(1, 1)])
        b = PMap.from_items([(1, 2)])
        assert not a.equal(b, lambda x, y: x == y)

    def test_not_equal_different_size(self):
        a = PMap.from_items([(1, 1)])
        b = PMap.from_items([(1, 1), (2, 2)])
        assert not a.equal(b, lambda x, y: x == y)


class TestMapValues:
    def test_map_values(self):
        m = PMap.from_items([(1, 1), (2, 2)])
        out = m.map_values(lambda k, v: v * 10)
        assert dict(out.items()) == {1: 10, 2: 20}

    def test_map_values_drop(self):
        m = PMap.from_items([(1, 1), (2, 2), (3, 3)])
        out = m.map_values(lambda k, v: PMap.DROP if v == 2 else v)
        assert dict(out.items()) == {1: 1, 3: 3}

    def test_map_values_identity_shares(self):
        m = PMap.from_items([(1, 1), (2, 2)])
        assert m.map_values(lambda k, v: v) is m


def _shape(node):
    if node is None:
        return None
    return (node.key, node.size, _shape(node.left), _shape(node.right))


def _nodes(*maps):
    """Distinct tree nodes reachable from the maps (by identity)."""
    seen = {}
    stack = [m._root for m in maps]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend((node.left, node.right))
    return seen


class TestPickle:
    @given(kv_lists)
    def test_items_round_trip(self, items):
        m = PMap.from_items(items)
        out = pickle.loads(pickle.dumps(m))
        assert list(out.items()) == list(m.items())
        assert len(out) == len(m)

    def test_one_stream_keeps_shared_nodes(self):
        a = PMap.from_items((i, ("v", i)) for i in range(256))
        b = a.set(200, "changed")
        c = a.remove(17)
        la, lb, lc = pickle.loads(pickle.dumps([a, b, c]))
        assert len(_nodes(la, lb, lc)) == len(_nodes(a, b, c))
        # ``set`` rebuilt only the path to key 200; the rest is shared.
        assert la._root.left is lb._root.left
        assert list(la.diff_keys(lb)) == [200]
        assert dict(lc.items()) == dict(c.items())

    def test_separate_streams_share_nothing(self):
        a = PMap.from_items((i, i) for i in range(64))
        b = a.set(3, -3)
        la, lb = pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))
        assert not set(_nodes(la)) & set(_nodes(lb))

    def test_tree_shape_preserved(self):
        # Removals and out-of-order inserts leave a shape that rebuilding
        # from the sorted items would not reproduce.
        m = PMap.empty()
        for k in (50, 10, 90, 5, 7, 99, 60, 61, 62, 63, 1, 2):
            m = m.set(k, str(k))
        m = m.remove(50).remove(7)
        out = pickle.loads(pickle.dumps(m))
        assert _shape(out._root) == _shape(m._root)
        assert _shape(out._root) != _shape(
            PMap.from_items(m.items())._root)

    def test_item_list_pickle_still_loads(self):
        # Written by the earlier ``(PMap.from_items, (items,))`` reducer.
        old = (b"\x80\x04\x95I\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro."
               b"memory.fmap\x94\x8c\x0fPMap.from_items\x94\x93\x94]\x94("
               b"K\x01\x8c\x01a\x94\x86\x94K\x02\x8c\x01b\x94\x86\x94K\x03"
               b"\x8c\x01c\x94\x86\x94e\x85\x94R\x94.")
        m = pickle.loads(old)
        assert isinstance(m, PMap)
        assert dict(m.items()) == {1: "a", 2: "b", 3: "c"}
        assert m.set(4, "d")[4] == "d"
