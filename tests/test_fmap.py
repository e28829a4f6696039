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

    def test_negative_keys_are_never_stored_or_found(self):
        m = PMap.from_items((k, k) for k in (0, 31, 1023))
        with pytest.raises(KeyError):
            m.set(-1, "x")
        assert m.find(-1) is None and -33 not in m
        assert m.remove(-1) is m

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


def trie_nodes(*maps):
    """Distinct trie nodes reachable from the maps (by identity)."""
    seen = {}
    stack = [(m._root, m._shift) for m in maps if m]
    while stack:
        node, shift = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if shift:
                stack.extend((c, shift - 5) for c in node if c is not None)
    return seen


def _shape(m):
    """The map's trie as nested tuples of slot indexes."""
    def go(node, shift):
        return tuple((i, go(c, shift - 5) if shift else None)
                     for i, c in enumerate(node) if c is not None)
    return m._shift, go(m._root, m._shift)


class TestBalance:
    """The trie's depth depends on the largest key alone, never on the
    update order."""

    def test_sequential_inserts_balanced(self):
        m = PMap.from_items((i, i) for i in range(1024))
        assert m._shift == 5 and len(trie_nodes(m)) == 33

    def test_reverse_inserts_balanced(self):
        m = PMap.from_items((i, i) for i in reversed(range(1024)))
        assert _shape(m) == _shape(
            PMap.from_items((i, i) for i in range(1024)))


class TestShape:
    def test_depth_grows_with_the_largest_key(self):
        assert PMap.from_items([(31, 0)])._shift == 0
        assert PMap.from_items([(32, 0)])._shift == 5
        assert PMap.from_items([(0, 0), (2 ** 20 - 1, 0)])._shift == 15
        assert PMap.from_items([(2 ** 20, 0)])._shift == 20

    @given(st.lists(st.integers(min_value=0, max_value=2 ** 20),
                    unique=True, max_size=40), st.randoms())
    def test_equal_key_sets_give_equal_shapes(self, ks, rnd):
        shuffled = list(ks)
        rnd.shuffle(shuffled)
        a = PMap.from_items((k, k) for k in ks)
        b = PMap.from_items((k, k) for k in shuffled)
        # Removing a larger key shrinks the depth back.
        c = b.set(2 ** 25, 0).remove(2 ** 25)
        assert _shape(a) == _shape(b) == _shape(c)


ops = st.lists(st.tuples(st.booleans(),
                         st.integers(min_value=0, max_value=2 ** 20),
                         st.integers()), max_size=80)


class TestDictModel:
    """Random set/remove sequences against a dict, with keys up to
    2**20 so the trie grows and shrinks by several levels."""

    @staticmethod
    def _run(script):
        m, d = PMap.empty(), {}
        for is_set, k, v in script:
            if is_set or not d:
                m, d[k] = m.set(k, v), v
            else:
                victim = sorted(d)[k % len(d)]
                m = m.remove(victim)
                del d[victim]
            assert len(m) == len(d)
        return m, d

    @given(ops)
    def test_set_remove_match_dict(self, script):
        m, d = self._run(script)
        assert list(m.items()) == sorted(d.items())
        assert all(m.find(k) == v and k in m for k, v in d.items())
        for k in d:
            m = m.remove(k)
        assert not m and len(m) == 0 and m is PMap.empty()

    @given(ops, ops)
    def test_merge_of_any_depths_matches_dict(self, s1, s2):
        a, da = self._run(s1)
        b, db = self._run(s2)
        seen = []
        out = a.merge(b, lambda k, x, y: max(x, y),
                      missing_other=lambda k, x: seen.append(k) or -x)
        expected = dict(db)
        for k, v in da.items():
            expected[k] = max(v, db[k]) if k in db else -v
        assert list(out.items()) == sorted(expected.items())
        assert len(out) == len(expected)
        assert seen == sorted(set(da) - set(db))

    @given(ops, ops)
    def test_diff_keys_are_the_unshared_keys(self, s1, s2):
        a, _ = self._run(s1)
        b, _ = self._run(s2)
        b = b.merge(a, lambda k, x, y: x)  # share some values with a
        keys = {k for m in (a, b) for k, _ in m.items()}
        expected = sorted(k for k in keys if a.find(k) is not b.find(k))
        assert list(a.diff_keys(b)) == expected
        assert list(b.diff_keys(a)) == expected


class TestMerge:
    def test_identical_maps_share(self):
        m = PMap.from_items([(i, i) for i in range(100)])
        out = m.merge(m, lambda k, a, b: a + b)
        assert out is m  # shortcut: never visits any node

    def test_join_semantics(self):
        a = PMap.from_items([(1, 10), (2, 20)])
        b = PMap.from_items([(2, 22), (3, 33)])
        out = a.merge(b, lambda k, x, y: max(x, y))
        assert dict(out.items()) == {1: 10, 2: 22, 3: 33}

    def test_one_sided_keys_kept_and_shared(self):
        """A key on one side only keeps its value, and a one-sided map
        or subtree comes back physically shared, never walked."""
        a = PMap.from_items([(i, i) for i in range(100)])
        assert a.merge(PMap.empty(), lambda k, x, y: x + y) is a
        assert PMap.empty().merge(a, lambda k, x, y: x + y).ptr_equal(a)
        high = PMap.from_items([(i, -i) for i in range(1000, 1100)])
        calls = []
        out = a.merge(high, lambda k, x, y: calls.append(k))
        assert calls == []
        assert dict(out.items()) == {**dict(a.items()),
                                     **dict(high.items())}
        # missing_other sees exactly the keys of ``self`` only.
        b = PMap.from_items([(1, 10), (2, 20)])
        seen = []
        out = b.merge(PMap.from_items([(2, 22), (3, 33)]),
                      lambda k, x, y: max(x, y),
                      missing_other=lambda k, x: seen.append(k) or -x)
        assert seen == [1]
        assert dict(out.items()) == {1: -10, 2: 22, 3: 33}

    def test_mostly_shared_maps_merge_cheaply(self):
        """Merging maps differing in one key must not call combine on all."""
        base = PMap.from_items([(i, i) for i in range(1000)])
        modified = base.set(500, -1)
        calls = []

        def combine(k, a, b):
            calls.append(k)
            return max(a, b)

        out = base.merge(modified, combine)
        assert out[500] == 500  # max(500, -1)
        # Only keys on the path that lost sharing are visited: far fewer
        # than the map size.
        assert len(calls) < 50

    @given(kv_lists, kv_lists)
    def test_merge_union_matches_dict(self, items_a, items_b):
        """Union with an idempotent combine (max), as the lattice ops are."""
        a = PMap.from_items(items_a)
        b = PMap.from_items(items_b)
        out = a.merge(b, lambda k, x, y: max(x, y))
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

    def test_map_values_identity_shares(self):
        m = PMap.from_items([(1, 1), (2, 2)])
        assert m.map_values(lambda k, v: v) is m


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
        assert len(trie_nodes(la, lb, lc)) == len(trie_nodes(a, b, c))
        # ``set`` rebuilt only the path to key 200; the rest is shared.
        assert la._root[0] is lb._root[0]
        assert list(la.diff_keys(lb)) == [200]
        assert dict(lc.items()) == dict(c.items())

    def test_separate_streams_share_nothing(self):
        a = PMap.from_items((i, i) for i in range(64))
        b = a.set(3, -3)
        la, lb = pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))
        assert not set(trie_nodes(la)) & set(trie_nodes(lb))

    def test_tree_shape_preserved(self):
        m = PMap.empty()
        for k in (50, 10, 90, 5, 7, 99, 60, 61, 62, 63, 1, 2, 4000):
            m = m.set(k, str(k))
        m = m.remove(50).remove(7)
        out = pickle.loads(pickle.dumps(m))
        assert _shape(out) == _shape(m)
        empty = pickle.loads(pickle.dumps(PMap.empty()))
        assert not empty and empty.ptr_equal(PMap.empty())
        assert empty.set(3, "x")[3] == "x"

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
