"""Sharing-aware lattice fast paths.

The incremental engine leans on two structural guarantees:

* :class:`PMap` merges short-circuit on physical identity (``a is b``)
  without allocating a single tree node, and a merge of two maps that
  differ in one key rebuilds only the root-to-key path (Sect. 6.1.2);
* :class:`Octagon` caches its strong closure, and ``join``/``includes``
  consume the cache instead of re-running the cubic Floyd-Warshall pass.

These tests pin both properties so a refactor cannot silently regress
them into correct-but-quadratic behaviour.
"""

import pickle

import numpy as np
import pytest

from repro.domains.octagon import Octagon
from repro.memory import fmap
from repro.memory.fmap import PMap


# -- node-allocation instrumentation ------------------------------------------


@pytest.fixture
def node_allocs(monkeypatch):
    """Count every ``_Node`` constructed while the fixture is active."""
    counter = {"n": 0}
    orig = fmap._Node.__init__

    def counting_init(self, *args, **kwargs):
        counter["n"] += 1
        orig(self, *args, **kwargs)

    monkeypatch.setattr(fmap._Node, "__init__", counting_init)
    return counter


def _big_map(n=1000):
    return PMap.from_items((i, i * 10) for i in range(n))


# -- PMap identity fast paths --------------------------------------------------


def test_ptr_equal_is_physical_identity():
    m = _big_map()
    same_content = PMap.from_items(m.items())
    assert m.ptr_equal(m)
    assert not m.ptr_equal(same_content)
    assert m.equal(same_content, lambda a, b: a == b)


def test_set_same_value_preserves_identity():
    m = _big_map()
    v = m[500]
    assert m.set(500, v).ptr_equal(m)


def test_self_join_allocates_no_nodes(node_allocs):
    m = _big_map()
    calls = {"n": 0}

    def combine(key, a, b):
        calls["n"] += 1
        return a

    node_allocs["n"] = 0
    joined = m.merge(m, combine)
    assert joined.ptr_equal(m)
    assert node_allocs["n"] == 0, "self-join must not allocate tree nodes"
    assert calls["n"] == 0, "self-join must not call combine"


def test_single_key_diff_join_rebuilds_only_the_path(node_allocs):
    m = _big_map()
    m2 = m.set(500, -1)
    calls = {"n": 0}

    def combine(key, a, b):
        calls["n"] += 1
        return max(a, b)

    node_allocs["n"] = 0
    joined = m.merge(m2, combine)
    assert joined[500] == 5000
    assert calls["n"] == 1, "combine must fire only on the differing key"
    # A weight-balanced tree of 1000 keys is ~10 levels deep; the merge may
    # rebuild the path plus a few rebalance nodes, never the whole tree.
    assert node_allocs["n"] <= 64, f"allocated {node_allocs['n']} nodes"
    assert list(m.diff_keys(m2)) == [500]


def test_equal_key_sets_share_untouched_subtrees(node_allocs):
    m = _big_map()
    m2 = m.set(500, -1)
    # When combine hands back one operand's own value object, the merge
    # collapses to that operand entirely (no new map at all).
    assert m.merge(m2, lambda k, a, b: max(a, b)).ptr_equal(m)
    # When combine produces a fresh value, only that key stops sharing.
    joined = m.merge(m2, lambda k, a, b: a + b)
    assert joined[500] == 4999
    assert list(joined.diff_keys(m)) == [500]


# -- Octagon closure-cache reuse ----------------------------------------------


def _raw_octagon(n=3, hi=10.0):
    """A non-closed octagon with enough finite entries that ``closed()``
    must run the real cubic pass (not the cheap top shortcut)."""
    o = Octagon(n)
    m = o.m.copy()
    for i in range(n):
        m[2 * i + 1, 2 * i] = 2.0 * (hi + i)       # v_i <= hi + i
        m[2 * i, 2 * i + 1] = 2.0 * (hi + i)       # -v_i <= hi + i
    m[2, 0] = 3.0                                  # v_0 - v_1 <= 3
    return Octagon(n, m, closed=False)


def test_closed_is_cached_and_not_recomputed():
    o = _raw_octagon()
    before = Octagon.closure_computations
    c1 = o.closed()
    assert Octagon.closure_computations == before + 1
    c2 = o.closed()
    assert c2 is c1
    assert Octagon.closure_computations == before + 1


def test_join_of_two_closed_octagons_runs_no_closure():
    a = _raw_octagon(hi=10.0).closed()
    b = _raw_octagon(hi=20.0).closed()
    before = Octagon.closure_computations
    j = a.join(b)
    assert Octagon.closure_computations == before
    assert j._closed, "max of two closed matrices is closed"
    # The join must still be an upper bound.
    assert j.includes(a) and j.includes(b)
    assert Octagon.closure_computations == before


def test_join_consumes_closure_cache_of_raw_operands():
    a = _raw_octagon(hi=10.0)
    b = _raw_octagon(hi=20.0)
    a.closed()
    b.closed()
    before = Octagon.closure_computations
    a.join(b)
    assert Octagon.closure_computations == before


def test_includes_short_circuits_on_identity():
    o = _raw_octagon()
    before = Octagon.closure_computations
    assert o.includes(o)
    assert Octagon.closure_computations == before


def test_self_join_returns_closed_without_extra_work():
    o = _raw_octagon()
    c = o.closed()
    before = Octagon.closure_computations
    assert o.join(o) is c
    assert Octagon.closure_computations == before


def test_pickle_drops_cache_but_preserves_matrix_and_flags():
    # This test pins the *per-instance* cache: the process-global
    # closure memo (left enabled by any earlier analyze() run) would
    # satisfy the re-close below without a recomputation.
    from repro.domains.octagon import configure_closure_memo

    configure_closure_memo(0)
    o = _raw_octagon()
    o.closed()
    assert o._closed_cache is not None
    o2 = pickle.loads(pickle.dumps(o))
    assert o2._closed_cache is None, "derived cache must not travel"
    assert o2._closed == o._closed
    assert o2._bottom == o._bottom
    assert np.array_equal(o2.m, o.m)
    # Re-closing on the worker side recomputes exactly once.
    before = Octagon.closure_computations
    o2.closed()
    o2.closed()
    assert Octagon.closure_computations == before + 1
