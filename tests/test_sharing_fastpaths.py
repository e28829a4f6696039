"""Sharing-aware lattice fast paths.

The incremental engine leans on two structural guarantees:

* :class:`PMap` merges short-circuit on physical identity (``a is b``)
  without building a single trie node, and a merge of two maps that
  differ in one key rebuilds only the root-to-key path (Sect. 6.1.2);
* :class:`Octagon` caches its strong closure, and ``join``/``includes``
  consume the cache instead of re-running the cubic Floyd-Warshall pass.

These tests pin both properties so a refactor cannot silently regress
them into correct-but-quadratic behaviour, and pin that the ellipsoid
pre-join/pre-widening reduction of ``AbstractState`` runs inside the
merge, visiting only the filter sites whose bound differs.
"""

import pickle

import numpy as np
import pytest

from repro.domains.octagon import Octagon
from repro.memory.fmap import PMap


# -- trie-node identity ---------------------------------------------------------


def _nodes(*maps):
    """Distinct trie nodes reachable from the maps, by identity."""
    seen = {}
    stack = [(m._root, m._shift) for m in maps if m]
    while stack:
        node, shift = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if shift:
                stack.extend((c, shift - 5) for c in node if c is not None)
    return seen


def _path(m, key):
    """The nodes from the root down to the leaf holding ``key``."""
    node, shift, out = m._root, m._shift, []
    while True:
        out.append(node)
        if not shift:
            return out
        node = node[key >> shift & 31]
        shift -= 5


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


def test_self_join_allocates_no_nodes():
    m = _big_map()
    calls = {"n": 0}

    def combine(key, a, b):
        calls["n"] += 1
        return a

    assert m.merge(m, combine) is m, "self-join must return self"
    assert calls["n"] == 0, "self-join must not call combine"


def test_single_key_diff_join_rebuilds_only_the_path():
    m = _big_map()
    m2 = m.set(500, -1)
    calls = {"n": 0}

    def combine(key, a, b):
        calls["n"] += 1
        return a + b

    joined = m.merge(m2, combine)
    assert joined[500] == 4999
    assert calls["n"] == 1, "combine must fire only on the differing key"
    # The only new nodes are the root-to-key path; every other node is
    # the input's own object.
    new = set(_nodes(joined)) - set(_nodes(m))
    assert new == {id(n) for n in _path(joined, 500)}
    assert len(new) == 2  # 1000 keys: a root over 32-key leaves
    assert list(m.diff_keys(m2)) == [500]


def test_equal_key_sets_share_untouched_subtrees():
    m = _big_map()
    m2 = m.set(500, -1)
    # When combine hands back one operand's own value object, the merge
    # collapses to that operand entirely (no new map at all).
    assert m.merge(m2, lambda k, a, b: max(a, b)).ptr_equal(m)
    # When combine produces a fresh value, only that key stops sharing,
    # and every leaf off its path is the very object of both inputs.
    joined = m.merge(m2, lambda k, a, b: a + b)
    assert list(joined.diff_keys(m)) == [500]
    hit = 500 >> 5
    for i, leaf in enumerate(joined._root):
        if leaf is not None and i != hit:
            assert leaf is m._root[i] is m2._root[i]


def test_one_pickle_stream_writes_a_shared_leaf_once():
    m = PMap.from_items((i, ("v", i)) for i in range(1000))
    m2 = m.set(500, ("changed",))
    alone = len(pickle.dumps(m))
    both = len(pickle.dumps([m, m2]))
    # m2 adds a root and one leaf; its 31 other leaves are memo hits.
    assert both - alone < alone // 8
    lm, lm2 = pickle.loads(pickle.dumps([m, m2]))
    assert len(_nodes(lm, lm2)) == len(_nodes(m, m2)) == 32 + 2 + 1
    assert list(lm.diff_keys(lm2)) == [500]


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
    # The per-instance cache, not the process-global closure memo (which
    # an earlier analysis may have left holding this very matrix).
    from repro.domains.octagon import configure_closure_memo

    configure_closure_memo(0)
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


# -- Ellipsoid reduction inside the merge ---------------------------------------


_N_SITES = 16


@pytest.fixture(scope="module")
def filter_ctx():
    """A context with 16 second-order filter sites (Sect. 6.2.3)."""
    from repro.config import AnalyzerConfig
    from repro.frontend import compile_source
    from repro.iterator.state import AnalysisContext

    decls = "".join(f"float X{i}, Y{i};\n" for i in range(_N_SITES))
    body = "".join(f"""
        Xp = 1.5f * X{i} - 0.7f * Y{i} + t;
        Y{i} = X{i};
        X{i} = Xp;""" for i in range(_N_SITES))
    src = f"""
    volatile float vin;
    {decls}
    int main(void) {{
      float t, Xp;
      while (1) {{
        t = vin;{body}
        __ASTREE_wait_for_clock();
      }}
      return 0;
    }}
    """
    cfg = AnalyzerConfig(input_ranges={"vin": (-1.0, 1.0)})
    ctx = AnalysisContext.for_program(compile_source(src, "filters.c"), cfg)
    assert len(ctx.filter_sites) == _N_SITES
    return ctx


def _filter_state(ctx, box=2.0, k=lambda site_id: 10.0 + site_id):
    from repro.domains.values import CellValue
    from repro.iterator.state import AbstractState
    from repro.numeric import FloatInterval

    state = AbstractState.initial(ctx)
    env, ells = state.env, state.ellipsoids
    for site in ctx.filter_sites.sites:
        for cid in (site.x_cid, site.y_cid):
            env = env.set(cid, CellValue(FloatInterval.of(-box, box)))
        ells = ells.set(site.site_id, k(site.site_id))
    return state._with(env=env, ellipsoids=ells)


def test_ellipsoid_merge_reads_only_differing_sites(filter_ctx,
                                                    monkeypatch):
    a = _filter_state(filter_ctx)
    site = filter_ctx.filter_sites.sites[5].site_id
    b = a._with(ellipsoids=a.ellipsoids.set(site, 50.0))
    maps = {id(a.ellipsoids), id(b.ellipsoids)}
    reads = {"get": 0, "items": 0}
    real_get, real_items = PMap.get, PMap.items

    def get(self, *args):
        reads["get"] += id(self) in maps
        return real_get(self, *args)

    def items(self):
        reads["items"] += id(self) in maps
        return real_items(self)

    monkeypatch.setattr(PMap, "get", get)
    monkeypatch.setattr(PMap, "items", items)
    joined, widened = a.join(b), a.widen(b)
    monkeypatch.undo()
    assert reads == {"get": 0, "items": 0}
    assert joined.ellipsoids.get(site) == 50.0
    assert widened.ellipsoids.get(site) >= 50.0
    assert list(joined.ellipsoids.diff_keys(a.ellipsoids)) == [site]
    assert list(widened.ellipsoids.diff_keys(a.ellipsoids)) == [site]


def test_site_only_in_self_meets_the_other_box(filter_ctx):
    """A site missing from the other state (a resume that re-applied
    ``drop-ellipsoids`` up front) meets it as top: the other side's k is
    reduced from its own box, so the result stays finite."""
    a = _filter_state(filter_ctx, k=lambda site_id: 1.0)
    site = filter_ctx.filter_sites.sites[5].site_id
    c = _filter_state(filter_ctx, box=1.0)
    c = c._with(ellipsoids=c.ellipsoids.remove(site))
    reduced = c._reduce_ellipsoid_from_box(site)
    assert 1.0 < reduced < float("inf")
    assert a.join(c).ellipsoids.get(site) == reduced
    assert reduced <= a.widen(c).ellipsoids.get(site) < float("inf")
    # A site only in the other state keeps that state's k.
    assert c.join(a).ellipsoids.get(site) == 1.0
