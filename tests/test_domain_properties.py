"""Property-based soundness and lattice-law tests for the abstract domains.

These exercise the invariants the whole analyzer rests on:

* γ-soundness: concrete points that satisfy the represented constraints
  stay represented after any abstract operation;
* lattice laws: join is an upper bound, meet a lower bound, widening an
  upper bound that terminates, inclusion is a preorder compatible with
  join/meet.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.domains.decision_tree import DecisionTree
from repro.domains.ellipsoid import EllipsoidParams, EllipsoidValue
from repro.domains.octagon import Octagon
from repro.domains.values import CellValue
from repro.numeric import FloatInterval, IntInterval

# ---------------------------------------------------------------------------
# Strategies

bounds = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def octagons2(draw):
    """A 2-variable octagon built from random interval bounds and a couple
    of random ±1 constraints."""
    o = Octagon.top(2)
    for i in range(2):
        lo = draw(bounds)
        hi = draw(bounds)
        if lo > hi:
            lo, hi = hi, lo
        o = o.set_var_bounds(i, FloatInterval.of(lo, hi))
    if draw(st.booleans()):
        o = o.guard_upper({0: 1, 1: -1}, draw(bounds))
    if draw(st.booleans()):
        o = o.guard_upper({0: 1, 1: 1}, draw(bounds))
    return o


def point_in(o: Octagon, x: float, y: float) -> bool:
    """Concrete membership test against the octagon's closed constraints."""
    if o.is_bottom:
        return False
    c = o.closed()
    iv0, iv1 = c.var_interval(0), c.var_interval(1)
    s = c.sum_bound(0, 1)
    d = c.diff_bound(0, 1)
    return (iv0.lo <= x <= iv0.hi and iv1.lo <= y <= iv1.hi
            and s.lo <= x + y <= s.hi and d.lo <= x - y <= d.hi)


points = st.tuples(bounds, bounds)


class TestOctagonSoundness:
    @settings(max_examples=60, deadline=None)
    @given(octagons2(), octagons2(), points)
    def test_join_preserves_points(self, a, b, pt):
        x, y = pt
        if point_in(a, x, y) or point_in(b, x, y):
            assert point_in(a.join(b), x, y)

    @settings(max_examples=60, deadline=None)
    @given(octagons2(), octagons2(), points)
    def test_meet_keeps_common_points(self, a, b, pt):
        x, y = pt
        if point_in(a, x, y) and point_in(b, x, y):
            assert point_in(a.meet(b), x, y)

    @settings(max_examples=60, deadline=None)
    @given(octagons2(), octagons2(), points)
    def test_widen_upper_bounds_both(self, a, b, pt):
        x, y = pt
        w = a.widen(b)
        if point_in(a, x, y) or point_in(b, x, y):
            assert point_in(w, x, y)

    @settings(max_examples=40, deadline=None)
    @given(octagons2(), points)
    def test_closure_preserves_points(self, o, pt):
        x, y = pt
        if point_in(o, x, y):
            assert point_in(o.closed(), x, y)

    @settings(max_examples=40, deadline=None)
    @given(octagons2(), points, bounds)
    def test_shift_tracks_points(self, o, pt, delta):
        x, y = pt
        if point_in(o, x, y):
            shifted = o.shift_var(0, FloatInterval.const(delta))
            assert point_in(shifted, x + delta, y)

    @settings(max_examples=40, deadline=None)
    @given(octagons2(), octagons2())
    def test_includes_consistent_with_join(self, a, b):
        j = a.join(b)
        assert j.includes(a)
        assert j.includes(b)

    @settings(max_examples=40, deadline=None)
    @given(octagons2())
    def test_includes_reflexive(self, o):
        assert o.includes(o)

    @settings(max_examples=30, deadline=None)
    @given(octagons2(), st.lists(bounds, min_size=1, max_size=5))
    def test_widening_sequence_terminates(self, o, deltas):
        """Any growing sequence stabilizes under iterated widening."""
        cur = o
        for _ in range(64):
            grown = cur.shift_var(0, FloatInterval.of(-1.0, 1.0)).join(cur)
            nxt = cur.widen(grown)
            if nxt.includes(cur) and cur.includes(nxt):
                break
            cur = nxt
        else:
            raise AssertionError("octagon widening did not stabilize")


# ---------------------------------------------------------------------------


int_intervals = st.tuples(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-1000, max_value=1000),
).map(lambda ab: IntInterval.of(min(ab), max(ab)))


@st.composite
def cell_values(draw):
    itv = draw(int_intervals)
    if draw(st.booleans()):
        return CellValue(itv)
    mc = draw(int_intervals)
    pc = draw(int_intervals)
    return CellValue(itv, minus_clock=mc, plus_clock=pc)


class TestCellValueLattice:
    @settings(max_examples=80, deadline=None)
    @given(cell_values(), cell_values())
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert j.includes(a) and j.includes(b)

    @settings(max_examples=80, deadline=None)
    @given(cell_values(), cell_values())
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert a.includes(m) or m.is_bottom
        assert b.includes(m) or m.is_bottom

    @settings(max_examples=80, deadline=None)
    @given(cell_values(), cell_values())
    def test_widen_upper_bound(self, a, b):
        w = a.widen(b)
        assert w.includes(a) and w.includes(b)

    @settings(max_examples=80, deadline=None)
    @given(cell_values())
    def test_includes_reflexive(self, a):
        assert a.includes(a)

    @settings(max_examples=80, deadline=None)
    @given(cell_values(), cell_values(), cell_values())
    def test_includes_transitive(self, a, b, c):
        big = a.join(b).join(c)
        mid = a.join(b)
        assert big.includes(mid) and mid.includes(a)

    @settings(max_examples=50, deadline=None)
    @given(cell_values())
    def test_join_idempotent(self, a):
        j = a.join(a)
        assert j.includes(a) and a.includes(j)


# ---------------------------------------------------------------------------


leaf_values = st.dictionaries(
    st.sampled_from([10, 11]),
    int_intervals,
    max_size=2,
)
leaf_or_none = st.one_of(st.none(), leaf_values)


@st.composite
def dtrees(draw):
    t = DecisionTree.top([1, 2], [10, 11])
    for b in (1, 2):
        if draw(st.booleans()):
            t = t.assign_bool(b, draw(leaf_or_none), draw(leaf_or_none))
    return t


class TestDecisionTreeLattice:
    @settings(max_examples=60, deadline=None)
    @given(dtrees(), dtrees())
    def test_join_upper_bound(self, a, b):
        j = a.join(b)
        assert j.includes(a) and j.includes(b)

    @settings(max_examples=60, deadline=None)
    @given(dtrees(), dtrees())
    def test_meet_lower_bound(self, a, b):
        m = a.meet(b)
        assert a.includes(m) and b.includes(m)

    @settings(max_examples=60, deadline=None)
    @given(dtrees())
    def test_includes_reflexive(self, a):
        assert a.includes(a)

    @settings(max_examples=60, deadline=None)
    @given(dtrees(), dtrees())
    def test_widen_upper_bound(self, a, b):
        w = a.widen(b)
        assert w.includes(a) and w.includes(b)

    @settings(max_examples=60, deadline=None)
    @given(dtrees(), st.sampled_from([1, 2]), st.booleans())
    def test_guard_refines(self, t, b, value):
        g = t.guard_bool(b, value)
        assert t.includes(g)

    @settings(max_examples=60, deadline=None)
    @given(dtrees(), st.sampled_from([1, 2]))
    def test_guard_branches_join_below_original(self, t, b):
        lo = t.guard_bool(b, False)
        hi = t.guard_bool(b, True)
        assert t.includes(lo.join(hi))


# ---------------------------------------------------------------------------


class TestEllipsoidProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=0.0, max_value=1e6))
    def test_join_meet_are_max_min(self, k1, k2):
        p = EllipsoidParams(1.5, 0.7, 1.0)
        a, b = EllipsoidValue(p, k1), EllipsoidValue(p, k2)
        assert a.join(b).k == max(k1, k2)
        assert a.meet(b).k == min(k1, k2)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_delta_monotone(self, k):
        p = EllipsoidParams(1.5, 0.7, 1.0)
        assert p.delta(k + 1.0) >= p.delta(k)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1e9))
    def test_x_bound_contains_extremal_points(self, k):
        p = EllipsoidParams(1.5, 0.7, 1.0)
        v = EllipsoidValue(p, k)
        # The point (x*, y*) achieving max |x| on the ellipse boundary.
        disc = 4 * p.b - p.a * p.a
        x_star = 2 * math.sqrt(p.b * k / disc)
        assert v.x_bound().hi >= x_star * 0.999

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_rotation_fixpoint_bounded_by_stable_k(self, k0, tm):
        p = EllipsoidParams(1.2, 0.5, tm)
        v = EllipsoidValue(p, min(k0, p.stable_k()))
        for _ in range(50):
            v = v.rotate()
        assert v.k <= p.stable_k() * 1.05 + 1e-9
