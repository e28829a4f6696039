"""Tests for the octagon abstract domain."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.domains import octagon as octagon_mod
from repro.domains.octagon import (Octagon, _closed_matrix,
                                   _closed_matrix_pivots)
from repro.numeric import FloatInterval, LinearForm


def boxed(n, bounds):
    """Octagon with per-variable interval bounds."""
    o = Octagon.top(n)
    for i, (lo, hi) in enumerate(bounds):
        o = o.set_var_bounds(i, FloatInterval.of(lo, hi))
    return o


class TestBasics:
    def test_top_has_no_bounds(self):
        o = Octagon.top(2)
        assert o.var_interval(0).is_top

    def test_bottom(self):
        assert Octagon.make_bottom(2).is_bottom
        assert Octagon.make_bottom(2).var_interval(0).is_empty

    def test_set_and_get_var_bounds(self):
        o = boxed(2, [(-1.0, 2.0), (0.0, 5.0)])
        iv = o.var_interval(0)
        assert iv.lo <= -1.0 <= 2.0 <= iv.hi
        assert iv.lo >= -1.001 and iv.hi <= 2.001

    def test_contradictory_bounds_give_bottom(self):
        o = Octagon.top(1).set_var_bounds(0, FloatInterval.of(1.0, 2.0))
        o = o.set_var_bounds(0, FloatInterval.of(5.0, 6.0))
        assert o.is_bottom

    def test_empty_interval_gives_bottom(self):
        o = Octagon.top(1).set_var_bounds(0, FloatInterval.empty())
        assert o.is_bottom

    def test_bounds_are_exact_python_floats(self):
        # Bounds read off the DBM must not carry numpy scalars into the
        # interval layer (slower arithmetic, numpy pickles).
        o = boxed(2, [(-1.0, 2.0), (0.5, 5.0)])
        o = o.guard_upper({0: 1, 1: -1}, 0.25)
        for iv in (o.var_interval(0), o.var_interval(1), o.sum_bound(0, 1),
                   o.diff_bound(0, 1), Octagon.top(2).sum_bound(0, 1)):
            assert type(iv.lo) is float and type(iv.hi) is float, iv
        m = o.closed().m
        assert o.sum_bound(0, 1).hi == float(m[3, 0])
        assert o.diff_bound(0, 1).hi == float(m[2, 0]) == 0.25


class TestClosure:
    def test_transitivity_through_closure(self):
        # x - y <= 1 and y - z <= 2 implies x - z <= 3 (+ rounding slack).
        o = Octagon.top(3)
        o = o.guard_upper({0: 1, 1: -1}, 1.0)
        o = o.guard_upper({1: 1, 2: -1}, 2.0)
        d = o.diff_bound(0, 2)
        assert d.hi <= 3.0000001
        assert d.hi >= 3.0

    def test_sum_and_diff_interact(self):
        # x + y <= 4, x - y <= 2 implies x <= 3.
        o = Octagon.top(2)
        o = o.guard_upper({0: 1, 1: 1}, 4.0)
        o = o.guard_upper({0: 1, 1: -1}, 2.0)
        assert o.var_interval(0).hi <= 3.0000001

    def test_unary_from_binary(self):
        # 1 <= x - y <= 1 and y in [0, 2] implies x in [1, 3].
        o = boxed(2, [(-100.0, 100.0), (0.0, 2.0)])
        o = o.guard_upper({0: 1, 1: -1}, 1.0)
        o = o.guard_upper({0: -1, 1: 1}, -1.0)
        iv = o.var_interval(0)
        assert 0.999 <= iv.lo <= 1.0 and 3.0 <= iv.hi <= 3.001


class TestLattice:
    def test_join_is_upper_bound(self):
        a = boxed(2, [(0.0, 1.0), (0.0, 1.0)])
        b = boxed(2, [(2.0, 3.0), (-1.0, 0.5)])
        j = a.join(b)
        assert j.includes(a) and j.includes(b)

    def test_join_with_bottom(self):
        a = boxed(1, [(0.0, 1.0)])
        assert a.join(Octagon.make_bottom(1)) is a

    def test_meet_refines(self):
        a = boxed(1, [(0.0, 10.0)])
        b = boxed(1, [(5.0, 20.0)])
        m = a.meet(b)
        iv = m.var_interval(0)
        assert iv.lo >= 4.999 and iv.hi <= 10.001

    def test_meet_disjoint_is_bottom(self):
        a = boxed(1, [(0.0, 1.0)])
        b = boxed(1, [(5.0, 6.0)])
        assert a.meet(b).is_bottom

    def test_includes_reflexive(self):
        a = boxed(2, [(0.0, 1.0), (2.0, 3.0)])
        assert a.includes(a)

    def test_includes_antisymmetric_cases(self):
        big = boxed(1, [(0.0, 10.0)])
        small = boxed(1, [(2.0, 3.0)])
        assert big.includes(small)
        assert not small.includes(big)

    def test_equal(self):
        a = boxed(1, [(0.0, 1.0)])
        b = boxed(1, [(0.0, 1.0)])
        assert a.equal(b)


class TestWidening:
    def test_widen_unstable_to_infinity(self):
        a = boxed(1, [(0.0, 1.0)])
        b = boxed(1, [(0.0, 2.0)])
        w = a.widen(b)
        assert w.var_interval(0).hi == math.inf

    def test_widen_stable_keeps_bound(self):
        a = boxed(1, [(0.0, 2.0)])
        b = boxed(1, [(0.0, 1.0)])
        w = a.widen(b)
        assert w.var_interval(0).hi <= 2.001

    def test_widen_with_thresholds(self):
        a = boxed(1, [(0.0, 1.0)])
        b = boxed(1, [(0.0, 2.0)])
        w = a.widen(b, thresholds=[-math.inf, 0.0, 100.0, math.inf])
        assert w.var_interval(0).hi <= 50.001  # 2*bound stored; 100/2 = 50

    def test_widening_terminates(self):
        cur = boxed(1, [(0.0, 1.0)])
        for i in range(100):
            grown = boxed(1, [(0.0, 1.0 + i)])
            nxt = cur.widen(grown)
            if nxt.equal(cur):
                break
            cur = nxt
        else:
            raise AssertionError("widening sequence did not stabilize")

    def test_narrow_recovers_bound(self):
        a = boxed(1, [(0.0, 1.0)])
        w = a.widen(boxed(1, [(0.0, 2.0)]))  # hi -> inf
        n = w.narrow(boxed(1, [(0.0, 2.0)]))
        assert n.var_interval(0).hi <= 2.001


class TestTransfer:
    def test_forget(self):
        o = boxed(2, [(0.0, 1.0), (5.0, 6.0)])
        o = o.forget(0)
        assert o.var_interval(0).is_top
        iv1 = o.var_interval(1)
        assert iv1.lo >= 4.999 and iv1.hi <= 6.001

    def test_assign_var_plus_interval(self):
        """The paper's L := Z + V transfer: c <= L - Z <= d."""
        o = boxed(2, [(-100.0, 100.0), (0.0, 100.0)])
        # v0 plays L, v1 plays Z; V in [1, 3].
        o = o.assign_var_plus_interval(0, 1, FloatInterval.of(1.0, 3.0))
        d = o.diff_bound(0, 1)
        assert 0.999 <= d.lo and d.hi <= 3.001

    def test_assign_var_plus_interval_implies_range(self):
        o = boxed(2, [(-100.0, 100.0), (0.0, 10.0)])
        o = o.assign_var_plus_interval(0, 1, FloatInterval.of(1.0, 2.0))
        iv = o.var_interval(0)
        assert iv.lo >= 0.999 and iv.hi <= 12.001

    def test_self_shift(self):
        o = boxed(1, [(0.0, 1.0)])
        o = o.assign_var_plus_interval(0, 0, FloatInterval.const(1.0))
        iv = o.var_interval(0)
        assert 0.999 <= iv.lo and iv.hi <= 2.001

    def test_shift_preserves_relations(self):
        # x - y in [0, 0], then x += 1 gives x - y in [1, 1].
        o = boxed(2, [(0.0, 5.0), (0.0, 5.0)])
        o = o.guard_upper({0: 1, 1: -1}, 0.0)
        o = o.guard_upper({0: -1, 1: 1}, 0.0)
        o = o.shift_var(0, FloatInterval.const(1.0))
        d = o.diff_bound(0, 1)
        assert 0.999 <= d.lo and d.hi <= 1.001

    def test_assign_neg_var(self):
        o = boxed(2, [(-100.0, 100.0), (2.0, 3.0)])
        o = o.assign_neg_var_plus_interval(0, 1, FloatInterval.const(0.0))
        s = o.sum_bound(0, 1)
        assert -0.001 <= s.lo <= s.hi <= 0.001
        iv = o.var_interval(0)
        assert -3.001 <= iv.lo and iv.hi <= -1.999

    def test_assign_interval(self):
        o = boxed(2, [(0.0, 1.0), (0.0, 1.0)])
        o = o.guard_upper({0: 1, 1: -1}, 0.0)
        o = o.assign_interval(0, FloatInterval.of(7.0, 8.0))
        iv = o.var_interval(0)
        assert 6.999 <= iv.lo and iv.hi <= 8.001
        # Old relation with v1 must be gone.
        assert o.diff_bound(0, 1).hi >= 5.9

    def test_paper_example_l_z_v(self):
        """Sect. 6.2.2 example: R := X - Z; if (R > V) L := Z + V; => L <= X."""
        # Pack: X=0, Z=1, V=2, R=3, L=4.
        o = Octagon.top(5)
        o = o.set_var_bounds(0, FloatInterval.of(-100.0, 100.0))
        o = o.set_var_bounds(1, FloatInterval.of(-100.0, 100.0))
        o = o.set_var_bounds(2, FloatInterval.of(0.0, 10.0))
        # R := X - Z is not octagonal in general; but the guard R > V with
        # V in [0, 10] gives L := Z + V with V's interval --> L - Z <= 10.
        o = o.assign_var_plus_interval(4, 1, FloatInterval.of(0.0, 10.0))
        d = o.diff_bound(4, 1)
        assert d.hi <= 10.001


class TestLinearFormAssign:
    def test_unit_coefficient_stays_relational(self):
        o = boxed(2, [(-50.0, 50.0), (0.0, 5.0)])
        form = LinearForm.var("z").add(LinearForm.constant(FloatInterval.of(1.0, 2.0)))
        o2 = o.assign_linear_form(0, form, {"z": 1}, lambda v: FloatInterval.of(0.0, 5.0))
        d = o2.diff_bound(0, 1)
        assert 0.999 <= d.lo and d.hi <= 2.001

    def test_out_of_pack_vars_intervalized(self):
        o = boxed(1, [(-50.0, 50.0)])
        form = LinearForm.var("outside").add(LinearForm.of_const(1.0))
        o2 = o.assign_linear_form(0, form, {}, lambda v: FloatInterval.of(0.0, 2.0))
        iv = o2.var_interval(0)
        assert 0.999 <= iv.lo and iv.hi <= 3.001

    def test_nonunit_coefficient_falls_back_to_interval(self):
        o = boxed(2, [(-50.0, 50.0), (1.0, 2.0)])
        form = LinearForm.var("z").scale(FloatInterval.const(3.0))
        o2 = o.assign_linear_form(0, form, {"z": 1},
                                  lambda v: FloatInterval.of(1.0, 2.0))
        iv = o2.var_interval(0)
        assert 2.999 <= iv.lo and iv.hi <= 6.001


class TestSoundnessSampling:
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))
    def test_closure_preserves_points(self, x, y, z):
        """Any concrete point satisfying the constraints stays inside
        after closure tightening."""
        o = Octagon.top(3)
        o = o.set_var_bounds(0, FloatInterval.of(-10.0, 10.0))
        o = o.set_var_bounds(1, FloatInterval.of(-10.0, 10.0))
        o = o.set_var_bounds(2, FloatInterval.of(-10.0, 10.0))
        o = o.guard_upper({0: 1, 1: -1}, 3.0)
        o = o.guard_upper({1: 1, 2: 1}, 5.0)
        sat = (x - y <= 3.0) and (y + z <= 5.0)
        if sat:
            c = o.closed()
            assert c.var_interval(0).contains(x) or abs(x) > 10
            d = c.diff_bound(0, 1)
            assert d.contains(x - y) or abs(x) > 10 or abs(y) > 10

    def test_invariant_counts(self):
        o = boxed(2, [(0.0, 1.0), (0.0, 1.0)])
        add, sub = o.finite_constraint_count()
        # Bounded boxes imply bounded sums and differences after closure.
        assert add == 1 and sub == 1


# -- incremental closure ------------------------------------------------------

INF = math.inf
DBL_MAX = float(np.finfo(np.float64).max)


def exact_strong_closure(m):
    """Strong closure of a float DBM over the rationals (shortest paths,
    then one strengthening); ``None`` entries are +inf.  Returns
    ``None`` when the matrix is bottom."""
    size = len(m)
    d = [[None if x == INF else Fraction(x) for x in row]
         for row in m.tolist()]
    for k in range(size):
        dk = d[k]
        for i in range(size):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(size):
                if dk[j] is not None and (di[j] is None or dik + dk[j] < di[j]):
                    di[j] = dik + dk[j]
    if any(d[i][i] < 0 for i in range(size)):
        return None
    unary = [d[i][i ^ 1] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if unary[i] is not None and unary[j ^ 1] is not None:
                half = (unary[i] + unary[j ^ 1]) / 2
                if d[i][j] is None or half < d[i][j]:
                    d[i][j] = half
    return d


def random_closed_octagon(rng, n):
    """A strongly closed, non-bottom octagon (full kernel) around a
    random point: every constraint holds there with random slack."""
    x = [rng.uniform(-50.0, 50.0) for _ in range(n)]
    m = np.full((2 * n, 2 * n), INF)
    np.fill_diagonal(m, 0.0)
    for _ in range(rng.randint(1, 3 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        si, sj = rng.choice((1, -1)), rng.choice((1, -1))
        if i == j:   # si * v_i <= bound, stored doubled
            bound = 2.0 * si * x[i] + rng.uniform(0.0, 10.0)
            row, col = (2 * i + 1, 2 * i) if si > 0 else (2 * i, 2 * i + 1)
        else:        # si * v_i + sj * v_j <= bound
            bound = si * x[i] + sj * x[j] + rng.uniform(0.0, 10.0)
            row = 2 * j + 1 if sj > 0 else 2 * j
            col = 2 * i if si > 0 else 2 * i + 1
        octagon_mod._set2(m, row, col, bound)
    o = Octagon(n, m).closed()
    assert o._closed and not o.is_bottom
    return o


def random_interval(rng):
    lo = rng.uniform(-60.0, 40.0)
    return FloatInterval.of(lo, lo + rng.uniform(0.0, 60.0))


def edit_through_every_transfer(rng, o):
    """Every transfer that closes through the incremental kernel."""
    n = o.n
    i, j = rng.randrange(n), rng.randrange(n)
    iv, jv = random_interval(rng), random_interval(rng)
    delta = FloatInterval.of(rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0))
    o.set_var_bounds(i, iv)
    o.guard_upper({i: rng.choice((1, -1))}, rng.uniform(-40.0, 40.0))
    if i != j:
        o.guard_upper({i: rng.choice((1, -1)), j: rng.choice((1, -1))},
                      rng.uniform(-20.0, 60.0), seed_bounds={i: iv, j: jv})
        o.assign_var_plus_interval(i, j, delta, j_bounds=jv)
        o.assign_neg_var_plus_interval(i, j, delta)
    o.shift_var(i, delta)
    o.assign_interval(i, iv)


@pytest.fixture
def recorded_closures(monkeypatch):
    """Every incremental-kernel call (input, pivots, output, restore
    flags of its nudges), with the closure memo off."""
    calls = []
    kernel, nudge = octagon_mod._closed_matrix_pivots, octagon_mod._nudge_up
    flags = []

    def recording_nudge(a, restore=True):
        flags.append(restore)
        return nudge(a, restore)

    def recording_kernel(m0, pivots):
        flags.clear()
        out = kernel(m0, pivots)
        calls.append((m0.copy(), pivots, out.copy(), set(flags)))
        return out

    monkeypatch.setattr(octagon_mod, "_CLOSURE_MEMO_MAX", 0)
    monkeypatch.setattr(octagon_mod, "_nudge_up", recording_nudge)
    monkeypatch.setattr(octagon_mod, "_closed_matrix_pivots",
                        recording_kernel)
    return calls


def is_bottom(m):
    return bool(np.any(np.diagonal(m) < 0.0))


class TestIncrementalClosure:
    def test_sound_and_agrees_with_full_kernel(self, recorded_closures):
        rng = random.Random(0x1C0C1)
        for trial in range(160):
            o = random_closed_octagon(rng, 1 + trial % 8)
            edit_through_every_transfer(rng, o)
        assert len(recorded_closures) > 500
        off_diagonal = None
        for m0, pivots, out, restores in recorded_closures:
            size = m0.shape[0]
            full = _closed_matrix(m0, size // 2)
            assert is_bottom(out) == is_bottom(full), pivots
            assert restores == {False}, "finite inputs skip the restore"
            exact = exact_strong_closure(m0)
            if exact is None:
                continue
            assert not is_bottom(out)
            off_diagonal = ~np.eye(size, dtype=bool)
            assert np.array_equal(np.isfinite(out) & off_diagonal,
                                  np.isfinite(full) & off_diagonal)
            for i in range(size):
                for j in range(size):
                    if i == j:
                        continue
                    if exact[i][j] is None:
                        assert out[i, j] == INF, (pivots, i, j)
                    else:
                        assert Fraction(out[i, j]) >= exact[i][j], \
                            (pivots, i, j)
        assert off_diagonal is not None, "no satisfiable edit sampled"

    def test_rewritten_rows_and_columns_match_full_kernel(self):
        """The precondition only fixes the entries outside the pivots'
        rows and columns: rewrite those rows and columns wholesale (the
        transfers above mostly edit the pivot block alone)."""
        rng = random.Random(0x2C0C)
        for trial in range(200):
            n = 2 + trial % 7
            m = random_closed_octagon(rng, n).m.copy()
            pivots = tuple(sorted(rng.sample(range(n), rng.choice((1, 2)))))
            for v in pivots:
                for node in (2 * v, 2 * v + 1):
                    m[node, :] = m[:, node] = INF
                    m[node, node] = 0.0
                for _ in range(2 * n):
                    other = rng.randrange(2 * n)
                    if other // 2 != v:
                        octagon_mod._set2(m, rng.choice((2 * v, 2 * v + 1)),
                                          other, rng.uniform(-30.0, 60.0))
            inc = _closed_matrix_pivots(m, pivots)
            full = _closed_matrix(m, n)
            assert is_bottom(inc) == is_bottom(full), trial
            if is_bottom(full):
                continue
            np.fill_diagonal(inc, 0.0)
            np.fill_diagonal(full, 0.0)
            assert np.array_equal(np.isfinite(inc), np.isfinite(full)), trial
            finite = np.isfinite(full)
            assert np.allclose(inc[finite], full[finite], rtol=1e-12,
                               atol=1e-9), trial

    def test_skipped_restore_is_exact(self, recorded_closures, monkeypatch):
        """Skipping the -inf restore never changes a bit: the bound on
        ``m.min()`` is only taken when no sum can reach -inf."""
        rng = random.Random(0x5C1B)
        for trial in range(40):
            edit_through_every_transfer(
                rng, random_closed_octagon(rng, 1 + trial % 8))
        nudge = octagon_mod._nudge_up
        monkeypatch.setattr(octagon_mod, "_nudge_up",
                            lambda a, restore=True: nudge(a, True))
        for m0, pivots, out, _ in recorded_closures:
            assert _closed_matrix_pivots(m0, pivots).tobytes() == \
                out.tobytes()

    SPECIALS = [INF, -INF, math.nan, 1e308, -1e308, 5e-324, -5e-324,
                2.2e-308, 0.0, -0.0]

    def test_special_values_take_the_restore_path(self, recorded_closures):
        rng = random.Random(0x5BEC)
        with np.errstate(over="ignore", invalid="ignore"):
            for trial in range(120):
                n = 1 + trial % 8
                m = random_closed_octagon(rng, n).m.copy()
                for _ in range(rng.randint(1, 4)):
                    m[rng.randrange(2 * n), rng.randrange(2 * n)] = \
                        rng.choice(self.SPECIALS)
                if not (np.isnan(m).any() or m.min() <= -1e308):
                    m[0, 2 * n - 1] = rng.choice((-INF, -1e308, math.nan))
                # Tagged closed, so the edits reach the incremental kernel.
                edit_through_every_transfer(rng, Octagon(n, m, closed=True))
        special = [c for c in recorded_closures
                   if np.isnan(c[0]).any() or c[0].min() <= -1e308]
        assert len(special) > 100
        for m0, pivots, out, restores in special:
            assert restores == {True}, pivots
            # The restore is exact: -inf never degrades to -DBL_MAX (a
            # sound add_up bound an edit may have put in the input).
            if not np.any(m0 == -DBL_MAX):
                assert not np.any(out == -DBL_MAX), pivots

    def test_raw_octagons_close_in_full(self, recorded_closures):
        """A widened (raw) octagon is not strongly closed, so edits of it
        take the full kernel."""
        a = boxed(2, [(0.0, 1.0), (0.0, 1.0)])
        w = a.widen(boxed(2, [(0.0, 2.0), (0.0, 1.0)]))
        assert not w._closed
        recorded_closures.clear()
        w.set_var_bounds(1, FloatInterval.of(0.0, 0.5))
        assert recorded_closures == []
        w.closed().set_var_bounds(1, FloatInterval.of(0.0, 0.5))
        assert [c[1] for c in recorded_closures] == [(1,)]

    def test_edit_that_tightens_nothing_closes_nothing(self,
                                                       recorded_closures):
        o = boxed(2, [(0.0, 1.0), (0.0, 1.0)])
        recorded_closures.clear()
        assert o.set_var_bounds(0, FloatInterval.of(-5.0, 5.0)) is o
        assert o.guard_upper({0: 1, 1: 1}, 10.0) is o
        assert recorded_closures == []
