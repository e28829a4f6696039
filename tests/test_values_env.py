"""Tests for per-cell values, the clocked domain, cells and environments."""

import dataclasses
import math
import pickle

import pytest

from repro.domains.values import (
    CellValue, ClockInfo, bottom_value, const_value, top_value,
)
from repro.frontend import compile_source
from repro.frontend.c_types import DOUBLE, FLOAT, INT
from repro.memory.cells import (
    AtomicLayout, CellTable, ExpandedArrayLayout, RecordLayout,
    ShrunkArrayLayout,
)
from repro.memory.environment import MemoryEnv
from repro.memory.fmap import PMap
from repro.numeric import FloatInterval, IntInterval, LinearForm


class TestCellValueLattice:
    def test_top_of_int_type_is_type_range(self):
        v = top_value(INT)
        assert v.itv == IntInterval.of(-(2**31), 2**31 - 1)

    def test_top_of_float_type_is_finite_range(self):
        v = top_value(FLOAT)
        assert v.itv.is_bounded

    def test_const(self):
        assert const_value(INT, 5).itv == IntInterval.const(5)
        assert const_value(DOUBLE, 1.5).itv == FloatInterval.const(1.5)

    def test_bottom(self):
        assert bottom_value(INT).is_bottom
        assert bottom_value(FLOAT).is_bottom

    def test_join(self):
        a = const_value(INT, 1)
        b = const_value(INT, 5)
        assert a.join(b).itv == IntInterval.of(1, 5)

    def test_join_with_bottom(self):
        a = const_value(INT, 1)
        assert a.join(bottom_value(INT)) == a

    def test_meet_disjoint_is_bottom(self):
        a = const_value(INT, 1)
        b = const_value(INT, 2)
        assert a.meet(b).is_bottom

    def test_widen_jumps(self):
        a = CellValue(IntInterval.of(0, 10))
        b = CellValue(IntInterval.of(0, 11))
        assert a.widen(b).itv.hi is None

    def test_widen_with_thresholds(self):
        a = CellValue(IntInterval.of(0, 10))
        b = CellValue(IntInterval.of(0, 11))
        w = a.widen(b, [-math.inf, 64.0, math.inf])
        assert w.itv.hi == 64

    def test_narrow(self):
        a = CellValue(IntInterval.of(0, None))
        b = CellValue(IntInterval.of(0, 10))
        assert a.narrow(b).itv == IntInterval.of(0, 10)

    def test_includes(self):
        big = CellValue(IntInterval.of(0, 10))
        small = CellValue(IntInterval.of(3, 4))
        assert big.includes(small) and not small.includes(big)

    def test_float_range_of_int_cell(self):
        v = CellValue(IntInterval.of(-3, 7))
        fr = v.float_range()
        assert fr.lo == -3.0 and fr.hi == 7.0


class TestClockedDomain:
    def test_initial_clock(self):
        c = ClockInfo.initial(3600)
        assert c.range == IntInterval.const(0)

    def test_tick_advances(self):
        c = ClockInfo.initial(3600).tick().tick()
        assert c.range == IntInterval.const(2)

    def test_tick_bounded_by_max_clock(self):
        c = ClockInfo.initial(2)
        for _ in range(5):
            c = c.tick()
        assert c.range.hi <= 2

    def test_counter_bounded_via_clock_reduction(self):
        """A counter incremented once per cycle is bounded by max_clock
        even when its own interval has been widened to +inf (Sect. 6.2.1)."""
        clock = ClockInfo(IntInterval.of(0, 3600), 3600)
        v = CellValue(IntInterval.of(0, None),      # interval widened to +inf
                      minus_clock=IntInterval.of(-10, 0),  # v - clock in [-10, 0]
                      plus_clock=IntInterval.of(0, None))
        reduced = v.reduce_with_clock(clock)
        assert reduced.itv.hi is not None
        assert reduced.itv.hi <= 3600

    def test_tick_shifts_clocked_components(self):
        v = CellValue(IntInterval.const(5),
                      minus_clock=IntInterval.const(5),
                      plus_clock=IntInterval.const(5))
        t = v.on_clock_tick()
        assert t.minus_clock == IntInterval.const(4)
        assert t.plus_clock == IntInterval.const(6)
        assert t.itv == IntInterval.const(5)

    def test_increment_shifts_clocked_components(self):
        v = CellValue(IntInterval.const(5),
                      minus_clock=IntInterval.const(0),
                      plus_clock=IntInterval.const(10))
        s = v.shift_clocked(IntInterval.const(1))
        assert s.minus_clock == IntInterval.const(1)
        assert s.plus_clock == IntInterval.const(11)

    def test_with_clock_tracking(self):
        clock = ClockInfo(IntInterval.of(2, 3), 100)
        v = CellValue(IntInterval.const(5)).with_clock_tracking(clock)
        assert v.minus_clock == IntInterval.of(2, 3)
        assert v.plus_clock == IntInterval.of(7, 8)

    def test_reduction_never_empties(self):
        clock = ClockInfo(IntInterval.of(0, 10), 10)
        v = CellValue(IntInterval.of(100, 200),
                      minus_clock=IntInterval.of(0, 0),
                      plus_clock=IntInterval.of(0, 0))
        # Inconsistent components: reduction falls back to the interval.
        assert not v.reduce_with_clock(clock).is_bottom


class TestCellTable:
    def prog(self, src):
        return compile_source(src, "t.c")

    def test_scalar_gets_one_cell(self):
        prog = self.prog("int x; void main(void) { x = 1; }")
        table = CellTable.for_program(prog)
        var = prog.global_by_name("x")
        assert isinstance(table.layout(var.uid), AtomicLayout)

    def test_small_array_expanded(self):
        prog = self.prog("float a[8]; void main(void) { a[0] = 1.0f; }")
        table = CellTable.for_program(prog)
        var = prog.global_by_name("a")
        layout = table.layout(var.uid)
        assert isinstance(layout, ExpandedArrayLayout)
        assert len(table.cells_of_var(var.uid)) == 8

    def test_large_array_shrunk(self):
        prog = self.prog("float a[10000]; int i; void main(void) { a[i] = 1.0f; }")
        table = CellTable.for_program(prog, expand_threshold=256)
        var = prog.global_by_name("a")
        layout = table.layout(var.uid)
        assert isinstance(layout, ShrunkArrayLayout)
        cell = layout.cell
        assert cell.is_summary and cell.summarized == 10000

    def test_struct_is_field_sensitive(self):
        prog = self.prog(
            "struct s { int a; float b; }; struct s v;"
            "void main(void) { v.a = 1; }")
        table = CellTable.for_program(prog)
        var = prog.global_by_name("v")
        layout = table.layout(var.uid)
        assert isinstance(layout, RecordLayout)
        cells = table.cells_of_var(var.uid)
        assert len(cells) == 2
        assert {c.name for c in cells} == {"v.a", "v.b"}

    def test_nested_array_of_structs(self):
        prog = self.prog(
            "struct p { float x; float y; }; struct p pts[3];"
            "void main(void) { pts[0].x = 1.0f; }")
        table = CellTable.for_program(prog)
        var = prog.global_by_name("pts")
        assert len(table.cells_of_var(var.uid)) == 6

    def test_volatile_flag_propagates(self):
        prog = self.prog("volatile int v; int x; void main(void) { x = v; }")
        table = CellTable.for_program(prog)
        var = prog.global_by_name("v")
        assert table.scalar_cell(var.uid).volatile

    def test_locals_have_cells(self):
        prog = self.prog("void main(void) { int loc = 3; loc = loc + 1; }")
        table = CellTable.for_program(prog)
        fn = prog.functions["main"]
        assert all(table.has_var(v.uid) for v in fn.locals)


class TestMemoryEnv:
    def v(self, lo, hi):
        return CellValue(IntInterval.of(lo, hi))

    def test_initial_not_bottom(self):
        assert not MemoryEnv.initial().is_bottom

    def test_bottom_propagation_on_set(self):
        env = MemoryEnv.initial().set(0, bottom_value(INT))
        assert env.is_bottom

    def test_strong_update(self):
        env = MemoryEnv.initial().set(0, self.v(0, 1)).set(0, self.v(5, 6))
        assert env.get(0).itv == IntInterval.of(5, 6)

    def test_weak_update_joins(self):
        env = MemoryEnv.initial().set(0, self.v(0, 1)).weak_set(0, self.v(5, 6))
        assert env.get(0).itv == IntInterval.of(0, 6)

    def test_join_cellwise(self):
        a = MemoryEnv.initial().set(0, self.v(0, 1)).set(1, self.v(0, 0))
        b = MemoryEnv.initial().set(0, self.v(5, 6)).set(1, self.v(0, 0))
        j = a.join(b)
        assert j.get(0).itv == IntInterval.of(0, 6)
        assert j.get(1).itv == IntInterval.const(0)

    def test_join_with_bottom(self):
        a = MemoryEnv.initial().set(0, self.v(0, 1))
        assert a.join(a.to_bottom()).get(0).itv == IntInterval.of(0, 1)

    def test_meet_to_bottom(self):
        a = MemoryEnv.initial().set(0, self.v(0, 1))
        b = MemoryEnv.initial().set(0, self.v(5, 6))
        assert a.meet(b).is_bottom

    def test_includes(self):
        a = MemoryEnv.initial().set(0, self.v(0, 10))
        b = MemoryEnv.initial().set(0, self.v(2, 3))
        assert a.includes(b) and not b.includes(a)

    def test_includes_bottom(self):
        a = MemoryEnv.initial().set(0, self.v(0, 10))
        assert a.includes(a.to_bottom())
        assert not a.to_bottom().includes(a)

    def test_equal(self):
        a = MemoryEnv.initial().set(0, self.v(0, 10))
        b = MemoryEnv.initial().set(0, self.v(0, 10))
        assert a.equal(b)

    def test_tick_advances_clock_and_cells(self):
        env = MemoryEnv.initial(max_clock=100)
        v = CellValue(IntInterval.const(0),
                      minus_clock=IntInterval.const(0),
                      plus_clock=IntInterval.const(0))
        env = env.set(0, v).tick()
        assert env.clock.range == IntInterval.const(1)
        assert env.get(0).minus_clock == IntInterval.const(-1)

    def test_narrow_refines_widened(self):
        a = MemoryEnv.initial().set(0, CellValue(IntInterval.of(0, None)))
        b = MemoryEnv.initial().set(0, self.v(0, 50))
        assert a.narrow(b).get(0).itv == IntInterval.of(0, 50)


class TestRecords:
    """The slotted value records keep the frozen dataclasses' equality,
    hashing and immutability, and pickle as ``(cls, field values)``."""

    RECORDS = [
        FloatInterval(0.0, 1.0), IntInterval(0, 1), IntInterval(None, 3),
        CellValue(IntInterval(0, 4), IntInterval(-2, 0), IntInterval(4, 6)),
        CellValue(FloatInterval(-1.5, 2.0)),
        ClockInfo(IntInterval(0, 3), 100),
        LinearForm(((1, FloatInterval(2.0, 2.0)),), FloatInterval(0.0, 0.5)),
    ]
    ENVS = [MemoryEnv(PMap.empty().set(3, CellValue(IntInterval(1, 1))),
                      ClockInfo(IntInterval(0, 0), None)),
            MemoryEnv.make_bottom(7)]

    def test_kinds_with_equal_bounds_differ(self):
        f, i = FloatInterval(0, 1), IntInterval(0, 1)
        assert f != i and i != f
        assert CellValue(f) != CellValue(i)
        pool = {f: f}
        assert i not in pool

    @pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
    def test_equal_records_hash_equal_and_round_trip(self, rec):
        twin = pickle.loads(pickle.dumps(rec))
        assert twin == rec and twin is not rec
        assert hash(twin) == hash(rec)
        assert type(twin) is type(rec)
        assert rec.__reduce__() == (
            type(rec), tuple(getattr(rec, f.name)
                             for f in dataclasses.fields(rec)))
        assert not hasattr(rec, "__dict__")

    @pytest.mark.parametrize("env", ENVS, ids=["cells", "bottom"])
    def test_env_round_trip(self, env):
        # An environment compares its map by identity, so equality
        # across a pickle is ``MemoryEnv.equal``.
        twin = pickle.loads(pickle.dumps(env))
        assert type(twin) is MemoryEnv and twin.equal(env)
        assert twin.clock == env.clock and twin.bottom == env.bottom
        assert not hasattr(env, "__dict__")

    @pytest.mark.parametrize("rec", RECORDS + ENVS,
                             ids=lambda r: type(r).__name__)
    def test_fields_are_read_only(self, rec):
        name = dataclasses.fields(rec)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, None)

    def test_keyword_and_default_construction(self):
        v = CellValue(itv=IntInterval(0, 1))
        assert v.minus_clock is None and v.plus_clock is None
        assert v == CellValue(IntInterval(0, 1), None, None)
        env = MemoryEnv(PMap.empty(), ClockInfo(IntInterval(0, 0), None),
                        bottom=True)
        assert env.is_bottom and env == MemoryEnv.make_bottom(None)

    def test_dict_state_pickle_is_refused(self):
        # A pickle that restores a record from a ``__dict__`` state (the
        # layout of the records before they had slots) must fail to load,
        # never build a record from the wrong fields.
        class Legacy:
            def __reduce__(self):
                return (object.__new__, (FloatInterval,),
                        {"lo": 0.0, "hi": 1.0})

        with pytest.raises(AttributeError):
            pickle.loads(pickle.dumps(Legacy()))
