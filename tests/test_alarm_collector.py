"""Unit tests for alarm collection and the Flow lattice."""

from repro.frontend.ast_nodes import Location
from repro.iterator.alarms import Alarm, AlarmCollector, AlarmKind


LOC = Location("x.c", 10, 2)


class TestAlarmCollector:
    def test_inert_outside_checking_mode(self):
        c = AlarmCollector()
        c.report(AlarmKind.DIV_BY_ZERO, 1, LOC, "boom")
        assert c.count() == 0

    def test_reports_in_checking_mode(self):
        c = AlarmCollector()
        c.checking = True
        c.report(AlarmKind.DIV_BY_ZERO, 1, LOC, "boom")
        assert c.count() == 1

    def test_dedup_by_sid_and_kind(self):
        c = AlarmCollector()
        c.checking = True
        for _ in range(5):
            c.report(AlarmKind.DIV_BY_ZERO, 1, LOC, "boom")
        c.report(AlarmKind.INT_OVERFLOW, 1, LOC, "other kind, same sid")
        c.report(AlarmKind.DIV_BY_ZERO, 2, LOC, "same kind, other sid")
        assert c.count() == 3

    def test_alarms_sorted_by_location(self):
        c = AlarmCollector()
        c.checking = True
        c.report(AlarmKind.DIV_BY_ZERO, 1, Location("x.c", 20, 1), "late")
        c.report(AlarmKind.DIV_BY_ZERO, 2, Location("x.c", 5, 1), "early")
        assert [a.loc.line for a in c.alarms] == [5, 20]

    def test_by_kind_counts(self):
        c = AlarmCollector()
        c.checking = True
        c.report(AlarmKind.DIV_BY_ZERO, 1, LOC, "a")
        c.report(AlarmKind.DIV_BY_ZERO, 2, LOC, "b")
        c.report(AlarmKind.INT_OVERFLOW, 3, LOC, "c")
        assert c.by_kind() == {AlarmKind.DIV_BY_ZERO: 2,
                               AlarmKind.INT_OVERFLOW: 1}

    def test_alarm_str(self):
        a = Alarm(AlarmKind.ARRAY_OOB, 1, LOC, "index 9 outside [0, 7]")
        assert "x.c:10:2" in str(a)
        assert "array-index-out-of-bounds" in str(a)

    def test_all_kinds_enumerated(self):
        assert len(AlarmKind.ALL) == 9
        assert AlarmKind.ASSERT_FAIL in AlarmKind.ALL
