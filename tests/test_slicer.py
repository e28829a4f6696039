"""Tests for the dependence graph and the backward/abstract slicer."""

from repro.analysis import analyze_program
from repro.config import AnalyzerConfig
from repro.frontend import compile_source
from repro.frontend import ir as I
from repro.memory.cells import CellTable
from repro.slicer import Slicer, build_dependence_graph


def setup_prog(src, **cfg_kwargs):
    prog = compile_source(src, "t.c")
    table = CellTable.for_program(prog)
    return prog, table


SRC = """
volatile int vin;
int a; int b; int c; int unrelated;
int main(void) {
    a = vin;
    b = a + 1;
    unrelated = 7;
    if (b > 0) {
        c = 100 / b;
    }
    return 0;
}
"""


def sid_of_assign_to(prog, table, name):
    from repro.packing.common import static_cell

    for s in I.iter_stmts(prog.functions["main"].body):
        if isinstance(s, I.SAssign):
            cell = static_cell(s.target, table)
            if cell is not None and cell.name == name:
                return s.sid
    raise KeyError(name)


class TestDependenceGraph:
    def test_nodes_cover_statements(self):
        prog, table = setup_prog(SRC)
        g = build_dependence_graph(prog, table)
        assert len(g.statements()) >= 5

    def test_data_dependence_a_to_b(self):
        prog, table = setup_prog(SRC)
        g = build_dependence_graph(prog, table)
        sa = sid_of_assign_to(prog, table, "a")
        sb = sid_of_assign_to(prog, table, "b")
        assert g.graph.has_edge(sa, sb)
        assert g.graph.edges[sa, sb]["kind"] == "data"

    def test_control_dependence_if_to_c(self):
        prog, table = setup_prog(SRC)
        g = build_dependence_graph(prog, table)
        sc = sid_of_assign_to(prog, table, "c")
        preds = [(p, g.graph.edges[p, sc]["kind"])
                 for p in g.graph.predecessors(sc)]
        assert any(kind == "control" for _, kind in preds)


class TestBackwardSlice:
    def test_slice_contains_criterion(self):
        prog, table = setup_prog(SRC)
        slicer = Slicer(prog, table)
        sc = sid_of_assign_to(prog, table, "c")
        sl = slicer.backward_slice(sc)
        assert sc in sl.sids

    def test_slice_contains_data_chain(self):
        prog, table = setup_prog(SRC)
        slicer = Slicer(prog, table)
        sc = sid_of_assign_to(prog, table, "c")
        sa = sid_of_assign_to(prog, table, "a")
        sb = sid_of_assign_to(prog, table, "b")
        sl = slicer.backward_slice(sc)
        assert sa in sl.sids and sb in sl.sids

    def test_slice_excludes_unrelated(self):
        prog, table = setup_prog(SRC)
        slicer = Slicer(prog, table)
        sc = sid_of_assign_to(prog, table, "c")
        su = sid_of_assign_to(prog, table, "unrelated")
        sl = slicer.backward_slice(sc)
        assert su not in sl.sids

    def test_slice_through_calls(self):
        src = """
        int helper(int v) { return v * 2; }
        volatile int vin; int x; int y;
        int main(void) {
            x = vin;
            y = helper(x);
            return 0;
        }
        """
        prog, table = setup_prog(src)
        slicer = Slicer(prog, table)
        sy = sid_of_assign_to(prog, table, "x")
        # Slicing from any later statement must reach the definition of x.
        last = prog.functions["main"].body[-2]  # the call
        sl = slicer.backward_slice(last.sid)
        assert sy in sl.sids

    def test_format_lists_locations(self):
        prog, table = setup_prog(SRC)
        slicer = Slicer(prog, table)
        sc = sid_of_assign_to(prog, table, "c")
        lines = slicer.backward_slice(sc).format().splitlines()
        assert all(line.startswith("t.c:") for line in lines)
        # Source order: the if on line 8 before the assignment it guards.
        assert [int(line.split(":")[1]) for line in lines] == [5, 6, 8, 9]


class TestAbstractSlice:
    def test_abstract_slice_not_larger_than_full(self):
        prog, table = setup_prog(SRC)
        cfg = AnalyzerConfig(input_ranges={"vin": (0, 100)},
                             collect_invariants=True)
        result = analyze_program(prog, cfg)
        slicer = Slicer(prog, result.ctx.table)
        sc = sid_of_assign_to(prog, result.ctx.table, "c")
        full = slicer.backward_slice(sc)
        abstract = slicer.abstract_slice(sc, result.final_state)
        assert abstract.sids <= full.sids | {sc}
        assert len(abstract) <= len(full)

    def test_abstract_slice_for_alarm(self):
        src = """
        volatile int vin; int a; int b; int c;
        int main(void) {
            a = vin;
            b = 5;
            c = 100 / a;
            return 0;
        }
        """
        prog, table = setup_prog(src)
        cfg = AnalyzerConfig(input_ranges={"vin": (0, 10)})
        result = analyze_program(prog, cfg)
        assert result.alarm_count >= 1
        alarm = result.alarms[0]
        slicer = Slicer(prog, result.ctx.table)
        sl = slicer.slice_for_alarm(alarm)
        sa = sid_of_assign_to(prog, result.ctx.table, "a")
        sb = sid_of_assign_to(prog, result.ctx.table, "b")
        assert sa in sl.sids  # the alarm depends on a
        assert sb not in sl.sids  # but not on b
