"""Tests for the optional inter-octagon pivot reduction (Sect. 7.2.1)."""

from repro import AnalyzerConfig, analyze
from repro.synth import FamilySpec, generate_program


class TestPivotReduction:
    SRC = """
    volatile float vin;
    float a, b, c, d;
    int main(void) {
        a = vin;
        { b = a + 1.0f; c = b - a; }
        { d = b + c; }
        return 0;
    }
    """

    def cfg(self, **kw):
        return AnalyzerConfig(input_ranges={"vin": (0.0, 1.0)}, **kw)

    def test_flag_defaults_off(self):
        assert not AnalyzerConfig().octagon_pivot_reduction

    def test_sound_with_reduction_on(self):
        r_off = analyze(self.SRC, config=self.cfg())
        r_on = analyze(self.SRC,
                       config=self.cfg(octagon_pivot_reduction=True))
        # The reduction is a pure precision refinement: never more alarms.
        assert r_on.alarm_count <= r_off.alarm_count

    def test_family_program_unchanged(self):
        """On the family, pivot reduction must not change the verdict
        (the paper: 'this precision gain was not needed')."""
        gp = generate_program(FamilySpec(target_kloc=0.2, seed=31))
        base = analyze(gp.source, "f.c", config=gp.analyzer_config())
        piv = analyze(gp.source, "f.c", config=gp.analyzer_config(
            octagon_pivot_reduction=True))
        assert base.alarm_count == piv.alarm_count == 0

    def test_propagation_between_packs(self):
        """Constraints on a shared pair flow from one octagon to another."""
        from repro.iterator.state import AbstractState, AnalysisContext
        from repro.memory.cells import CellTable
        from repro.packing.boolean_packs import BoolPacking
        from repro.packing.ellipsoid_sites import FilterSites
        from repro.packing.octagon_packs import OctagonPack, OctagonPacking
        from repro.frontend import compile_source

        prog = compile_source(
            "int main(void) { return 0; }", "t.c")
        table = CellTable.for_program(prog)
        packs = OctagonPacking([
            OctagonPack(0, (100, 101)),        # shares both cells with pack 1
            OctagonPack(1, (100, 101, 102)),
        ])
        ctx = AnalysisContext(
            prog=prog, config=AnalyzerConfig(octagon_pivot_reduction=True),
            table=table, oct_packs=packs, bool_packs=BoolPacking([]),
            filter_sites=FilterSites([]))
        state = AbstractState.initial(ctx)
        # Tighten a difference bound in pack 0 only.
        o0 = state.octagons.get(0).guard_upper({0: 1, 1: -1}, 2.0)
        state = state._with(octagons=state.octagons.set(0, o0))
        assert state.octagons.get(1).diff_bound(0, 1).hi > 1e30  # top
        state = state.propagate_octagon_pivots(0)
        assert state.octagons.get(1).diff_bound(0, 1).hi <= 2.0001
