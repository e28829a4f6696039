"""Tests for multi-file family generation and cross-unit analysis."""

from repro import analyze
from repro.frontend import link_sources
from repro.synth import FamilySpec
from repro.synth.generator import generate_units


class TestGenerateUnits:
    def test_unit_count(self):
        units, _ = generate_units(FamilySpec(target_kloc=0.3, seed=9), files=3)
        assert len(units) == 3
        assert units[0][0] == "main.c"

    def test_main_unit_has_main(self):
        units, _ = generate_units(FamilySpec(target_kloc=0.3, seed=9))
        assert "int main(void)" in units[0][1]

    def test_impl_units_use_extern(self):
        units, _ = generate_units(FamilySpec(target_kloc=0.3, seed=9))
        for name, src in units[1:]:
            assert "extern" in src
            assert "int main" not in src

    def test_units_link_and_analyze_clean(self):
        units, gp = generate_units(FamilySpec(target_kloc=0.3, seed=9), files=3)
        result = analyze(units, config=gp.analyzer_config())
        assert result.alarm_count == 0

    def test_units_equivalent_to_monolithic(self):
        """Splitting into units must not change the analysis: blocks of
        different units never share an id, so never an octagon pack."""

        def pack_keys(result):
            cell = result.ctx.table.cell
            return sorted(tuple(cell(c).name for c in p.cids)
                          for p in result.ctx.oct_packs.packs)

        for kloc, seed, files in ((0.25, 17, 4), (0.5, 9, 3)):
            units, gp = generate_units(
                FamilySpec(target_kloc=kloc, seed=seed), files=files)
            cfg = gp.analyzer_config().with_overrides(collect_invariants=True)
            split = analyze(units, config=cfg)
            mono = analyze(gp.source, "mono.c", config=cfg)
            assert pack_keys(split) == pack_keys(mono), seed
            assert split.invariant_stats() == mono.invariant_stats(), seed
            assert split.widening_iterations == mono.widening_iterations
            assert split.alarm_count == mono.alarm_count == 0

    def test_linker_resolves_cross_unit_calls(self):
        units, gp = generate_units(FamilySpec(target_kloc=0.2, seed=3), files=2)
        prog = link_sources(units)
        step_fns = [n for n in prog.functions if n.startswith("step_")]
        assert step_fns
        assert all(prog.functions[n].body is not None for n in step_fns)
