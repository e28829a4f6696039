"""E2 — Sect. 8: alarm reduction from the baseline analyzer to the refined
one.

Paper: "We had 1,200 false alarms with the analyzer [5] we started with.
The refinements of the analyzer described in this paper reduce the number
of alarms down to 11 (and even 3, depending on the versions of the
analyzed program)."

We regenerate the refinement staircase of Sect. 3.1 on the flagship family
program: alarms per cumulative refinement stage, ending at zero (our family
is correct by construction, like the paper's 10-years-in-service reference
program; the paper's residual 11 were unconfirmed false alarms it could not
yet discharge)."""

from repro import refinement_stages
from repro.analysis import analyze

from .conftest import FLAGSHIP_KLOC, analyze_family, family_program, print_table


def _stage_results(gp):
    base = gp.analyzer_config()
    out = []
    for name, cfg in refinement_stages(base):
        result = analyze(gp.source, "family.c", config=cfg)
        out.append((name, result))
    return out


class TestAlarmReduction:
    def test_refinement_staircase(self, benchmark):
        gp = family_program(FLAGSHIP_KLOC)
        stages = benchmark.pedantic(lambda: _stage_results(gp),
                                    rounds=1, iterations=1)
        rows = [(name, r.alarm_count, f"{r.analysis_time:.2f}")
                for name, r in stages]
        print_table(
            f"Sect. 8 — alarms per refinement stage "
            f"({gp.loc} LOC flagship; paper: 1,200 -> 11)",
            ("stage", "alarms", "time (s)"),
            rows,
        )
        counts = [r.alarm_count for _, r in stages]
        # Shape: large initial count, (weakly) monotone decrease, ~zero end.
        assert counts[0] > 0, "the baseline must produce false alarms"
        assert counts[-1] == 0, "the refined analyzer proves the program"
        assert all(b <= a for a, b in zip(counts, counts[1:])), \
            "each refinement stage may only remove alarms"
        reduction = counts[0] / max(counts[-1], 1)
        print(f"reduction factor: {counts[0]} -> {counts[-1]} "
              f"(paper: 1200 -> 11, i.e. ~109x; ours reaches zero)")
        assert reduction >= 3, "the reduction must be substantial"

    def test_alarm_kinds_at_baseline(self, benchmark):
        """The baseline's false alarms come from the documented causes:
        counter overflows (clock), filter overflows (ellipsoids) and
        unguarded-looking divisions (decision trees)."""
        gp = family_program(FLAGSHIP_KLOC)
        base = benchmark.pedantic(
            lambda: analyze_family(
                gp, enable_clock=False, enable_octagons=False,
                enable_ellipsoids=False, enable_decision_trees=False,
                enable_linearization=False, widening_delay=0,
                default_unroll=0),
            rounds=1, iterations=1)
        kinds = base.alarms_by_kind()
        print_table("baseline alarm kinds", ("kind", "count"),
                    sorted(kinds.items()))
        assert set(kinds) <= {"integer-overflow", "float-overflow",
                              "division-by-zero", "cast-out-of-range",
                              "invalid-float-operation",
                              "array-index-out-of-bounds", "shift-out-of-range"}


def test_refined_analysis_benchmark(benchmark):
    gp = family_program(FLAGSHIP_KLOC)
    result = benchmark.pedantic(lambda: analyze_family(gp), rounds=1,
                                iterations=1)
    assert result.alarm_count == 0
