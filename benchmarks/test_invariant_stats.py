"""E4 — Sect. 9.4.1: composition of the main loop invariant.

Paper (on the 75 kLOC flagship): "The main loop invariant includes 6,900
boolean interval assertions, 9,600 interval assertions, 25,400 clock
assertions, 19,100 additive octagonal assertions, 19,200 subtractive
octagonal assertions, 100 decision trees and 1,900 ellipsoidal assertions"
— a 4.5 Mb textual dump with over 16,000 float constants.

We regenerate the same breakdown on the scaled flagship.  The shape to
match: clock assertions rival or dominate plain intervals; octagonal
constraints are numerous (a pack yields several); decision trees are rare;
ellipsoidal assertions track the number of filter instances.
"""

from .conftest import FLAGSHIP_KLOC, analyze_family, family_program, print_table


class TestInvariantStats:
    def test_main_loop_invariant_breakdown(self, benchmark):
        gp = family_program(FLAGSHIP_KLOC)
        result = benchmark.pedantic(
            lambda: analyze_family(gp, collect_invariants=True),
            rounds=1, iterations=1)
        stats = result.invariant_stats()
        paper = {
            "boolean interval assertions": 6900,
            "interval assertions": 9600,
            "clock assertions": 25400,
            "additive octagonal assertions": 19100,
            "subtractive octagonal assertions": 19200,
            "decision trees": 100,
            "ellipsoidal assertions": 1900,
        }
        ours = {
            "boolean interval assertions": stats.boolean_interval_assertions,
            "interval assertions": stats.interval_assertions,
            "clock assertions": stats.clock_assertions,
            "additive octagonal assertions": stats.octagonal_additive_assertions,
            "subtractive octagonal assertions": stats.octagonal_subtractive_assertions,
            "decision trees": stats.decision_trees,
            "ellipsoidal assertions": stats.ellipsoidal_assertions,
        }
        rows = [(k, paper[k], ours[k]) for k in paper]
        print_table(
            f"Sect. 9.4.1 — main loop invariant breakdown "
            f"({gp.loc} LOC flagship vs paper's 75 kLOC)",
            ("assertion kind", "paper", "measured"),
            rows,
        )
        # Shape assertions.
        assert stats.interval_assertions > 0
        assert stats.clock_assertions > 0
        assert stats.ellipsoidal_assertions == \
            gp.block_counts.get("SecondOrderFilter", 0), \
            "one ellipsoidal constraint per live filter instance"
        assert stats.decision_trees <= stats.interval_assertions, \
            "decision trees are rare relative to interval assertions"
        total = stats.total()
        print(f"total assertions: {total} "
              f"(paper: {sum(paper.values())} on 75 kLOC)")

    def test_invariant_dump_size_scales(self, benchmark):
        """The textual dump grows with program size (paper: 4.5 Mb)."""
        small = family_program(FLAGSHIP_KLOC / 4)
        big = family_program(FLAGSHIP_KLOC)
        r_small, r_big = benchmark.pedantic(
            lambda: (analyze_family(small, collect_invariants=True),
                     analyze_family(big, collect_invariants=True)),
            rounds=1, iterations=1)
        d_small = len(r_small.dump_invariant_text())
        d_big = len(r_big.dump_invariant_text())
        print_table(
            "invariant dump size (paper: 4.5 Mb at 75 kLOC)",
            ("LOC", "dump bytes"),
            [(small.loc, d_small), (big.loc, d_big)],
        )
        assert d_big > d_small


def test_invariant_collection_benchmark(benchmark):
    gp = family_program(FLAGSHIP_KLOC / 2)
    benchmark.pedantic(
        lambda: analyze_family(gp, collect_invariants=True),
        rounds=1, iterations=1)
