"""E3 — Sect. 7.2.1/7.2.2: octagon packing statistics and the useful-pack
re-run optimization.

Paper: "on a program of 75 kLOC, 2,600 octagons were detected, each
containing four variables on average"; "only 400 out of the 2,600 original
octagons were in fact useful"; re-running with the useful list "reduces, on
the largest example code, memory consumption from 550 Mb to 150 Mb and time
from 1h40 to 40min" (~2.5x faster, ~3.7x less memory).
"""

import time
import tracemalloc

from .conftest import FLAGSHIP_KLOC, analyze_family, family_program, print_table


def _measured_run(gp, **overrides):
    tracemalloc.start()
    t0 = time.perf_counter()
    result = analyze_family(gp, **overrides)
    dt = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, dt, peak


class TestPackingOptimization:
    def test_pack_statistics(self, benchmark):
        """Pack count scales with code size; packs stay small (avg ~4)."""
        gp = family_program(FLAGSHIP_KLOC)
        result = benchmark.pedantic(lambda: analyze_family(gp),
                                    rounds=1, iterations=1)
        per_kloc = result.octagon_pack_count / (gp.loc / 1000)
        print_table(
            "Sect. 7.2.1 — octagon pack statistics "
            "(paper: 2,600 packs on 75 kLOC = ~35/kLOC, avg 4 vars)",
            ("LOC", "packs", "packs/kLOC", "avg size"),
            [(gp.loc, result.octagon_pack_count, f"{per_kloc:.1f}",
              f"{result.octagon_pack_avg_size:.2f}")],
        )
        assert result.octagon_pack_count > 0
        assert 2.0 <= result.octagon_pack_avg_size <= 8.0

    def test_useful_fraction(self, benchmark):
        """Only a minority of packs improve precision (paper: 400/2600)."""
        gp = family_program(FLAGSHIP_KLOC)
        result = benchmark.pedantic(lambda: analyze_family(gp),
                                    rounds=1, iterations=1)
        useful = len(result.useful_octagon_packs)
        total = result.octagon_pack_count
        print_table(
            "Sect. 7.2.2 — useful packs (paper: 400 of 2,600 = 15%)",
            ("total packs", "useful", "fraction"),
            [(total, useful, f"{useful / max(total, 1):.0%}")],
        )
        assert useful < total, "some packs must be useless (else no saving)"

    def test_rerun_with_useful_packs(self, benchmark):
        """The optimization: same alarms, less time and memory."""
        gp = family_program(FLAGSHIP_KLOC)

        def both():
            full = _measured_run(gp)
            restricted = _measured_run(
                gp, restrict_octagon_packs=full[0].useful_octagon_packs)
            return full, restricted

        ((full, full_time, full_mem),
         (restricted, fast_time, fast_mem)) = benchmark.pedantic(
            both, rounds=1, iterations=1)
        print_table(
            "Sect. 7.2.2/8 — packing optimization "
            "(paper: 1h40 -> 40min, 550 Mb -> 150 Mb)",
            ("run", "packs", "alarms", "time (s)", "peak mem (MB)"),
            [
                ("all packs", full.octagon_pack_count, full.alarm_count,
                 f"{full_time:.2f}", f"{full_mem / 1e6:.1f}"),
                ("useful only", restricted.octagon_pack_count,
                 restricted.alarm_count, f"{fast_time:.2f}",
                 f"{fast_mem / 1e6:.1f}"),
            ],
        )
        print(f"speedup: {full_time / fast_time:.2f}x (paper: ~2.5x)")
        # Safety: "it is perfectly safe to use a list of useful packs
        # output by a previous analysis."
        assert restricted.alarm_count == full.alarm_count
        assert restricted.octagon_pack_count <= full.octagon_pack_count
        assert fast_time <= full_time * 1.10


def test_full_run_benchmark(benchmark):
    gp = family_program(FLAGSHIP_KLOC)
    benchmark.pedantic(lambda: analyze_family(gp), rounds=1, iterations=1)


def test_restricted_run_benchmark(benchmark):
    gp = family_program(FLAGSHIP_KLOC)
    first = analyze_family(gp)
    benchmark.pedantic(
        lambda: analyze_family(
            gp, restrict_octagon_packs=first.useful_octagon_packs),
        rounds=1, iterations=1)
