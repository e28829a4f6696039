"""E5 — Sect. 8: memory consumption stays reasonable.

Paper: "The memory consumption of the analyzer is reasonable (550 Mb for
the full-sized program)" on a 1 Gb machine — i.e. the analyzer fits in
roughly half the machine's memory at 75 kLOC, thanks to the sharing of
functional maps (Sect. 6.1.2).

We measure peak traced allocation across family sizes and check the
per-kLOC memory footprint stays flat-ish (sharing prevents quadratic
blowup)."""

import tracemalloc

from .conftest import FIG2_SIZES, analyze_family, family_program, print_table


def _peak_mb(gp):
    tracemalloc.start()
    analyze_family(gp)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak / 1e6


class TestMemoryConsumption:
    def test_memory_vs_size(self, benchmark):
        def sweep():
            out = []
            for kloc in FIG2_SIZES[:4]:
                gp = family_program(kloc)
                out.append((gp, _peak_mb(gp)))
            return out

        rows = []
        points = []
        for gp, peak in benchmark.pedantic(sweep, rounds=1, iterations=1):
            rows.append((gp.loc, f"{peak:.1f}", f"{peak / (gp.loc / 1000):.1f}"))
            points.append((gp.loc, peak))
        print_table(
            "Sect. 8 — peak analyzer memory (paper: 550 Mb at 75 kLOC "
            "= ~7.3 Mb/kLOC on 2003 data structures)",
            ("LOC", "peak MB", "MB per kLOC"),
            rows,
        )
        # Shape: memory grows sub-quadratically with program size.
        (l0, m0), (l1, m1) = points[0], points[-1]
        import math

        exponent = math.log(max(m1, 1e-6) / max(m0, 1e-6)) / math.log(l1 / l0)
        print(f"memory growth exponent: {exponent:.2f} (1.0 = linear)")
        assert exponent < 2.0, "functional-map sharing keeps memory sub-quadratic"


def test_memory_benchmark(benchmark):
    gp = family_program(FIG2_SIZES[1])
    benchmark.pedantic(lambda: _peak_mb(gp), rounds=1, iterations=1)
