"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
records).  Program sizes are scaled down from the paper's 75 kLOC flagship
to laptop/CI-friendly sizes; set REPRO_BENCH_SCALE to grow them
(e.g. REPRO_BENCH_SCALE=4 analyzes 4x larger programs).
"""

import os
from functools import lru_cache

from repro import analyze
from repro.synth import FamilySpec, generate_program

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1"))

#: kLOC sizes of the family for the Fig. 2 sweep.
FIG2_SIZES = [round(0.125 * SCALE, 3), round(0.25 * SCALE, 3),
              round(0.5 * SCALE, 3), round(1.0 * SCALE, 3),
              round(2.0 * SCALE, 3)]

#: The flagship program size for the other experiments.
FLAGSHIP_KLOC = 1.0 * SCALE
FAMILY_SEED = 2003


@lru_cache(maxsize=None)
def family_program(kloc: float, seed: int = FAMILY_SEED):
    return generate_program(FamilySpec(target_kloc=kloc, seed=seed))


def analyze_family(gp, **overrides):
    cfg = gp.analyzer_config(**overrides)
    return analyze(gp.source, "family.c", config=cfg)


#: Tables are also appended here so they survive pytest's stdout capture
#: (run with -s to see them live).
TABLES_PATH = os.path.join(os.path.dirname(__file__), "..", "bench_tables.txt")


def print_table(title, header, rows):
    """Uniform table output so bench logs read like the paper's tables."""
    lines = [f"\n=== {title} ==="]
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(header)] if rows else [len(h) for h in header]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    lines.append(line)
    lines.append("-" * len(line))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    text = "\n".join(lines)
    print(text)
    with open(TABLES_PATH, "a") as f:
        f.write(text + "\n")
