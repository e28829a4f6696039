"""Fig. 2 scaling suite: engine-mode A/B comparison.

Runs the pinned-seed generated family at every Fig. 2 size through the
CLI (``python -m repro.cli analyze --json --stats``) twice per size — in
a fresh subprocess per run so peak RSS is per-run, not cumulative —
checks that alarms and exit codes are bit-identical across modes, and
writes the result table to a JSON file at the repo root.

Two comparisons are supported (``--compare``):

* ``incremental`` (default): ``--incremental`` (the default engine) vs
  ``--no-incremental`` (full re-execution) — writes ``BENCH_4.json``;
* ``vectorize``: the batched numpy lattice kernels (the default) vs
  ``--no-vectorize`` (the scalar-oracle backend) — writes
  ``BENCH_8.json``, including the ``--stats`` phase breakdown and the
  vectorized-kernel counters per mode.

Usage::

    python benchmarks/run_bench.py [--compare vectorize] [--out PATH]
                                   [--sizes 0.5 2.0]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from conftest import FAMILY_SEED, FIG2_SIZES, family_program  # noqa: E402

#: --compare name -> (bench title, output file, (baseline, optimized)
#: mode names, per-mode extra CLI flag).
COMPARISONS = {
    "incremental": {
        "bench": "incremental-vs-full (Fig. 2 scaling suite)",
        "out": "BENCH_4.json",
        "baseline": ("full", ["--no-incremental"]),
        "optimized": ("incremental", ["--incremental"]),
    },
    "vectorize": {
        "bench": "vectorized-vs-scalar kernels (Fig. 2 scaling suite)",
        "out": "BENCH_8.json",
        "baseline": ("scalar", ["--no-vectorize"]),
        "optimized": ("vectorized", ["--vectorize"]),
    },
}


def _run_cli(args, env):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze"] + args,
        capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"analyze exited {proc.returncode}:\n{proc.stderr}")
    return wall, json.loads(proc.stdout)


def bench_size(kloc: float, workdir: str, comparison: dict) -> dict:
    gp = family_program(kloc)
    src = os.path.join(workdir, f"family_{kloc}.c")
    with open(src, "w") as f:
        f.write(gp.source)
    base = [src, "--json", "--stats",
            "--max-clock", str(gp.max_clock)]
    for name, (lo, hi) in sorted(gp.input_ranges.items()):
        base += ["--input-range", f"{name}={lo}:{hi}"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")

    row = {"kloc": kloc, "seed": FAMILY_SEED}
    payloads = {}
    for mode, flags in (comparison["baseline"], comparison["optimized"]):
        wall, payload = _run_cli(base + flags, env)
        payloads[mode] = payload
        row[mode] = {
            "wall_s": round(wall, 3),
            "analysis_time_s": round(payload["analysis_time_s"], 3),
            "phase_times_s": {k: round(v, 3)
                              for k, v in payload["phase_times_s"].items()},
            "widening_iterations": payload["widening_iterations"],
            "stmts_executed": payload["stmts_executed"],
            "stmts_skipped": payload["stmts_skipped"],
            "peak_rss_kib": payload["peak_rss_kib"],
            "alarm_count": payload["alarm_count"],
            "exit_code": payload["exit_code"],
            "vector_batches": payload["vector_batches"],
            "vector_cells": payload["vector_cells"],
            "vector_scalar_fallbacks": payload["vector_scalar_fallbacks"],
        }
    base_name = comparison["baseline"][0]
    opt_name = comparison["optimized"][0]
    base_p, opt_p = payloads[base_name], payloads[opt_name]
    row["identical"] = (base_p["alarms"] == opt_p["alarms"]
                        and base_p["exit_code"] == opt_p["exit_code"]
                        and base_p["widening_iterations"]
                        == opt_p["widening_iterations"])
    row["speedup"] = round(
        base_p["analysis_time_s"] / max(opt_p["analysis_time_s"], 1e-9), 2)
    exec_i, skip_i = opt_p["stmts_executed"], opt_p["stmts_skipped"]
    row["executed_fraction"] = round(
        opt_p["stmts_executed"] / max(base_p["stmts_executed"], 1), 3)
    row["skip_fraction"] = round(skip_i / max(exec_i + skip_i, 1), 3)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--compare", choices=sorted(COMPARISONS),
                    default="incremental")
    ap.add_argument("--out", default=None,
                    help="output path (default: the comparison's "
                         "canonical BENCH_*.json at the repo root)")
    ap.add_argument("--sizes", nargs="*", type=float, default=FIG2_SIZES)
    args = ap.parse_args(argv)
    comparison = COMPARISONS[args.compare]
    out = args.out or os.path.join(ROOT, comparison["out"])
    base_name = comparison["baseline"][0]
    opt_name = comparison["optimized"][0]

    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for kloc in args.sizes:
            row = bench_size(kloc, workdir, comparison)
            rows.append(row)
            print(f"{kloc:7.3f} kLOC:"
                  f" {base_name} {row[base_name]['analysis_time_s']:7.2f}s"
                  f"  {opt_name} {row[opt_name]['analysis_time_s']:7.2f}s"
                  f"  = {row['speedup']:.2f}x"
                  f"  (identical={row['identical']})")

    largest = max(rows, key=lambda r: r["kloc"])
    result = {
        "bench": comparison["bench"],
        "seed": FAMILY_SEED,
        "host_cpus": os.cpu_count(),
        "sizes_kloc": args.sizes,
        "rows": rows,
        "largest_size_speedup": largest["speedup"],
        "all_identical": all(r["identical"] for r in rows),
    }
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {out}")
    if not result["all_identical"]:
        print("ERROR: modes disagree on alarms/exit codes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
