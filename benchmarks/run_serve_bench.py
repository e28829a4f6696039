"""Analysis-as-a-service benchmark: the 1000-request near-duplicate sweep.

Models the paper's deployment pattern — successive analyses of
near-identical versions of one program family — against a live
``astree-repro serve`` daemon:

* **Phase A (cold references)**: every variant of the pinned workload is
  analyzed once with ``bypass_cache`` — a from-scratch run whose wall
  time and semantic digest are the per-variant reference.
* **Phase B (the sweep)**: 1000 requests drawn (pinned seed) from the
  variant pool are submitted normally.  Repeat requests hit the
  exact-result store; first sightings of a variant run warm through the
  cross-run fixpoint cache.  Every response's digest must equal the
  phase-A reference of its variant — the determinism contract, gated
  here and in CI.

Writes ``BENCH_6.json`` at the repo root with per-phase summaries, the
per-request speedup distribution (cold reference wall / served wall)
and the daemon's cache-layer stats.

Usage::

    python benchmarks/run_serve_bench.py [--out BENCH_6.json]
        [--requests 1000] [--variants 25] [--kloc 0.15]
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.errors import ServeConnectionError  # noqa: E402
from repro.serve.client import ServeClient, wait_until_ready  # noqa: E402
from repro.serve.workload import base_program, make_variant  # noqa: E402

WORKLOAD_SEED = 20080808
SWEEP_SEED = 6


def boot_daemon(socket_path, cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--socket", socket_path, "--cache-dir", cache_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        wait_until_ready(socket_path, timeout_s=30.0,
                         alive=lambda: proc.poll() is None)
    except ServeConnectionError as exc:
        proc.kill()
        raise RuntimeError(f"daemon never answered ping ({exc}):\n"
                           + (proc.communicate()[0] or ""))
    return proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_6.json"))
    ap.add_argument("--requests", type=int, default=1000)
    ap.add_argument("--variants", type=int, default=25)
    ap.add_argument("--kloc", type=float, default=0.15)
    args = ap.parse_args()

    gp = base_program(kloc=args.kloc, seed=WORKLOAD_SEED)
    overrides = {"input_ranges": {k: list(v)
                                  for k, v in gp.input_ranges.items()},
                 "max_clock": gp.max_clock}
    variants = [make_variant(gp.source, s) for s in range(args.variants)]

    tmp = tempfile.mkdtemp(prefix="serve-bench-")
    socket_path = os.path.join(tmp, "serve.sock")
    cache_dir = os.path.join(tmp, "cache")
    proc = boot_daemon(socket_path, cache_dir)
    try:
        client = ServeClient(socket_path, timeout=600.0)

        # Phase A: cold references (cache bypassed on the daemon side).
        cold_wall = {}
        cold_digest = {}
        for vid, src in enumerate(variants):
            r = client.submit([("fam.c", src)], config=overrides,
                              bypass_cache=True)
            assert r["ok"], r.get("error")
            cold_wall[vid] = r["wall_s"]
            cold_digest[vid] = r["digest"]
            print(f"cold ref {vid:>3}: {r['wall_s']*1000:8.1f} ms "
                  f"{r['digest'][:12]}", flush=True)

        # Phase B: the pinned 1000-request sweep.
        rng = random.Random(SWEEP_SEED)
        order = [rng.randrange(args.variants)
                 for _ in range(args.requests)]
        rows = []
        mismatches = 0
        exact_hits = 0
        warm_runs = 0
        for i, vid in enumerate(order):
            r = client.submit([("fam.c", variants[vid])],
                              config=overrides)
            assert r["ok"], r.get("error")
            identical = r["digest"] == cold_digest[vid]
            if not identical:
                mismatches += 1
            if r["cached"]:
                exact_hits += 1
            elif r["result"].get("cross_run_hits", 0) > 0:
                warm_runs += 1
            rows.append({
                "variant": vid,
                "cached": r["cached"],
                "wall_s": r["wall_s"],
                "speedup": cold_wall[vid] / max(r["wall_s"], 1e-9),
                "bit_identical": identical,
            })
            if (i + 1) % 100 == 0:
                print(f"sweep {i + 1}/{args.requests}: "
                      f"{exact_hits} exact hits, {warm_runs} warm runs, "
                      f"{mismatches} mismatches", flush=True)

        stats = client.stats()["stats"]
        client.shutdown()
        client.close()
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    speedups = sorted(r["speedup"] for r in rows)
    served = sorted(r["wall_s"] for r in rows)

    def pct(xs, p):
        return xs[min(len(xs) - 1, int(p * len(xs)))]

    report = {
        "bench": "analysis-as-a-service near-duplicate sweep",
        "workload": {
            "kloc": args.kloc,
            "seed": WORKLOAD_SEED,
            "sweep_seed": SWEEP_SEED,
            "variants": args.variants,
            "requests": args.requests,
        },
        "cold": {
            "median_wall_s": statistics.median(cold_wall.values()),
            "total_wall_s": sum(cold_wall.values()),
        },
        "served": {
            "median_wall_s": statistics.median(served),
            "p90_wall_s": pct(served, 0.90),
            "total_wall_s": sum(served),
            "exact_result_hits": exact_hits,
            "warm_runs": warm_runs,
            "cold_runs": args.requests - exact_hits - warm_runs,
        },
        "speedup": {
            "median": statistics.median(speedups),
            "p10": pct(speedups, 0.10),
            "p90": pct(speedups, 0.90),
        },
        "bit_identical_all": mismatches == 0,
        "mismatches": mismatches,
        "daemon_stats": {
            "result_cache": stats["result_cache"],
            "journal_store": stats["journal_store"],
            "frontend_cache": stats["frontend_cache"],
            "runs": stats["runs"],
            "queue": stats["queue"],
        },
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"\nmedian speedup {report['speedup']['median']:.1f}x "
          f"(p10 {report['speedup']['p10']:.1f}x, "
          f"p90 {report['speedup']['p90']:.1f}x); "
          f"{exact_hits} exact hits + {warm_runs} warm runs / "
          f"{args.requests}; bit-identical: {report['bit_identical_all']}")
    print(f"wrote {args.out}")
    if mismatches:
        return 1
    if report["speedup"]["median"] < 10.0:
        print("FAIL: median warm speedup below 10x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
