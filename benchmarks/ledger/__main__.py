"""The cost ledger: ``python -m benchmarks.ledger``.

Runs the workloads against the analyzer's default configuration, prints
every metric by name and unit, checks every verdict, and prints one JSON
summary as the last line of standard output::

    python -m benchmarks.ledger --seed 2003 [--workload NAME ...]
        [--trace [0|1]] [--seconds S] [--out PATH]
        [--analyzer-arg=ARG ...]

Without ``--trace`` (or with ``--trace 0``) each workload runs for
``--seconds`` and reports the end-to-end metrics.  ``--trace`` runs one
pass untraced and the same pass traced, and reports the per-layer
metrics and the tracing overhead; the merged spans go to
``.ledger/trace.json``.  ``--analyzer-arg`` (repeatable) is appended to
every ``analyze`` and ``serve`` command line, for mode A/B runs; it is
never used for the baseline.  ``--out`` appends the run to a JSON file.

Exit status: 0 when every job and check passed with no alarm, 1 when the
correctness gate failed, 2 when the checkout has no analyzer to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from collections import defaultdict
from statistics import median

from . import metrics
from .procs import ROOT, SRC
from .workloads import WORKLOADS, run_workload

#: Length of one measuring window; BENCHMARK.json's ``run_seconds``.
RUN_SECONDS = 20

WORKROOT = os.path.join(ROOT, ".ledger")


def host_block():
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def _fmt(value, unit):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.4f} {unit}"


def render(report):
    """Human-readable lines for one workload report."""
    name = report["workload"]
    mode = ("traced pass" if report["trace"]
            else f"{report['seconds']} s window, "
                 f"{report['measured_s']:.1f} s measured")
    lines = [f"== {name} (seed {report['seed']}; {mode}; "
             f"{report['specs']} specs) ==",
             f"  why: {WORKLOADS[name].why}"]
    if report["analyzer_args"]:
        lines.append(f"  analyzer args: {' '.join(report['analyzer_args'])}")
    groups = defaultdict(list)
    for job in report["jobs"]:
        groups[(job["kind"], job["key"])].append(job)
    for (kind, key), jobs in groups.items():
        walls = [j["wall_s"] for j in jobs]
        lines.append(f"  {kind:<8} {key:<22} n={len(jobs):<3} "
                     f"{jobs[0]['lines']:>6} lines  best {min(walls):8.4f} s"
                     f"  median {median(walls):8.4f} s")
    if "end_to_end" in report:
        lines.append("  end-to-end:")
        for m in metrics.END_TO_END + metrics.WORKLOAD_END_TO_END:
            lines.append(f"    {m.name:<34} "
                         f"{_fmt(report['end_to_end'].get(m.name), m.unit)}")
    if "per_layer" in report:
        lines.append("  per-layer (self times; traced pass):")
        for m in metrics.PER_LAYER + metrics.WORKLOAD_LAYER:
            lines.append(f"    {m.name:<34} "
                         f"{_fmt(report['per_layer'].get(m.name), m.unit)}")
        o = report["overhead"]
        lines.append(f"  tracing overhead: traced {o['traced_s']:.3f} s vs "
                     f"untraced {o['untraced_s']:.3f} s "
                     f"({o['overhead_s']:+.3f} s, "
                     f"{100 * o['overhead_ratio']:+.1f}%); traced self time "
                     f"{o['self_s_total']:.3f} s")
    for job in report["jobs"]:
        if "error" in job:
            lines.append(f"  FAILED {job['kind']} {job['label']}: "
                         f"{job['error']}")
    for check in report["checks"]:
        status = f"FAILED: {check['error']}" if check["error"] else "ok"
        lines.append(f"  check {check['name']}: {status}")
    lines.append(f"  gate: {report['attempted']} attempted, "
                 f"{report['failed']} failed, {report['alarms']} alarm(s)")
    return lines


def summary_line(reports, trace):
    """The last stdout line: correctness and the BENCHMARK.json metrics
    (prefixed by workload when several ran)."""
    specs = metrics.PER_LAYER if trace else metrics.END_TO_END
    section = "per_layer" if trace else "end_to_end"
    out = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for m in specs:
            out[prefix + m.name] = {"value": report[section][m.name],
                                    "unit": m.unit}
    return {"correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": out}


def append_out(path, host, run):
    doc = {"bench": "cost ledger (benchmarks/ledger)", "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    doc["host"] = host
    doc["runs"].append(run)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="Cost ledger of the analyzer: end-to-end and "
                    "per-layer metrics with a correctness gate.")
    ap.add_argument("--seed", type=int, required=True,
                    help="seed every generated input derives from")
    ap.add_argument("--workload", action="extend", nargs="+",
                    choices=sorted(WORKLOADS), metavar="NAME",
                    help=f"workloads to run (default: all of "
                         f"{', '.join(WORKLOADS)})")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: report per-layer metrics from a traced pass")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"measuring window per workload "
                         f"(default {RUN_SECONDS})")
    ap.add_argument("--out", metavar="PATH",
                    help="append this run to a JSON file")
    ap.add_argument("--analyzer-arg", action="append", default=[],
                    metavar="ARG",
                    help="appended to every analyze and serve command "
                         "line (repeatable; write --analyzer-arg=--jobs)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"ledger: no analyzer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKROOT, exist_ok=True)
    host = host_block()
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()),
          flush=True)

    reports, traces = [], {}
    for name in args.workload or list(WORKLOADS):
        report, merged = run_workload(
            name, args.seed, args.seconds, trace=bool(args.trace),
            analyzer_args=args.analyzer_arg, workroot=WORKROOT)
        print("\n".join(render(report)), flush=True)
        reports.append(report)
        if merged is not None:
            traces[name] = merged
    if traces:
        path = os.path.join(WORKROOT, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(traces, f)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    if args.out:
        append_out(args.out, host, {
            "seed": args.seed, "trace": bool(args.trace),
            "seconds": args.seconds, "analyzer_args": args.analyzer_arg,
            "workloads": {r["workload"]: r for r in reports}})
    line = summary_line(reports, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
