"""Metric definitions of the ledger and the per-layer tables of a trace.

``END_TO_END`` and ``PER_LAYER`` are reported by every workload and are
what ``BENCHMARK.json`` lists.  ``WORKLOAD_END_TO_END`` and
``WORKLOAD_LAYER`` only exist on the workloads they apply to (a ladder,
certificates, the daemon), so they are printed and recorded but not
listed there.
"""

from __future__ import annotations

import bisect
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .trace import TARGETS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Regression bound: the share of the parent's median by which the
    #: metric may get worse (end-to-end metrics only).
    bound: Optional[float] = None


#: Timing bounds are 25%: on a shared 2-CPU host, ten runs of one
#: workload (seeds 1-10) spread 5-18% between quartiles, as whole runs
#: land in slower stretches of the host.  Peak RSS spreads under 4%.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("verdict_s", "s", "lower", 0.25),
    Metric("kloc_per_s", "kLOC/s", "higher", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
]

WORKLOAD_END_TO_END = [
    Metric("ladder_s", "s", "lower"),
    Metric("scaling_exponent", "1", "lower"),
    Metric("check_s", "s", "lower"),
    Metric("cold_s", "s", "lower"),
    Metric("alarms", "count", "lower"),
    Metric("failed_ratio", "ratio", "lower"),
]

PER_LAYER = [
    Metric("setup.import_s", "s", "lower"),
    Metric("frontend.preprocess_s", "s", "lower"),
    Metric("frontend.parse_s", "s", "lower"),
    Metric("frontend.lower_s", "s", "lower"),
    Metric("frontend.klines_per_s", "kLOC/s", "higher"),
    Metric("packing.s", "s", "lower"),
    Metric("packing.octagon_packs", "count", "lower"),
    Metric("packing.bool_packs", "count", "lower"),
    Metric("packing.filter_sites", "count", "lower"),
    Metric("iterator.self_s", "s", "lower"),
    Metric("iterator.stmts_executed", "count", "lower"),
    Metric("iterator.stmts_skipped", "count", "higher"),
    Metric("iterator.skip_ratio", "ratio", "higher"),
    Metric("iterator.widening_iterations", "count", "lower"),
    Metric("transfer.calls", "count", "lower"),
    Metric("transfer.self_s", "s", "lower"),
    Metric("linear_forms.calls", "count", "lower"),
    Metric("linear_forms.s", "s", "lower"),
    Metric("lattice.join_calls", "count", "lower"),
    Metric("lattice.widen_calls", "count", "lower"),
    Metric("lattice.includes_calls", "count", "lower"),
    Metric("lattice.self_s", "s", "lower"),
    Metric("lattice.memo_hit_ratio", "ratio", "higher"),
    Metric("memory.env_calls", "count", "lower"),
    Metric("memory.env_s", "s", "lower"),
    Metric("memory.kernel_batches", "count", "higher"),
    Metric("memory.kernel_cells", "count", "higher"),
    Metric("memory.kernel_fallback_ratio", "ratio", "lower"),
    Metric("octagon.closure_calls", "count", "lower"),
    Metric("octagon.closure_s", "s", "lower"),
    Metric("octagon.closure_memo_hit_ratio", "ratio", "higher"),
    Metric("octagon.ops_s", "s", "lower"),
    Metric("ellipsoid.calls", "count", "lower"),
    Metric("ellipsoid.s", "s", "lower"),
    Metric("decision_tree.calls", "count", "lower"),
    Metric("decision_tree.s", "s", "lower"),
    Metric("values.calls", "count", "lower"),
    Metric("values.s", "s", "lower"),
]

WORKLOAD_LAYER = [
    Metric("certify.build_s", "s", "lower"),
    Metric("certify.encode_s", "s", "lower"),
    Metric("certify.save_s", "s", "lower"),
    Metric("certify.load_s", "s", "lower"),
    Metric("certify.decode_s", "s", "lower"),
    Metric("certify.digest_s", "s", "lower"),
    Metric("certify.replay_s", "s", "lower"),
    Metric("certify.artifact_mib", "MiB", "lower"),
    Metric("certify.stmt_records", "count", "lower"),
    Metric("serve.server_s", "s", "lower"),
    Metric("serve.transport_s", "s", "lower"),
    Metric("serve.store_hit_ms", "ms", "lower"),
    Metric("serve.journal_hit_ratio", "ratio", "higher"),
    Metric("serve.warm_share", "ratio", "higher"),
    Metric("serve.frontend_cache_hit_ratio", "ratio", "higher"),
    Metric("serve.worker_restarts", "count", "lower"),
    Metric("serve.certified", "count", "higher"),
    Metric("serve.certify_rejected", "count", "lower"),
]

LAYER_OF = {name: layer for layer, _module, name, _keep in TARGETS}


def ratio(part, whole):
    return part / whole if whole else 0.0


def best_by_key(jobs):
    """Fastest wall time of each key's repeats of the same input.  Other
    tenants of the host only ever add time, and they slow whole stretches
    of a run: over ten runs the best of a rung's repeats spread less than
    their median did (3-12% against 5-20% between quartiles)."""
    best = {}
    for job in jobs:
        best[job.key] = min(best.get(job.key, job.wall), job.wall)
    return best


def scaling_exponent(lines, walls):
    """Least-squares slope of log(wall) against log(lines)."""
    xs = [math.log(x) for x in lines]
    ys = [math.log(y) for y in walls]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def kloc_per_s(jobs):
    return sum(j.lines for j in jobs) / 1000.0 / sum(j.wall for j in jobs)


class _JobIndex:
    """Finds the job whose caller-side interval contains a time."""

    def __init__(self, jobs):
        self.jobs = sorted(jobs, key=lambda j: j.start)
        self.starts = [j.start for j in self.jobs]

    def at(self, t):
        i = bisect.bisect_right(self.starts, t) - 1
        if i >= 0 and t <= self.jobs[i].end:
            return self.jobs[i]
        return None


def merge_trace(processes, jobs):
    """Merge per-process trace files of one traced pass.

    Returns ``(tables, trace)``: per-function ``calls``/``self_s``
    totals plus the counters the program reported, and the merged
    spans with job ids for ``trace.json``.
    """
    index = _JobIndex(jobs)
    job_ids = {id(job): n for n, job in enumerate(jobs)}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    results = []
    closure = [0, 0]
    frontend_lines = 0
    spans, folded = [], []
    for proc in processes:
        base = len(spans)
        process_job = index.at(proc["started"])
        span_jobs = []
        for span in proc["spans"]:
            # A span still open when the process exited has no self time.
            name, start, end, parent, own = (span + [0.0])[:5]
            job = index.at(start) if end else None
            span_jobs.append(job)
            calls[name] += 1
            self_s[name] += own
            if name == "link_sources" and job is not None:
                frontend_lines += job.lines
            spans.append({
                "name": name, "start": start, "end": end, "self_s": own,
                "parent": base + parent if parent >= 0 else None,
                "job": job_ids.get(id(job)), "pid": proc["pid"]})
        for name, parent, n, own in proc["folded"]:
            calls[name] += n
            self_s[name] += own
            job = span_jobs[parent] if parent >= 0 else process_job
            folded.append({
                "name": name, "calls": n, "self_s": own,
                "parent": base + parent if parent >= 0 else None,
                "job": job_ids.get(id(job)), "pid": proc["pid"]})
        results.extend(proc["results"])
        closure[0] += proc["closure_memo"]["hits"]
        closure[1] += proc["closure_memo"]["computations"]
    tables = {"calls": dict(calls), "self_s": dict(self_s),
              "results": results, "closure_memo": closure,
              "frontend_lines": frontend_lines}
    trace = {
        "jobs": [{"job": n, "label": j.label, "kind": j.kind,
                  "lines": j.lines, "start": j.start, "end": j.end}
                 for n, j in enumerate(jobs)],
        "spans": spans, "folded": folded,
    }
    return tables, trace


def layer_metrics(tables, import_s):
    """Every ``PER_LAYER`` metric, plus the certify-layer times when the
    pass ran certificate code."""
    calls, self_s = tables["calls"], tables["self_s"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def layer(name):
        return [n for n, lay in LAYER_OF.items() if lay == name]

    def total(key):
        return sum(r[key] for r in tables["results"])

    front = s("preprocess", "parse", "compile_source", "link_sources")
    executed, skipped = total("stmts_executed"), total("stmts_skipped")
    memo_hits = total("lattice_memo_hits")
    batches = total("vector_batches")
    fallbacks = total("vector_scalar_fallbacks")
    closure_hits, closure_computed = tables["closure_memo"]
    octagon_ops = [n for n in layer("octagon") if n != "Octagon.closed"]
    out = {
        "setup.import_s": import_s,
        "frontend.preprocess_s": s("preprocess"),
        "frontend.parse_s": s("parse"),
        "frontend.lower_s": s("compile_source", "link_sources"),
        "frontend.klines_per_s": ratio(tables["frontend_lines"] / 1000.0,
                                       front),
        "packing.s": s(*layer("packing")),
        "packing.octagon_packs": total("octagon_pack_count"),
        "packing.bool_packs": total("bool_pack_count"),
        "packing.filter_sites": total("filter_site_count"),
        "iterator.self_s": s(*layer("iterator")),
        "iterator.stmts_executed": executed,
        "iterator.stmts_skipped": skipped,
        "iterator.skip_ratio": ratio(skipped, executed + skipped),
        "iterator.widening_iterations": total("widening_iterations"),
        "transfer.calls": c(*layer("transfer")),
        "transfer.self_s": s(*layer("transfer")),
        "linear_forms.calls": c(*layer("linear_forms")),
        "linear_forms.s": s(*layer("linear_forms")),
        "lattice.join_calls": c("AbstractState.join"),
        "lattice.widen_calls": c("AbstractState.widen"),
        "lattice.includes_calls": c("AbstractState.includes"),
        "lattice.self_s": s(*layer("lattice")),
        "lattice.memo_hit_ratio": ratio(
            memo_hits, memo_hits + total("lattice_memo_misses")),
        "memory.env_calls": c(*layer("memory")),
        "memory.env_s": s(*layer("memory")),
        "memory.kernel_batches": batches,
        "memory.kernel_cells": total("vector_cells"),
        "memory.kernel_fallback_ratio": ratio(fallbacks,
                                              batches + fallbacks),
        "octagon.closure_calls": c("Octagon.closed"),
        "octagon.closure_s": s("Octagon.closed"),
        "octagon.closure_memo_hit_ratio": ratio(
            closure_hits, closure_hits + closure_computed),
        "octagon.ops_s": s(*octagon_ops),
        "ellipsoid.calls": c(*layer("ellipsoid")),
        "ellipsoid.s": s(*layer("ellipsoid")),
        "decision_tree.calls": c(*layer("decision_tree")),
        "decision_tree.s": s(*layer("decision_tree")),
        "values.calls": c(*layer("values")),
        "values.s": s(*layer("values")),
    }
    if c(*layer("certify")):
        out.update({
            "certify.build_s": s("build_certificate", "certify_result"),
            "certify.encode_s": s("encode_state"),
            "certify.save_s": s("save_certificate"),
            "certify.load_s": s("load_certificate"),
            "certify.decode_s": s("decode_blob"),
            "certify.digest_s": s("payload_digest"),
            "certify.replay_s": s("CertWalker.walk", "check_certificate"),
        })
    return out
