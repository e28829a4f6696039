"""Analysis report generation (the end-user facing output of Sect. 3.3).

Produces human-readable (markdown) and machine-readable (JSON) reports
from an :class:`~repro.analysis.AnalysisResult`: alarms grouped by kind
and location, invariant statistics, packing feedback for the next run,
and the analyzer configuration fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict, List, Optional

from .analysis import AnalysisResult

__all__ = ["render_campaign_markdown", "render_markdown", "render_json",
           "render_serve_stats", "write_report"]


def render_markdown(result: AnalysisResult, title: str = "Analysis report") -> str:
    lines: List[str] = [f"# {title}", ""]
    lines.append(f"* analysis time: **{result.analysis_time:.2f} s**")
    lines.append(f"* widening iterations: {result.widening_iterations}")
    total_stmts = result.stmts_executed + result.stmts_skipped
    if total_stmts:
        pct = 100.0 * result.stmts_skipped / total_stmts
        lines.append(f"* statements: {result.stmts_executed} "
                     f"executed, {result.stmts_skipped} skipped "
                     f"({pct:.1f}%)")
    lines.append(f"* octagon packs: {result.octagon_pack_count} "
                 f"({len(result.useful_octagon_packs)} useful, "
                 f"avg size {result.octagon_pack_avg_size:.1f})")
    lines.append(f"* boolean packs: {result.bool_pack_count}")
    lines.append(f"* filter sites: {result.filter_site_count}")
    lines.append("")
    lines.append(f"## Alarms ({result.alarm_count})")
    lines.append("")
    if not result.alarms:
        lines.append("No alarms: the analyzed properties are **proved**.")
    else:
        by_kind = result.alarms_by_kind()
        lines.append("| kind | count |")
        lines.append("|---|---|")
        for kind, count in sorted(by_kind.items()):
            lines.append(f"| {kind} | {count} |")
        lines.append("")
        for alarm in result.alarms:
            lines.append(f"* `{alarm.loc}` — **{alarm.kind}**: {alarm.message}")
    if result.degraded or result.incidents or result.resumed:
        lines.append("")
        lines.append("## Robustness")
        lines.append("")
        if result.degraded:
            lines.append("**DEGRADED** — a resource budget tripped and the "
                         "supervisor stepped down the degradation ladder; "
                         "the verdict is sound but coarser than the "
                         "configured precision.")
            lines.append("")
            lines.append("Rungs applied: "
                         + ", ".join(f"`{s}`" for s in
                                     result.degradation_steps))
        if result.resumed:
            lines.append("")
            lines.append("Resumed from a checkpoint (bit-identical to an "
                         "uninterrupted run).")
        if result.incidents:
            lines.append("")
            lines.append("| t (s) | kind | action | detail |")
            lines.append("|---|---|---|---|")
            for inc in result.incidents:
                lines.append(f"| {inc.at_s:.3f} | {inc.kind} | {inc.action} "
                             f"| {inc.detail} |")
    stats = result.invariant_stats()
    if stats.total():
        lines.append("")
        lines.append("## Main loop invariant")
        lines.append("")
        lines.append("| assertion kind | count |")
        lines.append("|---|---|")
        lines.append(f"| boolean interval | {stats.boolean_interval_assertions} |")
        lines.append(f"| interval | {stats.interval_assertions} |")
        lines.append(f"| clock | {stats.clock_assertions} |")
        lines.append(f"| octagonal (additive) | {stats.octagonal_additive_assertions} |")
        lines.append(f"| octagonal (subtractive) | {stats.octagonal_subtractive_assertions} |")
        lines.append(f"| decision trees | {stats.decision_trees} |")
        lines.append(f"| ellipsoidal | {stats.ellipsoidal_assertions} |")
    return "\n".join(lines) + "\n"


def render_json(result: AnalysisResult) -> str:
    stats = result.invariant_stats()
    payload: Dict[str, object] = {
        "alarm_count": result.alarm_count,
        "alarms": [
            {"kind": a.kind, "file": a.loc.filename, "line": a.loc.line,
             "col": a.loc.col, "message": a.message, "sid": a.sid}
            for a in result.alarms
        ],
        "analysis_time_s": result.analysis_time,
        "widening_iterations": result.widening_iterations,
        "incremental": {
            "stmts_executed": result.stmts_executed,
            "stmts_skipped": result.stmts_skipped,
            "cross_run_seeded": result.cross_run_seeded,
            "cross_run_hits": result.cross_run_hits,
            "cross_run_spliced": result.cross_run_spliced,
        },
        "packing": {
            "octagon_packs": result.octagon_pack_count,
            "octagon_pack_avg_size": result.octagon_pack_avg_size,
            "useful_octagon_packs": [list(k) for k in
                                     sorted(result.useful_octagon_packs)],
            "bool_packs": result.bool_pack_count,
            "filter_sites": result.filter_site_count,
        },
        "invariant_stats": asdict(stats),
        "robustness": {
            "degraded": result.degraded,
            "degradation_steps": result.degradation_steps,
            "resumed": result.resumed,
            "exit_code": result.exit_code,
            "incidents": [
                {"kind": i.kind, "action": i.action, "detail": i.detail,
                 "at_s": i.at_s}
                for i in result.incidents
            ],
        },
    }
    return json.dumps(payload, indent=2)


def render_serve_stats(stats: Dict, title: str = "Serve stats") -> str:
    """Human-readable rendering of the daemon's ``stats`` protocol
    response (``astree-repro client --op stats``)."""
    runs = stats.get("runs", {})
    queue = stats.get("queue", {})
    rc = stats.get("result_cache", {})
    js = stats.get("journal_store", {})
    fc = stats.get("frontend_cache", {})
    cm = stats.get("closure_memo", {})
    lines: List[str] = [f"# {title}", ""]
    lines.append(f"* daemon pid {stats.get('pid')}, up "
                 f"{stats.get('uptime_s', 0.0):.1f} s, "
                 f"{stats.get('requests', 0)} request(s) served")
    lines.append(f"* queue: depth {queue.get('depth', 0)}, "
                 f"submitted {queue.get('submitted', 0)}, "
                 f"completed {queue.get('completed', 0)}, "
                 f"failed {queue.get('failed', 0)}, "
                 f"rejected {queue.get('rejected', 0)}, "
                 f"cancelled {queue.get('cancelled', 0)}")
    worker = stats.get("worker", {})
    if worker:
        alive = "alive" if worker.get("alive") else "down"
        lines.append(
            f"* worker: {worker.get('mode', '?')} "
            f"(pid {worker.get('pid')}, {alive}), "
            f"{worker.get('spawns', 0)} spawn(s), "
            f"{worker.get('restarts', 0)} restart(s)"
            + (f", last exit {worker['last_exit']}"
               if worker.get("last_exit") else ""))
    quarantine = stats.get("quarantine", {})
    if quarantine.get("poisoned") or quarantine.get("refusals"):
        lines.append(
            f"* quarantine: {quarantine.get('poisoned', 0)} poisoned "
            f"key(s), {quarantine.get('refusals', 0)} refusal(s) "
            f"({', '.join(quarantine.get('signatures', [])) or '-'})")
    lines.append("")
    lines.append("| layer | hits | misses | evictions | entries |")
    lines.append("|---|---|---|---|---|")
    lines.append(f"| exact results | {rc.get('hits', 0)} "
                 f"| {rc.get('misses', 0)} | {rc.get('evictions', 0)} "
                 f"| {rc.get('disk_entries', rc.get('memory_entries', 0))} |")
    lines.append(f"| fixpoint journals | "
                 f"{js.get('memory_hits', 0) + js.get('disk_hits', 0)} "
                 f"| {js.get('misses', 0)} | {js.get('evictions', 0)} "
                 f"| {js.get('disk_entries', js.get('memory_entries', 0))} |")
    lines.append(f"| frontend | {fc.get('hits', 0)} | {fc.get('misses', 0)} "
                 f"| - | {fc.get('entries', 0)} |")
    lines.append(f"| closure memo | {cm.get('hits', 0)} | - "
                 f"| {cm.get('evictions', 0)} | {cm.get('entries', 0)} |")
    lines.append("")
    lines.append(f"* runs: {runs.get('cold', 0)} cold "
                 f"(avg {runs.get('cold_avg_wall_s', 0.0):.3f} s), "
                 f"{runs.get('warm', 0)} warm "
                 f"(avg {runs.get('warm_avg_wall_s', 0.0):.3f} s), "
                 f"{runs.get('degraded', 0)} degraded, "
                 f"{runs.get('retries', 0)} crash-retried")
    lines.append(f"* journal harvests: {js.get('harvests', 0)}")
    certify = stats.get("certify", {})
    if certify.get("mode", "off") != "off":
        lines.append(
            f"* certification ({certify.get('mode')}): "
            f"{certify.get('certified', 0)} warm result(s) certified, "
            f"{certify.get('rejections', 0)} rejected and re-run cold")
    return "\n".join(lines) + "\n"


def render_campaign_markdown(report, title: str = "Fuzz campaign") -> str:
    """Human-readable summary of a :class:`repro.fuzz.CampaignReport`."""
    lines: List[str] = [f"# {title}", ""]
    lines.append(f"* campaign seed: `{report.config.campaign_seed}`")
    lines.append(f"* cases: {len(report.results)} run / "
                 f"{report.cases_planned} planned")
    lines.append(f"* wall time: {report.wall_time_s:.1f} s")
    if report.stopped_reason:
        lines.append(f"* stopped early: **{report.stopped_reason}**")
    lines.append("")
    lines.append("| outcome | count |")
    lines.append("|---|---|")
    for outcome, count in report.outcome_counts.items():
        lines.append(f"| {outcome} | {count} |")
    lines.append("")
    verdict = ("**PASS** — no unsound or crash outcomes." if report.ok
               else "**FAIL** — soundness violations or analyzer crashes.")
    lines.append(verdict)
    triage = report.triage
    if triage:
        lines.append("")
        lines.append(f"## Failure signatures ({len(triage)})")
        lines.append("")
        for sig, case_ids in triage.items():
            lines.append(f"* `{sig}` — {len(case_ids)} case(s): "
                         + ", ".join(f"`{c}`" for c in case_ids[:5])
                         + (" …" if len(case_ids) > 5 else ""))
    if report.reductions:
        lines.append("")
        lines.append("## Reductions")
        lines.append("")
        lines.append("| case | size | reduced | passes |")
        lines.append("|---|---|---|---|")
        for red in report.reductions:
            lines.append(f"| `{red.original.case_id}` "
                         f"| {red.original_size} | {red.reduced_size} "
                         f"| {len(red.accepted_passes)} |")
    return "\n".join(lines) + "\n"


def write_report(result: AnalysisResult, path: str,
                 fmt: Optional[str] = None) -> None:
    """Write a report; format inferred from the extension when omitted."""
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "markdown"
    text = render_json(result) if fmt == "json" else render_markdown(result)
    with open(path, "w") as f:
        f.write(text)
