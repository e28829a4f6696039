"""Analysis report rendering (the end-user facing output of Sect. 3.3).

An analysis result has one record,
:meth:`repro.analysis.AnalysisResult.to_json`; :func:`render_text`
renders it for ``analyze`` and ``client`` alike, and
:func:`write_report` writes it to a file.  The daemon's ``stats`` reply
and fuzz campaign reports have their own renderers here.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["render_campaign_markdown", "render_serve_stats", "render_text",
           "write_report"]


def render_text(record: Dict, stats: bool = False,
                invariants: bool = False) -> str:
    """The human-readable answer of ``analyze`` and ``client``, rendered
    from a result record (:meth:`repro.analysis.AnalysisResult.to_json`,
    plus the CLI's optional ``certification`` block): alarms, the
    summary line, then the per-phase statistics under ``stats`` and the
    main loop invariant dump under ``invariants``.

    Keys a record stored by an older daemon lacks (``incidents``,
    ``peak_rss_kib``, ``useful_octagon_packs``) render as absent or
    zero."""
    lines: List[str] = [
        f"{a['file']}:{a['line']}:{a['col']}: [{a['kind']}] {a['message']}"
        for a in record["alarms"]]
    lines.append(f"-- {record['alarm_count']} alarm(s) in "
                 f"{record['analysis_time_s']:.2f}s "
                 f"({record['octagon_packs']} octagon packs, "
                 f"{record.get('useful_octagon_packs', 0)} useful; "
                 f"{record['bool_packs']} boolean packs; "
                 f"{record['filter_sites']} filter sites)")
    cert = record.get("certification")
    if cert is not None:
        where = f", written to {cert['path']}" if "path" in cert else ""
        lines.append(f"-- certified: {cert['stmt_records']} statement "
                     f"record(s), {cert['loop_records']} loop "
                     f"invariant(s), {cert['substitutions']} narrowing "
                     f"substitution(s){where}")
    if record["degraded"]:
        lines.append("-- DEGRADED: a resource budget tripped; the verdict "
                     "is sound but coarser than the configured precision "
                     "(rungs applied: "
                     f"{', '.join(record['degradation_steps'])})")
    if stats:
        lines.extend(_stats_lines(record))
    if invariants:
        lines.append("-- main loop invariant --")
        lines.append(record.get("invariant_dump",
                                "(no loop invariants collected)"))
    return "\n".join(lines) + "\n"


def _stats_lines(record: Dict) -> List[str]:
    pt = record["phase_times_s"]
    lines = ["-- stats --"]
    phases = ["parse", "packing", "iteration", "checking"]
    if "certify" in pt:
        phases.append("certify")
    for phase in phases:
        lines.append(f"  {phase:<10} {pt.get(phase, 0.0):8.3f}s")
        if phase == "iteration" and "iteration-transfer" in pt:
            lines.append(f"    transfer {pt['iteration-transfer']:8.3f}s")
            lines.append(f"    lattice  {pt['iteration-lattice']:8.3f}s")
    lines.append(f"  total      {record['analysis_time_s']:8.3f}s")
    lines.append(f"  peak RSS   "
                 f"{record.get('peak_rss_kib', 0) / 1024.0:8.1f} MiB")
    lines.append(f"  widening iterations: {record['widening_iterations']}")
    executed, skipped = record["stmts_executed"], record["stmts_skipped"]
    total = executed + skipped
    pct = 100.0 * skipped / total if total else 0.0
    lines.append(f"  statements: executed={executed} skipped={skipped} "
                 f"({pct:.1f}% skipped)")
    if record["cross_run_seeded"] or record["cross_run_hits"]:
        lines.append(f"  cross-run cache: seeded={record['cross_run_seeded']} "
                     f"hits={record['cross_run_hits']} "
                     f"spliced={record['cross_run_spliced']}")
    incidents = record.get("incidents", [])
    if incidents:
        lines.append(f"  incidents ({len(incidents)}):")
        for inc in incidents:
            lines.append(f"    [{inc['at_s']:8.3f}s] {inc['kind']}: "
                         f"{inc['action']} — {inc['detail']}")
    return lines


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
            f"* worker: pid {worker.get('pid')} ({alive}), "
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


def write_report(result, path: str) -> None:
    """Write an :class:`~repro.analysis.AnalysisResult`'s record: as JSON
    when ``path`` ends in ``.json``, otherwise as :func:`render_text`
    with statistics and the invariant dump."""
    record = result.to_json()
    if path.endswith(".json"):
        text = json.dumps(record, indent=2) + "\n"
    else:
        text = render_text(record, stats=True, invariants=True)
    with open(path, "w") as f:
        f.write(text)
