"""Command-line interface: ``astree-repro``.

Subcommands:

* ``analyze FILE...`` — analyze C sources and print alarms;
* ``generate --kloc N --seed S`` — emit a family program to stdout;
* ``slice FILE --line L`` — backward slice from the alarm nearest a line;
* ``fuzz`` — run a soundness fuzzing campaign (or ``--replay`` one case);
* ``check-certificate CERT`` — independently validate an invariant
  certificate written by ``analyze --emit-certificate`` (exit 0 valid and
  alarm-free, 1 valid with alarms, 3 invalid — ``phase=certify``).

Exit codes (``analyze``; see :class:`repro.errors.ExitCode` and
docs/robustness.md): 0 all properties proved, 1 alarms at full
precision, 2 sound-but-degraded verdict (a resource budget tripped),
3 internal error / no verdict.  ``fuzz``: 0 campaign clean, 1 unsound
or crash outcomes found, 3 internal error.

On internal errors the CLI prints a structured one-line diagnostic to
stderr (``astree-repro: internal-error: phase=<...> class=<...>:
<message>``) before exiting 3, so wrappers never see a silent failure.
Usage errors (unknown flags, bad values) take the same path with
``phase=cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import analyze
from .config import AnalyzerConfig, baseline_config
from .errors import (
    AnalysisError, CertificateError, ExitCode, LinkError, ReproError,
    ServeError, SourceError, UsageError,
)
from .frontend import read_source_file

__all__ = ["main"]


def _parse_ranges(items: Optional[List[str]]):
    out = {}
    for item in items or []:
        name, _, rng = item.partition("=")
        lo, _, hi = rng.partition(":")
        out[name] = (float(lo), float(hi))
    return out


def _build_config(args) -> AnalyzerConfig:
    base = baseline_config() if args.baseline else AnalyzerConfig()
    overrides = dict(input_ranges=_parse_ranges(args.input_range))
    if args.max_clock is not None:
        overrides["max_clock"] = args.max_clock
    if args.unroll is not None:
        overrides["default_unroll"] = args.unroll
    if args.partition:
        overrides["partition_functions"] = set(args.partition)
    if args.no_octagons:
        overrides["enable_octagons"] = False
    if args.no_ellipsoids:
        overrides["enable_ellipsoids"] = False
    if args.no_trees:
        overrides["enable_decision_trees"] = False
    if getattr(args, "invariants", False):
        overrides["collect_invariants"] = True
    if getattr(args, "deadline", None) is not None:
        overrides["wall_deadline_s"] = args.deadline
    if getattr(args, "max_rss", None) is not None:
        overrides["rss_limit_kib"] = int(args.max_rss * 1024)
    if getattr(args, "stmt_timeout", None) is not None:
        overrides["stmt_timeout_s"] = args.stmt_timeout
    if getattr(args, "certify", False) or \
            getattr(args, "emit_certificate", None):
        overrides["certify"] = True
    return base.with_overrides(**overrides)


def cmd_analyze(args) -> int:
    from .report import render_text

    # read_source_file rejects BOMs, CRLF line endings and non-UTF-8
    # bytes with a located PreprocessorError (exit 3) instead of letting
    # a UnicodeDecodeError escape.
    sources = [(path, read_source_file(path)) for path in args.files]
    cfg = _build_config(args)
    result = analyze(sources, config=cfg, entry=args.entry)
    certification = None
    if args.certify or args.emit_certificate:
        import time as _time

        from .certify import (build_certificate, certify_result,
                              save_certificate)

        t0 = _time.perf_counter()
        if args.emit_certificate:
            cert = build_certificate(result, sources)
            save_certificate(cert, args.emit_certificate)
            meta = cert["payload"]["meta"]
            certification = {
                "stmt_records": len(cert["payload"]["stmt_records"]),
                "loop_records": len(cert["payload"]["loop_records"]),
                "substitutions": meta["substitutions"],
                "claimed_alarms": len(cert["payload"]["alarms"]),
                "digest": cert["digest"],
                "path": args.emit_certificate,
            }
        else:
            summ = certify_result(result, sources)
            certification = {
                "stmt_records": summ.stmt_records,
                "loop_records": summ.loop_records,
                "substitutions": summ.substitutions,
                "claimed_alarms": summ.claimed_alarms,
            }
        result.phase_times["certify"] = _time.perf_counter() - t0
    record = result.to_json()
    if certification is not None:
        record["certification"] = certification
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(render_text(record, stats=args.stats,
                          invariants=args.invariants), end="")
    return result.exit_code


def cmd_generate(args) -> int:
    from .synth import FamilySpec, generate_program

    gp = generate_program(FamilySpec(target_kloc=args.kloc, seed=args.seed))
    if args.spec_out:
        with open(args.spec_out, "w") as f:
            json.dump({"input_ranges": gp.input_ranges,
                       "max_clock": gp.max_clock}, f, indent=2)
    sys.stdout.write(gp.source)
    return 0


def cmd_slice(args) -> int:
    from .slicer import Slicer

    text = read_source_file(args.file)
    cfg = _build_config(args)
    result = analyze(text, args.file, config=cfg, entry=args.entry)
    if not result.alarms:
        print("no alarms; nothing to slice")
        return 0
    target = min(result.alarms,
                 key=lambda a: abs(a.loc.line - (args.line or a.loc.line)))
    slicer = Slicer(result.ctx.prog, result.ctx.table)
    sl = slicer.slice_for_alarm(target)
    print(f"criterion: {target}")
    print(sl.format())
    return 0


def cmd_fuzz(args) -> int:
    from .fuzz import CampaignConfig, replay_case, run_campaign
    from .report import render_campaign_markdown

    if args.replay:
        res = replay_case(args.replay, isolation=not args.in_process,
                          case_timeout_s=args.case_timeout)
        verdict = res.to_json(full=True)
        # The replayed verdict is bit-identical run to run; keep the
        # printed form that way too (timing is not part of the verdict).
        del verdict["wall_time_s"]
        print(json.dumps(verdict, indent=2, sort_keys=True))
        return 1 if res.outcome in ("crash", "unsound", "timeout") else 0

    config = CampaignConfig(
        campaign_seed=args.seed,
        cases=args.cases,
        max_wall_s=args.max_wall,
        case_timeout_s=args.case_timeout,
        isolation=not args.in_process,
        corpus_dir=args.corpus,
        reduce_failures=not args.no_reduce,
        inject_crash=args.inject_crash,
    )

    def progress(res) -> None:
        if not args.quiet:
            print(f"[{res.spec.case_id}] {res.outcome} "
                  f"({res.wall_time_s:.1f}s)", flush=True)

    report = run_campaign(config, progress=progress)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(report.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")
    if args.json:
        print(json.dumps(report.to_json(), indent=1, sort_keys=True))
    else:
        print(render_campaign_markdown(report), end="")
    return 0 if report.ok else 1


def cmd_check_certificate(args) -> int:
    from .certify import check_certificate

    chk = check_certificate(args.certificate)
    if args.json:
        print(json.dumps({
            "valid": True,
            "entry": chk.entry,
            "source_digest": chk.source_digest,
            "config_fingerprint": chk.config_fingerprint,
            "stmts_checked": chk.stmts_checked,
            "loops_checked": chk.loops_checked,
            "claimed_alarms": chk.claimed_alarms,
            "replay_alarms": chk.replay_alarms,
            "wall_s": chk.wall_s,
            "exit_code": chk.exit_code,
        }, indent=2))
    else:
        print(f"certificate valid: {chk.stmts_checked} statement "
              f"record(s), {chk.loops_checked} loop invariant(s) "
              f"re-verified in {chk.wall_s:.3f}s "
              f"(entry {chk.entry}, sources {chk.source_digest[:12]})")
        if chk.claimed_alarms:
            print(f"-- the certified run carries {chk.claimed_alarms} "
                  f"alarm(s) ({chk.replay_alarms} re-raised by the "
                  f"replay): exit 1")
        else:
            print("-- the certified run proved every property: exit 0")
    return chk.exit_code


def cmd_serve(args) -> int:
    import signal
    import threading

    from .serve.server import AnalysisServer, ServeConfig

    sc = ServeConfig(
        socket_path=args.socket,
        cache_dir=args.cache_dir,
        max_queue=args.max_queue,
        job_deadline_s=args.job_deadline,
        job_rss_limit_kib=(int(args.job_max_rss * 1024)
                           if args.job_max_rss else None),
        job_hard_timeout_s=args.job_hard_timeout,
        drain_deadline_s=args.drain_deadline,
        certify_serve=args.certify_serve,
    )
    server = AnalysisServer(sc)
    # SIGTERM/SIGINT start a graceful drain: stop accepting, settle the
    # in-flight job within the drain deadline, remove the socket, exit 0.
    # Only the main thread may install handlers.
    previous = {}
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(
                sig, lambda signum, frame: server.stop())
    print(f"astree-repro serve: listening on {args.socket}"
          + (f", cache at {args.cache_dir}" if args.cache_dir else
             ", in-memory caches"), flush=True)
    try:
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("astree-repro serve: stopped", flush=True)
    return 0


def cmd_client(args) -> int:
    from .report import render_serve_stats, render_text
    from .serve.client import ServeClient

    with ServeClient(args.socket, timeout=args.timeout) as client:
        if args.op == "ping":
            print(json.dumps(client.ping(), indent=2))
            return 0
        if args.op == "health":
            reply = client.health()
            if not reply.get("ok"):
                print(f"error: {reply.get('error')}", file=sys.stderr)
                return int(ExitCode.INTERNAL_ERROR)
            print(json.dumps(reply["health"], indent=2, sort_keys=True))
            return 0
        if args.op == "stats":
            reply = client.stats()
            if not reply.get("ok"):
                print(f"error: {reply.get('error')}", file=sys.stderr)
                return int(ExitCode.INTERNAL_ERROR)
            if args.json:
                print(json.dumps(reply["stats"], indent=2, sort_keys=True))
            else:
                print(render_serve_stats(reply["stats"]), end="")
            return 0
        if args.op == "shutdown":
            print(json.dumps(client.shutdown(), indent=2))
            return 0

        if not args.files:
            print("error: submit needs at least one source file",
                  file=sys.stderr)
            return int(ExitCode.INTERNAL_ERROR)
        sources = [(path, read_source_file(path)) for path in args.files]
        overrides = {}
        ranges = _parse_ranges(args.input_range)
        if ranges:
            overrides["input_ranges"] = {k: list(v)
                                         for k, v in ranges.items()}
        if args.max_clock is not None:
            overrides["max_clock"] = args.max_clock

        reply = client.submit(sources, entry=args.entry, config=overrides,
                              bypass_cache=args.bypass_cache,
                              retries=args.retries)
        if not reply.get("ok"):
            kind = ("quarantined" if reply.get("poisoned") else
                    "retryable" if reply.get("retryable") else "failed")
            print(f"error ({kind}): {reply.get('error')}", file=sys.stderr)
            return int(ExitCode.INTERNAL_ERROR)
        result = reply["result"]
        if args.json:
            out = dict(result)
            out["cached"] = reply["cached"]
            out["digest"] = reply["digest"]
            out["server_wall_s"] = reply["wall_s"]
            out["queue_depth"] = reply.get("queue_depth", 0)
            print(json.dumps(out, indent=2))
        else:
            print(render_text(result, stats=args.stats), end="")
            disposition = "cached" if reply["cached"] else "analyzed"
            print(f"-- {disposition} in {reply['wall_s']:.3f}s "
                  f"(digest {reply['digest'][:12]})")
            if args.stats:
                print(f"   queue depth at submit: "
                      f"{reply.get('queue_depth', 0)}")
        return int(result["exit_code"])


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors join the exit contract: argparse's own exit 2 would
    read as a degraded verdict, so raise into the structured funnel
    instead (exit 3, ``phase=cli``).  Subparsers inherit the class;
    ``--help`` still exits 0 through ``exit``."""

    def error(self, message):
        raise UsageError(message)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _ArgumentParser(
        prog="astree-repro",
        description="Abstract-interpretation analyzer for periodic "
                    "synchronous C programs (PLDI 2003 reproduction)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    # The analysis flags analyze and slice share.
    common = _ArgumentParser(add_help=False)
    common.add_argument("--entry", default="main")
    common.add_argument("--input-range", action="append",
                        metavar="NAME=LO:HI",
                        help="volatile input range (repeatable)")
    common.add_argument("--max-clock", type=int, default=None)
    common.add_argument("--unroll", type=int, default=None)
    common.add_argument("--partition", action="append", metavar="FUNC",
                        help="enable trace partitioning in a function")
    common.add_argument("--baseline", action="store_true",
                        help="use the interval-only baseline analyzer")
    common.add_argument("--no-octagons", action="store_true")
    common.add_argument("--no-ellipsoids", action="store_true")
    common.add_argument("--no-trees", action="store_true")

    pa = sub.add_parser("analyze", parents=[common],
                        help="analyze C source files")
    pa.add_argument("files", nargs="+")
    pa.add_argument("--invariants", action="store_true",
                    help="dump the main loop invariant")
    pa.add_argument("--certify", action="store_true",
                    help="record invariant certificates during the run and "
                         "validate the result by an independent "
                         "one-application replay (fails exit 3 with "
                         "phase=certify if the result is not a "
                         "re-verifiable post-fixpoint)")
    pa.add_argument("--emit-certificate", dest="emit_certificate",
                    default=None, metavar="PATH",
                    help="write the validated, content-addressed "
                         "certificate artifact to PATH (implies "
                         "--certify; check later with "
                         "'astree-repro check-certificate PATH')")
    pa.add_argument("--stats", action="store_true",
                    help="report per-phase wall time and peak RSS")
    pa.add_argument("--json", action="store_true",
                    help="print the whole result record as JSON")
    pa.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="wall-clock budget; on overrun the analysis "
                         "degrades to a sound coarser verdict (exit 2)")
    pa.add_argument("--max-rss", type=float, default=None, metavar="MIB",
                    help="peak-RSS budget of the analyzer process in MiB")
    pa.add_argument("--stmt-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="soft per-statement budget sampled at statement "
                         "boundaries")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="generate a family program")
    pg.add_argument("--kloc", type=float, default=1.0)
    pg.add_argument("--seed", type=int, default=42)
    pg.add_argument("--spec-out", default=None,
                    help="write input-range spec JSON to this path")
    pg.set_defaults(func=cmd_generate)

    ps = sub.add_parser("slice", parents=[common],
                        help="slice from an alarm point")
    ps.add_argument("file")
    ps.add_argument("--line", type=int, default=None)
    ps.set_defaults(func=cmd_slice)

    pf = sub.add_parser("fuzz", help="run a soundness fuzzing campaign")
    pf.add_argument("--seed", type=int, default=0,
                    help="campaign seed; every case spec, mutation and "
                         "input stream derives from it (default 0)")
    pf.add_argument("--cases", type=int, default=50,
                    help="number of cases to generate (default 50)")
    pf.add_argument("--max-wall", type=float, default=None,
                    metavar="SECONDS",
                    help="campaign wall-clock budget; remaining cases "
                         "are skipped once it trips")
    pf.add_argument("--case-timeout", type=float, default=120.0,
                    metavar="SECONDS",
                    help="per-case subprocess timeout (default 120)")
    pf.add_argument("--in-process", action="store_true",
                    help="run cases in this process instead of isolated "
                         "workers (faster, but a crash kills the run)")
    pf.add_argument("--corpus", default=None, metavar="DIR",
                    help="persist failing case specs (and reductions) "
                         "as replayable JSON files in DIR")
    pf.add_argument("--replay", default=None, metavar="CASE.json",
                    help="re-execute one corpus case and print its "
                         "verdict (bit-identical digest)")
    pf.add_argument("--no-reduce", action="store_true",
                    help="skip delta-debugging reduction of failures")
    pf.add_argument("--inject-crash", default=None, metavar="BLOCK",
                    help="fault injection: crash the worker on cases "
                         "whose program contains this block type "
                         "(validates triage and reduction)")
    pf.add_argument("--json", action="store_true",
                    help="print the campaign report as JSON")
    pf.add_argument("--json-out", default=None, metavar="PATH",
                    help="also write the campaign report JSON to PATH")
    pf.add_argument("--quiet", action="store_true",
                    help="suppress per-case progress lines")
    pf.set_defaults(func=cmd_fuzz)

    pcc = sub.add_parser(
        "check-certificate",
        help="independently validate an invariant certificate")
    pcc.add_argument("certificate", metavar="CERT",
                     help="certificate file written by "
                          "analyze --emit-certificate")
    pcc.add_argument("--json", action="store_true")
    pcc.set_defaults(func=cmd_check_certificate)

    pv = sub.add_parser("serve",
                        help="run the analysis daemon on a Unix socket")
    pv.add_argument("--socket", default="astree-serve.sock", metavar="PATH",
                    help="Unix socket path to listen on")
    pv.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="persistent cache directory (results + fixpoint "
                         "journals); omit for in-memory caches only")
    pv.add_argument("--max-queue", type=int, default=64, metavar="N",
                    help="bound on pending jobs before submits are refused")
    pv.add_argument("--job-deadline", type=float, default=300.0,
                    metavar="SECONDS",
                    help="default per-job wall budget (supervisor)")
    pv.add_argument("--job-max-rss", type=float, default=None, metavar="MIB",
                    help="default per-job RSS budget (supervisor)")
    pv.add_argument("--job-hard-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="parent-side hard ceiling per job: the analysis "
                         "worker is killed after this long (outer backstop "
                         "over the in-analysis budgets)")
    pv.add_argument("--drain-deadline", type=float, default=10.0,
                    metavar="SECONDS",
                    help="graceful-shutdown budget for the in-flight job "
                         "before escalation (default 10)")
    pv.add_argument("--certify-serve", dest="certify_serve",
                    choices=("off", "sampled", "all"), default="sampled",
                    help="validate journal-warmed results by invariant "
                         "certification before they are cached or "
                         "returned: every warm hit (all), a "
                         "deterministic 1-in-8 sample (sampled, the "
                         "default), or never (off); a warm result that "
                         "fails certification is discarded and re-run "
                         "cold")
    pv.set_defaults(func=cmd_serve)

    pc = sub.add_parser("client",
                        help="submit analyses to a running daemon")
    pc.add_argument("files", nargs="*")
    pc.add_argument("--socket", default="astree-serve.sock", metavar="PATH")
    pc.add_argument("--entry", default="main")
    pc.add_argument("--input-range", action="append", metavar="NAME=LO:HI")
    pc.add_argument("--max-clock", type=int, default=None)
    pc.add_argument("--op",
                    choices=["submit", "stats", "health", "shutdown",
                             "ping"],
                    default="submit")
    pc.add_argument("--retries", type=int, default=2, metavar="N",
                    help="resubmit attempts on connection loss or "
                         "retryable refusals (queue full, draining; "
                         "default 2)")
    pc.add_argument("--bypass-cache", action="store_true",
                    help="force a cold run (reference for differential "
                         "checks)")
    pc.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                    help="deadline for each reply (default 600)")
    pc.add_argument("--stats", action="store_true",
                    help="print per-request cache/queue feedback")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_client)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 — single structured funnel
        return _internal_error(exc)


def _error_phase(exc: BaseException) -> str:
    """Coarse phase classification for the structured diagnostic."""
    if isinstance(exc, UsageError):
        return "cli"
    if isinstance(exc, (SourceError, LinkError)):
        return "frontend"
    if isinstance(exc, CertificateError):
        return "certify"
    if isinstance(exc, ServeError):
        return "serve"
    if isinstance(exc, AnalysisError):
        return "analysis"
    if isinstance(exc, ReproError):
        return "analyzer"
    if isinstance(exc, OSError):
        return "io"
    return "unexpected"


def _internal_error(exc: BaseException) -> int:
    """No verdict was produced.  Emit a structured one-line diagnostic
    (phase, exception class, message) to stderr — never exit 3 silently
    — with a traceback first for genuinely unexpected exceptions."""
    phase = _error_phase(exc)
    if phase == "unexpected":
        import traceback

        traceback.print_exc()
    message = str(exc) or exc.__class__.__name__
    print(f"astree-repro: internal-error: phase={phase} "
          f"class={type(exc).__name__}: {message}", file=sys.stderr)
    return int(ExitCode.INTERNAL_ERROR)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
