"""Per-case worker: the isolated unit of one fuzz execution.

Invoked as ``python -m repro.fuzz.worker`` (a
:class:`repro.ipc.process.WorkerProcess`): it reads one job frame
(``{"spec": {...CaseSpec...}}``) and answers with one verdict frame.
Clean rejections of invalid mutants (:class:`repro.errors.ReproError`)
are part of the payload; *any other* exception propagates and crashes
the process — the campaign runner classifies the death plus the stderr
traceback as a ``crash`` outcome.  That asymmetry is the point of
process isolation: an analyzer bug takes down one worker, not the
campaign.

The payload carries only deterministic fields (no wall times, no RSS),
so the campaign's verdict digest over it is bit-identical across
replays of the same spec.

:func:`execute_spec` is the same code path run in-process — used by
``--replay --in-process``, the reducer, and the tests.
"""

from __future__ import annotations

import hashlib
import sys
from typing import Dict

from ..analysis import analyze
from ..config import AnalyzerConfig
from ..errors import ReproError
from ..ipc.frames import send_frame
from ..ipc.process import claim_frame_channel
from .case import BuiltCase, CaseSpec, build_case
from .oracle import run_oracle

__all__ = ["execute_spec", "run_built_case", "main"]

#: AnalyzerConfig fields a case spec may override (everything else in
#: ``spec.analyzer`` is rejected so corpus files can't silently no-op).
_ANALYZER_OVERRIDES = frozenset({
    "wall_deadline_s", "rss_limit_kib", "stmt_timeout_s",
    "widening_delay", "expand_threshold",
})


def _analyzer_config(spec: CaseSpec, built: BuiltCase) -> AnalyzerConfig:
    config = AnalyzerConfig(collect_invariants=True, certify=True,
                            input_ranges=dict(built.input_ranges),
                            max_clock=built.max_clock)
    unknown = set(spec.analyzer) - _ANALYZER_OVERRIDES
    if unknown:
        raise ValueError(f"unknown analyzer overrides: {sorted(unknown)}")
    for key, value in spec.analyzer.items():
        setattr(config, key, value)
    return config


def run_built_case(built: BuiltCase) -> Dict:
    """Analyze one built case and judge it with the soundness oracle."""
    spec = built.spec
    if spec.inject_crash is not None and \
            built.block_counts.get(spec.inject_crash, 0) > 0:
        # Fault-injection hook: a deterministic, spec-carried crash used
        # to validate the triage and reduction pipeline end to end.
        raise RuntimeError(
            f"injected crash: block type {spec.inject_crash} present")
    result = analyze(built.source, filename=f"<{spec.case_id}>",
                     config=_analyzer_config(spec, built))
    prog = result.ctx.prog
    oracle = run_oracle(prog, result, built.input_ranges, spec.case_seed,
                        streams=spec.streams, max_ticks=spec.max_ticks)
    certified = None
    certify_error = None
    if not result.degraded:
        # Certification oracle: every non-degraded case's invariant map
        # must survive an independent one-application replay.  A result
        # the certifier cannot validate is an unsoundness-grade finding
        # even when the concrete-execution oracle saw nothing.
        from ..certify import certify_result
        from ..errors import CertificateError

        try:
            certify_result(result, built.source,
                           filename=f"<{spec.case_id}>")
            certified = True
        except CertificateError as exc:
            certified = False
            certify_error = str(exc)
    if result.degraded:
        outcome = "degraded"
    elif not oracle.sound:
        outcome = "unsound"
    elif certified is False:
        outcome = "unsound"
    else:
        outcome = "sound"
    payload = {
        "outcome": outcome,
        "case_id": spec.case_id,
        "analysis_exit_code": result.exit_code,
        "alarm_count": result.alarm_count,
        "alarms_by_kind": dict(sorted(result.alarms_by_kind().items())),
        "degraded": result.degraded,
        "degradation_steps": list(result.degradation_steps),
        "widening_iterations": result.widening_iterations,
        "oracle": oracle.to_json(),
        "block_counts": dict(sorted(built.block_counts.items())),
        "applied_mutations": list(built.applied_mutations),
        "source_sha256": hashlib.sha256(
            built.source.encode("utf-8")).hexdigest(),
        "source_lines": built.source.count("\n"),
    }
    if certified is not None:
        payload["certified"] = certified
    if certify_error is not None:
        payload["certify_error"] = certify_error
    return payload


def execute_spec(spec: CaseSpec) -> Dict:
    """Build and run one case; clean :class:`ReproError` rejections
    become a ``rejected`` payload, anything else propagates (crash)."""
    try:
        built = build_case(spec)
        return run_built_case(built)
    except ReproError as exc:
        return {
            "outcome": "rejected",
            "case_id": spec.case_id,
            "error_class": type(exc).__name__,
            "error": str(exc),
        }


def main() -> int:
    reader, out = claim_frame_channel()
    job = reader.recv_frame()
    if job is None:
        return 1  # the runner went away before sending the case
    send_frame(out, execute_spec(CaseSpec.from_json(job["spec"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
