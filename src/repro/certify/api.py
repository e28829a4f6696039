"""Emission and checking entry points.

Both ends rebuild a *fresh, plain* analysis context from the source
units: performance machinery is normalized away (no statement skipping,
no interning or closure memo, no supervisor budgets), while every
semantic knob (domains, thresholds, widening/unrolling strategy,
partitioning, input ranges, max_clock, packing) is kept verbatim — the
walker must traverse the same program under the same abstract semantics
the engine claims to have analyzed, but through none of the engine's
optimization layers.

Emission validates before it serializes: a certificate that this
module returns has already passed the exact checks the independent
checker will re-run, so "emitted but unverifiable" artifacts cannot
exist (an engine result that fails its own one-application replay
raises CertificateError — an honest "cannot certify" — instead).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..config import AnalyzerConfig, config_fingerprint
from ..errors import CertificateError, ReproError
from ..frontend import link_sources, source_digest
from ..iterator.state import (AnalysisContext, get_active_context,
                              set_active_context)
from .artifact import (CERT_FORMAT, CERT_VERSION, StateTable, decode_config,
                       decode_states, encode_config, encode_state,
                       load_certificate, payload_digest, validate_envelope)
from .walker import CertWalker

__all__ = ["CertificateCheck", "CertificationSummary", "build_certificate",
           "certify_result", "check_certificate"]

Sources = Sequence[Tuple[str, str]]


@dataclass
class CertificationSummary:
    """Outcome of a successful emission-side validation."""

    stmt_records: int
    loop_records: int
    substitutions: int
    claimed_alarms: int
    wall_s: float


@dataclass
class CertificateCheck:
    """Outcome of a successful independent check."""

    entry: str
    source_digest: str
    config_fingerprint: str
    stmts_checked: int
    loops_checked: int
    claimed_alarms: int
    replay_alarms: int
    wall_s: float

    @property
    def exit_code(self) -> int:
        """A valid certificate joins the CLI contract: 0 when the
        certified run proved every property, 1 when it carries alarms
        (invalid certificates never reach this — CertificateError maps
        to exit 3)."""
        return 1 if self.claimed_alarms else 0


def _normalize_sources(sources, filename: str) -> List[Tuple[str, str]]:
    if isinstance(sources, str):
        return [(filename, sources)]
    out = list(sources)
    if not out or not all(isinstance(n, str) and isinstance(t, str)
                          for n, t in out):
        raise CertificateError("sources must be C text or a list of "
                               "(filename, text) units")
    return out


def _plain_config(cfg: AnalyzerConfig) -> AnalyzerConfig:
    """Strip every performance/robustness layer; keep the semantics."""
    return cfg.with_overrides(
        trace=False, collect_invariants=False, certify=False,
        wall_deadline_s=None, rss_limit_kib=None, stmt_timeout_s=None,
        checkpoint_path=None, resume_path=None,
    )


@contextmanager
def _walk_globals():
    """Run a certificate walk with both sharing caches off (it never
    reads or fills a memo entry), then restore what it found: the
    active context and the caches' enablement."""
    from ..analysis import _configure_sharing

    prev_ctx = get_active_context()
    was_sharing = _configure_sharing(False)
    try:
        yield
    finally:
        set_active_context(prev_ctx)
        _configure_sharing(was_sharing)


def _fresh_context(sources: Sources, entry: str,
                   cfg: AnalyzerConfig) -> AnalysisContext:
    """Compile the certified sources into a brand-new plain context and
    install it as the process's active context (state blobs re-attach
    to it on decode).  Call it inside :func:`_walk_globals`."""
    try:
        prog = link_sources(list(sources), entry=entry)
    except ReproError as exc:
        raise CertificateError(
            f"cannot rebuild the certified program: {exc}")
    ctx = AnalysisContext.for_program(prog, cfg)
    set_active_context(ctx)
    return ctx


def _check_alarm_superset(claimed_keys: set, walker: CertWalker,
                          side: str) -> None:
    missing = walker.alarm_keys() - claimed_keys
    if missing:
        ex = sorted(missing)[0]
        raise CertificateError(
            f"{side}: claimed alarm set is not a superset of the "
            f"replay's alarms ({len(missing)} missing, e.g. statement "
            f"{ex[0]} kind {ex[1]}): alarms were dropped")


def _emit_walk(result, sources: Sources):
    """Shared emission path: round-trip the engine's loop records into a
    fresh plain context, run the emit walk, verify the alarm superset.
    Returns (walker, plain_cfg, claimed alarm key set, final state) with
    the fresh context still active — callers run it inside
    _walk_globals."""
    if result.degraded:
        raise CertificateError(
            "degraded runs cannot be certified: the degradation ladder "
            "changed the effective configuration mid-run")
    engine_cfg = result.ctx.config
    if not engine_cfg.certify:
        raise CertificateError(
            "analysis ran without certificate recording — re-run with "
            "certify enabled (--certify)")
    claimed_keys = {(a.sid, a.kind) for a in result.alarms}
    # Serialize under the engine context, decode under the fresh one:
    # exactly the round trip the independent checker performs.  One
    # table keeps the records' sharing, so ``used is pf`` survives.
    table = encode_state(
        st for _, pf, used in result.cert_invariants for st in (pf, used))
    plain = _plain_config(engine_cfg)
    ctx = _fresh_context(sources, result.ctx.prog.entry, plain)
    states = decode_states(table)
    engine_loops = [(sid, pf, used) for (sid, _, _), pf, used in zip(
        result.cert_invariants, states[0::2], states[1::2])]
    walker = CertWalker(ctx, "emit", engine_loops=engine_loops)
    final = walker.walk()
    _check_alarm_superset(claimed_keys, walker, "emission")
    return walker, plain, claimed_keys, final


def certify_result(result, sources, filename: str = "<input>",
                   ) -> CertificationSummary:
    """Validate an AnalysisResult by one-application replay without
    materializing the artifact (the serving layer's path: same checks
    as build_certificate, none of the serialization)."""
    t0 = time.perf_counter()
    sources = _normalize_sources(sources, filename)
    with _walk_globals():
        walker, _, claimed, _ = _emit_walk(result, sources)
    return CertificationSummary(
        stmt_records=len(walker.stmt_records),
        loop_records=len(walker.loop_records),
        substitutions=walker.substitutions,
        claimed_alarms=len(claimed),
        wall_s=time.perf_counter() - t0)


def build_certificate(result, sources, filename: str = "<input>") -> dict:
    """Package an AnalysisResult into a content-addressed certificate
    (validated during emission: the returned artifact passes
    check_certificate by construction)."""
    sources = _normalize_sources(sources, filename)
    with _walk_globals():
        walker, plain, claimed_keys, final = _emit_walk(result, sources)
        table = StateTable()
        stmt_records = [[sid, table.add(pre), table.add(post)]
                        for sid, pre, post in walker.stmt_records]
        loop_records = [[sid, table.add(inv)]
                        for sid, inv in walker.loop_records]
        final_id = table.add(final)
    alarms = sorted([a.sid, a.kind, a.loc.filename, a.loc.line, a.loc.col,
                     a.message] for a in result.alarms)
    payload = {
        "sources": [[n, t] for n, t in sources],
        "entry": result.ctx.prog.entry,
        "source_digest": source_digest(sources),
        "config": encode_config(plain),
        "config_fingerprint": config_fingerprint(plain),
        "states": encode_state(table.states),
        "stmt_records": stmt_records,
        "loop_records": loop_records,
        "alarms": alarms,
        "final": final_id,
        "meta": {
            "engine_config_fingerprint": config_fingerprint(
                result.ctx.config),
            "engine": {
                "cross_run_hits": int(result.cross_run_hits),
                "widening_iterations": int(result.widening_iterations),
            },
            "substitutions": walker.substitutions,
        },
    }
    return {"format": CERT_FORMAT, "version": CERT_VERSION,
            "digest": payload_digest(payload), "payload": payload}


def check_certificate(cert: Union[str, dict]) -> CertificateCheck:
    """Independently validate a certificate (a loaded dict or a file
    path): rebuild the program from the certified sources, decode the
    states, and re-apply every transfer function exactly once over the
    certified invariant map, verifying lattice containment throughout.
    Raises CertificateError on any failure; returns a CertificateCheck
    on success."""
    t0 = time.perf_counter()
    if isinstance(cert, str):
        cert = load_certificate(cert)
    payload = validate_envelope(cert)
    cfg = decode_config(payload["config"])
    if payload.get("config_fingerprint") != config_fingerprint(cfg):
        raise CertificateError(
            "certificate configuration fingerprint does not match this "
            "checker's: it was emitted under other analysis semantics "
            "(SEMANTICS_VERSION) or edited after emission")
    sources = [(n, t) for n, t in payload["sources"]]
    entry = payload["entry"]
    with _walk_globals():
        ctx = _fresh_context(sources, entry, cfg)
        walker = _check_walk(ctx, payload, decode_states(payload["states"]))
    return CertificateCheck(
        entry=entry,
        source_digest=payload["source_digest"],
        config_fingerprint=payload["config_fingerprint"],
        stmts_checked=len(walker.stmt_records),
        loops_checked=len(walker.loop_records),
        claimed_alarms=len(payload["alarms"]),
        replay_alarms=len(walker.alarms._alarms),
        wall_s=time.perf_counter() - t0)


def _check_walk(ctx: AnalysisContext, payload: dict,
                states: list) -> CertWalker:
    """Resolve the payload's records against the decoded state table
    and run the check walk in ``ctx``, then verify the final state and
    the claimed alarm superset.  Raises CertificateError on any
    failure; returns the walker."""

    def state(index):
        # ``type`` rather than isinstance, so ``True`` is no id; the
        # range check keeps ``-1`` from resolving to the last state.
        if type(index) is not int or not 0 <= index < len(states):
            raise CertificateError(
                f"certificate references unknown state id {index!r}")
        return states[index]

    try:
        stmt_records = [(int(sid), state(pre), state(post))
                        for sid, pre, post in payload["stmt_records"]]
        loop_records = [(int(sid), state(inv))
                        for sid, inv in payload["loop_records"]]
    except (TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate record: {exc}")
    walker = CertWalker(ctx, "check", stmt_records=stmt_records,
                        loop_records=loop_records)
    final = walker.walk()
    if not state(payload["final"]).includes(final):
        raise CertificateError(
            "certified final state does not contain the replay's "
            "final state")
    try:
        claimed_keys = {(int(a[0]), a[1]) for a in payload["alarms"]}
    except (TypeError, ValueError, IndexError) as exc:
        raise CertificateError(f"malformed certificate alarm: {exc}")
    _check_alarm_superset(claimed_keys, walker, "check")
    return walker
