"""Content-addressed keys for the cross-run caches.

Everything the serving layer stores is keyed by *content*, never by
process-local identity: statement ids come from a process-global
counter (two compilations of the same source in one daemon produce
different absolute sids), so every fingerprint here maps sids to
deterministic per-program ordinals first.

Three layers of keys, from coarse to fine:

* :func:`request_key` — source digest + entry + configuration
  fingerprint.  Indexes the exact-result store: two requests with equal
  keys have bit-identical results (the analyzer is deterministic).
* :func:`compat_fingerprint` — configuration fingerprint + the full
  cell-table/pack/filter-site layout.  Two runs with equal compat
  fingerprints agree on what every cell id, pack id and site id
  *means*, so abstract states may be exchanged between them.  This
  indexes the cross-run fixpoint journals: near-duplicate versions of
  one program (same declarations, edited statement constants) share a
  compat fingerprint.
* :func:`stmt_record_key` — one statement's transfer-function identity:
  stable ordinal, pretty-printed content including the bodies of every
  transitively called function, by-reference binding stack, and the
  resolved footprint slice.  A recorded (pre, post) pair is only ever
  replayed for a statement with an equal key, which pins the transfer
  semantics; the incremental engine's agreement check then validates
  the pre-state, making the splice exact (see
  repro.iterator.incremental).

The configuration fingerprint covers every knob that can change the
verdict (domains, thresholds, unrolling, ranges, partitioning) and
deliberately excludes the performance knob (incremental) and the
resource budgets: results are bit-identical across the former, and
budgets only decide whether a run *finishes* at full precision —
degraded runs are never cached (see repro.serve.cache), so budget
settings must not fragment the key space.  The supervisor's
degradation ladder mutates precision fields in place, hence a degraded
effective configuration always fingerprints differently from the
requested one.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SEMANTICS_VERSION

__all__ = ["compat_fingerprint", "config_fingerprint", "function_hashes",
           "request_key", "result_digest", "result_payload",
           "source_digest", "stable_ordinals", "stmt_content_hash",
           "stmt_record_key"]


def _sha(*chunks: str) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\x00")
    return h.hexdigest()


def source_digest(sources: Sequence[Tuple[str, str]]) -> str:
    """Digest of a list of (filename, text) translation units."""
    h = hashlib.sha256()
    for name, text in sources:
        h.update(name.encode())
        h.update(b"\x00")
        h.update(text.encode())
        h.update(b"\x00")
    return h.hexdigest()


# Performance/robustness knobs that cannot change a (non-degraded)
# verdict: excluded from the configuration fingerprint on purpose.
_NON_SEMANTIC_FIELDS = frozenset({
    "incremental", "wall_deadline_s", "rss_limit_kib", "stmt_timeout_s",
    "watchdog_interval_s", "checkpoint_path", "checkpoint_every",
    "resume_path", "checkpoint_halt_after", "certify",
})


def config_fingerprint(cfg) -> str:
    """Hash of every analysis-relevant configuration field (threshold
    *values* included — unlike the coarser checkpoint fingerprint, this
    key crosses runs and programs, so it cannot rely on a fixed
    in-process thresholds object).  Salted with ``SEMANTICS_VERSION``,
    so both keys built on it — :func:`request_key` and
    :func:`compat_fingerprint` — change with the analysis semantics."""
    import dataclasses

    items: List[Tuple[str, str]] = []
    for f in dataclasses.fields(cfg):
        if f.name in _NON_SEMANTIC_FIELDS:
            continue
        v = getattr(cfg, f.name)
        if f.name == "thresholds":
            v = None if v is None else tuple(v.values)
        elif isinstance(v, dict):
            v = tuple(sorted(v.items()))
        elif isinstance(v, (set, frozenset)):
            v = tuple(sorted(v))
        items.append((f.name, repr(v)))
    return _sha(str(SEMANTICS_VERSION), repr(sorted(items)))


def stable_ordinals(prog) -> Dict[int, int]:
    """sid -> deterministic per-program ordinal (depth-first over
    functions in sorted name order).  Stable across compilations of the
    same source in any process, unlike the process-global sid counter."""
    from ..frontend import ir as I

    out: Dict[int, int] = {}
    n = 0
    for name in sorted(prog.functions):
        fn = prog.functions[name]
        if not fn.body:
            continue
        for s in I.iter_stmts(fn.body):
            out[s.sid] = n
            n += 1
    return out


def function_hashes(prog) -> Dict[str, str]:
    """name -> content hash of the function body *including every
    transitively called function* (so a statement's content hash pins
    the semantics of calls it contains).  Cycles contribute by name
    only — recursive programs get coarser, still sound, keys."""
    from ..frontend import ir as I
    from ..frontend.pretty import format_function

    callees: Dict[str, List[str]] = {}
    for name, fn in prog.functions.items():
        if not fn.body:
            callees[name] = []
            continue
        callees[name] = sorted({
            s.func for s in I.iter_stmts(fn.body)
            if isinstance(s, I.SCall) and s.func in prog.functions})

    memo: Dict[str, str] = {}
    visiting: set = set()

    def h(name: str) -> str:
        cached = memo.get(name)
        if cached is not None:
            return cached
        if name in visiting:
            return _sha("cycle", name)
        visiting.add(name)
        fn = prog.functions.get(name)
        body = format_function(fn) if fn is not None and fn.body else name
        out = _sha(body, *[h(c) for c in callees.get(name, [])])
        visiting.discard(name)
        memo[name] = out
        return out

    for name in prog.functions:
        h(name)
    return memo


def stmt_content_hash(stmt, fn_hashes: Dict[str, str]) -> str:
    """Content hash of one statement subtree plus the transitive bodies
    of every function it may call."""
    from ..frontend import ir as I
    from ..frontend.pretty import format_stmts

    text = "\n".join(format_stmts([stmt]))
    calls = sorted({
        s.func for s in I.iter_stmts([stmt])
        if isinstance(s, I.SCall) and s.func in fn_hashes})
    return _sha(text, *[fn_hashes[c] for c in calls])


def stmt_record_key(ordinal: int, content_hash: str, frames_repr,
                    meta, site_consts: Tuple = ()) -> str:
    """The journal key of one statement's (pre, post) records: pins
    position, content (callees included), by-reference bindings, and
    the resolved footprint slice (cell/pack/site ids).

    ``site_consts`` carries the (a, b) filter coefficients of every
    site in the footprint: ellipsoid *reduction* on a read uses them
    without the statement's text mentioning them, so the content hash
    alone would not notice a coefficient edit."""
    return _sha(repr((ordinal, content_hash, frames_repr, meta.cells,
                      meta.write_cells, meta.packs, meta.write_packs,
                      meta.bpacks, meta.write_bpacks, meta.sites,
                      site_consts, meta.clock_dep)))


def compat_fingerprint(ctx) -> str:
    """Hash of everything cross-run abstract states are keyed against:
    the analysis-relevant configuration and the complete cell-table /
    octagon-pack / boolean-pack / filter-site layout.  Runs with equal
    compat fingerprints may exchange (pre, post) state records."""
    ordinals = stable_ordinals(ctx.prog)
    cells = [(c.cid, c.name, repr(c.ctype), c.var_uid, c.volatile,
              c.summarized) for c in ctx.table.all_cells()]
    opacks = [(p.pack_id, p.cids) for p in ctx.oct_packs.packs]
    bpacks = [(p.pack_id, p.bool_cids, p.numeric_cids)
              for p in ctx.bool_packs.packs]
    # Layout only, deliberately NOT the filter coefficients a/b: those
    # are transfer-function constants, and every statement whose
    # semantics depend on them contains them in its (transitive)
    # content hash — stmt_record_key already refuses such donors.
    # Keeping them out lets coefficient-tuning edits (the common
    # near-duplicate case) stay journal-compatible.
    sites = [(s.site_id, s.x_cid, s.y_cid, s.t_cid,
              ordinals.get(s.rotate_sid, -1), ordinals.get(s.shift_sid, -1),
              ordinals.get(s.commit_sid, -1))
             for s in ctx.filter_sites.sites]
    return _sha(config_fingerprint(ctx.config), repr(cells), repr(opacks),
                repr(bpacks), repr(sites))


def request_key(src_digest: str, entry: str, cfg) -> str:
    """The exact-result cache key of one analysis request."""
    return _sha(src_digest, entry, config_fingerprint(cfg))


# -- result payloads and the determinism digest ------------------------------


def result_payload(result) -> Dict[str, object]:
    """The JSON-safe result of one analysis request, as stored in the
    exact-result cache and returned to clients.

    Alarms are reported without their per-compile statement ids (sids
    are process-local; everything else about an alarm is stable), so
    the payload — and therefore the digest below — is comparable across
    runs and daemon restarts."""
    import dataclasses

    stats = result.invariant_stats()
    payload: Dict[str, object] = {
        "alarms": [
            {"kind": a.kind, "file": a.loc.filename, "line": a.loc.line,
             "col": a.loc.col, "message": a.message}
            for a in result.alarms
        ],
        "alarm_count": result.alarm_count,
        "exit_code": result.exit_code,
        "degraded": result.degraded,
        "degradation_steps": list(result.degradation_steps),
        "widening_iterations": result.widening_iterations,
        "invariant_stats": dataclasses.asdict(stats),
        # Performance counters: informative, excluded from the digest
        # (a warm run legitimately executes fewer statements).
        "analysis_time_s": result.analysis_time,
        "phase_times_s": dict(result.phase_times),
        "stmts_executed": result.stmts_executed,
        "stmts_skipped": result.stmts_skipped,
        "cross_run_seeded": result.cross_run_seeded,
        "cross_run_hits": result.cross_run_hits,
        "cross_run_spliced": result.cross_run_spliced,
        "octagon_packs": result.octagon_pack_count,
        "bool_packs": result.bool_pack_count,
        "filter_sites": result.filter_site_count,
    }
    if result.loop_invariants:
        payload["invariant_dump"] = result.dump_invariant_text()
    return payload


# The semantic slice of a result payload: what the determinism contract
# promises to be bit-identical between a cache-served and a cold run.
_DIGEST_FIELDS = ("alarms", "alarm_count", "exit_code", "degraded",
                  "degradation_steps", "widening_iterations",
                  "invariant_stats", "invariant_dump")


def result_digest(payload: Dict[str, object]) -> str:
    """Canonical digest of the semantic result fields (alarms, exit
    code, invariant statistics, widening iterations — never timings or
    execution counters)."""
    sem = {k: payload[k] for k in _DIGEST_FIELDS if k in payload}
    return hashlib.sha256(
        json.dumps(sem, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
