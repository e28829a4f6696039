"""Content-addressed keys for the cross-run caches.

Everything the serving layer stores is keyed by *content* and by
per-program ids (statement, cell, pack and site ids), which every
compilation of one program assigns alike.

Three layers of keys, from coarse to fine:

* :func:`request_key` — source digest + entry + configuration
  fingerprint.  Indexes the exact-result store: two requests with equal
  keys have bit-identical results (the analyzer is deterministic).
* :func:`repro.iterator.state.compat_fingerprint` — configuration
  fingerprint + the full cell-table/pack/filter-site layout.  Two runs
  with equal compat fingerprints agree on what every cell id, pack id
  and site id *means*, so abstract states may be exchanged between
  them.  This indexes the cross-run fixpoint journals: near-duplicate
  versions of one program (same declarations, edited statement
  constants) share a compat fingerprint.  It lives with the analysis
  context because checkpoints are keyed against it too.
* :func:`stmt_record_key` — one statement's transfer-function identity:
  statement id, pretty-printed content including the bodies of every
  transitively called function, by-reference binding stack, and the
  resolved footprint slice.  A recorded (pre, post) pair is only ever
  replayed for a statement with an equal key, which pins the transfer
  semantics; the incremental engine's agreement check then validates
  the pre-state, making the splice exact (see
  repro.iterator.incremental).

The configuration fingerprint (:func:`repro.config.config_fingerprint`)
covers every knob that can change the verdict and excludes the
observation knobs and the resource budgets: degraded runs are never
cached (see repro.serve.cache), so budget settings must not fragment
the key space.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

from ..config import config_fingerprint

__all__ = ["function_hashes", "request_key", "result_digest",
           "stmt_content_hash", "stmt_record_key"]


def _sha(*chunks: str) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\x00")
    return h.hexdigest()


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


def stmt_record_key(sid: int, content_hash: str, frames_repr,
                    meta, site_consts: Tuple = ()) -> str:
    """The journal key of one statement's (pre, post) records: pins
    position, content (callees included), by-reference bindings, and
    the resolved footprint slice (cell/pack/site ids).

    ``site_consts`` carries the (a, b) filter coefficients of every
    site in the footprint: ellipsoid *reduction* on a read uses them
    without the statement's text mentioning them, so the content hash
    alone would not notice a coefficient edit."""
    return _sha(repr((sid, content_hash, frames_repr, meta.cells,
                      meta.write_cells, meta.packs, meta.write_packs,
                      meta.bpacks, meta.write_bpacks, meta.sites,
                      site_consts, meta.clock_dep)))


def request_key(src_digest: str, entry: str, cfg) -> str:
    """The exact-result cache key of one analysis request."""
    return _sha(src_digest, entry, config_fingerprint(cfg))


# -- the determinism digest ---------------------------------------------------


# The semantic slice of a result record (AnalysisResult.to_json()): what
# the determinism contract promises to be bit-identical between a
# cache-served and a cold run.
_DIGEST_FIELDS = ("alarms", "alarm_count", "exit_code", "degraded",
                  "degradation_steps", "widening_iterations",
                  "invariant_stats", "invariant_dump")


def result_digest(record: Dict[str, object]) -> str:
    """Canonical digest of the semantic result fields (alarms, exit
    code, invariant statistics, widening iterations — never timings or
    execution counters)."""
    sem = {k: record[k] for k in _DIGEST_FIELDS if k in record}
    return hashlib.sha256(
        json.dumps(sem, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
