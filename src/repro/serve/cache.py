"""The cross-run fixpoint cache and the warm frontend cache.

:class:`CrossRunCache` extends the intra-run incremental engine
(repro.iterator.incremental) across runs.  Intra-run, every statement
keeps one record of its last execution — the footprint slice of its
(pre, post) states (repro.iterator.incremental.slim_pair) — and is
spliced whenever its incoming state agrees with the record.  Cross-run,
one run additionally *journals* each statement's records in order — one
entry per execution or donor splice — and a later run of a
near-duplicate program replays that journal as donor records:
at each occurrence of a statement whose record key matches (content,
bindings and footprint identical — see
repro.serve.fingerprints.stmt_record_key), the donor records around the
trajectory cursor are checked with the agreement test the intra-run
engine uses, and on agreement they are spliced by the same patch.

Bit-identity argument: a donor record is a true (pre, post) slice of a
statement with an equal record key under an equal compat fingerprint,
i.e. of the *same transfer function*.  The agreement check accepts only
when the incoming state coincides with the recorded pre on the
statement's entire footprint slice, and the splice patches exactly the
footprint's write set — the same two operations, on the same record
shape, whose exactness the intra-run engine's soundness argument
establishes.  Which run the record was made in is therefore irrelevant:
a warm run computes bit-identical states, alarms and iteration counts
to a cold one, it just re-executes less.

Journals are never harvested from degraded runs (the ladder mutates the
effective configuration mid-run, so recorded pairs would mix transfer
semantics; the compat fingerprint of the degraded configuration also
differs from the requested one, so a degraded journal could never be
*served* to a full-precision request either way).
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..iterator.state import compat_fingerprint
from .fingerprints import (function_hashes, stmt_content_hash,
                           stmt_record_key)

__all__ = ["CrossRunCache", "FrontendCache"]

# Journal caps: records kept per statement key and per run.
MAX_PAIRS_PER_KEY = 128
MAX_TOTAL_PAIRS = 250_000

# Salts the journal store key; bumped whenever the pickled records
# change shape, so journals an older analyzer wrote are never decoded
# (the run starts its journal cold instead).
JOURNAL_VERSION = 2


class CrossRunCache:
    """One run's view of the cross-run fixpoint cache: donor journal in
    (from the previous run with the same compat fingerprint), fresh
    journal out.  Handed to :func:`repro.analysis.analyze_program` and
    consulted by the incremental sequence executors."""

    def __init__(self, journal_store=None, donor_bytes: Optional[bytes] = None,
                 harvest: bool = True):
        self.journal_store = journal_store
        self._donor_bytes = donor_bytes
        # key -> statement records (repro.iterator.incremental.slim_pair).
        self.donor: Dict[str, List[Tuple]] = {}
        self.journal: Optional[Dict[str, List[Tuple]]] = (
            {} if harvest else None)
        # Identity of the run this cache is attached to.
        self.ctx = None
        self.journal_key: Optional[str] = None
        self._gen0 = 0
        self.fn_hashes: Dict[str, str] = {}
        self._content_memo: Dict[int, str] = {}
        # Counters (surfaced via AnalysisResult and the daemon stats).
        self.seeded = 0          # statements that received donor pairs
        self.total_pairs = 0     # journal pairs recorded

    # -- lifecycle -----------------------------------------------------------

    def attach(self, ctx) -> None:
        """Bind to a built AnalysisContext: compute the keys and load
        the donor journal for this compat fingerprint.  Journals
        hold slim footprint slices of context-free values, so unpickling
        needs no live context."""
        self.ctx = ctx
        self._gen0 = ctx.config_generation
        self.journal_key = hashlib.sha256(
            f"{JOURNAL_VERSION}:{compat_fingerprint(ctx)}".encode()
        ).hexdigest()
        self.fn_hashes = function_hashes(ctx.prog)
        self._content_memo = {}
        raw = self._donor_bytes
        if raw is None and self.journal_store is not None:
            raw = self.journal_store.get(self.journal_key)
        if raw:
            try:
                donor = pickle.loads(raw)
            except Exception:
                donor = {}  # a corrupt journal is a cold start, not an error
            if isinstance(donor, dict):
                self.donor = donor

    def active_for(self, it) -> bool:
        """True while the attached run's effective configuration is the
        one the keys were computed against (the degradation ladder bumps
        config_generation, after which donor pairs are stale and the
        journal is abandoned)."""
        return (self.ctx is it.ctx
                and it.ctx.config_generation == self._gen0)

    # -- keys ----------------------------------------------------------------

    def stmt_key(self, meta, frames_repr) -> str:
        sid = meta.stmt.sid
        ch = self._content_memo.get(sid)
        if ch is None:
            ch = stmt_content_hash(meta.stmt, self.fn_hashes)
            self._content_memo[sid] = ch
        site = self.ctx.filter_sites.site
        site_consts = tuple(
            (s, site(s).a, site(s).b) for s in meta.sites)
        return stmt_record_key(sid, ch, frames_repr, meta, site_consts)

    def donor_pairs(self, key: str):
        return self.donor.get(key)

    # -- journaling ----------------------------------------------------------

    def record(self, key: str, rec: Tuple) -> None:
        """Journal one statement record, made by an execution or adopted
        from a donor, within the per-key and total caps."""
        j = self.journal
        if j is None or self.total_pairs >= MAX_TOTAL_PAIRS:
            return
        lst = j.setdefault(key, [])
        if len(lst) < MAX_PAIRS_PER_KEY:
            lst.append(rec)
            self.total_pairs += 1

    # -- harvest -------------------------------------------------------------

    def harvest_bytes(self, result) -> Optional[bytes]:
        """The pickled journal of this run, or None when the run is
        ineligible (degraded, configuration mutated mid-run, or nothing
        was journaled)."""
        if (self.journal is None or not self.journal or result.degraded
                or self.ctx is None
                or self.ctx.config_generation != self._gen0):
            return None
        return pickle.dumps(self.journal, protocol=pickle.HIGHEST_PROTOCOL)

    def store_harvest(self, result) -> bool:
        """Harvest and persist through the journal store; returns
        whether a journal was written."""
        if self.journal_store is None or self.journal_key is None:
            return False
        data = self.harvest_bytes(result)
        if data is None:
            return False
        self.journal_store.put(self.journal_key, data)
        return True


class FrontendCache:
    """Bounded in-memory cache of parsed+lowered IR programs, keyed by
    (source digest, entry): a repeat request skips the whole frontend."""

    def __init__(self, max_entries: int = 32):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, src_digest: str, entry: str):
        key = (src_digest, entry)
        prog = self._entries.get(key)
        if prog is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return prog

    def put(self, src_digest: str, entry: str, prog) -> None:
        self._entries[(src_digest, entry)] = prog
        self._entries.move_to_end((src_digest, entry))
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}
