"""The certificate walker: one-application replay of the checking pass.

:class:`CertWalker` subclasses the iterator but never iterates: its
``_invariant_pass`` override replaces every widening/narrowing fixpoint
with a *certified invariant* that is verified by exactly one pass from
it (which doubles as the alarm-collecting checking pass), and its
``exec_stmt`` override records — or, in check mode, verifies — (pre,
post) pairs for every atomic statement.  Everything else is the
inherited structural traversal: guards, branch joins, call inlining,
trace partitioning, and the loop driver ``Iterator._exec_loop`` with
its do-while first run, unrolled prefix and the one-pass method
``_loop_pass`` that both the engine's final pass and the certified
pass run.  The traversal is driven by the transfer functions directly:
the walker runs on a performance-normalized configuration (no
statement skipping, no sharing caches), so the only trusted code is
the domains' ``transfer``/``includes``, the iterator's structural
traversal and this file's ~200 lines.

Two modes over one traversal:

* **emit** consumes the engine's per-loop-occurrence records
  ``(sid, pre-narrowing post-fixpoint, checking-pass invariant)``
  in traversal order.  For each loop it first tries the checking-pass
  (narrowed) invariant; narrowing only *usually* lands on a
  one-application-stable element, so on a stability failure the trial
  is rolled back (records, alarms, cursors) and the pre-narrowing
  post-fixpoint — which passed the engine's exact ``inv ⊒ entry ∪
  F(inv)`` widening exit check and is therefore always re-verifiable —
  is substituted.  If neither candidate verifies, emission fails
  (honest "cannot certify") rather than emitting an unprovable claim.

* **check** consumes the artifact's statement and loop records at the
  same traversal positions and verifies, locally, ``own ⊑ pre``,
  ``F(pre) ⊑ post`` and loop-head stability — so a spliced stale post
  or a widened-away bound is caught at the exact record it corrupts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import CertificateError
from ..frontend import ir as I
from ..iterator.iterator import Flow, Iterator
from ..iterator.state import AbstractState, AnalysisContext

__all__ = ["CertWalker"]

#: State-to-state statements whose single transfer application is
#: recorded/verified as an (sid, pre, post) certificate record.
#: Control flow (if/while/switch/call/return/break/continue) is
#: traversed structurally instead.
_ATOMIC = (I.SAssign, I.SAssume, I.SCheck, I.SWait, I.SNop)


class CertWalker(Iterator):
    """One checking-mode traversal that emits or checks a certificate."""

    def __init__(self, ctx: AnalysisContext, mode: str,
                 engine_loops: Optional[List[Tuple[int, AbstractState,
                                                   AbstractState]]] = None,
                 stmt_records: Optional[List[Tuple[int, AbstractState,
                                                   AbstractState]]] = None,
                 loop_records: Optional[List[Tuple[int,
                                                   AbstractState]]] = None):
        super().__init__(ctx)
        assert mode in ("emit", "check")
        self.mode = mode
        # Emission input: the engine's loop-occurrence records.
        self._engine_loops = engine_loops if engine_loops is not None else []
        self._engine_cursor = 0
        # Emission output / check input.
        self.stmt_records = stmt_records if stmt_records is not None else []
        self._stmt_cursor = 0
        self.loop_records = loop_records if loop_records is not None else []
        self._loop_cursor = 0
        # How many loop occurrences needed the pre-narrowing fallback.
        self.substitutions = 0

    # -- entry ---------------------------------------------------------------

    def walk(self) -> AbstractState:
        """Run the full traversal; returns the walker's final state.
        Raises CertificateError on any validation failure, and on
        leftover records (a truncation that drops trailing records
        must not validate)."""
        final = self.run(checking=True)
        if self.mode == "emit":
            if self._engine_cursor != len(self._engine_loops):
                raise CertificateError(
                    f"emission desynchronized: the engine recorded "
                    f"{len(self._engine_loops)} loop occurrences but the "
                    f"replay consumed {self._engine_cursor}")
        else:
            left = ((len(self.stmt_records) - self._stmt_cursor)
                    + (len(self.loop_records) - self._loop_cursor))
            if left:
                raise CertificateError(
                    f"certificate has {left} record(s) the traversal "
                    f"never reached: the artifact does not describe "
                    f"this program/configuration")
        return final

    def alarm_keys(self) -> set:
        """The replay's alarms as (sid, kind) pairs, the emitter's
        claimed-alarm encoding."""
        return {(a.sid, a.kind) for a in self.alarms._alarms}

    # -- atomic statements ---------------------------------------------------

    def exec_stmt(self, state: AbstractState, s: I.Stmt) -> Flow:
        if state.is_bottom or not isinstance(s, _ATOMIC):
            return super().exec_stmt(state, s)
        if self.mode == "emit":
            flow = super().exec_stmt(state, s)
            self.stmt_records.append((s.sid, state, flow.normal))
            return flow
        if self._stmt_cursor >= len(self.stmt_records):
            raise CertificateError(
                f"{s.loc}: certificate ran out of statement records at "
                f"statement {s.sid}: truncated or mismatched artifact")
        rec_sid, pre, post = self.stmt_records[self._stmt_cursor]
        self._stmt_cursor += 1
        if rec_sid != s.sid:
            raise CertificateError(
                f"{s.loc}: certificate record for statement {rec_sid} "
                f"does not match traversal statement {s.sid}: reordered "
                f"or mismatched artifact")
        if not pre.includes(state):
            raise CertificateError(
                f"{s.loc}: incoming state is not contained in the "
                f"certified pre-state (statement {s.sid})")
        flow = super().exec_stmt(pre, s)
        if not post.includes(flow.normal):
            raise CertificateError(
                f"{s.loc}: transfer function applied to the certified "
                f"pre-state escapes the certified post-state (statement "
                f"{s.sid}): F(pre) ⊑ post fails")
        # Continue from the certified post, so every downstream check is
        # local to its own record.
        return Flow(normal=post)

    # -- loops ---------------------------------------------------------------

    def _invariant_pass(self, acc: Flow, s: I.SWhile) -> Flow:
        # The inherited _exec_loop runs the do-while first run and the
        # unrolled prefix through the normal (recording/checking)
        # traversal; only the fixpoint is replaced, by the certified
        # invariant's one verifying pass.
        return acc.then(self._certified_pass(acc.normal, s))

    def _certified_pass(self, cur: AbstractState, s: I.SWhile) -> Flow:
        if self.mode == "emit":
            if self._engine_cursor >= len(self._engine_loops):
                raise CertificateError(
                    f"{s.loc}: no engine record for this loop occurrence "
                    f"(statement {s.sid}) — was the analysis run with "
                    f"certificate recording (config.certify) enabled?")
            rec_sid, pf, used = self._engine_loops[self._engine_cursor]
            self._engine_cursor += 1
            if rec_sid != s.sid:
                raise CertificateError(
                    f"{s.loc}: engine record for statement {rec_sid} does "
                    f"not match traversal statement {s.sid}")
            candidates = [used] if used is pf else [used, pf]
            for i, inv in enumerate(candidates):
                mark = self._mark()
                # Appended *before* the body application: the checker
                # consumes the loop record ahead of the nested records
                # its verification pass produces.
                self.loop_records.append((s.sid, inv))
                piece = self._one_application(cur, s, inv)
                if piece is not None:
                    if i > 0:
                        self.substitutions += 1
                    return piece
                self._rollback(mark)
            raise CertificateError(
                f"{s.loc}: cannot certify loop (statement {s.sid}): "
                f"neither the checking-pass invariant nor the "
                f"pre-narrowing post-fixpoint is stable under one body "
                f"application")
        if self._loop_cursor >= len(self.loop_records):
            raise CertificateError(
                f"{s.loc}: certificate ran out of loop records at "
                f"statement {s.sid}: truncated or mismatched artifact")
        rec_sid, inv = self.loop_records[self._loop_cursor]
        self._loop_cursor += 1
        if rec_sid != s.sid:
            raise CertificateError(
                f"{s.loc}: certificate loop record for statement "
                f"{rec_sid} does not match traversal statement {s.sid}")
        return self._one_application(cur, s, inv, strict=True)

    def _one_application(self, cur: AbstractState, s: I.SWhile,
                         inv: AbstractState,
                         strict: bool = False) -> Optional[Flow]:
        """Verify ``cur ⊑ inv`` and ``cur ∪ F(inv) ⊑ inv`` with one pass
        from the invariant (alarms collected along the way), returning
        that pass's flow (exits in ``brk``) — or None on failure when
        not strict."""
        if not inv.includes(cur):
            if strict:
                raise CertificateError(
                    f"{s.loc}: loop entry state is not contained in the "
                    f"certified invariant (statement {s.sid})")
            return None
        piece = self._loop_pass(inv, s)
        if not inv.includes(cur.join(piece.normal)):
            if strict:
                raise CertificateError(
                    f"{s.loc}: certified loop invariant (statement "
                    f"{s.sid}) is not a post-fixpoint: entry ∪ F(inv) ⊑ "
                    f"inv fails")
            return None
        return piece

    # -- emission rollback ---------------------------------------------------

    def _mark(self):
        a = self.alarms
        return (len(self.stmt_records), len(self.loop_records),
                self._engine_cursor, len(a._alarms), set(a._seen))

    def _rollback(self, mark) -> None:
        ns, nl, ec, na, seen = mark
        del self.stmt_records[ns:]
        del self.loop_records[nl:]
        self._engine_cursor = ec
        del self.alarms._alarms[na:]
        self.alarms._seen = seen
