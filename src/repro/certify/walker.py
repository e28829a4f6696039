"""The certificate walker: one-application replay of the checking pass.

:class:`CertWalker` subclasses the iterator but never iterates: its
``_exec_loop`` override replaces every widening/narrowing fixpoint with
a *certified invariant* that is verified by exactly one body
application (which doubles as the alarm-collecting checking pass), and
its ``exec_stmt`` override records — or, in check mode, verifies —
(pre, post) pairs for every atomic statement.  Everything else
(guards, branch joins, call inlining, trace partitioning) is the
inherited structural traversal, driven by the transfer functions
directly: the walker runs on a performance-normalized configuration
(no incremental engine, no sharing caches), so the only trusted code
is the domains' ``transfer``/``includes`` and this file's ~200 lines.

Two modes over one traversal:

* **emit** consumes the engine's per-loop-occurrence records
  ``(ordinal, pre-narrowing post-fixpoint, checking-pass invariant)``
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

from typing import Dict, List, Optional, Tuple

from ..errors import CertificateError
from ..frontend import ir as I
from ..iterator.iterator import Flow, Iterator, _join_opt, _join_opt_val
from ..iterator.state import AbstractState, AnalysisContext
from ..serve.fingerprints import stable_ordinals

__all__ = ["CertWalker"]

#: State-to-state statements whose single transfer application is
#: recorded/verified as an (ordinal, pre, post) certificate record.
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
        self._ordinals: Dict[int, int] = stable_ordinals(ctx.prog)
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
        """The replay's alarms as engine-independent (ordinal, kind)
        pairs (alarms at synthetic sids map to -1, consistently with
        the emitter's claimed-alarm encoding)."""
        return {(self._ordinals.get(a.sid, -1), a.kind)
                for a in self.alarms._alarms}

    def _ord(self, sid: int) -> int:
        return self._ordinals[sid]

    # -- atomic statements ---------------------------------------------------

    def exec_stmt(self, state: AbstractState, s: I.Stmt) -> Flow:
        if state.is_bottom or not isinstance(s, _ATOMIC):
            return super().exec_stmt(state, s)
        if self.mode == "emit":
            flow = super().exec_stmt(state, s)
            self.stmt_records.append((self._ord(s.sid), state, flow.normal))
            return flow
        ordv = self._ord(s.sid)
        if self._stmt_cursor >= len(self.stmt_records):
            raise CertificateError(
                f"{s.loc}: certificate ran out of statement records at "
                f"ordinal {ordv}: truncated or mismatched artifact")
        rec_ord, pre, post = self.stmt_records[self._stmt_cursor]
        self._stmt_cursor += 1
        if rec_ord != ordv:
            raise CertificateError(
                f"{s.loc}: certificate record ordinal {rec_ord} does not "
                f"match traversal ordinal {ordv}: reordered or mismatched "
                f"artifact")
        if not pre.includes(state):
            raise CertificateError(
                f"{s.loc}: incoming state is not contained in the "
                f"certified pre-state (ordinal {ordv})")
        flow = super().exec_stmt(pre, s)
        if not post.includes(flow.normal):
            raise CertificateError(
                f"{s.loc}: transfer function applied to the certified "
                f"pre-state escapes the certified post-state (ordinal "
                f"{ordv}): F(pre) ⊑ post fails")
        # Continue from the certified post, so every downstream check is
        # local to its own record.
        return Flow(normal=post)

    # -- loops ---------------------------------------------------------------

    def _exec_loop(self, state: AbstractState, s: I.SWhile) -> Flow:
        # Structural clone of Iterator._exec_loop with the fixpoint
        # replaced by the certified invariant; the unroll prefix runs
        # through the normal (recording/checking) traversal.
        exits: Optional[AbstractState] = None
        ret: Optional[AbstractState] = None
        ret_val = None
        cur = state
        if s.run_body_first:
            cur, brk, r, rv = self._exec_body_once(cur, s)
            exits = _join_opt(exits, brk)
            ret = _join_opt(ret, r)
            ret_val = _join_opt_val(ret_val, rv)
        unroll = self.cfg.loop_unroll.get(s.loop_id, self.cfg.default_unroll)
        for _ in range(unroll):
            if cur.is_bottom:
                break
            exits = _join_opt(exits, self.guards.guard(cur, s.cond, False,
                                                       s.sid, s.loc))
            body_in = self.guards.guard(cur, s.cond, True, s.sid, s.loc)
            if body_in.is_bottom:
                cur = body_in
                break
            cur, brk, r, rv = self._exec_body_once(body_in, s)
            exits = _join_opt(exits, brk)
            ret = _join_opt(ret, r)
            ret_val = _join_opt_val(ret_val, rv)
        inv, pieces = self._certified_invariant(cur, s)
        exit_state, r, rv = pieces
        exits = _join_opt(exits, exit_state)
        ret = _join_opt(ret, r)
        ret_val = _join_opt_val(ret_val, rv)
        normal = exits if exits is not None else state.to_bottom()
        return Flow(normal=normal, ret=ret, ret_val=ret_val)

    def _certified_invariant(self, cur: AbstractState, s: I.SWhile):
        ordv = self._ord(s.sid)
        if self.mode == "emit":
            if self._engine_cursor >= len(self._engine_loops):
                raise CertificateError(
                    f"{s.loc}: no engine record for this loop occurrence "
                    f"(ordinal {ordv}) — was the analysis run with "
                    f"certificate recording (config.certify) enabled?")
            rec_ord, pf, used = self._engine_loops[self._engine_cursor]
            self._engine_cursor += 1
            if rec_ord != ordv:
                raise CertificateError(
                    f"{s.loc}: engine record ordinal {rec_ord} does not "
                    f"match traversal ordinal {ordv}")
            candidates = [used] if used is pf else [used, pf]
            for i, inv in enumerate(candidates):
                mark = self._mark()
                # Appended *before* the body application: the checker
                # consumes the loop record ahead of the nested records
                # its verification pass produces.
                self.loop_records.append((ordv, inv))
                pieces = self._one_application(cur, s, inv)
                if pieces is not None:
                    if i > 0:
                        self.substitutions += 1
                    return inv, pieces
                self._rollback(mark)
            raise CertificateError(
                f"{s.loc}: cannot certify loop (ordinal {ordv}): neither "
                f"the checking-pass invariant nor the pre-narrowing "
                f"post-fixpoint is stable under one body application")
        if self._loop_cursor >= len(self.loop_records):
            raise CertificateError(
                f"{s.loc}: certificate ran out of loop records at ordinal "
                f"{ordv}: truncated or mismatched artifact")
        rec_ord, inv = self.loop_records[self._loop_cursor]
        self._loop_cursor += 1
        if rec_ord != ordv:
            raise CertificateError(
                f"{s.loc}: certificate loop record ordinal {rec_ord} does "
                f"not match traversal ordinal {ordv}")
        pieces = self._one_application(cur, s, inv, strict=True)
        return inv, pieces

    def _one_application(self, cur: AbstractState, s: I.SWhile,
                         inv: AbstractState, strict: bool = False):
        """Verify ``cur ⊑ inv`` and ``cur ∪ F(inv) ⊑ inv`` with one body
        application (alarms collected along the way), returning the
        loop's (exit_state, ret, ret_val) contributions — or None on
        failure when not strict."""
        ordv = self._ord(s.sid)
        if not inv.includes(cur):
            if strict:
                raise CertificateError(
                    f"{s.loc}: loop entry state is not contained in the "
                    f"certified invariant (ordinal {ordv})")
            return None
        exit_state = self.guards.guard(inv, s.cond, False, s.sid, s.loc)
        body_in = self.guards.guard(inv, s.cond, True, s.sid, s.loc)
        after = None
        brk = r = rv = None
        if not body_in.is_bottom:
            after, brk, r, rv = self._exec_body_once(body_in, s)
        target = cur if after is None else cur.join(after)
        if not inv.includes(target):
            if strict:
                raise CertificateError(
                    f"{s.loc}: certified loop invariant (ordinal {ordv}) "
                    f"is not a post-fixpoint: entry ∪ F(inv) ⊑ inv fails")
            return None
        return (_join_opt(exit_state, brk), r, rv)

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
