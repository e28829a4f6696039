"""Top-level analysis API.

:func:`analyze` runs the full pipeline of Sect. 5 on C source text or a
lowered IR program: preprocessing/parsing/lowering (frontend), cell layout
(memory domain), pack computation (Sect. 7.2), then abstract execution in
iteration mode followed by checking mode, returning an
:class:`AnalysisResult` with the alarms, invariant statistics and packing
feedback (the useful-pack list of Sect. 7.2.2).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .config import AnalyzerConfig
from .frontend import compile_source, link_sources
from .frontend.ir import IRProgram
from .iterator.alarms import Alarm, AlarmCollector
from .iterator.iterator import Iterator
from .iterator.state import AbstractState, AnalysisContext
from .numeric import IntInterval
from .supervisor import IncidentLog, Supervisor
from .supervisor.budget import peak_rss_self_kib
from .supervisor.incidents import Incident

__all__ = ["analyze", "analyze_program", "AnalysisResult", "InvariantStats"]


@dataclass
class InvariantStats:
    """Counts of assertion kinds in the main loop invariant (the dump of
    Sect. 9.4.1: boolean intervals, intervals, clock, octagonal, decision
    trees, ellipsoids)."""

    boolean_interval_assertions: int = 0
    interval_assertions: int = 0
    clock_assertions: int = 0
    octagonal_additive_assertions: int = 0
    octagonal_subtractive_assertions: int = 0
    decision_trees: int = 0
    ellipsoidal_assertions: int = 0

    def total(self) -> int:
        return (self.boolean_interval_assertions + self.interval_assertions
                + self.clock_assertions + self.octagonal_additive_assertions
                + self.octagonal_subtractive_assertions + self.decision_trees
                + self.ellipsoidal_assertions)


@dataclass
class AnalysisResult:
    alarms: List[Alarm]
    analysis_time: float
    ctx: AnalysisContext
    final_state: AbstractState
    widening_iterations: int
    # Packing feedback (Sect. 7.2.2): keys of packs that improved precision.
    useful_octagon_packs: FrozenSet[Tuple[int, ...]]
    octagon_pack_count: int
    octagon_pack_avg_size: float
    bool_pack_count: int
    useful_bool_pack_count: int
    filter_site_count: int
    loop_invariants: Dict[int, AbstractState] = field(default_factory=dict)
    # Certificate records (repro.certify, populated under
    # config.certify): per loop occurrence of the checking-mode
    # traversal, in traversal order, the (statement id, pre-narrowing
    # post-fixpoint, checking-pass invariant) triple the certificate
    # emitter packages for independent validation.
    cert_invariants: List[Tuple[int, AbstractState, AbstractState]] = \
        field(default_factory=list)
    # sid -> abstract visit count (only populated when config.trace is on).
    visit_counts: Dict[int, int] = field(default_factory=dict)
    # Per-phase wall time: parse, packing, iteration, checking (Fig. 2's
    # measurement axes).
    phase_times: Dict[str, float] = field(default_factory=dict)
    # Peak resident set size of the analyzer process in KiB, 0 if the
    # resource module is unavailable.
    peak_rss_kib: int = 0
    # Statement-skipping feedback (repro.iterator.incremental):
    # statement executions performed vs spliced from memoized records
    # (skips are weighted by footprint span).  A traced run executes
    # every statement, so its stmts_skipped is 0.
    stmts_executed: int = 0
    stmts_skipped: int = 0
    # Always zero: the cost ledger's traced runs read these five by
    # name (benchmarks/ledger/trace.py, RESULT_COUNTERS).  Nothing sets
    # or renders them.
    lattice_memo_hits: int = 0
    lattice_memo_misses: int = 0
    vector_batches: int = 0
    vector_cells: int = 0
    vector_scalar_fallbacks: int = 0
    # Cross-run fixpoint cache feedback (repro.serve.cache): statements
    # seeded with donor (pre, post) journals, donor records spliced, and
    # the footprint-weighted span of those splices (a subset of
    # stmts_skipped).  All zero for standalone runs.
    cross_run_seeded: int = 0
    cross_run_hits: int = 0
    cross_run_spliced: int = 0
    # Supervisor feedback (repro.supervisor): every fault or budget trip
    # the run absorbed, whether degradation rungs were applied, which
    # ones, and whether the run was restored from a checkpoint.
    incidents: List[Incident] = field(default_factory=list)
    degraded: bool = False
    degradation_steps: List[str] = field(default_factory=list)
    resumed: bool = False

    @property
    def alarm_count(self) -> int:
        return len(self.alarms)

    @property
    def exit_code(self) -> int:
        """The CLI exit-code contract (see repro.errors.ExitCode):
        degraded runs report 2 even when alarms are present — the verdict
        is sound but coarser than requested, which callers must be able
        to distinguish from a full-precision alarm list."""
        from .errors import ExitCode

        if self.degraded:
            return int(ExitCode.DEGRADED)
        if self.alarms:
            return int(ExitCode.ALARMS)
        return int(ExitCode.PROVED)

    def alarms_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for a in self.alarms:
            out[a.kind] = out.get(a.kind, 0) + 1
        return out

    def invariant_stats(self) -> InvariantStats:
        """Statistics over the main loop invariant (largest loop invariant
        collected), mirroring the Sect. 9.4.1 dump."""
        stats = InvariantStats()
        if not self.loop_invariants:
            return stats
        # The main loop is the one with the most cells constrained.
        main = max(self.loop_invariants.values(),
                   key=lambda st: 0 if st.is_bottom else len(st.env.cells))
        if main.is_bottom:
            return stats
        from .packing.common import is_bool_cell

        for cid, v in main.env.cells.items():
            cell = self.ctx.table.cell(cid)
            itv = v.itv
            bounded = (itv.is_bounded if isinstance(itv, IntInterval)
                       else itv.is_bounded)
            if bounded:
                if is_bool_cell(cell):
                    stats.boolean_interval_assertions += 1
                else:
                    stats.interval_assertions += 1
            if v.minus_clock is not None and not (v.minus_clock.is_top
                                                  and v.plus_clock.is_top):
                # A clocked assertion is informative as soon as one side of
                # v - clock or v + clock is bounded.
                stats.clock_assertions += 1
        for pack_id, oct_ in main.octagons.items():
            add, sub = oct_.finite_constraint_count()
            stats.octagonal_additive_assertions += add
            stats.octagonal_subtractive_assertions += sub
        for pack_id, tree in main.dtrees.items():
            if not tree.is_top and not tree.is_bottom:
                stats.decision_trees += 1
        for site_id, k in main.ellipsoids.items():
            if not math.isinf(k):
                stats.ellipsoidal_assertions += 1
        return stats

    def to_json(self) -> Dict[str, object]:
        """The result record, the one JSON-safe form of a result: printed
        by ``analyze --json``, returned by the serve daemon, written by
        :func:`repro.report.write_report`, rendered by
        :func:`repro.report.render_text`.  Alarms name their program
        point by source location only."""
        record: Dict[str, object] = {
            "alarms": [
                {"kind": a.kind, "file": a.loc.filename, "line": a.loc.line,
                 "col": a.loc.col, "message": a.message}
                for a in self.alarms
            ],
            "alarm_count": self.alarm_count,
            "exit_code": self.exit_code,
            "degraded": self.degraded,
            "degradation_steps": list(self.degradation_steps),
            "resumed": self.resumed,
            "incidents": [asdict(i) for i in self.incidents],
            "widening_iterations": self.widening_iterations,
            "invariant_stats": asdict(self.invariant_stats()),
            # Work counters and timings: a warm serve run legitimately
            # executes fewer statements, so these stay out of the serve
            # determinism digest.
            "analysis_time_s": self.analysis_time,
            "phase_times_s": dict(self.phase_times),
            "peak_rss_kib": self.peak_rss_kib,
            "stmts_executed": self.stmts_executed,
            "stmts_skipped": self.stmts_skipped,
            "cross_run_seeded": self.cross_run_seeded,
            "cross_run_hits": self.cross_run_hits,
            "cross_run_spliced": self.cross_run_spliced,
            # Packing feedback (Sect. 7.2.2); the useful pack keys stay
            # on useful_octagon_packs for restrict_octagon_packs.
            "octagon_packs": self.octagon_pack_count,
            "useful_octagon_packs": len(self.useful_octagon_packs),
            "octagon_pack_avg_size": self.octagon_pack_avg_size,
            "bool_packs": self.bool_pack_count,
            "filter_sites": self.filter_site_count,
        }
        if self.loop_invariants:
            record["invariant_dump"] = self.dump_invariant_text()
        return record

    def dump_invariant_text(self) -> str:
        """Textual dump of the main loop invariant (tracing, Sect. 5.3)."""
        if not self.loop_invariants:
            return "(no loop invariants collected)"
        main = max(self.loop_invariants.values(),
                   key=lambda st: 0 if st.is_bottom else len(st.env.cells))
        lines: List[str] = []
        for cid, v in main.env.cells.items():
            cell = self.ctx.table.cell(cid)
            lines.append(f"{cell.name} in {v.itv!r}")
            if v.minus_clock is not None:
                lines.append(f"  {cell.name} - clock in {v.minus_clock!r}")
                lines.append(f"  {cell.name} + clock in {v.plus_clock!r}")
        for pack_id, oct_ in main.octagons.items():
            pack = self.ctx.oct_packs.pack(pack_id)
            for i, cid_i in enumerate(pack.cids):
                for j in range(i + 1, len(pack.cids)):
                    s = oct_.sum_bound(i, j)
                    d = oct_.diff_bound(i, j)
                    ni = self.ctx.table.cell(cid_i).name
                    nj = self.ctx.table.cell(pack.cids[j]).name
                    if s.is_bounded:
                        lines.append(f"{s.lo!r} <= {ni} + {nj} <= {s.hi!r}")
                    if d.is_bounded:
                        lines.append(f"{d.lo!r} <= {ni} - {nj} <= {d.hi!r}")
        for site_id, k in main.ellipsoids.items():
            if not math.isinf(k):
                site = self.ctx.filter_sites.site(site_id)
                nx = self.ctx.table.cell(site.x_cid).name
                ny = self.ctx.table.cell(site.y_cid).name
                lines.append(
                    f"{nx}^2 - {site.a}*{nx}*{ny} + {site.b}*{ny}^2 <= {k!r}")
        return "\n".join(lines)


def analyze(source, filename: str = "<input>",
            config: Optional[AnalyzerConfig] = None,
            entry: str = "main",
            cross_run=None) -> AnalysisResult:
    """Analyze C source text (a string) or a list of (name, text) units."""
    if config is None:
        config = AnalyzerConfig()
    parse_start = time.perf_counter()
    if isinstance(source, str):
        prog = compile_source(source, filename, entry=entry)
    else:
        prog = link_sources(list(source), entry=entry)
    parse_seconds = time.perf_counter() - parse_start
    return analyze_program(prog, config, parse_seconds=parse_seconds,
                           cross_run=cross_run)


def _configure_sharing(enabled: bool) -> bool:
    """Switch the process-global sharing caches (value intern pool and
    octagon closure memo) on or off; returns whether they were on.

    Every analysis runs with both on except a traced one, the reference
    engine (see ``AnalyzerConfig.trace``); the certificate walk turns
    them off and then restores what it found.  Disabling is always
    safe — the caches are value-preserving and only affect physical
    identity and wall time — and keeps their entries and counters.
    """
    from .domains.octagon import CLOSURE_MEMO_CAPACITY, configure_closure_memo
    from .memory import interning

    configure_closure_memo(CLOSURE_MEMO_CAPACITY if enabled else 0)
    return interning.configure(interning.POOL_CAPACITY if enabled else 0)


def _needs_supervisor(config: AnalyzerConfig) -> bool:
    return any((
        config.wall_deadline_s is not None,
        config.rss_limit_kib is not None,
        config.stmt_timeout_s is not None,
        config.checkpoint_path is not None,
        config.resume_path is not None,
    ))


def analyze_program(prog: IRProgram, config: Optional[AnalyzerConfig] = None,
                    parse_seconds: float = 0.0,
                    cross_run=None) -> AnalysisResult:
    """Analyze an already-lowered IR program.

    ``cross_run`` optionally attaches a
    :class:`repro.serve.cache.CrossRunCache`: donor (pre, post) journals
    of a previous run seed statement skipping, and this run's journal
    is collected for harvesting by the caller.  Ignored under tracing,
    which skips no statement.

    When any supervisor feature is enabled (resource budget, checkpoint
    or resume path), the run is wrapped in a :class:`Supervisor`; the
    degradation ladder then mutates a *copy* of ``config`` so the
    caller's instance is never touched.
    """
    if config is None:
        config = AnalyzerConfig()
    incidents = IncidentLog()
    sup: Optional[Supervisor] = None
    if _needs_supervisor(config):
        import dataclasses

        # The ladder mutates the config in place; give the run its own.
        config = dataclasses.replace(config)
        sup = Supervisor(config, incidents=incidents)
    start = time.perf_counter()
    ctx = AnalysisContext.for_program(prog, config)
    _configure_sharing(not config.trace)
    if sup is not None:
        sup.attach_context(ctx)
    packing_seconds = time.perf_counter() - start
    alarms = AlarmCollector()
    it = Iterator(ctx, alarms)
    it.supervisor = sup
    if cross_run is not None and not config.trace:
        cross_run.attach(ctx)
        it.cross_run = cross_run
    final = it.run(checking=True)
    elapsed = time.perf_counter() - start
    checking_seconds = max(0.0, elapsed - packing_seconds
                           - it.fixpoint_seconds)
    useful = frozenset(
        ctx.oct_packs.pack(pid).key for pid in ctx.useful_oct_packs
    )
    phases = {
        "parse": parse_seconds,
        "packing": packing_seconds,
        "iteration": it.fixpoint_seconds,
        # Split of the iteration phase: time inside AbstractState
        # lattice ops (join/widen/narrow/includes) vs everything
        # else (the abstract transfer functions proper).
        "iteration-lattice": it.fixpoint_lattice_seconds,
        "iteration-transfer": max(
            0.0, it.fixpoint_seconds - it.fixpoint_lattice_seconds),
        "checking": checking_seconds,
    }
    return AnalysisResult(
        alarms=alarms.alarms,
        analysis_time=elapsed,
        ctx=ctx,
        final_state=final,
        widening_iterations=it.widening_iterations,
        useful_octagon_packs=useful,
        octagon_pack_count=len(ctx.oct_packs),
        octagon_pack_avg_size=ctx.oct_packs.average_size(),
        bool_pack_count=len(ctx.bool_packs),
        useful_bool_pack_count=len(ctx.useful_bool_packs),
        filter_site_count=len(ctx.filter_sites),
        loop_invariants=it.loop_invariants,
        cert_invariants=it.cert_invariants,
        visit_counts=it.visit_counts,
        phase_times=phases,
        peak_rss_kib=peak_rss_self_kib(),
        stmts_executed=it.stmts_executed,
        stmts_skipped=it.stmts_skipped,
        cross_run_seeded=0 if cross_run is None else cross_run.seeded,
        cross_run_hits=it.cross_run_hits,
        cross_run_spliced=it.cross_run_spliced,
        incidents=incidents.incidents,
        degraded=False if sup is None else sup.degraded,
        degradation_steps=[] if sup is None else list(sup.ladder.applied),
        resumed=False if sup is None else sup.resumed,
    )
