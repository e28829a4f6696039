"""The full abstract state: reduced product of all domains (Sect. 6).

An :class:`AbstractState` bundles

* the non-relational memory environment (intervals + clocked components),
* one octagon per octagon pack (Sect. 6.2.2 / 7.2.1),
* one decision tree per boolean pack (Sect. 6.2.4 / 7.2.3),
* one ellipsoidal bound ``k`` per detected filter site (Sect. 6.2.3),

all held in persistent functional maps so the lattice operations inherit
the sharing shortcuts of Sect. 6.1.2.  The cross-domain *reduction* steps
prescribed by the paper live here:

* before join/widening, an ellipsoid bound that is top on one side and
  finite on the other is refined from the interval box (Sect. 6.2.3);
* octagon- and tree-supplied bounds tighten cell intervals on demand (the
  packing-usefulness statistics of Sect. 7.2.2 are recorded when such a
  tightening actually happens).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

from ..config import AnalyzerConfig, config_fingerprint
from ..domains.decision_tree import DecisionTree
from ..domains.ellipsoid import EllipsoidParams, EllipsoidValue
from ..domains.octagon import Octagon
from ..domains.values import CellValue
from ..frontend.ir import IRProgram
from ..memory.cells import CellTable
from ..memory.environment import MemoryEnv
from ..memory.fmap import PMap
from ..numeric import BINARY32, BINARY64, FloatInterval, IntInterval
from ..packing.boolean_packs import BoolPacking, compute_bool_packs
from ..packing.ellipsoid_sites import FilterSites, find_filter_sites
from ..packing.octagon_packs import OctagonPacking, compute_octagon_packs

__all__ = ["AnalysisContext", "AbstractState", "compat_fingerprint",
           "set_active_context", "get_active_context"]

# Process-wide context registry (checkpoint/resume and certificate
# support).  Pickled AbstractStates carry domain content only; the heavy
# AnalysisContext is installed once per process and re-attached during
# unpickling — supervisor.checkpoint.load_checkpoint and the certificate
# decoder require it before restoring.
_ACTIVE_CONTEXT: Optional["AnalysisContext"] = None


def set_active_context(ctx: Optional["AnalysisContext"]) -> None:
    global _ACTIVE_CONTEXT
    _ACTIVE_CONTEXT = ctx


def get_active_context() -> Optional["AnalysisContext"]:
    return _ACTIVE_CONTEXT


def _rebuild_state(env, octagons, dtrees, ellipsoids):
    ctx = _ACTIVE_CONTEXT
    if ctx is None:
        raise RuntimeError(
            "unpickling an AbstractState requires set_active_context() "
            "to have installed the AnalysisContext in this process")
    return AbstractState(ctx, env, octagons, dtrees, ellipsoids)


@dataclass
class AnalysisContext:
    """Immutable-per-analysis shared data plus mutable statistics."""

    prog: IRProgram
    config: AnalyzerConfig
    table: CellTable
    oct_packs: OctagonPacking
    bool_packs: BoolPacking
    filter_sites: FilterSites
    # Mutable usefulness records (Sect. 7.2.2).
    useful_oct_packs: Set[int] = field(default_factory=set)
    useful_bool_packs: Set[int] = field(default_factory=set)
    # Bumped whenever the effective configuration mutates mid-run (the
    # degradation ladder); identity-keyed caches (the incremental
    # executors' footprints and records) revalidate on it.
    config_generation: int = 0
    # Wall time spent inside AbstractState lattice ops (join/widen/
    # narrow/includes) — the lattice half of the transfer-vs-lattice
    # phase split reported by --stats.
    lattice_seconds: float = 0.0

    @classmethod
    def for_program(cls, prog: IRProgram,
                    config: AnalyzerConfig) -> "AnalysisContext":
        """The program's context under ``config``: its cell table,
        octagon and boolean packs and filter sites."""
        table = CellTable.for_program(prog, config.expand_threshold)
        return cls(prog=prog, config=config, table=table,
                   oct_packs=compute_octagon_packs(prog, table, config),
                   bool_packs=compute_bool_packs(prog, table, config),
                   filter_sites=find_filter_sites(prog, table))

    def invalidate_derived_caches(self) -> None:
        """Mid-run configuration change: flush every cache whose keys or
        results depend on the configuration."""
        self.config_generation += 1

    def thresholds(self) -> Optional[Sequence[float]]:
        ts = self.config.thresholds
        return ts.values if ts is not None else None

    def site_params(self, site_id: int, t_max: float) -> EllipsoidParams:
        site = self.filter_sites.site(site_id)
        fmt = BINARY32 if site.fmt_name == "binary32" else BINARY64
        return EllipsoidParams(site.a, site.b, t_max, fmt)


def compat_fingerprint(ctx: AnalysisContext) -> str:
    """Hash of everything a stored abstract state is keyed against: the
    analysis-relevant configuration and the complete cell-table /
    octagon-pack / boolean-pack / filter-site layout.  Runs with equal
    compat fingerprints agree on what every cell, pack and site id
    means, so they may exchange states: the serving layer's cross-run
    journals are indexed by it, and checkpoints include it."""
    cells = [(c.cid, c.name, repr(c.ctype), c.var_uid, c.volatile,
              c.summarized) for c in ctx.table.all_cells()]
    opacks = [(p.pack_id, p.cids) for p in ctx.oct_packs.packs]
    bpacks = [(p.pack_id, p.bool_cids, p.numeric_cids)
              for p in ctx.bool_packs.packs]
    # Layout only, deliberately NOT the filter coefficients a/b: those
    # are transfer-function constants, and every statement whose
    # semantics depend on them contains them in its (transitive)
    # content hash — the journal's statement keys already refuse such
    # donors.  Keeping them out lets coefficient-tuning edits (the
    # common near-duplicate case) stay journal-compatible.
    sites = [(s.site_id, s.x_cid, s.y_cid, s.t_cid, s.rotate_sid,
              s.shift_sid, s.commit_sid)
             for s in ctx.filter_sites.sites]
    h = hashlib.sha256()
    for chunk in (config_fingerprint(ctx.config), repr(cells), repr(opacks),
                  repr(bpacks), repr(sites)):
        h.update(chunk.encode())
        h.update(b"\x00")
    return h.hexdigest()


class AbstractState:
    """One abstract element of the combined domain."""

    __slots__ = ("ctx", "env", "octagons", "dtrees", "ellipsoids")

    def __init__(self, ctx: AnalysisContext, env: MemoryEnv,
                 octagons: PMap, dtrees: PMap, ellipsoids: PMap):
        self.ctx = ctx
        self.env = env
        self.octagons = octagons      # pack_id -> Octagon
        self.dtrees = dtrees          # pack_id -> DecisionTree
        self.ellipsoids = ellipsoids  # site_id -> float k (inf = top)

    def __reduce__(self):
        # The context never crosses the process boundary with the state:
        # workers re-attach their own installed copy (see _rebuild_state).
        return (_rebuild_state,
                (self.env, self.octagons, self.dtrees, self.ellipsoids))

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def initial(ctx: AnalysisContext) -> "AbstractState":
        env = MemoryEnv.initial(ctx.config.max_clock)
        octs = PMap.empty()
        if ctx.config.enable_octagons:
            for p in ctx.oct_packs.packs:
                octs = octs.set(p.pack_id, Octagon.top(p.size))
        trees = PMap.empty()
        if ctx.config.enable_decision_trees:
            for p in ctx.bool_packs.packs:
                trees = trees.set(p.pack_id,
                                  DecisionTree.top(p.bool_cids, p.numeric_cids))
        ells = PMap.empty()
        if ctx.config.enable_ellipsoids:
            for s in ctx.filter_sites.sites:
                ells = ells.set(s.site_id, math.inf)
        return AbstractState(ctx, env, octs, trees, ells)

    def _with(self, env: Optional[MemoryEnv] = None, octagons: Optional[PMap] = None,
              dtrees: Optional[PMap] = None,
              ellipsoids: Optional[PMap] = None) -> "AbstractState":
        return AbstractState(
            self.ctx,
            env if env is not None else self.env,
            octagons if octagons is not None else self.octagons,
            dtrees if dtrees is not None else self.dtrees,
            ellipsoids if ellipsoids is not None else self.ellipsoids,
        )

    @property
    def is_bottom(self) -> bool:
        return self.env.is_bottom

    def to_bottom(self) -> "AbstractState":
        return self._with(env=self.env.to_bottom())

    # -- cell access (with reduction) -----------------------------------------------

    def cell_float_range(self, cid: int) -> FloatInterval:
        """Float-interval view of a cell (used by linear forms/octagons)."""
        v = self.env.get(cid)
        if v is None:
            from ..domains.values import top_value

            return top_value(self.ctx.table.cell(cid).ctype).float_range()
        return v.float_range()

    def set_cell(self, cid: int, value: CellValue) -> "AbstractState":
        return self._with(env=self.env.set(cid, value))

    def weak_set_cell(self, cid: int, value: CellValue) -> "AbstractState":
        return self._with(env=self.env.weak_set(cid, value))

    # -- ellipsoid helpers -------------------------------------------------------------

    def _reduce_ellipsoid_from_box(self, site_id: int) -> float:
        """Interval-based bound on the quadratic form of a top ellipsoid."""
        site = self.ctx.filter_sites.site(site_id)
        x_iv = self.cell_float_range(site.x_cid)
        y_iv = self.cell_float_range(site.y_cid)
        params = self.ctx.site_params(site_id, 0.0)
        v = EllipsoidValue.top(params).reduce_from_intervals(x_iv, y_iv)
        return v.k

    def _ellipsoid_combine(self, other: "AbstractState", op):
        """The per-site callback of the ellipsoid merge in join and
        widening: ``op`` after the paper's pre-join/pre-widening
        reduction (Sect. 6.2.3), which refines a top k on one side from
        that side's intervals when the other side is finite.
        ``PMap.merge`` calls it only for sites whose k differ; a site
        missing from ``other`` meets it as top."""

        def combine(site_id, ka, kb):
            if math.isinf(ka) and not math.isinf(kb):
                ka = self._reduce_ellipsoid_from_box(site_id)
            elif math.isinf(kb) and not math.isinf(ka):
                kb = other._reduce_ellipsoid_from_box(site_id)
            return op(ka, kb)
        return combine

    # -- lattice -----------------------------------------------------------------------
    #
    # The public join/widen/narrow/includes accumulate wall time into
    # ctx.lattice_seconds for the transfer-vs-lattice profile split; the
    # *_impl methods hold the domain logic.

    def join(self, other: "AbstractState") -> "AbstractState":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        t0 = time.perf_counter()
        try:
            return self._join_impl(other)
        finally:
            self.ctx.lattice_seconds += time.perf_counter() - t0

    def _join_impl(self, other: "AbstractState") -> "AbstractState":
        ell = self._ellipsoid_combine(other, max)
        return AbstractState(
            self.ctx,
            self.env.join(other.env),
            self.octagons.merge(other.octagons, lambda k, a, b: a.join(b)),
            self.dtrees.merge(other.dtrees, lambda k, a, b: a.join(b)),
            self.ellipsoids.merge(
                other.ellipsoids, ell,
                missing_other=lambda k, ka: ell(k, ka, math.inf)),
        )

    def widen(self, other: "AbstractState") -> "AbstractState":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        t0 = time.perf_counter()
        try:
            return self._widen_impl(other)
        finally:
            self.ctx.lattice_seconds += time.perf_counter() - t0

    def _widen_impl(self, other: "AbstractState") -> "AbstractState":
        ts = self.ctx.thresholds()

        def widen_k(a, b):
            if b <= a:
                return a
            if ts is None:
                return math.inf
            for t in ts:
                if t >= b:
                    return t
            return math.inf

        ell = self._ellipsoid_combine(other, widen_k)
        return AbstractState(
            self.ctx,
            self.env.widen(other.env, ts),
            self.octagons.merge(other.octagons,
                                lambda k, a, b: a.widen(b, ts)),
            self.dtrees.merge(other.dtrees, lambda k, a, b: a.widen(b, ts)),
            self.ellipsoids.merge(
                other.ellipsoids, ell,
                missing_other=lambda k, ka: ell(k, ka, math.inf)),
        )

    def narrow(self, other: "AbstractState") -> "AbstractState":
        if self.is_bottom or other.is_bottom:
            return other
        t0 = time.perf_counter()
        try:
            return self._narrow_impl(other)
        finally:
            self.ctx.lattice_seconds += time.perf_counter() - t0

    def _narrow_impl(self, other: "AbstractState") -> "AbstractState":
        return AbstractState(
            self.ctx,
            self.env.narrow(other.env),
            self.octagons.merge(other.octagons, lambda k, a, b: a.narrow(b)),
            self.dtrees.merge(other.dtrees, lambda k, a, b: a.narrow(b)),
            self.ellipsoids.merge(other.ellipsoids,
                                  lambda k, a, b: b if math.isinf(a) else a),
        )

    def includes(self, other: "AbstractState") -> bool:
        if other.is_bottom:
            return True
        if self.is_bottom:
            return False
        t0 = time.perf_counter()
        try:
            return self._includes_impl(other)
        finally:
            self.ctx.lattice_seconds += time.perf_counter() - t0

    def _includes_impl(self, other: "AbstractState") -> bool:
        if not self.env.includes(other.env):
            return False
        for pack_id in self.octagons.diff_keys(other.octagons):
            mine = self.octagons.get(pack_id)
            theirs = other.octagons.get(pack_id)
            if mine is not None and theirs is not None and not mine.includes(theirs):
                return False
        for pack_id in self.dtrees.diff_keys(other.dtrees):
            mine = self.dtrees.get(pack_id)
            theirs = other.dtrees.get(pack_id)
            if mine is not None and theirs is not None and not mine.includes(theirs):
                return False
        for site_id in self.ellipsoids.diff_keys(other.ellipsoids):
            ka = self.ellipsoids.get(site_id, math.inf)
            kb = other.ellipsoids.get(site_id, math.inf)
            if ka < kb:
                return False
        return True

    # -- domain reductions -----------------------------------------------------------

    def reduce_cell_from_relational(self, cid: int) -> "AbstractState":
        """Tighten a cell's interval using octagons and decision trees.

        Records pack usefulness when a strict tightening happens
        (Sect. 7.2.2: "Our analyzer outputs, as part of the result, whether
        each octagon actually improved the precision of the analysis").
        """
        state = self
        v = state.env.get(cid)
        if v is None or v.is_bottom:
            return state
        cell = state.ctx.table.cell(cid)
        # Octagon reduction.
        if state.ctx.config.enable_octagons:
            for pack_id in state.ctx.oct_packs.packs_of_cell(cid):
                oct_ = state.octagons.get(pack_id)
                if oct_ is None or oct_.is_bottom:
                    continue
                pack = state.ctx.oct_packs.pack(pack_id)
                pos = pack.index[cid]
                bound = oct_.var_interval(pos)
                if bound.is_top:
                    continue
                state = state._meet_cell_float(cid, bound, pack_id, kind="oct")
                v = state.env.get(cid)
                if v is None or v.is_bottom:
                    return state
        # Decision-tree reduction (join over reachable valuations).
        if state.ctx.config.enable_decision_trees:
            for pack_id in state.ctx.bool_packs.packs_of_numeric(cid):
                tree = state.dtrees.get(pack_id)
                if tree is None:
                    continue
                facts = tree.numeric_refinement()
                if cid in facts:
                    state = state._meet_cell_interval(cid, facts[cid], pack_id,
                                                      kind="tree")
        return state

    def _meet_cell_float(self, cid: int, bound: FloatInterval, pack_id: int,
                         kind: str) -> "AbstractState":
        v = self.env.get(cid)
        if v is None:
            return self
        if v.is_float:
            new_itv = v.itv.meet(bound)
            changed = new_itv != v.itv
            new_v = CellValue(new_itv, v.minus_clock, v.plus_clock)
        else:
            as_int = IntInterval.from_float_interval(bound)
            new_itv = v.itv.meet(as_int)
            changed = new_itv != v.itv
            new_v = CellValue(new_itv, v.minus_clock, v.plus_clock)
        if not changed:
            return self
        self._mark_useful(pack_id, kind)
        if new_v.is_bottom:
            # A relational contradiction: the state is unreachable.
            return self.to_bottom()
        return self._with(env=self.env.set(cid, new_v))

    def _meet_cell_interval(self, cid: int, bound, pack_id: int,
                            kind: str) -> "AbstractState":
        v = self.env.get(cid)
        if v is None:
            return self
        if isinstance(bound, FloatInterval) and not v.is_float:
            return self._meet_cell_float(cid, bound, pack_id, kind)
        if isinstance(bound, IntInterval) and v.is_float:
            bound = bound.to_float_interval()
        new_itv = v.itv.meet(bound)
        if new_itv == v.itv:
            return self
        self._mark_useful(pack_id, kind)
        new_v = CellValue(new_itv, v.minus_clock, v.plus_clock)
        if new_v.is_bottom:
            return self.to_bottom()
        return self._with(env=self.env.set(cid, new_v))

    def _mark_useful(self, pack_id: int, kind: str) -> None:
        if kind == "oct":
            self.ctx.useful_oct_packs.add(pack_id)
        else:
            self.ctx.useful_bool_packs.add(pack_id)

    def octagon_eval(self, form) -> Tuple[FloatInterval, Tuple[int, ...]]:
        """Evaluate a linear form against the octagons (Sect. 6.2.2).

        When the form is ``±v_i ∓ v_j + rest`` with unit coefficients and
        both variables in one pack, the pack's sum/difference bound refines
        the plain interval evaluation — this is how the discovered
        ``c <= L - Z <= d`` facts reach later expressions.
        Returns (top, ()) when no octagonal refinement applies; otherwise
        the bound plus the contributing pack ids (so the caller can record
        pack usefulness only when the bound actually tightens something).
        """
        if not self.ctx.config.enable_octagons or self.is_bottom:
            return FloatInterval.top(), ()
        units = []
        rest = form.const
        for cid, coeff in form.coeffs:
            if coeff.is_const and coeff.lo in (1.0, -1.0):
                units.append((cid, int(coeff.lo)))
            else:
                rest = rest.add(coeff.mul(self.cell_float_range(cid)))
        if len(units) != 2:
            return FloatInterval.top(), ()
        (ci, si), (cj, sj) = units
        best = FloatInterval.top()
        contributors = []
        shared = set(self.ctx.oct_packs.packs_of_cell(ci)) & \
            set(self.ctx.oct_packs.packs_of_cell(cj))
        for pack_id in shared:
            oct_ = self.octagons.get(pack_id)
            if oct_ is None or oct_.is_bottom or oct_.is_top:
                continue
            index = self.ctx.oct_packs.pack(pack_id).index
            pi, pj = index[ci], index[cj]
            if si == 1 and sj == 1:
                b = oct_.sum_bound(pi, pj)
            elif si == 1 and sj == -1:
                b = oct_.diff_bound(pi, pj)
            elif si == -1 and sj == 1:
                b = oct_.diff_bound(pj, pi)
            else:
                b = oct_.sum_bound(pi, pj).neg()
            if not b.is_top:
                contributors.append(pack_id)
                best = best.meet(b)
        if best.is_top or rest.is_empty:
            return FloatInterval.top(), ()
        return best.add(rest), tuple(contributors)

    def propagate_octagon_pivots(self, pack_id: int) -> "AbstractState":
        """Inter-octagon reduction through shared variable pairs
        (Sect. 7.2.1's optional pivot propagation).

        Constraints on pairs of variables shared between ``pack_id`` and
        another pack are copied into the other pack's octagon.
        """
        src_pack = self.ctx.oct_packs.pack(pack_id)
        src_oct = self.octagons.get(pack_id)
        if src_oct is None or src_oct.is_bottom or src_oct.is_top:
            return self
        src_index = src_pack.index
        state = self
        neighbours = set()
        for cid in src_pack.cids:
            neighbours.update(self.ctx.oct_packs.packs_of_cell(cid))
        neighbours.discard(pack_id)
        octs = state.octagons
        changed = False
        for other_id in neighbours:
            other_pack = self.ctx.oct_packs.pack(other_id)
            shared = [cid for cid in other_pack.cids if cid in src_index]
            if len(shared) < 2:
                continue
            other_oct = octs.get(other_id)
            if other_oct is None or other_oct.is_bottom:
                continue
            other_index = other_pack.index
            out = other_oct
            for i in range(len(shared)):
                for j in range(i + 1, len(shared)):
                    ci, cj = shared[i], shared[j]
                    si, sj = src_index[ci], src_index[cj]
                    oi, oj = other_index[ci], other_index[cj]
                    s = src_oct.sum_bound(si, sj)
                    d = src_oct.diff_bound(si, sj)
                    if s.hi < math.inf:
                        out = out.guard_upper({oi: 1, oj: 1}, s.hi)
                    if s.lo > -math.inf:
                        out = out.guard_upper({oi: -1, oj: -1}, -s.lo)
                    if d.hi < math.inf:
                        out = out.guard_upper({oi: 1, oj: -1}, d.hi)
                    if d.lo > -math.inf:
                        out = out.guard_upper({oi: -1, oj: 1}, -d.lo)
            if out.is_bottom:
                return state.to_bottom()
            if out is not other_oct:
                octs = octs.set(other_id, out)
                changed = True
        if changed:
            return state._with(octagons=octs)
        return state

    # -- iteration-perturbation (Sect. 7.1.4) ---------------------------------------------

    def inflate_floats(self, eps: float, cids) -> "AbstractState":
        """F-hat: inflate float cell bounds by a relative eps so the
        stabilization check is not defeated by abstract rounding noise."""
        if eps <= 0.0 or self.is_bottom:
            return self
        env = self.env
        for cid in cids:
            v = env.get(cid)
            if v is None or not v.is_float or v.is_bottom:
                continue
            iv = v.itv
            lo = iv.lo - eps * abs(iv.lo) if iv.lo > -math.inf else iv.lo
            hi = iv.hi + eps * abs(iv.hi) if iv.hi < math.inf else iv.hi
            if lo != iv.lo or hi != iv.hi:
                env = env.set(cid, CellValue(FloatInterval.of(lo, hi),
                                             v.minus_clock, v.plus_clock))
        if env is self.env:
            return self
        return self._with(env=env)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_bottom:
            return "AbstractState(bottom)"
        return (f"AbstractState(env={self.env!r}, octs={len(self.octagons)}, "
                f"trees={len(self.dtrees)}, ells={len(self.ellipsoids)})")
