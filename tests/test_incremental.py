"""Incremental fixpoint engine: bit-identical differential testing.

The incremental executor (repro.iterator.incremental) skips statements
whose footprint slice of the state is unchanged since their last
execution and splices the memoized post-states; interning and the
closure memo make the identity fast paths it relies on hot.
All of it is claimed to be *bit-identical* to full re-execution — these
tests hold that claim against the reference engine (``trace=True``:
every statement executed, both sharing caches off) across a seeded
sweep of generated family programs (mixed nested loops, branches, calls
and filter blocks) and across a checkpoint→kill→resume cycle.
"""

import dataclasses
import os

import pytest

from repro.analysis import analyze_program
from repro.config import AnalyzerConfig
from repro.domains.octagon import (Octagon, closure_memo_stats,
                                   configure_closure_memo)
from repro.errors import SupervisorHalt
from repro.frontend import compile_source
from repro.memory import interning
from repro.supervisor.supervisor import HALT_ENV
from repro.synth import FamilySpec, generate_program

# ≥20 seeds, sizes chosen so every generator block type (filter chains,
# guarded neighbour reads, mode branches, nested loops, calls) appears
# at least in the larger instances while the sweep stays CI-friendly.
SWEEP = [(0.05 + 0.005 * (s % 5), 100 + s) for s in range(20)]


def _family(kloc: float, seed: int):
    gp = generate_program(FamilySpec(target_kloc=kloc, seed=seed))
    cfg = gp.analyzer_config(collect_invariants=True)
    prog = compile_source(gp.source, "family.c")
    return prog, cfg


def _snapshot(result) -> dict:
    stats = result.invariant_stats()
    return {
        "alarms": [(a.kind, a.sid, a.loc.line, a.loc.col, a.message)
                   for a in result.alarms],
        "exit_code": result.exit_code,
        "invariant": result.dump_invariant_text(),
        "stats": dataclasses.asdict(stats),
        # widening_iterations is deliberately absent: it counts only the
        # fixpoint iterations actually *executed*, and a skipped
        # statement containing a nested loop does not re-run that loop's
        # fixpoint — the count is a work metric, not a result.
        "useful_oct": sorted(result.useful_octagon_packs),
        "useful_bool": result.useful_bool_pack_count,
    }


def _both_modes(prog, cfg, **kw):
    full = analyze_program(prog, dataclasses.replace(cfg, trace=True), **kw)
    incr = analyze_program(prog, cfg, **kw)
    assert _snapshot(full) == _snapshot(incr)
    return full, incr


# ---------------------------------------------------------------------------
# Differential sweep
# ---------------------------------------------------------------------------


class TestDifferentialSweep:
    @pytest.mark.parametrize("kloc,seed", SWEEP)
    def test_bit_identical_across_seeds(self, kloc, seed):
        prog, cfg = _family(kloc, seed)
        full, incr = _both_modes(prog, cfg)
        assert not incr.degraded and not full.degraded
        assert full.stmts_skipped == 0

    def test_incremental_actually_skips(self):
        prog, cfg = _family(0.12, 7)
        full, incr = _both_modes(prog, cfg)
        assert incr.stmts_skipped > 0
        # Executing >= 90% of the full-mode statement count would mean
        # skipping has regressed (the ratio is about 0.65 here).
        assert incr.stmts_executed < 0.9 * full.stmts_executed

    def test_mixed_block_types_handwritten(self):
        # Nested loop + call + both branch arms feasible + filter state:
        # every block kind the executor caches, in one program.
        src = """
        volatile float in_a; volatile int in_sel;
        float x; float acc; float tab[8]; int mode; int count;
        void step(void) {
            float e; int j;
            e = in_a;
            if (e > 50.0f) { e = 50.0f; }
            if (e < -50.0f) { e = -50.0f; }
            j = 0;
            while (j < 8) { tab[j] = 0.7f * tab[j] + 0.3f * e; j = j + 1; }
            x = 0.9f * x + 0.1f * e;
        }
        int main(void) {
            while (1) {
                step();
                mode = in_sel;
                if (mode) { acc = acc * 0.5f + x; }
                else { acc = 0.25f * acc; }
                if (count < 1000) { count = count + 1; }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """
        prog = compile_source(src, "mixed.c")
        cfg = AnalyzerConfig(
            input_ranges={"in_a": (-200.0, 200.0), "in_sel": (0.0, 1.0)},
            max_clock=10_000, collect_invariants=True)
        full, incr = _both_modes(prog, cfg)
        assert incr.stmts_skipped > 0

    def test_both_ways_larger_family(self):
        prog, cfg = _family(0.1, 31)
        _both_modes(prog, cfg)

    def test_result_counters_reported(self):
        prog, cfg = _family(0.08, 3)
        incr = analyze_program(prog, cfg)  # also warms both caches
        assert incr.stmts_executed > 0
        pt = incr.phase_times
        assert "iteration-lattice" in pt and "iteration-transfer" in pt
        assert pt["iteration-lattice"] >= 0.0
        assert abs(pt["iteration-lattice"] + pt["iteration-transfer"]
                   - pt["iteration"]) < 1e-6
        # The reference engine skips nothing and uses no sharing cache:
        # both are left as the run found them.
        pool, memo = interning.intern_stats(), closure_memo_stats()[:2]
        full = analyze_program(prog, dataclasses.replace(cfg, trace=True))
        assert full.stmts_skipped == 0
        assert interning.intern_stats() == pool
        assert closure_memo_stats()[:2] == memo


# ---------------------------------------------------------------------------
# Checkpoint → kill → resume
# ---------------------------------------------------------------------------


class TestCheckpointKillResume:
    def test_resume_bit_identical_both_modes(self, tmp_path, monkeypatch):
        prog, cfg = _family(0.08, 17)
        reference = analyze_program(prog, dataclasses.replace(cfg, trace=True))
        cp = str(tmp_path / "cp.pkl")
        monkeypatch.setenv(HALT_ENV, "2")
        with pytest.raises(SupervisorHalt):
            analyze_program(prog, dataclasses.replace(cfg, checkpoint_path=cp))
        assert os.path.exists(cp)
        resumed = analyze_program(
            prog, dataclasses.replace(cfg, resume_path=cp))
        assert resumed.resumed
        assert _snapshot(resumed) == _snapshot(reference)


# ---------------------------------------------------------------------------
# Sharing machinery unit tests
# ---------------------------------------------------------------------------


class TestInterning:
    def test_canonical_representative(self):
        from repro.domains.values import CellValue
        from repro.numeric import IntInterval

        interning.configure(1024)
        interning.clear()
        a = CellValue(IntInterval.of(1, 2))
        b = CellValue(IntInterval.of(1, 2))
        assert a is not b and a == b
        assert interning.intern_value(a) is a
        assert interning.intern_value(b) is a

    def test_disabled_is_identity(self):
        from repro.domains.values import CellValue
        from repro.numeric import IntInterval

        interning.configure(0)
        v = CellValue(IntInterval.of(3, 4))
        assert interning.intern_value(v) is v
        interning.configure(1024)

    def test_pool_is_bounded(self):
        from repro.domains.values import CellValue
        from repro.numeric import IntInterval

        interning.configure(8)
        interning.clear()
        for i in range(50):
            interning.intern_value(CellValue(IntInterval.of(i, i)))
        assert interning.intern_stats()[2] <= 8
        interning.configure(1024)

    def test_env_set_interns(self):
        from repro.domains.values import CellValue
        from repro.memory.environment import MemoryEnv
        from repro.numeric import IntInterval

        interning.configure(1024)
        interning.clear()
        e1 = MemoryEnv.initial().set(0, CellValue(IntInterval.of(5, 9)))
        e2 = MemoryEnv.initial().set(1, CellValue(IntInterval.of(5, 9)))
        assert e1.get(0) is e2.get(1)


class TestOctagonSharing:
    def _raw(self, hi=10.0):
        # Non-closed with enough finite entries that closed() runs the
        # real cubic pass (same shape as test_sharing_fastpaths).
        n = 3
        o = Octagon(n)
        m = o.m.copy()
        for i in range(n):
            m[2 * i + 1, 2 * i] = 2.0 * (hi + i)
            m[2 * i, 2 * i + 1] = 2.0 * (hi + i)
        m[2, 0] = 3.0
        return Octagon(n, m, closed=False)

    def test_raw_equal_semantics(self):
        a, b = self._raw(), self._raw()
        assert a.raw_equal(b)
        assert a.raw_equal(a)
        c = self._raw(hi=20.0)
        assert not a.raw_equal(c)

    def test_raw_equal_does_not_close(self):
        a, b = self._raw(), self._raw()
        before = Octagon.closure_computations
        assert a.raw_equal(b)
        assert Octagon.closure_computations == before

    def test_closure_memo_hits_and_is_value_correct(self):
        configure_closure_memo(256)
        a, b = self._raw(), self._raw()
        ca = a.closed()
        hits0 = closure_memo_stats()[0]
        cb = b.closed()
        assert closure_memo_stats()[0] == hits0 + 1
        assert ca.equal(cb)
        configure_closure_memo(0)

    def test_closure_memo_disabled_recomputes(self):
        configure_closure_memo(0)
        a, b = self._raw(), self._raw()
        a.closed()
        before = Octagon.closure_computations
        b.closed()
        assert Octagon.closure_computations == before + 1

    def test_closure_memo_evicts_oldest_not_wholesale(self):
        # Capacity overflow drops a small oldest batch; the rest of the
        # working set keeps hitting (the old behavior cleared the whole
        # memo, zeroing the hit-rate on every overflow).
        from repro.domains.octagon import closure_memo_stats

        configure_closure_memo(4)
        octs = [self._raw(hi=10.0 + i) for i in range(5)]
        for o in octs:
            o.closed()
        hits0, size, evictions = closure_memo_stats()
        assert evictions >= 1
        assert size <= 4
        # Entries 1..4 survived (only the oldest batch was dropped):
        # re-closing fresh equal matrices hits the memo.
        for i in range(1, 5):
            self._raw(hi=10.0 + i).closed()
        hits1 = closure_memo_stats()[0]
        assert hits1 == hits0 + 4
        # The evicted oldest entry recomputes (a miss)...
        before = Octagon.closure_computations
        self._raw(hi=10.0).closed()
        assert Octagon.closure_computations == before + 1
        # ...and same-capacity reconfiguration keeps the memo warm
        # (the daemon re-sizes per job without losing the working set).
        configure_closure_memo(4)
        pre_hits = closure_memo_stats()[0]
        self._raw(hi=10.0).closed()
        assert closure_memo_stats()[0] == pre_hits + 1
        configure_closure_memo(0)
