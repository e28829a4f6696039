"""Fault-tolerance supervisor: budgets, degradation, crash recovery,
checkpoint/resume, and the CLI exit-code contract.

The supervisor's promise is that an analysis run never dies on the user:
injected worker crashes are retried and merged bit-identically, tripped
resource budgets step down the soundness-preserving degradation ladder
(the run finishes with a coarser verdict and ``degraded=True``), and a
run killed between checkpoints resumes to a result bit-identical to an
uninterrupted one.  Every deviation must land in the incident log.

Programs are compiled once per module: statement ids come from a global
counter, so recompiling would shift checkpoint fingerprints and
``visit_counts`` keys without any semantic difference.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import tempfile

import pytest

from repro.analysis import analyze_program
from repro.config import AnalyzerConfig
from repro.errors import (AnalysisError, CheckpointError, ExitCode,
                          SupervisorHalt)
from repro.frontend import compile_source
from repro.supervisor import DEGRADATION_RUNGS, DegradationLadder, IncidentLog
from repro.supervisor.checkpoint import context_fingerprint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOOP_SRC = """
volatile int in1;
int main(void) {
  int y; int z;
  y = 0; z = 0;
  while (1) {
    y = y + 1;
    if (y > 100) { y = 0; }
    z = y + in1;
    if (z > 500) { z = 0; }
    __ASTREE_wait_for_clock();
  }
  return 0;
}
"""

BUGGY_SRC = """
volatile int sensor;
int main(void) {
  int x; int d;
  x = sensor;
  d = 100 / (x - 50);
  while (1) { __ASTREE_wait_for_clock(); }
  return 0;
}
"""


def _subsystem_source(nsub: int, width: int) -> str:
    """Independent filter subsystems (the dispatchable program shape of
    test_parallel) — heavy enough that regions go to workers."""
    lines = []
    for k in range(nsub):
        lines.append(f"volatile float in{k}_a;")
        lines.append(f"volatile int in{k}_b;")
        lines.append(f"float s{k}_x; float s{k}_y; float s{k}_tab[{width}];")
        lines.append(f"int s{k}_mode; int s{k}_count;")
    for k in range(nsub):
        lines.append(f"""
void step_{k}(void) {{
    float e; int j;
    e = in{k}_a;
    if (e > 100.0f) {{ e = 100.0f; }}
    if (e < -100.0f) {{ e = -100.0f; }}
    s{k}_mode = in{k}_b;
    j = 0;
    while (j < {width}) {{
        s{k}_tab[j] = 0.8f * s{k}_tab[j] + 0.2f * e;
        j = j + 1;
    }}
    s{k}_x = 0.9f * s{k}_x + 0.1f * e;
    if (s{k}_mode) {{ s{k}_y = s{k}_x; }} else {{ s{k}_y = 0.0f; }}
    if (s{k}_count < 1000) {{ s{k}_count = s{k}_count + 1; }}
}}""")
    lines.append("int main(void) {")
    lines.append("  while (1) {")
    for k in range(nsub):
        lines.append(f"    step_{k}();")
    lines.append("    __ASTREE_wait_for_clock();")
    lines.append("  }")
    lines.append("  return 0;")
    lines.append("}")
    return "\n".join(lines)


def _snapshot(result) -> dict:
    return {
        "alarms": [(a.kind, a.sid, a.loc.line, a.message)
                   for a in result.alarms],
        "invariant": result.dump_invariant_text(),
        "widening": result.widening_iterations,
        "visits": sorted(result.visit_counts.items()),
        "useful_oct": sorted(result.useful_octagon_packs),
        "useful_bool": result.useful_bool_pack_count,
    }


@pytest.fixture(scope="module")
def loop_prog():
    return compile_source(LOOP_SRC, "loop.c")


@pytest.fixture(scope="module")
def loop_cfg():
    return AnalyzerConfig(input_ranges={"in1": (-10.0, 10.0)},
                          collect_invariants=True, trace=True)


@pytest.fixture(scope="module")
def subsys():
    """(prog, cfg, sequential snapshot) for the parallel fault tests."""
    src = _subsystem_source(nsub=6, width=10)
    ranges = {}
    for k in range(6):
        ranges[f"in{k}_a"] = (-500.0, 500.0)
        ranges[f"in{k}_b"] = (0.0, 1.0)
    cfg = AnalyzerConfig(input_ranges=ranges, max_clock=10_000,
                         parallel_min_stmts=8, trace=True,
                         collect_invariants=True)
    prog = compile_source(src, "subsystems.c")
    seq = analyze_program(prog, cfg, jobs=1)
    return prog, cfg, _snapshot(seq)


# ---------------------------------------------------------------------------
# Resource budgets and degradation
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_deadline_trip_degrades_soundly(self, loop_prog, loop_cfg):
        cfg = dataclasses.replace(loop_cfg, wall_deadline_s=1e-9)
        result = analyze_program(loop_prog, cfg)  # must not raise
        assert result.degraded
        assert result.exit_code == int(ExitCode.DEGRADED)
        assert result.degradation_steps  # at least one rung applied
        kinds = {i.kind for i in result.incidents}
        assert "deadline" in kinds

    def test_rss_trip_degrades_soundly(self, loop_prog, loop_cfg):
        cfg = dataclasses.replace(loop_cfg, rss_limit_kib=1)
        result = analyze_program(loop_prog, cfg)
        assert result.degraded
        assert result.exit_code == int(ExitCode.DEGRADED)
        assert any(i.kind == "rss" for i in result.incidents)

    def test_exhausted_ladder_reported_once(self, loop_prog, loop_cfg):
        # Peak RSS is monotone: once tripped, every poll re-trips, the
        # ladder runs to the end, and the exhaustion is reported once.
        cfg = dataclasses.replace(loop_cfg, rss_limit_kib=1)
        result = analyze_program(loop_prog, cfg)
        assert result.degradation_steps == [n for n, _ in DEGRADATION_RUNGS]
        exhausted = [i for i in result.incidents
                     if i.action == "exhausted-ladder"]
        assert len(exhausted) == 1

    def test_stmt_timeout_trips_and_is_capped(self, loop_prog, loop_cfg):
        cfg = dataclasses.replace(loop_cfg, stmt_timeout_s=0.0)
        result = analyze_program(loop_prog, cfg)
        assert result.degraded
        timeouts = [i for i in result.incidents if i.kind == "stmt-timeout"]
        assert timeouts
        from repro.supervisor.supervisor import MAX_STMT_TIMEOUT_INCIDENTS

        assert len(timeouts) <= MAX_STMT_TIMEOUT_INCIDENTS

    def test_caller_config_is_never_mutated(self, loop_prog, loop_cfg):
        cfg = dataclasses.replace(loop_cfg, wall_deadline_s=1e-9)
        result = analyze_program(loop_prog, cfg)
        assert result.degraded
        # The ladder mutated the run's copy, not the caller's instance.
        assert cfg.thresholds is not None
        assert cfg.enable_octagons and cfg.enable_ellipsoids
        assert cfg.narrowing_steps == loop_cfg.narrowing_steps

    def test_degraded_alarm_superset(self, loop_prog, loop_cfg):
        # Degradation only loses precision: the degraded run's alarms
        # must cover the full-precision run's (soundness direction).
        full = analyze_program(loop_prog, loop_cfg)
        cfg = dataclasses.replace(loop_cfg, rss_limit_kib=1)
        degraded = analyze_program(loop_prog, cfg)
        full_keys = {(a.kind, a.sid) for a in full.alarms}
        degraded_keys = {(a.kind, a.sid) for a in degraded.alarms}
        assert full_keys <= degraded_keys

    def test_no_budgets_no_supervisor(self, loop_prog, loop_cfg):
        result = analyze_program(loop_prog, loop_cfg)
        assert not result.degraded
        assert result.incidents == []
        assert result.degradation_steps == []
        assert not result.resumed

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="VmHWM is Linux-only")
    def test_peak_rss_excludes_spawning_process(self, tmp_path):
        """On Linux ``ru_maxrss`` carries the spawner's high-water mark
        across vfork and exec; the reported peak must not."""
        f = tmp_path / "tiny.c"
        f.write_text("int main(void){return 0;}\n")
        ballast_kib = 200 << 10
        ballast = b"\x01" * (ballast_kib << 10)  # resident: every page written
        proc = _run_cli(["analyze", str(f), "--json", "--stats"], tmp_path)
        del ballast
        assert proc.returncode == int(ExitCode.PROVED), proc.stderr
        assert 0 < json.loads(proc.stdout)["peak_rss_kib"] < ballast_kib


class TestDegradationLadder:
    def test_rungs_apply_in_order(self):
        cfg = AnalyzerConfig()
        ladder = DegradationLadder(cfg)
        names = []
        while True:
            step = ladder.step()
            if step is None:
                break
            names.append(step[0])
        assert names == [n for n, _ in DEGRADATION_RUNGS]
        assert ladder.exhausted
        assert not cfg.enable_octagons and not cfg.enable_ellipsoids
        assert not cfg.enable_decision_trees
        assert cfg.thresholds is None and cfg.narrowing_steps == 0

    def test_apply_named_restores_prefix(self):
        cfg = AnalyzerConfig()
        ladder = DegradationLadder(cfg)
        ladder.apply_named(["thin-thresholds", "drop-ellipsoids"])
        assert ladder.applied == ["thin-thresholds", "drop-ellipsoids"]
        assert not cfg.enable_ellipsoids
        assert cfg.enable_octagons  # later rungs untouched
        with pytest.raises(ValueError):
            ladder.apply_named(["no-such-rung"])


# ---------------------------------------------------------------------------
# Worker crash recovery
# ---------------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_crash_is_retried_bit_identically(self, subsys, monkeypatch):
        prog, cfg, seq_snap = subsys
        marker = tempfile.NamedTemporaryFile(delete=False)
        marker.close()
        monkeypatch.setenv("REPRO_FAULT_WORKER_CRASH", marker.name)
        par = analyze_program(prog, cfg, jobs=2)
        assert not os.path.exists(marker.name), "no worker claimed the kill"
        assert _snapshot(par) == seq_snap
        crashes = [i for i in par.incidents if i.kind == "worker-crash"]
        assert crashes and crashes[0].action.startswith("retry")
        assert par.exit_code == int(ExitCode.PROVED) or par.alarms

    def test_worker_analyzer_bug_propagates(self, subsys, monkeypatch):
        # Satellite (a): an analyzer bug inside a worker must re-raise,
        # never be masked as a silent sequential retry.
        prog, cfg, _ = subsys
        monkeypatch.setenv("REPRO_FAULT_WORKER_RAISE", "1")
        with pytest.raises(AnalysisError, match="injected analyzer fault"):
            analyze_program(prog, cfg, jobs=2)

    def test_retry_exhaustion_falls_back_sequentially(self, subsys,
                                                      monkeypatch):
        prog, cfg, seq_snap = subsys
        cfg0 = dataclasses.replace(cfg, dispatch_retries=0,
                                   max_pool_rebuilds=0)
        marker = tempfile.NamedTemporaryFile(delete=False)
        marker.close()
        monkeypatch.setenv("REPRO_FAULT_WORKER_CRASH", marker.name)
        par = analyze_program(prog, cfg0, jobs=2)
        assert _snapshot(par) == seq_snap
        actions = {(i.kind, i.action) for i in par.incidents}
        assert ("worker-crash", "gave-up") in actions
        assert ("parallel-disabled", "sequential-fallback") in actions

    def test_unpicklable_state_disables_parallelism(self, subsys):
        from repro.parallel.executor import ParallelEngine

        prog, cfg, _ = subsys
        incidents = IncidentLog()
        # Exercise the classification boundary directly: pickling
        # failures disable the engine instead of raising.
        from repro.analysis import analyze_program as _ap

        par = _ap(prog, cfg, jobs=2)  # healthy run for a live context
        engine = ParallelEngine(par.ctx, 2, incidents=incidents)
        engine._disable("state not picklable: test")
        assert engine._disabled
        assert incidents.count("parallel-disabled") == 1
        engine.close()


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


class TestCheckpointResume:
    def test_halt_leaves_resumable_checkpoint(self, loop_prog, loop_cfg,
                                              tmp_path):
        cp = str(tmp_path / "cp.pkl")
        cfg = dataclasses.replace(loop_cfg, checkpoint_path=cp,
                                  checkpoint_halt_after=2)
        with pytest.raises(SupervisorHalt):
            analyze_program(loop_prog, cfg)
        assert os.path.exists(cp)

    def test_resume_is_bit_identical(self, loop_prog, loop_cfg, tmp_path):
        reference = analyze_program(loop_prog, loop_cfg)
        cp = str(tmp_path / "cp.pkl")
        cfg_cp = dataclasses.replace(loop_cfg, checkpoint_path=cp,
                                     checkpoint_halt_after=2)
        with pytest.raises(SupervisorHalt):
            analyze_program(loop_prog, cfg_cp)
        cfg_rs = dataclasses.replace(loop_cfg, resume_path=cp)
        resumed = analyze_program(loop_prog, cfg_rs)
        assert resumed.resumed
        assert any(i.kind == "resume" for i in resumed.incidents)
        assert _snapshot(resumed) == _snapshot(reference)
        stats_ref = reference.invariant_stats()
        stats_res = resumed.invariant_stats()
        assert dataclasses.asdict(stats_ref) == dataclasses.asdict(stats_res)
        fs_ref, fs_res = reference.final_state, resumed.final_state
        assert fs_ref.includes(fs_res) and fs_res.includes(fs_ref)

    def test_missing_checkpoint_errors(self, loop_prog, loop_cfg, tmp_path):
        cfg = dataclasses.replace(
            loop_cfg, resume_path=str(tmp_path / "absent.pkl"))
        with pytest.raises(CheckpointError, match="not found"):
            analyze_program(loop_prog, cfg)

    def test_corrupt_checkpoint_errors(self, loop_prog, loop_cfg, tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"not a pickle")
        cfg = dataclasses.replace(loop_cfg, resume_path=str(bad))
        with pytest.raises(CheckpointError, match="corrupt"):
            analyze_program(loop_prog, cfg)

    def test_config_drift_is_rejected(self, loop_prog, loop_cfg, tmp_path):
        cp = str(tmp_path / "cp.pkl")
        cfg_cp = dataclasses.replace(loop_cfg, checkpoint_path=cp,
                                     checkpoint_halt_after=1)
        with pytest.raises(SupervisorHalt):
            analyze_program(loop_prog, cfg_cp)
        # Same program, different widening schedule: the fingerprint
        # must reject the stale snapshot instead of resuming wrongly.
        cfg_rs = dataclasses.replace(loop_cfg, resume_path=cp,
                                     widening_delay=loop_cfg.widening_delay
                                     + 3)
        with pytest.raises(CheckpointError, match="does not match"):
            analyze_program(loop_prog, cfg_rs)

    def test_fingerprint_covers_program_and_config(self, loop_prog,
                                                   loop_cfg, monkeypatch):
        from repro.iterator.state import AnalysisContext
        from repro.memory.cells import CellTable
        from repro.packing.boolean_packs import compute_bool_packs
        from repro.packing.ellipsoid_sites import find_filter_sites
        from repro.packing.octagon_packs import compute_octagon_packs

        def ctx_for(cfg):
            table = CellTable.for_program(loop_prog, cfg.expand_threshold)
            return AnalysisContext(
                prog=loop_prog, config=cfg, table=table,
                oct_packs=compute_octagon_packs(loop_prog, table, cfg),
                bool_packs=compute_bool_packs(loop_prog, table, cfg),
                filter_sites=find_filter_sites(loop_prog, table))

        fp1 = context_fingerprint(ctx_for(loop_cfg))
        fp2 = context_fingerprint(ctx_for(loop_cfg))
        assert fp1 == fp2
        fp3 = context_fingerprint(
            ctx_for(dataclasses.replace(loop_cfg, narrowing_steps=7)))
        assert fp3 != fp1
        # A checkpoint from a build with other semantics never resumes.
        from repro.supervisor import checkpoint

        monkeypatch.setattr(checkpoint, "SEMANTICS_VERSION",
                            checkpoint.SEMANTICS_VERSION - 1)
        assert context_fingerprint(ctx_for(loop_cfg)) != fp1


# ---------------------------------------------------------------------------
# CLI exit-code contract (satellite b) and end-to-end fault injection
# ---------------------------------------------------------------------------


def _run_cli(args, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_FAULT_WORKER_CRASH", None)
    env.pop("REPRO_FAULT_WORKER_RAISE", None)
    env.pop("REPRO_FAULT_HALT_AFTER_CHECKPOINTS", None)
    if extra_env:
        env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args,
        capture_output=True, text=True, env=env, cwd=str(tmp_path))


class TestExitCodeContract:
    def test_proved_is_0(self, tmp_path):
        f = tmp_path / "clean.c"
        f.write_text("volatile int s;\nint main(void){int x; x=s;"
                     " if (x>9) { x=9; }"
                     " while(1){__ASTREE_wait_for_clock();} return 0;}\n")
        proc = _run_cli(["analyze", str(f), "--input-range", "s=0:9"],
                        tmp_path)
        assert proc.returncode == int(ExitCode.PROVED), proc.stderr

    def test_alarms_is_1(self, tmp_path):
        f = tmp_path / "buggy.c"
        f.write_text(BUGGY_SRC)
        proc = _run_cli(["analyze", str(f), "--input-range",
                         "sensor=0:100"], tmp_path)
        assert proc.returncode == int(ExitCode.ALARMS), proc.stderr
        assert "division-by-zero" in proc.stdout

    def test_degraded_is_2_and_wins_over_alarms(self, tmp_path):
        f = tmp_path / "buggy.c"
        f.write_text(BUGGY_SRC)
        proc = _run_cli(["analyze", str(f), "--input-range", "sensor=0:100",
                         "--deadline", "0.0000001", "--json"], tmp_path)
        assert proc.returncode == int(ExitCode.DEGRADED), proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["degraded"]
        assert payload["exit_code"] == int(ExitCode.DEGRADED)
        assert payload["degradation_steps"]
        assert any(i["kind"] == "deadline" for i in payload["incidents"])

    def test_internal_error_is_3(self, tmp_path):
        f = tmp_path / "clean.c"
        f.write_text(LOOP_SRC)
        proc = _run_cli(["analyze", str(f), "--resume",
                         str(tmp_path / "absent.pkl")], tmp_path)
        assert proc.returncode == int(ExitCode.INTERNAL_ERROR)
        assert "checkpoint" in proc.stderr

    def test_worker_crash_recovers_through_cli(self, tmp_path):
        src = _subsystem_source(nsub=4, width=8)
        f = tmp_path / "subsys.c"
        f.write_text(src)
        marker = tmp_path / "kill-marker"
        marker.write_text("")
        args = ["analyze", str(f), "--jobs", "2", "--json"]
        for k in range(4):
            args += ["--input-range", f"in{k}_a=-500:500",
                     "--input-range", f"in{k}_b=0:1"]
        proc = _run_cli(args, tmp_path,
                        extra_env={"REPRO_FAULT_WORKER_CRASH": str(marker)})
        assert proc.returncode in (int(ExitCode.PROVED),
                                   int(ExitCode.ALARMS)), proc.stderr
        payload = json.loads(proc.stdout)
        if not marker.exists():  # a worker actually took the kill
            assert any(i["kind"] == "worker-crash"
                       for i in payload["incidents"])

    def test_checkpoint_kill_resume_through_cli(self, tmp_path):
        f = tmp_path / "loop.c"
        f.write_text(LOOP_SRC)
        cp = tmp_path / "cp.pkl"
        base = ["analyze", str(f), "--input-range", "in1=-10:10", "--json"]
        ref = _run_cli(base, tmp_path)
        assert ref.returncode in (0, 1), ref.stderr
        ref_payload = json.loads(ref.stdout)

        halted = _run_cli(
            base + ["--checkpoint", str(cp)], tmp_path,
            extra_env={"REPRO_FAULT_HALT_AFTER_CHECKPOINTS": "2"})
        assert halted.returncode == int(ExitCode.INTERNAL_ERROR)
        assert cp.exists()

        resumed = _run_cli(base + ["--resume", str(cp)], tmp_path)
        assert resumed.returncode == ref.returncode, resumed.stderr
        res_payload = json.loads(resumed.stdout)
        assert res_payload["resumed"]
        assert res_payload["alarms"] == ref_payload["alarms"]
        assert res_payload["alarm_count"] == ref_payload["alarm_count"]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


class TestRobustnessReporting:
    def test_markdown_and_json_surface_degradation(self, loop_prog,
                                                   loop_cfg):
        from repro.report import render_json, render_markdown

        cfg = dataclasses.replace(loop_cfg, wall_deadline_s=1e-9)
        result = analyze_program(loop_prog, cfg)
        md = render_markdown(result)
        assert "## Robustness" in md
        assert "DEGRADED" in md
        payload = json.loads(render_json(result))
        rob = payload["robustness"]
        assert rob["degraded"] and rob["exit_code"] == int(ExitCode.DEGRADED)
        assert rob["degradation_steps"]
        assert rob["incidents"]

    def test_healthy_run_has_no_robustness_section(self, loop_prog,
                                                   loop_cfg):
        from repro.report import render_json, render_markdown

        result = analyze_program(loop_prog, loop_cfg)
        assert "## Robustness" not in render_markdown(result)
        rob = json.loads(render_json(result))["robustness"]
        assert not rob["degraded"] and not rob["incidents"]


class TestIncidentLog:
    def test_cap_counts_dropped(self):
        log = IncidentLog()
        for i in range(IncidentLog.MAX_INCIDENTS + 7):
            log.record("worker-crash", action="retry", detail=str(i))
        assert len(log) == IncidentLog.MAX_INCIDENTS
        assert log.dropped == 7

    def test_incidents_pickle_roundtrip(self):
        log = IncidentLog()
        log.record("deadline", action="degrade:thin-thresholds", detail="x")
        restored = pickle.loads(pickle.dumps(log.incidents))
        assert restored == log.incidents
