"""Fault-tolerance supervisor: budgets, degradation, the incident log,
and the CLI exit-code contract.

The supervisor's promise is that an analysis run never dies on the user:
tripped resource budgets step down the soundness-preserving degradation
ladder (the run finishes with a coarser verdict and ``degraded=True``).
Every deviation must land in the incident log, and every run lands in
the 0/1/2/3 exit contract.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import analyze_program
from repro.config import AnalyzerConfig
from repro.errors import ExitCode
from repro.fileio import atomic_write
from repro.frontend import compile_source
from repro.frontend.ir import iter_stmts
from repro.supervisor import DEGRADATION_RUNGS, DegradationLadder, IncidentLog

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


def _sids(prog) -> list:
    return [s.sid for fn in prog.functions.values() if fn.body
            for s in iter_stmts(fn.body)]


@pytest.fixture(scope="module")
def loop_prog():
    return compile_source(LOOP_SRC, "loop.c")


@pytest.fixture(scope="module")
def loop_cfg():
    return AnalyzerConfig(input_ranges={"in1": (-10.0, 10.0)},
                          collect_invariants=True, trace=True)


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

    def test_budgets_start_no_thread(self, loop_prog, loop_cfg,
                                     monkeypatch):
        # Budgets are checked at the iterator's polls only: a budgeted
        # run starts no watchdog thread.
        import threading

        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        cfg = dataclasses.replace(loop_cfg, wall_deadline_s=1000.0)
        result = analyze_program(loop_prog, cfg)
        assert not result.degraded
        assert started == []

    def test_no_budgets_no_supervisor(self, loop_prog, loop_cfg):
        result = analyze_program(loop_prog, loop_cfg)
        assert not result.degraded
        assert result.incidents == []
        assert result.degradation_steps == []

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="VmHWM is Linux-only")
    def test_rss_budget_excludes_reaped_children(self, tmp_path):
        """A caller that reaped a big child before analyzing must not
        trip the analyzer's own RSS budget: ``RUSAGE_CHILDREN`` counts
        that child, the analyzer's peak does not."""
        f = tmp_path / "loop.c"
        f.write_text(LOOP_SRC)
        ballast_kib, limit_kib = 200 << 10, 150 << 10
        code = textwrap.dedent(f"""
            import json, subprocess, sys
            from repro.analysis import analyze
            from repro.config import AnalyzerConfig
            subprocess.run([sys.executable, "-c",
                            "b = bytes([1]) * ({ballast_kib} << 10)"],
                           check=True)
            cfg = AnalyzerConfig(input_ranges={{"in1": (-10.0, 10.0)}},
                                 rss_limit_kib={limit_kib})
            r = analyze(open(sys.argv[1]).read(), "loop.c", config=cfg)
            print(json.dumps({{"degraded": r.degraded,
                               "peak_rss_kib": r.peak_rss_kib}}))
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run([sys.executable, "-c", code, str(f)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert not out["degraded"], out
        assert 0 < out["peak_rss_kib"] < limit_kib


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


class TestCheckpointResume:
    """What checkpoint/resume rested on and what still holds without it:
    ``atomic_write`` (behind certificates and the serve cache) leaves the
    whole file or none, with the mode ``open`` gives, and a recompiled
    program gets the same statement ids and the same result, which the
    serve journal relies on when it replays statement records by id
    across compilations."""

    def test_resume_across_recompilation(self, loop_prog, loop_cfg):
        # A recompilation of the same source (as in a fresh process that
        # compiled another program first) gets the same statement ids and
        # analyses bit-identically.
        reference = analyze_program(loop_prog, loop_cfg)
        compile_source(BUGGY_SRC, "buggy.c")
        again = compile_source(LOOP_SRC, "loop.c")
        assert _sids(again) == _sids(loop_prog)
        assert _snapshot(analyze_program(again, loop_cfg)) \
            == _snapshot(reference)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        import errno

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        kept = tmp_path / "kept.bin"
        atomic_write(str(kept), b"old")
        monkeypatch.setattr(os, "fsync", no_space)
        with pytest.raises(OSError):
            atomic_write(str(tmp_path / "cp.pkl"), b"new")
        with pytest.raises(OSError):
            atomic_write(str(kept), b"new")
        assert os.listdir(tmp_path) == ["kept.bin"]
        assert kept.read_bytes() == b"old"

    def test_written_like_open(self, tmp_path):
        # A user-facing file gets the mode open() gives under the umask,
        # and a missing directory is an error, not created; a private one
        # is 0600 in a directory made on demand.
        old = os.umask(0o027)
        try:
            atomic_write(str(tmp_path / "cp.pkl"), b"data")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "cp.pkl").st_mode & 0o777 == 0o640
        with pytest.raises(FileNotFoundError):
            atomic_write(str(tmp_path / "no" / "cp.pkl"), b"data")
        assert os.listdir(tmp_path) == ["cp.pkl"]
        atomic_write(str(tmp_path / "cache" / "e.bin"), b"data",
                     private=True)
        assert os.stat(tmp_path / "cache" / "e.bin").st_mode & 0o777 \
            == 0o600


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------


def _run_cli(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
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
        # No verdict and no usage error: a certificate that is not there.
        proc = _run_cli(["check-certificate",
                         str(tmp_path / "absent.json")], tmp_path)
        assert proc.returncode == int(ExitCode.INTERNAL_ERROR)
        assert proc.stderr.splitlines() == [
            f"astree-repro: internal-error: phase=certify "
            f"class=CertificateError: certificate file not found: "
            f"{tmp_path / 'absent.json'}"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "loop.c", "--jobs", "2"],
        ["analyze", "loop.c", "--no-vectorize"],
        ["analyze", "loop.c", "--vectorize-min-cells", "4"],
        ["analyze", "loop.c", "--no-incremental"],
        ["analyze", "loop.c", "--incremental"],
        ["analyze", "loop.c", "--strict"],
        ["analyze", "loop.c", "--profile-phases"],
        ["analyze", "loop.c", "--no-such-flag"],
        ["analyze", "loop.c", "--max-clock", "abc"],
        ["serve", "--no-isolate-jobs"],
        ["serve", "--backoff-seed", "7"],
        ["client", "loop.c", "--edit-loop", "3"],
        ["slice", "loop.c", "--invariants"],
        ["analyze", "loop.c", "--checkpoint-every", "2"],
        ["fuzz", "--streams", "2"],
        ["fuzz", "--max-ticks", "24"],
        ["fuzz", "--min-kloc", "0.1"],
        ["fuzz", "--max-kloc", "0.1"],
        ["fuzz", "--max-mutations", "1"],
        ["analyze", "loop.c", "--checkpoint", "cp.pkl"],
        ["analyze", "loop.c", "--resume", "cp.pkl"],
    ], ids=["removed-jobs-flag", "removed-no-vectorize-flag",
            "removed-vectorize-min-cells-flag", "removed-no-incremental-flag",
            "removed-incremental-flag", "removed-strict-flag",
            "removed-profile-phases-flag", "unknown-flag",
            "bad-int-value", "removed-no-isolate-jobs-flag",
            "removed-backoff-seed-flag",
            "removed-edit-loop-flag", "removed-slice-invariants-flag",
            "removed-checkpoint-every-flag", "removed-fuzz-streams-flag",
            "removed-fuzz-max-ticks-flag", "removed-fuzz-min-kloc-flag",
            "removed-fuzz-max-kloc-flag", "removed-fuzz-max-mutations-flag",
            "removed-checkpoint-flag", "removed-resume-flag"])
    def test_usage_error_is_3(self, tmp_path, argv):
        # argparse's own exit 2 would read as a degraded verdict.
        (tmp_path / "loop.c").write_text(LOOP_SRC)
        proc = _run_cli(argv, tmp_path)
        assert proc.returncode == int(ExitCode.INTERNAL_ERROR)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "astree-repro: internal-error: phase=cli class=UsageError: ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_help_is_0(self, tmp_path):
        proc = _run_cli(["analyze", "--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: astree-repro analyze")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


class TestRobustnessReporting:
    def test_markdown_and_json_surface_degradation(self, loop_prog,
                                                   loop_cfg):
        from repro.report import render_text

        cfg = dataclasses.replace(loop_cfg, wall_deadline_s=1e-9)
        result = analyze_program(loop_prog, cfg)
        record = result.to_json()
        assert record["degraded"]
        assert record["exit_code"] == int(ExitCode.DEGRADED)
        assert record["degradation_steps"]
        assert record["incidents"]
        assert set(record["incidents"][0]) == {"kind", "action", "detail",
                                               "at_s"}
        text = render_text(record, stats=True)
        assert "-- DEGRADED: " in text
        assert f"  incidents ({len(record['incidents'])}):" in text

    def test_healthy_run_has_no_robustness_section(self, loop_prog,
                                                   loop_cfg):
        from repro.report import render_text

        record = analyze_program(loop_prog, loop_cfg).to_json()
        assert not record["degraded"] and not record["incidents"]
        text = render_text(record, stats=True)
        assert "DEGRADED" not in text and "incidents" not in text


class TestIncidentLog:
    def test_cap_counts_dropped(self):
        log = IncidentLog()
        for i in range(IncidentLog.MAX_INCIDENTS + 7):
            log.record("stmt-timeout", action="degrade:thin-thresholds",
                       detail=str(i))
        assert len(log) == IncidentLog.MAX_INCIDENTS
        assert log.dropped == 7

    def test_incidents_pickle_roundtrip(self):
        log = IncidentLog()
        log.record("deadline", action="degrade:thin-thresholds", detail="x")
        restored = pickle.loads(pickle.dumps(log.incidents))
        assert restored == log.incidents
