"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.errors import ExitCode


SRC_CLEAN = """
volatile int sensor;
int out;
int main(void) {
    int s = sensor;   /* one read: volatiles may differ between reads */
    if (s > 0) { out = 100 / s; }
    return 0;
}
"""

SRC_BUGGY = """
volatile int sensor;
int out;
int main(void) {
    out = 100 / sensor;
    return 0;
}
"""


@pytest.fixture
def clean_file(tmp_path):
    p = tmp_path / "clean.c"
    p.write_text(SRC_CLEAN)
    return str(p)


@pytest.fixture
def buggy_file(tmp_path):
    p = tmp_path / "buggy.c"
    p.write_text(SRC_BUGGY)
    return str(p)


class TestAnalyzeCommand:
    def test_clean_program(self, clean_file, capsys):
        rc = main(["analyze", clean_file, "--input-range", "sensor=0:100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 alarm(s)" in out

    def test_buggy_program_reports(self, buggy_file, capsys):
        rc = main(["analyze", buggy_file, "--input-range", "sensor=0:100"])
        out = capsys.readouterr().out
        assert "division-by-zero" in out

    def test_json_output(self, buggy_file, capsys):
        main(["analyze", buggy_file, "--json",
              "--input-range", "sensor=0:100"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["alarm_count"] == 1
        assert payload["alarms"][0]["kind"] == "division-by-zero"
        # The whole record, counters included, without --stats.
        assert {"stmts_executed", "widening_iterations", "phase_times_s",
                "invariant_stats", "incidents"} <= set(payload)

    def test_baseline_flag(self, clean_file, capsys):
        rc = main(["analyze", clean_file, "--baseline",
                   "--input-range", "sensor=0:100"])
        assert rc == 0

    def test_domain_toggles(self, clean_file, capsys):
        rc = main(["analyze", clean_file, "--no-octagons", "--no-ellipsoids",
                   "--no-trees", "--input-range", "sensor=0:100"])
        assert rc == 0

    def test_invariants_flag(self, tmp_path, capsys):
        p = tmp_path / "loop.c"
        p.write_text("""
        int i;
        int main(void) {
            i = 0;
            while (i < 10) { i = i + 1; }
            return 0;
        }
        """)
        main(["analyze", str(p), "--invariants"])
        out = capsys.readouterr().out
        assert "main loop invariant" in out


    def test_default_analysis_loads_no_process_pool(self, tmp_path):
        # The engine is sequential: a run that reaches a loop fixpoint
        # (and so the incremental engine's footprints) must not import
        # the process-pool machinery.
        src = tmp_path / "loop.c"
        src.write_text("volatile int s; int x;\n"
                       "int main(void) { while (1) { x = s;"
                       " __ASTREE_wait_for_clock(); } return 0; }\n")
        code = ("import sys\n"
                "from repro.analysis import analyze\n"
                "analyze(open(sys.argv[1]).read(), 'loop.c')\n"
                "print(sorted(m for m in ('multiprocessing',"
                " 'concurrent.futures.process') if m in sys.modules))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestGenerateCommand:
    def test_generate_emits_c(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        rc = main(["generate", "--kloc", "0.2", "--seed", "5",
                   "--spec-out", str(spec_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "int main(void)" in out
        spec = json.loads(spec_path.read_text())
        assert spec["input_ranges"]
        assert spec["max_clock"] > 0

    def test_generated_program_analyzable(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        main(["generate", "--kloc", "0.2", "--seed", "5",
              "--spec-out", str(spec_path)])
        source = capsys.readouterr().out
        src_path = tmp_path / "fam.c"
        src_path.write_text(source)
        spec = json.loads(spec_path.read_text())
        args = ["analyze", str(src_path), "--max-clock", str(spec["max_clock"])]
        for name, (lo, hi) in spec["input_ranges"].items():
            args += ["--input-range", f"{name}={lo}:{hi}"]
        rc = main(args)
        out = capsys.readouterr().out
        assert rc == 0 and "0 alarm(s)" in out


class TestSliceCommand:
    def test_slice_from_alarm(self, buggy_file, capsys):
        rc = main(["slice", buggy_file, "--input-range", "sensor=0:100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "criterion" in out

    def test_slice_no_alarms(self, clean_file, capsys):
        rc = main(["slice", clean_file, "--input-range", "sensor=0:100"])
        out = capsys.readouterr().out
        assert "nothing to slice" in out


class TestExitCodeContract:
    """Internal errors must exit 3 with a structured one-line diagnostic
    on stderr — exception class, message and phase — never silently and
    never with a raw UnicodeDecodeError/uncaught traceback."""

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.c")
        rc = main(["analyze", missing])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "astree-repro: internal-error:" in err
        assert "phase=io" in err
        assert "FileNotFoundError" in err
        assert "nope.c" in err  # the diagnostic names the path

    def test_directory_as_input(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "astree-repro: internal-error:" in err
        assert str(tmp_path) in err

    def test_parse_error_structured_line(self, tmp_path, capsys):
        p = tmp_path / "bad.c"
        p.write_text("int main(void) { return ; }")
        rc = main(["analyze", str(p)])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "phase=frontend" in err
        assert "class=" in err

    def test_bom_file_exits_3_not_unicode_error(self, tmp_path, capsys):
        p = tmp_path / "bom.c"
        p.write_bytes(b"\xef\xbb\xbfint main(void) { return 0; }")
        rc = main(["analyze", str(p)])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "PreprocessorError" in err
        assert "byte-order mark" in err

    def test_non_utf8_file_exits_3_not_unicode_error(self, tmp_path, capsys):
        p = tmp_path / "bin.c"
        p.write_bytes(b"int x;\n\xff\xfe\n")
        rc = main(["analyze", str(p)])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "UnicodeDecodeError" not in err
        assert "bin.c" in err

    def test_missing_checkpoint_resume(self, clean_file, tmp_path, capsys):
        ckpt = str(tmp_path / "never-written.ckpt")
        rc = main(["analyze", clean_file, "--resume", ckpt,
                   "--input-range", "sensor=0:100"])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "phase=checkpoint" in err
        assert "never-written.ckpt" in err

    def test_corrupt_checkpoint_resume(self, clean_file, tmp_path, capsys):
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(b"\x00\x01not a checkpoint")
        rc = main(["analyze", clean_file, "--resume", str(ckpt),
                   "--input-range", "sensor=0:100"])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "phase=checkpoint" in err
        assert "corrupt.ckpt" in err

    def test_truncated_checkpoint_resume(self, tmp_path, capsys):
        # Write a real checkpoint (loops produce fixpoint-iteration
        # boundaries), then truncate it mid-stream.
        p = tmp_path / "loop.c"
        p.write_text("""
        volatile int v; int c;
        int main(void) {
            c = 0;
            while (1) {
                if (v) { c = c + 1; }
                if (c > 100) { c = 0; }
                __ASTREE_wait_for_clock();
            }
            return 0;
        }
        """)
        ckpt = tmp_path / "trunc.ckpt"
        rc = main(["analyze", str(p), "--checkpoint", str(ckpt),
                   "--input-range", "v=0:1"])
        assert rc == 0 and ckpt.exists()
        capsys.readouterr()
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:max(1, len(data) // 2)])
        rc = main(["analyze", str(p), "--resume", str(ckpt),
                   "--input-range", "v=0:1"])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "phase=checkpoint" in err
        assert "trunc.ckpt" in err

    def test_no_silent_swallowing(self, capsys):
        """Unexpected exceptions surface class AND message on stderr
        through the single internal-error funnel."""
        from repro.cli import _internal_error

        rc = _internal_error(ZeroDivisionError("sentinel-detail-42"))
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "class=ZeroDivisionError" in err
        assert "sentinel-detail-42" in err
        assert "phase=unexpected" in err


class TestFuzzCommand:
    def test_small_clean_campaign(self, capsys):
        rc = main(["fuzz", "--seed", "3", "--cases", "2", "--in-process",
                   "--quiet", "--no-reduce"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_campaign_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "campaign.json"
        rc = main(["fuzz", "--seed", "3", "--cases", "2", "--in-process",
                   "--quiet", "--no-reduce", "--json",
                   "--json-out", str(report_path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["cases_run"] == 2
        on_disk = json.loads(report_path.read_text())
        assert on_disk["outcome_counts"] == payload["outcome_counts"]

    def test_replay_missing_case_exits_3(self, tmp_path, capsys):
        rc = main(["fuzz", "--replay", str(tmp_path / "no-such-case.json")])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "no-such-case.json" in err

    def test_replay_corrupt_case_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad-case.json"
        p.write_text("{ not json ]")
        rc = main(["fuzz", "--replay", str(p)])
        err = capsys.readouterr().err
        assert rc == int(ExitCode.INTERNAL_ERROR)
        assert "bad-case.json" in err
