"""Certification across the engine matrix and the serving layer.

A 20-seed sweep asserts that both engine paths — incremental and full
re-execution, cycled per seed — produce results whose certificates the
independent checker validates: the certification layer must not depend
on *how* the fixpoint was computed.  The serve tests
then pin the warm path: journal-warmed results (including after a
daemon restart) are certified before they are returned, and a warm
result that fails certification is discarded and re-run cold with a
bit-identical digest.
"""

import os

import pytest

from repro.analysis import analyze_program
from repro.certify import build_certificate, check_certificate
from repro.config import AnalyzerConfig
from repro.errors import CertificateError
from repro.frontend import compile_source
from repro.serve.worker import JobExecutor

# ---------------------------------------------------------------------------
# Seed-varied program family (persistent int counters included)
# ---------------------------------------------------------------------------


def _family_source(nsub, width):
    lines = []
    for k in range(nsub):
        lines.append(f"volatile float in{k}_a;")
        lines.append(f"volatile int in{k}_b;")
        lines.append(f"float s{k}_x; float s{k}_y; int s{k}_c;")
    for k in range(nsub):
        lines.append(f"""
void step_{k}(void) {{
    float e; int j; int m;
    e = in{k}_a;
    if (e > 100.0f) {{ e = 100.0f; }}
    if (e < -100.0f) {{ e = -100.0f; }}
    m = in{k}_b;
    if (s{k}_c < 100000) {{ s{k}_c = s{k}_c + 1; }}
    j = 0;
    while (j < {width}) {{
        s{k}_x = 0.8f * s{k}_x + 0.2f * e;
        j = j + 1;
    }}
    if (m) {{ s{k}_y = s{k}_x; }} else {{ s{k}_y = 0.0f; }}
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


def _case(seed, **overrides):
    nsub = 1 + seed % 2
    width = 3 + (seed * 3) % 5
    src = _family_source(nsub, width)
    ranges = {}
    for k in range(nsub):
        ranges[f"in{k}_a"] = (-100.0 - 10.0 * (seed % 5),
                             100.0 + 10.0 * (seed % 5))
        ranges[f"in{k}_b"] = (0.0, 1.0)
    cfg = AnalyzerConfig(input_ranges=ranges,
                         max_clock=600 + 100 * (seed % 4),
                         certify=True, **overrides)
    return src, compile_source(src, f"fam_{seed}.c"), cfg


# Cycle the engine across 20 seeds (incremental on a 2-cycle).
SWEEP = [(s, (s // 2) % 2 == 0) for s in range(20)]


class TestCertifySweep:
    @pytest.mark.parametrize("seed,incremental", SWEEP)
    def test_every_engine_path_certifies(self, seed, incremental):
        src, prog, cfg = _case(seed, incremental=incremental)
        result = analyze_program(prog, cfg)
        assert result.cert_invariants, "engine recorded no loop records"
        cert = build_certificate(result, src, f"fam_{seed}.c")
        chk = check_certificate(cert)
        assert chk.exit_code in (0, 1)
        assert chk.loops_checked == len(
            cert["payload"]["loop_records"])
        assert chk.claimed_alarms == len(cert["payload"]["alarms"])


# ---------------------------------------------------------------------------
# Serve-side certification
# ---------------------------------------------------------------------------

SERVE_SRC = """
volatile float in1;
int count = 0;
float x = 0.0f;
void main() {
  while (1) {
    float v = in1;
    if (count < 100000) { count = count + 1; }
    x = 0.8f * x + v;
    if (x > 1000.0f) { x = 1000.0f; }
    __ASTREE_wait_for_clock();
  }
}
"""


def _run_msg(job_id):
    return {"op": "run", "job_id": job_id,
            "sources": [["serve.c", SERVE_SRC]], "entry": "main",
            "config_overrides": {"input_ranges": {"in1": [-10.0, 10.0]},
                                 "max_clock": 1000}}


class TestServeCertification:
    def test_warm_run_is_certified(self, tmp_path):
        ex = JobExecutor(str(tmp_path), certify_mode="all")
        cold = ex.run(_run_msg("j1"))
        assert cold["ok"] and cold["harvested"]
        assert not cold["certified"]  # cold runs are not warm-validated
        warm = ex.run(_run_msg("j2"))
        assert warm["ok"]
        assert warm["result"]["cross_run_hits"] > 0
        assert warm["certified"] and not warm["certify_rejected"]
        assert warm["digest"] == cold["digest"]
        assert ex.stats()["certify"] == {"mode": "all", "certified": 1,
                                         "rejections": 0}

    def test_warm_after_daemon_restart_is_certified(self, tmp_path):
        # Fresh executor over the same cache dir = the daemon-restart
        # journal path: the warm hit replays a journal written by a
        # process that no longer exists, and still certifies.
        cold = JobExecutor(str(tmp_path),
                           certify_mode="all").run(_run_msg("j1"))
        restarted = JobExecutor(str(tmp_path), certify_mode="all")
        warm = restarted.run(_run_msg("j2"))
        assert warm["result"]["cross_run_hits"] > 0
        assert warm["certified"]
        assert warm["digest"] == cold["digest"]

    def test_rejected_warm_result_is_rerun_cold(self, tmp_path,
                                                monkeypatch):
        import repro.certify as certify_mod

        ex = JobExecutor(str(tmp_path), certify_mode="all")
        cold = ex.run(_run_msg("j1"))

        real = certify_mod.certify_result
        calls = {"n": 0}

        def fail_first(result, sources, filename="<input>"):
            calls["n"] += 1
            if calls["n"] == 1:
                raise CertificateError("injected warm-result rejection")
            return real(result, sources, filename)

        monkeypatch.setattr(certify_mod, "certify_result", fail_first)
        warm = ex.run(_run_msg("j2"))
        assert warm["ok"]
        assert warm["certify_rejected"]
        assert warm["certified"]  # the cold re-run certified
        # The re-run was genuinely cold (no journal replay) and lands
        # on the same digest.
        assert warm["result"]["cross_run_hits"] == 0
        assert warm["digest"] == cold["digest"]
        assert ex.stats()["certify"]["rejections"] == 1

    def test_double_failure_fails_the_job(self, tmp_path, monkeypatch):
        import repro.certify as certify_mod

        ex = JobExecutor(str(tmp_path), certify_mode="all")
        ex.run(_run_msg("j1"))

        def always_fail(result, sources, filename="<input>"):
            raise CertificateError("nothing certifies today")

        monkeypatch.setattr(certify_mod, "certify_result", always_fail)
        reply = ex.run(_run_msg("j2"))
        # Neither the warm result nor the cold re-run validated: the
        # job fails with an error envelope, nothing is returned as ok.
        assert reply["ok"] is False
        assert "CertificateError" in reply["error"]

    def test_sampled_mode_is_deterministic(self, tmp_path):
        ex = JobExecutor(str(tmp_path), certify_mode="sampled")
        ex.run(_run_msg("j1"))
        first = ex.run(_run_msg("j2"))
        second = ex.run(_run_msg("j3"))
        # Same source digest -> same sampling decision every time.
        assert first["certified"] == second["certified"]

    def test_off_mode_never_certifies(self, tmp_path):
        ex = JobExecutor(str(tmp_path), certify_mode="off")
        ex.run(_run_msg("j1"))
        warm = ex.run(_run_msg("j2"))
        assert warm["result"]["cross_run_hits"] > 0
        assert not warm["certified"]

    def test_server_counters_and_stats(self, tmp_path):
        import shutil

        from repro.serve.jobs import Job
        from repro.serve.server import AnalysisServer, ServeConfig

        cache_dir = str(tmp_path / "cache")
        overrides = {"input_ranges": {"in1": [-10.0, 10.0]},
                     "max_clock": 1000}

        cold_server = AnalysisServer(ServeConfig(
            socket_path=str(tmp_path / "s1.sock"), cache_dir=cache_dir,
            isolate_jobs=False, certify_serve="all"))
        j1 = Job("job-1", [("serve.c", SERVE_SRC)], "main", overrides)
        cold_server._serve_job(j1)
        assert j1.envelope["ok"]

        # Restart with the exact-result cache pruned but the fixpoint
        # journals intact (the stores evict independently): the only
        # way to answer job 2 is the journal-warmed path, which a
        # certify_serve="all" daemon must validate and count.
        shutil.rmtree(os.path.join(cache_dir, "results"))
        server = AnalysisServer(ServeConfig(
            socket_path=str(tmp_path / "s2.sock"), cache_dir=cache_dir,
            isolate_jobs=False, certify_serve="all"))
        j2 = Job("job-2", [("serve.c", SERVE_SRC)], "main", overrides)
        server._serve_job(j2)
        assert j2.envelope["ok"]
        assert j2.envelope["result"]["cross_run_hits"] > 0
        assert j2.envelope["digest"] == j1.envelope["digest"]
        stats = server.stats()["certify"]
        assert stats["mode"] == "all"
        assert stats["certified"] == 1
        assert stats["rejections"] == 0

    def test_render_serve_stats_certify_line(self):
        from repro.report import render_serve_stats

        text = render_serve_stats({
            "certify": {"mode": "all", "certified": 7, "rejections": 2},
        })
        assert "certification (all)" in text
        assert "7 warm result(s) certified" in text
        assert "2 rejected" in text
