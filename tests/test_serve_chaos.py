"""Chaos harness for the crash-isolated serving layer (ISSUE 7).

Deterministic fault injection against the daemon: the worker is killed
mid-job, poisoned jobs crash it reproducibly, protocol frames are cut
in half, cache files are corrupted on disk, and SIGTERM lands mid-job —
and in every case the contract holds: post-recovery results are
bit-identical to cold runs, degraded/cancelled/poisoned outcomes are
never cached, and the daemon always exits cleanly.

Every fault is injected through seeded/one-shot mechanisms (marker
files claimed by unlink, a pinned ``backoff_seed``), so each scenario
replays identically run to run.
"""

import contextlib
import io
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import types

import pytest

import repro
from repro.analysis import analyze
from repro.config import AnalyzerConfig
from repro.errors import ServeError
from repro.serve.client import ServeClient, wait_until_ready
from repro.serve.fingerprints import result_digest, result_payload
from repro.serve.jobs import effective_config
from repro.serve.protocol import (ProtocolError, recv_frame, send_frame,
                                  recv_message, send_message)
from repro.serve.server import AnalysisServer, ServeConfig
from repro.serve.store import ResultStore
from repro.serve.workload import base_program
from repro.supervisor.restart import RestartPolicy


@pytest.fixture(scope="module")
def family():
    return base_program(kloc=0.06, seed=77)


def _overrides(family):
    return {"input_ranges": {k: list(v)
                             for k, v in family.input_ranges.items()},
            "max_clock": family.max_clock}


@pytest.fixture(scope="module")
def cold_digest(family):
    """The reference digest a genuinely cold in-process run produces
    under exactly the effective config the daemon computes."""
    cfg = effective_config(AnalyzerConfig(), _overrides(family), None, None)
    result = analyze(family.source, config=cfg)
    return result_digest(result_payload(result))


@contextlib.contextmanager
def daemon(tmp_path, **cfg_overrides):
    """An in-thread daemon with an isolated worker subprocess, a disk
    cache, and a pinned restart-backoff seed."""
    sock = str(tmp_path / "serve.sock")
    cache = str(tmp_path / "cache")
    cfg = dict(socket_path=sock, cache_dir=cache, job_deadline_s=None,
               backoff_seed=1234)
    cfg.update(cfg_overrides)
    server = AnalysisServer(ServeConfig(**cfg))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_ready(sock, timeout_s=60.0, alive=thread.is_alive)
    clients = []

    def connect():
        c = ServeClient(sock, timeout=180.0)
        clients.append(c)
        return c

    try:
        yield types.SimpleNamespace(server=server, thread=thread,
                                    sock=sock, cache=cache,
                                    connect=connect)
    finally:
        for c in clients:
            c.close()
        server.stop()
        thread.join(timeout=30)
        assert not thread.is_alive(), "daemon thread leaked"


# ---------------------------------------------------------------------------
# Frame protocol: truncation is detected, never mis-parsed
# ---------------------------------------------------------------------------


class TestFrameProtocol:
    def test_roundtrip_and_clean_eof(self):
        buf = io.BytesIO()
        send_frame(buf, {"op": "run", "n": 1})
        send_frame(buf, {"ok": True})
        buf.seek(0)
        assert recv_frame(buf) == {"op": "run", "n": 1}
        assert recv_frame(buf) == {"ok": True}
        assert recv_frame(buf) is None  # clean EOF

    def test_half_written_header(self):
        with pytest.raises(ProtocolError, match="header"):
            recv_frame(io.BytesIO(b"\x00\x00"))

    def test_half_written_body(self):
        data = b'{"ok": true}'
        frame = struct.pack(">I", len(data)) + data
        with pytest.raises(ProtocolError, match="body"):
            recv_frame(io.BytesIO(frame[:-3]))

    def test_garbage_body(self):
        body = b"not json at all"
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="JSON"):
            recv_frame(io.BytesIO(frame))


# ---------------------------------------------------------------------------
# Restart pacing: seeded, exponential, capped
# ---------------------------------------------------------------------------


class TestRestartPolicy:
    def test_seeded_sequence_is_deterministic(self):
        a, b = RestartPolicy(seed=42), RestartPolicy(seed=42)
        da = [a.next_delay() for _ in range(8)]
        db = [b.next_delay() for _ in range(8)]
        assert da == db
        assert da != [RestartPolicy(seed=43).next_delay()
                      for _ in range(8)]

    def test_growth_jitter_and_cap(self):
        p = RestartPolicy(base_s=0.05, cap_s=5.0, seed=7)
        delays = [p.next_delay() for _ in range(12)]
        for i, d in enumerate(delays):
            raw = min(5.0, 0.05 * (2.0 ** i))
            assert raw <= d <= raw * 1.5
        assert max(delays) <= 5.0 * 1.5

    def test_reset_after_success(self):
        p = RestartPolicy(base_s=0.05, cap_s=5.0, seed=7)
        for _ in range(6):
            p.next_delay()
        p.reset()
        assert p.failures == 0
        assert p.next_delay() <= 0.05 * 1.5


# ---------------------------------------------------------------------------
# Worker killed mid-job: restart, one retry, bit-identical result
# ---------------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def test_kill_mid_job_retried_bit_identical(self, tmp_path, monkeypatch,
                                                family, cold_digest):
        marker = tmp_path / "kill.marker"
        marker.write_text("")
        monkeypatch.setenv("REPRO_FAULT_SERVE_WORKER_CRASH", str(marker))
        with daemon(tmp_path) as d:
            c = d.connect()
            reply = c.submit([("fam.c", family.source)],
                             config=_overrides(family))
            assert reply["ok"] and not reply["cached"]
            # The injected kill fired (one-shot marker was claimed)...
            assert not marker.exists()
            # ...and the retried run is bit-identical to a cold run.
            assert reply["digest"] == cold_digest

            health = c.health()["health"]
            assert health["worker"]["mode"] == "subprocess"
            assert health["worker"]["restarts"] == 1
            assert health["worker"]["alive"]
            stats = c.stats()["stats"]
            assert stats["runs"]["retries"] == 1
            assert "ChaosWorkerKillError" in \
                stats["worker"]["last_crash_signature"]

            # The recovered result is a complete successful run: cached.
            again = c.submit([("fam.c", family.source)],
                             config=_overrides(family))
            assert again["cached"] and again["digest"] == cold_digest
            # A transient crash does not creep toward quarantine.
            assert d.server.poison.stats()["keys_with_crashes"] == 0

    def test_truncated_reply_frame_is_a_worker_death(self, tmp_path,
                                                     monkeypatch, family,
                                                     cold_digest):
        marker = tmp_path / "truncate.marker"
        marker.write_text("")
        monkeypatch.setenv("REPRO_FAULT_SERVE_TRUNCATE_FRAME", str(marker))
        with daemon(tmp_path) as d:
            c = d.connect()
            reply = c.submit([("fam.c", family.source)],
                             config=_overrides(family))
            assert reply["ok"]
            assert not marker.exists()
            assert reply["digest"] == cold_digest
            health = c.health()["health"]
            assert health["worker"]["restarts"] == 1
            assert "ChaosTruncatedFrameError" in \
                health["worker"]["last_crash_signature"]


# ---------------------------------------------------------------------------
# Poison jobs: quarantined after two crashes, never cached, re-admittable
# ---------------------------------------------------------------------------


class TestPoisonQuarantine:
    SUBSTR = "POISON_ME_7f3"

    def _poison_source(self, family):
        return f"/* {self.SUBSTR} */\n" + family.source

    def test_poison_quarantine_lifecycle(self, tmp_path, monkeypatch,
                                         family, cold_digest):
        monkeypatch.setenv("REPRO_FAULT_SERVE_POISON_SUBSTR", self.SUBSTR)
        poison_src = self._poison_source(family)
        ov = _overrides(family)

        with daemon(tmp_path) as d:
            c = d.connect()
            r1 = c.submit([("fam.c", poison_src)], config=ov)
            # Crashed the worker twice under one stable signature:
            # structured poisoned error, not a hang, not a crash loop.
            assert not r1["ok"] and r1.get("poisoned")
            assert "ChaosPoisonError" in r1["signature"]
            assert c.health()["health"]["worker"]["restarts"] == 2

            # The identical request key is refused without a worker.
            r2 = c.submit([("fam.c", poison_src)], config=ov)
            assert not r2["ok"] and r2.get("poisoned")
            assert c.health()["health"]["worker"]["restarts"] == 2
            assert c.health()["health"]["quarantine_size"] == 1

            # Innocent jobs still serve fine, and the poisoned job was
            # never cached.
            ok = c.submit([("fam.c", family.source)], config=ov)
            assert ok["ok"] and ok["digest"] == cold_digest
            stats = c.stats()["stats"]
            assert stats["quarantine"]["poisoned"] == 1
            assert stats["quarantine"]["refusals"] == 1
            assert stats["result_cache"]["puts"] == 1  # the innocent job

        # Quarantine persists across a daemon restart...
        assert os.path.exists(os.path.join(
            tmp_path, "cache", "quarantine", "poisoned.json"))
        monkeypatch.delenv("REPRO_FAULT_SERVE_POISON_SUBSTR")
        with daemon(tmp_path) as d2:
            c2 = d2.connect()
            r3 = c2.submit([("fam.c", poison_src)], config=ov)
            assert not r3["ok"] and r3.get("poisoned")
            # ...and a successful bypass_cache run re-admits the key
            # (the injected fault is gone: the "fixed input" workflow).
            readmit = c2.submit([("fam.c", poison_src)], config=ov,
                                bypass_cache=True)
            assert readmit["ok"]
            normal = c2.submit([("fam.c", poison_src)], config=ov)
            assert normal["ok"] and not normal["cached"]
            assert normal["digest"] == readmit["digest"]
            assert c2.health()["health"]["quarantine_size"] == 0


# ---------------------------------------------------------------------------
# Graceful drain: SIGTERM finishes the in-flight job, flushes, exits 0
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_sigterm_drains_in_flight_job(self, tmp_path, family,
                                          cold_digest):
        sock = tmp_path / "cli.sock"
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", str(sock), "--cache-dir", str(tmp_path / "cache"),
             "--backoff-seed", "7", "--drain-deadline", "60",
             "--job-deadline", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            wait_until_ready(str(sock), timeout_s=90.0,
                             alive=lambda: proc.poll() is None)

            results = {}

            def bg_submit():
                with ServeClient(str(sock), timeout=180.0) as c:
                    results["reply"] = c.submit(
                        [("fam.c", family.source)],
                        config=_overrides(family))

            t = threading.Thread(target=bg_submit, daemon=True)
            t.start()
            with ServeClient(str(sock), timeout=30.0) as probe:
                while probe.stats()["stats"]["queue"]["submitted"] < 1:
                    time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=180)
            t.join(timeout=180)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 0, err
        assert "stopped" in out
        assert not sock.exists(), "socket file not removed on drain"
        reply = results["reply"]
        assert reply["ok"], reply
        assert reply["digest"] == cold_digest

    def test_drain_deadline_escalates_without_poisoning(self, tmp_path,
                                                        family):
        with daemon(tmp_path, drain_deadline_s=0.05) as d:
            c = d.connect()
            ticket = c.submit([("fam.c", family.source)],
                              config=_overrides(family), wait=False)
            job = d.server.queue.get(ticket["job_id"])
            deadline = time.time() + 60
            while job.state == "queued":
                assert time.time() < deadline
                time.sleep(0.01)
            d.server.stop()
            d.thread.join(timeout=60)
            assert not d.thread.is_alive()

            # The in-flight job was cancelled with a retryable envelope,
            # the kill was not recorded as a crash of the *job*, nothing
            # was cached, and the escalation left an incident trail.
            if job.envelope.get("ok"):
                # Tiny-machine race: the job squeaked in under the
                # deadline; the drain then needed no escalation.
                assert job.envelope["digest"]
            else:
                assert job.envelope.get("cancelled")
                assert job.envelope.get("retryable")
                assert d.server.poison.stats()["keys_with_crashes"] == 0
                assert d.server.stats()["result_cache"]["puts"] == 0
                assert any("drain deadline" in i
                           for i in d.server.incidents)
            assert not os.path.exists(d.sock)


# ---------------------------------------------------------------------------
# Corrupt cache files: quarantined on read, recomputed bit-identically
# ---------------------------------------------------------------------------


class TestCorruptCacheFiles:
    def test_store_checksum_catches_silent_corruption(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "ab" * 32
        store.put(key, {"digest": "d", "result": {"alarm_count": 1}})
        path = os.path.join(str(tmp_path), "results", f"{key}.json")
        # Valid JSON, wrong payload: only the checksum can catch this.
        with open(path, "rb") as f:
            header, payload = f.read().split(b"\n", 1)
        with open(path, "wb") as f:
            f.write(header + b"\n"
                    + payload.replace(b'"alarm_count": 1',
                                      b'"alarm_count": 9'))
        fresh = ResultStore(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.stats()["quarantined"] == 1
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(
            str(tmp_path), "results", "quarantine", f"{key}.json"))

    def test_corrupt_caches_recovered_end_to_end(self, tmp_path, family,
                                                 cold_digest):
        ov = _overrides(family)
        with daemon(tmp_path) as d:
            c = d.connect()
            first = c.submit([("fam.c", family.source)], config=ov)
            assert first["ok"]

        cache = str(tmp_path / "cache")
        rdir = os.path.join(cache, "results")
        results = [n for n in os.listdir(rdir) if n.endswith(".json")]
        assert results
        for name in results:  # headerless garbage: a pre-checksum file
            with open(os.path.join(rdir, name), "w") as f:
                f.write('{"digest": "beef", "result": {}}')
        jdir = os.path.join(cache, "fixpoint")
        for name in os.listdir(jdir):
            if name.endswith(".pkl"):
                with open(os.path.join(jdir, name), "wb") as f:
                    f.write(b"\x80garbage-not-a-journal")

        with daemon(tmp_path) as d2:
            c2 = d2.connect()
            again = c2.submit([("fam.c", family.source)], config=ov)
            # Not served from the corrupt entry, recomputed cold,
            # bit-identical; the corrupt file moved aside for post-mortem.
            assert again["ok"] and not again["cached"]
            assert again["digest"] == cold_digest
            stats = c2.stats()["stats"]
            assert stats["result_cache"]["quarantined"] >= 1
            assert os.path.isdir(os.path.join(rdir, "quarantine"))


# ---------------------------------------------------------------------------
# Socket lifecycle: stale socket recovery, double-daemon refusal
# ---------------------------------------------------------------------------


class TestSocketLifecycle:
    def test_stale_socket_is_unlinked_and_rebound(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.bind(sock)
        s.close()  # leaves the file behind with nothing listening
        assert os.path.exists(sock)
        with daemon(tmp_path, isolate_jobs=False) as d:
            assert d.connect().ping()["ok"]
            assert any("stale socket" in i for i in d.server.incidents)

    def test_second_daemon_is_refused(self, tmp_path):
        with daemon(tmp_path, isolate_jobs=False) as d:
            second = AnalysisServer(ServeConfig(socket_path=d.sock,
                                                isolate_jobs=False))
            with pytest.raises(ServeError, match="already listening"):
                second.serve_forever()
            # The live daemon's socket must not have been disturbed.
            assert d.connect().ping()["ok"]


# ---------------------------------------------------------------------------
# Overload shedding and client-side retry
# ---------------------------------------------------------------------------


class TestOverloadAndRetry:
    def _submit_msg(self, text="void main(){}"):
        return {"op": "submit", "sources": [["a.c", text]], "wait": False}

    def test_queue_full_is_retryable_with_hint(self, tmp_path):
        server = AnalysisServer(ServeConfig(
            socket_path=str(tmp_path / "x.sock"), max_queue=1,
            isolate_jobs=False))
        assert server._op_submit(self._submit_msg())["ok"]
        shed = server._op_submit(self._submit_msg("void main(){int x;}"))
        assert not shed["ok"] and shed["retryable"]
        assert shed["retry_after_s"] > 0

    def test_draining_daemon_refuses_submits(self, tmp_path):
        server = AnalysisServer(ServeConfig(
            socket_path=str(tmp_path / "x.sock"), isolate_jobs=False))
        server._draining.set()
        refused = server._op_submit(self._submit_msg())
        assert not refused["ok"] and refused["retryable"]
        assert "draining" in refused["error"]

    @contextlib.contextmanager
    def _fake_daemon(self, tmp_path, script):
        """A scripted protocol peer: each accepted connection answers
        requests from (or acts out) the next entries of ``script``."""
        path = str(tmp_path / "fake.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(4)
        listener.settimeout(10.0)

        def serve():
            for action in script:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                reader = conn.makefile("rb")
                try:
                    for step in action:
                        msg = recv_message(reader)
                        if msg is None:
                            break
                        if step == "close":
                            break  # drop the connection mid-response
                        send_message(conn, step)
                finally:
                    # shutdown() delivers the EOF immediately; close()
                    # alone defers it while the makefile reader holds
                    # the descriptor.
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    reader.close()
                    conn.close()

        t = threading.Thread(target=serve, daemon=True)
        t.start()
        try:
            yield path
        finally:
            listener.close()
            t.join(timeout=5)

    def test_client_surfaces_eof_as_typed_retryable_error(self, tmp_path):
        from repro.errors import ServeConnectionError

        with self._fake_daemon(tmp_path, [["close"]]) as path:
            client = ServeClient(path, timeout=10.0)
            with pytest.raises(ServeConnectionError,
                               match="closed the connection"):
                client.request({"op": "ping"})

    def test_client_submit_retries_after_hint(self, tmp_path):
        shed = {"ok": False, "error": "queue full", "retryable": True,
                "retry_after_s": 0.01}
        done = {"ok": True, "job_id": "job-1", "cached": False,
                "digest": "d", "result": {}, "wall_s": 0.0}
        with self._fake_daemon(tmp_path, [[shed, done]]) as path:
            client = ServeClient(path, timeout=10.0)
            reply = client.submit([("a.c", "void main(){}")], retries=2)
            assert reply["ok"] and reply["digest"] == "d"

    def test_client_submit_reconnects_after_server_death(self, tmp_path):
        done = {"ok": True, "job_id": "job-1", "cached": True,
                "digest": "d", "result": {}, "wall_s": 0.0}
        # Connection 1 dies mid-response; connection 2 answers.
        with self._fake_daemon(tmp_path, [["close"], [done]]) as path:
            client = ServeClient(path, timeout=10.0)
            reply = client.submit([("a.c", "void main(){}")], retries=1,
                                  backoff_s=0.01)
            assert reply["ok"] and reply["digest"] == "d"
