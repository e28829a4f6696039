"""The cost ledger finds analyzer code by name.

A traced ledger run (``python -m benchmarks.ledger --trace``) wraps the
functions listed in ``benchmarks.ledger.trace.TARGETS`` and copies the
``AnalysisResult`` fields named in ``RESULT_COUNTERS``; the ``edit-loop``
workload drives the serve daemon through ``ServeClient`` and reads its
replies and stats by key.  A rename or a deleted field breaks it, but
only a traced run would notice; these tests pin both lists (read as
they are, never edited) and the daemon surface in the tier-1 suite.
"""

import dataclasses
import json
import threading

from benchmarks.ledger import procs, trace
from repro.analysis import AnalysisResult


def test_every_trace_target_resolves():
    missing = []
    for _layer, module, qualname, _keep in trace.TARGETS:
        try:
            owner, attr = trace._resolve(module, qualname)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module}:{qualname} ({exc})")
            continue
        # install() patches owner.__dict__[attr]: an inherited name
        # would not do.
        if not callable(vars(owner).get(attr)):
            missing.append(f"{module}:{qualname}")
    assert not missing, missing


def test_every_result_counter_is_a_result_field():
    fields = {f.name for f in dataclasses.fields(AnalysisResult)}
    assert set(trace.RESULT_COUNTERS) <= fields, \
        sorted(set(trace.RESULT_COUNTERS) - fields)


def test_recorder_dump_reads_closure_counters(tmp_path):
    path = tmp_path / "trace.json"
    trace.Recorder().dump(str(path))
    data = json.loads(path.read_text())
    assert set(data["closure_memo"]) == {"hits", "computations"}


def test_daemon_surface_the_ledger_reads(tmp_path):
    # benchmarks/ledger/procs.py (Daemon) and the edit-loop workload:
    # the client calls, the reply and result keys, and the stats and
    # health keys, read on a fresh daemon and after a trivial submit.
    from repro.serve.client import ServeClient, wait_until_ready
    from repro.serve.server import AnalysisServer, ServeConfig

    sock = str(tmp_path / "ledger.sock")
    server = AnalysisServer(ServeConfig(socket_path=sock,
                                        cache_dir=str(tmp_path / "cache")))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = None
    try:
        wait_until_ready(sock, timeout_s=60.0, alive=thread.is_alive)
        client = ServeClient(sock, timeout=procs.JOB_TIMEOUT_S)
        assert client.ping()["ok"]

        def surface():
            stats = client.stats()["stats"]
            return {"frontend": (stats["frontend_cache"]["hits"],
                                 stats["frontend_cache"]["misses"]),
                    "restarts": stats["worker"]["restarts"],
                    "certify": (stats["certify"]["certified"],
                                stats["certify"]["rejections"]),
                    "pid": client.health()["health"]["worker"]["pid"]}

        fresh = surface()
        assert fresh == dict(fresh, frontend=(0, 0), restarts=0,
                             certify=(0, 0))
        assert fresh["pid"] is not None
        reply = client.submit([("setup.c", procs.TRIVIAL_SOURCE)],
                              config={}, bypass_cache=False)
        assert reply["ok"] and not reply["cached"]
        assert reply["digest"] and reply["wall_s"] >= 0.0
        result = reply["result"]
        assert (result["alarm_count"], result["exit_code"]) == (0, 0)
        assert result["cross_run_hits"] == result["cross_run_seeded"] == 0
        assert surface() == dict(fresh, frontend=(0, 1))
        assert client.shutdown()["ok"]
    finally:
        if client is not None:
            client.close()
        server.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()
