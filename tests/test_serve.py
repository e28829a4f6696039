"""Serving layer: fingerprints, stores, cross-run cache, daemon.

The load-bearing property throughout is the determinism contract of
ISSUE 6: a warm (cache-served) analysis is bit-identical — alarms,
invariant statistics, exit code — to a cold run of the same source and
configuration, including after a daemon restart reloads the caches from
disk, and degraded runs are never cached nor served in place of
full-precision results.
"""

import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro.analysis import analyze
from repro.config import AnalyzerConfig
from repro.serve.cache import CrossRunCache, FrontendCache
from repro.serve.client import wait_until_ready
from repro.serve.fingerprints import (compat_fingerprint, config_fingerprint,
                                      request_key, result_digest,
                                      result_payload, source_digest)
from repro.serve.jobs import Job, JobQueue, QueueFull
from repro.serve.protocol import (ProtocolError, recv_message, send_message)
from repro.serve.server import AnalysisServer, ServeConfig
from repro.serve.store import JournalStore, ResultStore
from repro.serve.workload import base_program, make_variant


@pytest.fixture(scope="module")
def family():
    """One pinned family program shared by the module (generation and
    the first cold analysis are the expensive parts)."""
    gp = base_program(kloc=0.12, seed=1234)
    return gp


def _digest_of(result):
    return result_digest(result_payload(result))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprints:
    def test_config_fingerprint_semantic_fields(self):
        cfg = AnalyzerConfig()
        fp = config_fingerprint(cfg)
        assert fp == config_fingerprint(AnalyzerConfig())
        # Precision knobs change the fingerprint...
        assert fp != config_fingerprint(
            dataclasses.replace(cfg, enable_octagons=False))
        assert fp != config_fingerprint(
            dataclasses.replace(cfg, max_widening_iterations=7))
        # ...performance/robustness knobs do not.
        assert fp == config_fingerprint(
            dataclasses.replace(cfg, certify=True))
        assert fp == config_fingerprint(
            dataclasses.replace(cfg, incremental=False))
        assert fp == config_fingerprint(
            dataclasses.replace(cfg, wall_deadline_s=1.0,
                                checkpoint_every=3))

    def test_config_fingerprint_pinned(self):
        # Deleting a non-semantic config field must not move any serve
        # request key, journal key or certificate fingerprint: these
        # values predate the removal of the parallel dispatch fields.
        from repro.config import baseline_config

        assert config_fingerprint(AnalyzerConfig()) == (
            "8e39747431843fc1eb83b61fc54856a577c22d62294d92b13b7d7b87188d3c90")
        assert config_fingerprint(baseline_config()) == (
            "ba90c5089a2eb15fdcd8179e2fbaaaec672d8049292e172084883bcde82bf80a")

    def test_field_name_sets_name_config_fields(self):
        # A mode deletion must not leave a stale name behind in any of
        # the sets that list AnalyzerConfig fields by name.
        from repro.fuzz.worker import _ANALYZER_OVERRIDES
        from repro.serve.fingerprints import _NON_SEMANTIC_FIELDS
        from repro.serve.jobs import CLIENT_FIELDS

        fields = {f.name for f in dataclasses.fields(AnalyzerConfig)}
        assert _NON_SEMANTIC_FIELDS <= fields, _NON_SEMANTIC_FIELDS - fields
        assert CLIENT_FIELDS <= fields, CLIENT_FIELDS - fields
        assert _ANALYZER_OVERRIDES <= fields, _ANALYZER_OVERRIDES - fields

    def test_degraded_effective_config_fingerprints_differently(self):
        # Every degradation rung mutates precision fields, so the
        # effective config of a degraded run can never collide with the
        # requested full-precision entry in any cache keyed by
        # config_fingerprint.
        from repro.supervisor.degradation import DEGRADATION_RUNGS

        cfg = AnalyzerConfig()
        fp_full = config_fingerprint(cfg)
        ladder_cfg = dataclasses.replace(cfg)
        seen = set()
        for name, rung in DEGRADATION_RUNGS:
            rung(ladder_cfg)
            fp = config_fingerprint(ladder_cfg)
            assert fp != fp_full, f"rung {name} invisible to fingerprint"
            seen.add(fp)
        assert len(seen) == len(DEGRADATION_RUNGS)

    def test_request_key_separates_source_entry_config(self):
        cfg = AnalyzerConfig()
        d1 = source_digest([("a.c", "void main(){}")])
        d2 = source_digest([("a.c", "void main(){ }")])
        assert d1 != d2
        assert request_key(d1, "main", cfg) != request_key(d2, "main", cfg)
        assert request_key(d1, "main", cfg) != request_key(d1, "other", cfg)
        assert request_key(d1, "main", cfg) != request_key(
            d1, "main", dataclasses.replace(cfg, enable_octagons=False))

    def test_compat_fingerprint_stable_across_compilations(self, family):
        # Statement/cell ids come from process-global counters; the
        # compat fingerprint must cancel that out.
        from repro.frontend import compile_source
        from repro.iterator.state import AnalysisContext
        from repro.memory.cells import CellTable
        from repro.packing.boolean_packs import compute_bool_packs
        from repro.packing.ellipsoid_sites import find_filter_sites
        from repro.packing.octagon_packs import compute_octagon_packs

        cfg = family.analyzer_config()
        fps = []
        for _ in range(2):
            prog = compile_source(family.source, "fam.c", entry="main")
            table = CellTable.for_program(prog, cfg.expand_threshold)
            ctx = AnalysisContext(
                prog=prog, config=cfg, table=table,
                oct_packs=compute_octagon_packs(prog, table, cfg),
                bool_packs=compute_bool_packs(prog, table, cfg),
                filter_sites=find_filter_sites(prog, table))
            fps.append(compat_fingerprint(ctx))
        assert fps[0] == fps[1]

    def test_result_digest_ignores_timing_counters(self, family):
        cfg = family.analyzer_config()
        r = analyze(family.source, config=cfg)
        p1, p2 = result_payload(r), result_payload(r)
        p2["analysis_time_s"] = 999.0
        p2["stmts_executed"] = 0
        p2["cross_run_hits"] = 12345
        assert result_digest(p1) == result_digest(p2)
        p2["alarm_count"] = p2["alarm_count"] + 1
        assert result_digest(p1) != result_digest(p2)


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class TestStores:
    def test_result_store_roundtrip_and_disk(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "ab" * 32
        store.put(key, {"digest": "d", "result": {"alarm_count": 1}})
        assert store.get(key)["result"]["alarm_count"] == 1
        # A fresh store (daemon restart) reads the same entry from disk.
        store2 = ResultStore(str(tmp_path))
        got = store2.get(key)
        assert got["digest"] == "d"
        assert store2.stats()["disk_hits"] == 1

    def test_entry_under_other_semantics_is_a_miss(self, tmp_path,
                                                   monkeypatch):
        """Keys are salted with SEMANTICS_VERSION: a result written by a
        build with other semantics is never served."""
        from repro.serve import fingerprints

        cfg = AnalyzerConfig()
        d = source_digest([("a.c", "int main(void){return 0;}")])
        new_key = request_key(d, "main", cfg)
        monkeypatch.setattr(fingerprints, "SEMANTICS_VERSION",
                            fingerprints.SEMANTICS_VERSION - 1)
        old_key = request_key(d, "main", cfg)
        ResultStore(str(tmp_path)).put(old_key, {"digest": "stale"})
        monkeypatch.undo()
        store = ResultStore(str(tmp_path))
        assert store.get(new_key) is None
        assert store.stats()["misses"] == 1
        assert store.get(old_key) == {"digest": "stale"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        key = "cd" * 32
        store.put(key, {"x": 1})
        path = os.path.join(str(tmp_path), "results", f"{key}.json")
        with open(path, "w") as f:
            f.write("{truncated")
        store2 = ResultStore(str(tmp_path))
        assert store2.get(key) is None
        assert not os.path.exists(path)  # dropped, not retried forever

    def test_unsafe_keys_never_touch_disk(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put("../escape", {"x": 1})
        assert store.get("../escape") == {"x": 1}  # memory only
        assert not os.path.exists(os.path.join(str(tmp_path), "results",
                                               "../escape.json"))

    def test_disk_eviction_bound(self, tmp_path):
        store = JournalStore(str(tmp_path), max_memory=2, max_disk=3)
        for i in range(6):
            store.put(f"{i:064x}", b"x" * 10)
            time.sleep(0.01)  # mtime ordering
        assert store.entry_count() <= 3
        assert store.stats()["evictions"] >= 3
        # The newest entries survive.
        assert store.get(f"{5:064x}") == b"x" * 10


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "ping", "n": 1})
            reader = b.makefile("rb")
            assert recv_message(reader) == {"op": "ping", "n": 1}
            a.close()
            assert recv_message(reader) is None  # clean EOF
        finally:
            b.close()

    def test_bad_json_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"{nope}\n")
            with pytest.raises(ProtocolError):
                recv_message(b.makefile("rb"))
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Job queue
# ---------------------------------------------------------------------------


class TestJobQueue:
    def _job(self, q):
        return Job(q.new_job_id(), [("a.c", "void main(){}")], "main", {})

    def test_fifo_and_backpressure(self):
        q = JobQueue(max_queue=2)
        j1, j2 = self._job(q), self._job(q)
        q.submit(j1)
        q.submit(j2)
        with pytest.raises(QueueFull):
            q.submit(self._job(q))
        assert q.stats()["rejected"] == 1
        assert q.next_job() is j1
        assert q.next_job() is j2

    def test_close_unblocks_worker(self):
        q = JobQueue()
        got = []
        t = threading.Thread(target=lambda: got.append(q.next_job()))
        t.start()
        q.close()
        t.join(timeout=5)
        assert got == [None]


# ---------------------------------------------------------------------------
# Cross-run cache: differential bit-identity (satellite 3)
# ---------------------------------------------------------------------------


class TestCrossRunDifferential:
    def test_warm_bit_identical_across_edit_sweep(self, family):
        """20-seed edit sweep: every warm run (donor journal from the
        base program) must be bit-identical to a cold run of the same
        variant."""
        cfg = family.analyzer_config()
        harvest = CrossRunCache()
        base = analyze(family.source, config=cfg, cross_run=harvest)
        donor = harvest.harvest_bytes(base)
        assert donor is not None and harvest.total_pairs > 0

        hits_total = 0
        for seed in range(20):
            variant = make_variant(family.source, seed)
            cold = analyze(variant, config=cfg)
            warm_cache = CrossRunCache(donor_bytes=donor, harvest=False)
            warm = analyze(variant, config=cfg, cross_run=warm_cache)
            assert _digest_of(warm) == _digest_of(cold), \
                f"seed {seed}: warm result diverged from cold"
            assert warm.exit_code == cold.exit_code
            assert warm.widening_iterations == cold.widening_iterations
            hits_total += warm.cross_run_hits
        # The sweep as a whole must actually exercise donor splicing.
        assert hits_total > 0

    def test_identity_replay_splices_heavily(self, family):
        cfg = family.analyzer_config()
        harvest = CrossRunCache()
        base = analyze(family.source, config=cfg, cross_run=harvest)
        donor = harvest.harvest_bytes(base)
        warm_cache = CrossRunCache(donor_bytes=donor, harvest=False)
        warm = analyze(family.source, config=cfg, cross_run=warm_cache)
        assert warm.cross_run_seeded > 0
        assert warm.cross_run_hits > 0
        assert _digest_of(warm) == _digest_of(base)

    def test_corrupt_donor_journal_is_cold_start(self, family):
        cfg = family.analyzer_config()
        cache = CrossRunCache(donor_bytes=b"not a pickle", harvest=False)
        result = analyze(family.source, config=cfg, cross_run=cache)
        assert result.cross_run_hits == 0
        assert _digest_of(result) == _digest_of(analyze(family.source,
                                                        config=cfg))

    def test_degraded_run_never_harvested(self, family):
        # A run that trips its wall budget degrades mid-flight; its
        # journal mixes transfer semantics and must not be persisted.
        cfg = family.analyzer_config(wall_deadline_s=1e-9)
        cache = CrossRunCache()
        result = analyze(family.source, config=cfg, cross_run=cache)
        assert result.degraded
        assert cache.harvest_bytes(result) is None

    def test_full_precision_entry_never_serves_degraded_request(self,
                                                                family):
        # The degraded request's effective config fingerprints
        # differently, so its request key differs from full precision.
        cfg_full = family.analyzer_config()
        cfg_deg = family.analyzer_config(enable_octagons=False)
        d = source_digest([("fam.c", family.source)])
        assert request_key(d, "main", cfg_full) != \
            request_key(d, "main", cfg_deg)


# ---------------------------------------------------------------------------
# Frontend cache
# ---------------------------------------------------------------------------


class TestFrontendCache:
    def test_lru_and_stats(self):
        fc = FrontendCache(max_entries=2)
        fc.put("d1", "main", "prog1")
        fc.put("d2", "main", "prog2")
        assert fc.get("d1", "main") == "prog1"
        fc.put("d3", "main", "prog3")  # evicts d2 (d1 was touched)
        assert fc.get("d2", "main") is None
        assert fc.get("d1", "main") == "prog1"
        stats = fc.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1


# ---------------------------------------------------------------------------
# Daemon end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon thread with a disk cache; yields a factory for
    connected clients."""
    from repro.serve.client import ServeClient

    sock = str(tmp_path / "serve.sock")
    cache = str(tmp_path / "cache")
    server = AnalysisServer(ServeConfig(socket_path=sock, cache_dir=cache,
                                        job_deadline_s=None))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_ready(sock, timeout_s=10.0, alive=thread.is_alive)

    made = []

    def connect():
        c = ServeClient(sock, timeout=120.0)
        made.append(c)
        return c

    yield {"connect": connect, "socket": sock, "cache": cache,
           "server": server, "thread": thread}
    for c in made:
        c.close()
    server.stop()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestDaemon:
    def _overrides(self, family):
        return {"input_ranges": {k: list(v)
                                 for k, v in family.input_ranges.items()},
                "max_clock": family.max_clock}

    def test_cold_warm_edit_sequence(self, daemon, family):
        c = daemon["connect"]()
        ov = self._overrides(family)
        srcs = [("fam.c", family.source)]
        cold = c.submit(srcs, config=ov)
        assert cold["ok"] and not cold["cached"]
        hit = c.submit(srcs, config=ov)
        assert hit["cached"] and hit["digest"] == cold["digest"]
        assert hit["result"] == cold["result"]

        variant = make_variant(family.source, 3)
        warm = c.submit([("fam.c", variant)], config=ov)
        ref = c.submit([("fam.c", variant)], config=ov, bypass_cache=True)
        assert not warm["cached"]
        assert warm["digest"] == ref["digest"]
        assert warm["result"]["cross_run_hits"] > 0

        stats = c.stats()["stats"]
        assert stats["result_cache"]["hits"] == 1
        assert stats["journal_store"]["harvests"] >= 1
        assert stats["queue"]["completed"] == 4

    def test_restart_reloads_disk_caches(self, daemon, family):
        c = daemon["connect"]()
        ov = self._overrides(family)
        srcs = [("fam.c", family.source)]
        cold = c.submit(srcs, config=ov)
        daemon["server"].stop()
        daemon["thread"].join(timeout=10)

        server2 = AnalysisServer(ServeConfig(socket_path=daemon["socket"],
                                             cache_dir=daemon["cache"],
                                             job_deadline_s=None))
        t2 = threading.Thread(target=server2.serve_forever, daemon=True)
        t2.start()
        wait_until_ready(daemon["socket"], timeout_s=10.0, alive=t2.is_alive)
        try:
            c2 = daemon["connect"]()
            # Exact result survives the restart on disk.
            hit = c2.submit(srcs, config=ov)
            assert hit["cached"] and hit["digest"] == cold["digest"]
            # The fixpoint journal survives too: a variant run is warm.
            variant = make_variant(family.source, 11)
            warm = c2.submit([("fam.c", variant)], config=ov)
            ref = c2.submit([("fam.c", variant)], config=ov,
                            bypass_cache=True)
            assert warm["result"]["cross_run_hits"] > 0
            assert warm["digest"] == ref["digest"]
        finally:
            server2.stop()
            t2.join(timeout=10)

    def test_degraded_result_served_but_not_cached(self, daemon, family):
        c = daemon["connect"]()
        ov = dict(self._overrides(family), wall_deadline_s=1e-9)
        srcs = [("fam.c", family.source)]
        first = c.submit(srcs, config=ov)
        assert first["ok"] and first["result"]["degraded"]
        again = c.submit(srcs, config=ov)
        assert not again["cached"]  # degraded verdicts are recomputed

    def test_submit_validation_errors(self, daemon):
        c = daemon["connect"]()
        bad = c.request({"op": "submit"})
        assert not bad["ok"]
        bad2 = c.submit([("a.c", "void main(){}")],
                        config={"checkpoint_path": "/tmp/x"})
        assert not bad2["ok"] and "not settable" in bad2["error"]
        # The removed parallel engine's knob is refused, not ignored.
        removed = c.submit([("a.c", "void main(){}")], config={"jobs": 2})
        assert not removed["ok"] and "not settable" in removed["error"]
        unknown = c.request({"op": "frobnicate"})
        assert not unknown["ok"]

    def test_async_submit_status_result(self, daemon, family):
        c = daemon["connect"]()
        ov = self._overrides(family)
        ticket = c.submit([("fam.c", family.source)], config=ov, wait=False)
        assert ticket["ok"] and "job_id" in ticket
        reply = c.request({"op": "result", "job_id": ticket["job_id"]})
        assert reply["ok"]
        status = c.request({"op": "status", "job_id": ticket["job_id"]})
        assert status["state"] == "done"
