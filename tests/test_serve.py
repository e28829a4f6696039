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
import operator
import os
import pickle
import socket
import struct
import threading
import time

import pytest

from repro.analysis import analyze
from repro.config import AnalyzerConfig, config_fingerprint
from repro.frontend import source_digest
from repro.ipc.frames import FdFrameReader, ProtocolError, encode_frame
from repro.iterator.state import compat_fingerprint
from repro.serve.cache import CrossRunCache, FrontendCache
from repro.serve.client import wait_until_ready
from repro.serve.fingerprints import request_key, result_digest
from repro.serve.jobs import Job, JobQueue, QueueFull
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
    return result_digest(result.to_json())


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
            dataclasses.replace(cfg, stmt_timeout_s=0.5))
        assert fp == config_fingerprint(
            dataclasses.replace(cfg, wall_deadline_s=1.0))

    def test_journal_keys_cover_layout_and_semantic_config(self):
        # A journal is only replayed into a run whose compat fingerprint
        # matches, so it must move with anything that renumbers cells or
        # changes the abstract semantics.
        from repro.domains.thresholds import ThresholdSet
        from repro.frontend import compile_source
        from repro.iterator.state import AnalysisContext

        src = ("volatile int in1;\n"
               "int main(void) {\n"
               "  int y; int z;\n"
               "  y = 0; z = 0;\n"
               "  while (1) {\n"
               "    y = y + 1; if (y > 100) { y = 0; }\n"
               "    z = y + in1;\n"
               "    __ASTREE_wait_for_clock();\n"
               "  }\n"
               "  return 0;\n"
               "}\n")

        def compat(n):
            # A local array resized shifts the cell id of every variable
            # declared after it.
            prog = compile_source(src.replace(
                "int y; int z;", f"int buf[{n}]; int y; int z;"), "loop.c")
            return compat_fingerprint(
                AnalysisContext.for_program(prog, AnalyzerConfig()))

        assert compat(4) == compat(4)
        assert compat(4) != compat(8)
        cfg = AnalyzerConfig()
        fp = config_fingerprint(cfg)
        # Threshold *values* count, not just how many there are.
        ts = cfg.thresholds.values
        shifted = ThresholdSet([v * 2 for v in ts])
        assert len(shifted.values) == len(ts)
        for changed in (dataclasses.replace(cfg, thresholds=shifted),
                        dataclasses.replace(cfg, partition_functions={"main"}),
                        dataclasses.replace(cfg, narrowing_steps=7)):
            assert config_fingerprint(changed) != fp

    def test_config_fingerprint_pinned(self, monkeypatch):
        # Deleting a non-semantic config field must not move any serve
        # request key, journal key or certificate fingerprint; only the
        # SEMANTICS_VERSION salt may.
        import repro.config
        from repro.config import baseline_config

        assert config_fingerprint(AnalyzerConfig()) == (
            "6522c480ac4dcb2261d3d2e35d14b552f57befc34067c10bc267c055021bc905")
        assert config_fingerprint(baseline_config()) == (
            "d418226f397ceec22b704d4084697c9758eda481b70172c3fc5accd8b964f3c6")
        # Under the previous salt, the values that predate the per-unit
        # block ids of linked programs.
        monkeypatch.setattr(repro.config, "SEMANTICS_VERSION", 3)
        assert config_fingerprint(AnalyzerConfig()) == (
            "389f11db919510de6e3f8beed4226d6697d6d97ab86c92f763331a66f0db387a")
        assert config_fingerprint(baseline_config()) == (
            "7b4c9c681feaea83d6e3033026088979029503b31afbf28fa843a21fc7851cf9")

    def test_field_name_sets_name_config_fields(self):
        # A mode deletion must not leave a stale name behind in any of
        # the sets that list AnalyzerConfig fields by name.
        from repro.config import _NON_SEMANTIC_FIELDS
        from repro.fuzz.worker import _ANALYZER_OVERRIDES
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
        from repro.frontend import compile_source
        from repro.iterator.state import AnalysisContext

        cfg = family.analyzer_config()
        fps = []
        for _ in range(2):
            prog = compile_source(family.source, "fam.c", entry="main")
            fps.append(compat_fingerprint(
                AnalysisContext.for_program(prog, cfg)))
        assert fps[0] == fps[1]

    def test_result_digest_ignores_timing_counters(self, family):
        cfg = family.analyzer_config()
        r = analyze(family.source, config=cfg)
        p1, p2 = r.to_json(), r.to_json()
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
        # Cache entries are private to the daemon's account.
        path = os.path.join(str(tmp_path), "results", f"{key}.json")
        assert os.stat(path).st_mode & 0o777 == 0o600

    def test_entry_under_other_semantics_is_a_miss(self, tmp_path,
                                                   monkeypatch):
        """Keys are salted with SEMANTICS_VERSION: a result written by a
        build with other semantics is never served."""
        import repro.config

        cfg = AnalyzerConfig()
        d = source_digest([("a.c", "int main(void){return 0;}")])
        new_key = request_key(d, "main", cfg)
        monkeypatch.setattr(repro.config, "SEMANTICS_VERSION",
                            repro.config.SEMANTICS_VERSION - 1)
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
    # The daemon's socket carries the worker pipe's frames, read by the
    # one frame reader.
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"op": "ping", "n": 1})
                      + encode_frame({"op": "stats"}))
            reader = FdFrameReader(b.fileno())
            assert reader.recv_frame() == {"op": "ping", "n": 1}
            assert reader.recv_frame() == {"op": "stats"}
            a.close()
            assert reader.recv_frame() is None  # clean EOF
        finally:
            b.close()

    def test_bad_json_raises(self):
        a, b = socket.socketpair()
        try:
            reader = FdFrameReader(b.fileno())
            for body, error in ((b"{nope}", "bad JSON"),
                                (b"[1, 2]", "not a JSON object")):
                a.sendall(struct.pack(">I", len(body)) + body)
                with pytest.raises(ProtocolError, match=error):
                    reader.recv_frame()
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


def _same_record(a, b):
    """True iff two journal entries (repro.iterator.incremental.slim_pair)
    are equal on every component, compared the way the agreement check
    compares them: ``==`` for the clock, cells and filter sites,
    ``raw_equal`` for octagons, ``equal`` for decision trees."""
    def same(xs, ys, eq):
        return all(x is y or (x is not None and y is not None and eq(x, y))
                   for x, y in zip(xs, ys))

    return (a[0] == b[0]
            and all(same(a[i], b[i], operator.eq) for i in (1, 4, 5, 8))
            and all(same(a[i], b[i], lambda x, y: x.raw_equal(y))
                    for i in (2, 6))
            and all(same(a[i], b[i], lambda x, y: x.equal(y))
                    for i in (3, 7)))


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

    def test_journal_never_repeats_an_entry(self, family):
        # One entry per execution or donor splice: splicing a statement
        # from its own record journals nothing, so no key may list the
        # same record twice in a row.
        cfg = family.analyzer_config()
        harvest = CrossRunCache()
        base = analyze(family.source, config=cfg, cross_run=harvest)
        journal = pickle.loads(harvest.harvest_bytes(base))
        entries = sum(len(recs) for recs in journal.values())
        repeats = sum(_same_record(a, b) for recs in journal.values()
                      for a, b in zip(recs, recs[1:]))
        assert entries > 0
        assert repeats == 0, f"{repeats} of {entries} entries repeat"

    def test_corrupt_donor_journal_is_cold_start(self, family):
        cfg = family.analyzer_config()
        cache = CrossRunCache(donor_bytes=b"not a pickle", harvest=False)
        result = analyze(family.source, config=cfg, cross_run=cache)
        assert result.cross_run_hits == 0
        assert _digest_of(result) == _digest_of(analyze(family.source,
                                                        config=cfg))

    def test_journal_under_the_bare_compat_key_is_never_read(
            self, family, tmp_path):
        # Journals keyed by the unsalted compat fingerprint were written
        # with an older record layout: the store key is salted, so such a
        # journal is never unpickled and the run starts its journal cold.
        cfg = family.analyzer_config()
        store = JournalStore(str(tmp_path))
        harvest = CrossRunCache(journal_store=store)
        base = analyze(family.source, config=cfg, cross_run=harvest)
        assert harvest.store_harvest(base)
        assert harvest.journal_key != compat_fingerprint(harvest.ctx)
        stale = JournalStore(str(tmp_path / "stale"))
        stale.put(compat_fingerprint(harvest.ctx),
                  store.get(harvest.journal_key))
        cold = CrossRunCache(journal_store=stale, harvest=False)
        assert analyze(family.source, config=cfg,
                       cross_run=cold).cross_run_hits == 0
        warm = CrossRunCache(journal_store=store, harvest=False)
        assert analyze(family.source, config=cfg,
                       cross_run=warm).cross_run_hits > 0

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

    def test_client_prints_what_analyze_prints(self, daemon, family,
                                                tmp_path, capsys):
        import re

        from repro.cli import main

        path = tmp_path / "fam.c"
        path.write_text(family.source)
        args = [str(path), "--max-clock", str(family.max_clock)]
        for name, (lo, hi) in family.input_ranges.items():
            args += ["--input-range", f"{name}={lo}:{hi}"]

        def run(*argv):
            code = main(list(argv))
            return code, capsys.readouterr().out

        sock = ["--socket", daemon["socket"]]
        code, local = run("analyze", *args, "--json")
        code_c, served = run("client", *args, *sock, "--json")
        served = json.loads(served)
        assert code_c == code and not served["cached"]
        envelope = {"cached", "digest", "server_wall_s", "queue_depth"}
        assert set(served) - envelope == set(json.loads(local))

        def masked(text):  # timings and peak RSS differ run to run
            return re.sub(r"\s*\d+\.\d+( MiB|s)", " N", text)

        _, local_text = run("analyze", *args, "--stats")
        _, client_text = run("client", *args, *sock, "--stats")
        lines = client_text.splitlines()
        assert lines[-2].startswith("-- cached in ")
        assert lines[-1] == "   queue depth at submit: 0"
        assert masked("\n".join(lines[:-2]) + "\n") == masked(local_text)

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
                        config={"certify": True})
        assert not bad2["ok"] and "not settable" in bad2["error"]
        # Removed engine knobs are refused, not ignored: the parallel
        # engine's, full re-execution's, and tracing (the reply carries
        # no visit counts, so it would only select the slow engine).
        for knob in ({"jobs": 2}, {"incremental": False}, {"trace": True}):
            removed = c.submit([("a.c", "void main(){}")], config=knob)
            assert not removed["ok"] and "not settable" in removed["error"]
        unknown = c.request({"op": "frobnicate"})
        assert not unknown["ok"]

    def test_status_and_result_ops_are_unknown(self, daemon):
        # Every submit waits for its result envelope, so there is no
        # job left to look up, and a ``wait`` field changes nothing.
        c = daemon["connect"]()
        reply = c.request({"op": "submit", "wait": False,
                           "sources": [["a.c", "void main(){}"]]})
        assert reply["ok"] and reply["digest"] and "result" in reply
        for op in ("status", "result"):
            assert c.request({"op": op, "job_id": reply["job_id"]}) == {
                "ok": False, "error": f"unknown op: {op!r}"}
