"""The analysis worker: job execution out of the daemon's process.

``python -m repro.serve.worker`` is the supervised subprocess the
daemon dispatches jobs to (see repro.serve.supervise).  It owns the
*warm* per-process analysis state — value intern pool, octagon closure
memo, frontend cache, the journal store the cross-run cache replays —
so a worker that dies takes one job's warmth with it, never the daemon,
its exact-result store, or its accepted queue.  The channel is the
length-prefixed JSON frames of repro.ipc.frames on stdin/stdout,
claimed by :func:`repro.ipc.process.claim_frame_channel` before any
analysis code runs, so a stray ``print`` in analysis code can never
corrupt the framing.

Frame ops: ``run`` (a job; replies with the result envelope — analysis
*errors* are caught and returned as ``ok: false`` envelopes, only a
process death is a crash) and ``ping`` (the supervisor's spawn check).
Both replies carry ``worker_stats``, the warm caches' counters, so the
daemon's ``stats`` never has to ask a busy worker.  EOF on stdin is the
cue to exit.

:class:`JobExecutor` is the actual pipeline (frontend cache ->
cross-run fixpoint cache -> analysis -> journal harvest); the
exact-result layer stays in the daemon.

Chaos fault-injection hooks (tests/CI only), all deterministic:

* ``REPRO_FAULT_SERVE_WORKER_CRASH=<marker>`` — the first ``run`` to
  claim the marker file (by unlinking it) SIGKILLs the worker mid-job;
* ``REPRO_FAULT_SERVE_POISON_SUBSTR=<text>`` — every ``run`` whose
  sources contain the text SIGKILLs the worker (a reliably
  worker-killing job, which the daemon must quarantine);
* ``REPRO_FAULT_SERVE_TRUNCATE_FRAME=<marker>`` — the first ``run`` to
  claim the marker writes only half of its response frame and exits
  (a half-written protocol frame, which the daemon must classify as a
  worker death, not mis-parse).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import Dict, List, Optional, Tuple

from ..config import AnalyzerConfig
from ..frontend import source_digest
from ..ipc.frames import ProtocolError, encode_frame, send_frame
from ..ipc.process import claim_frame_channel
from .cache import CrossRunCache, FrontendCache
from .fingerprints import result_digest
from .jobs import effective_config
from .store import JournalStore

__all__ = ["JobExecutor", "main"]


class JobExecutor:
    """One worker's warm job pipeline: frontend cache, journal store,
    cross-run fixpoint cache, per-job supervisor budgets.  The
    exact-result store is *not* consulted here — the parent daemon
    answers exact hits without involving a worker at all."""

    def __init__(self, cache_dir: Optional[str] = None,
                 certify_mode: str = "off"):
        self.journals = JournalStore(cache_dir)
        self.frontend = FrontendCache()
        # Journal-warmed result validation (repro.certify): "off",
        # "sampled" (deterministic 1-in-8 by source digest), or "all".
        assert certify_mode in ("off", "sampled", "all")
        self.certify_mode = certify_mode

    def run(self, msg: Dict) -> Dict:
        """Execute one ``run`` frame; always returns an envelope.
        Analysis failures are ``ok: false`` envelopes — raising is
        reserved for protocol-level bugs."""
        job_id = str(msg.get("job_id", "?"))
        try:
            return self._run(job_id, msg)
        except Exception as e:  # analysis failure -> failed-job envelope
            return {"ok": False, "job_id": job_id,
                    "error": f"{type(e).__name__}: {e}",
                    "worker_stats": self.stats()}

    def _run(self, job_id: str, msg: Dict) -> Dict:
        from ..analysis import analyze_program
        from ..frontend import compile_source, link_sources

        t0 = time.perf_counter()
        sources: List[Tuple[str, str]] = [
            (str(n), str(t)) for n, t in msg["sources"]]
        entry = str(msg.get("entry", "main"))
        bypass = bool(msg.get("bypass_cache", False))
        defaults = msg.get("defaults") or {}
        cfg = effective_config(AnalyzerConfig(),
                               msg.get("config_overrides") or {},
                               defaults.get("deadline_s"),
                               defaults.get("rss_kib"))
        src_digest = source_digest(sources)

        prog = self.frontend.get(src_digest, entry)
        parse_s = 0.0
        if prog is None:
            p0 = time.perf_counter()
            if len(sources) == 1:
                name, text = sources[0]
                prog = compile_source(text, name, entry=entry)
            else:
                prog = link_sources(list(sources), entry=entry)
            parse_s = time.perf_counter() - p0
            self.frontend.put(src_digest, entry, prog)

        if self.certify_mode != "off":
            # Record invariant certificates during the run so a
            # journal-warmed result can be validated before it is
            # cached or returned (certify is a non-semantic field:
            # request keys and journal compatibility are unchanged).
            cfg = cfg.with_overrides(certify=True)
        cross_run = (None if bypass
                     else CrossRunCache(journal_store=self.journals))
        result = analyze_program(prog, cfg, parse_seconds=parse_s,
                                 cross_run=cross_run)

        certified = False
        rejected = False
        if self._should_certify(result, src_digest):
            from ..certify import certify_result
            from ..errors import CertificateError

            try:
                certify_result(result, sources)
                certified = True
            except CertificateError as e:
                # A journal-warmed fixpoint failed independent
                # validation: never cache or return it.  Discard the
                # warm result and re-run cold (no journal replay),
                # then certify the cold run too — a second failure is
                # a real analysis bug and fails the job.
                rejected = True
                print(f"serve-worker: journal-warmed result for "
                      f"{src_digest[:12]} failed certification "
                      f"({e}); re-running cold", file=sys.stderr,
                      flush=True)
                # Donorless cache: the cold run still harvests, so its
                # journal *replaces* the tainted one in the store.
                cross_run = CrossRunCache(journal_store=self.journals,
                                          donor_bytes=b"")
                result = analyze_program(prog, cfg,
                                         parse_seconds=parse_s,
                                         cross_run=cross_run)
                certify_result(result, sources)
                certified = True

        record = result.to_json()
        harvested = (cross_run is not None
                     and cross_run.store_harvest(result))
        return {
            "ok": True, "job_id": job_id, "cached": False,
            "digest": result_digest(record), "result": record,
            "wall_s": time.perf_counter() - t0,
            "degraded": bool(result.degraded), "harvested": harvested,
            "certified": certified, "certify_rejected": rejected,
            "worker_stats": self.stats(),
        }

    def _should_certify(self, result, src_digest: str) -> bool:
        """Validate journal-warmed, non-degraded results: every one
        under "all", a deterministic 1-in-8 sample (by source digest)
        under "sampled"."""
        if self.certify_mode == "off":
            return False
        if result.degraded or result.cross_run_hits <= 0:
            return False
        if self.certify_mode == "all":
            return True
        return int(src_digest[:4], 16) % 8 == 0

    def stats(self) -> Dict:
        """The warm caches' counters (``worker_stats`` on every reply)."""
        from ..domains.octagon import closure_memo_stats

        ch, csize, cev = closure_memo_stats()
        return {
            "frontend_cache": self.frontend.stats(),
            "journal_store": self.journals.stats(),
            "closure_memo": {"hits": ch, "entries": csize,
                             "evictions": cev},
        }


# -- chaos fault-injection hooks (worker subprocess only) ---------------------


def _claim_marker(env_name: str) -> bool:
    """One-shot trigger: true iff the env var names a file this call
    unlinked (claim-by-unlink, so concurrent workers fire it once)."""
    marker = os.environ.get(env_name)
    if not marker:
        return False
    try:
        os.unlink(marker)
    except OSError:
        return False
    return True


def _chaos_before_run(msg: Dict) -> None:
    if _claim_marker("REPRO_FAULT_SERVE_WORKER_CRASH"):
        print("ChaosWorkerKillError: injected worker kill (mid-job)",
              file=sys.stderr, flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    substr = os.environ.get("REPRO_FAULT_SERVE_POISON_SUBSTR")
    if substr and any(substr in text
                      for _, text in msg.get("sources", [])):
        print("ChaosPoisonError: injected poison crash",
              file=sys.stderr, flush=True)
        os.kill(os.getpid(), signal.SIGKILL)


def _chaos_send(out, reply: Dict) -> None:
    if _claim_marker("REPRO_FAULT_SERVE_TRUNCATE_FRAME"):
        frame = encode_frame(reply)
        out.write(frame[:max(1, len(frame) // 2)])
        out.flush()
        print("ChaosTruncatedFrameError: injected half-written frame",
              file=sys.stderr, flush=True)
        os._exit(1)
    send_frame(out, reply)


# -- worker entry point -------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.worker")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--certify", choices=("off", "sampled", "all"),
                        default="off",
                        help="validate journal-warmed results by "
                             "invariant certification before returning")
    args = parser.parse_args(argv)

    reader, out = claim_frame_channel()
    executor = JobExecutor(args.cache_dir, certify_mode=args.certify)
    while True:
        try:
            msg = reader.recv_frame()
        except ProtocolError as e:
            print(f"serve-worker: bad frame from daemon: {e}",
                  file=sys.stderr, flush=True)
            return 1
        if msg is None:
            return 0  # daemon closed our stdin: clean shutdown
        op = msg.get("op")
        if op == "ping":
            send_frame(out, {"ok": True, "worker_stats": executor.stats()})
        elif op == "run":
            _chaos_before_run(msg)
            _chaos_send(out, executor.run(msg))
        else:
            send_frame(out, {"ok": False,
                             "error": f"unknown worker op: {op!r}"})


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
